"""Run one ``mateval.cli`` command with spans around mateval's public functions.

    PYTHONPATH=src python3 perfbench/traced_cli.py SUMMARY.json <cli arguments>

Behaves like ``python -m mateval.cli <cli arguments>`` (same stdout, files
and exit code) and, when the command ends, writes the self time of each
layer (seconds, from the nested spans) to SUMMARY.json. Comparing its wall
time with the plain command gives the tracing overhead.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, instrument  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    instrument(tracer)
    import mateval.cli

    try:
        with tracer.span("cli.main"):
            code = mateval.cli.main(argv)
    finally:
        Path(summary_path).write_text(json.dumps(tracer.self_times(), sort_keys=True),
                                      encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
