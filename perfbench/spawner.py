"""Runs the benchmark's measured commands and reports their resource usage.

The benchmark starts this small process (``spawner.py TIMEOUT_S``) before it
builds anything large and sends it one JSON request per line::

    {"argv": [...], "cwd": dir, "env": {...}, "stdout": path, "stderr": path}

It runs the command, waits for it and answers one JSON line with ``code``,
``wall`` (seconds), ``cpu`` (user + system seconds) and ``rss_mb`` (peak
resident set). A separate launcher is needed because the kernel counts the
resident set of the launching process into a child's peak RSS; launched from
here, that floor is this process's few megabytes. A command still running
after TIMEOUT_S seconds is killed. End of input stops the spawner.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024}), flush=True)


if __name__ == "__main__":
    main()
