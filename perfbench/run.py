"""mateval benchmark: seeded workloads timed end to end through the CLI.

    python3 perfbench/run.py --workload ner-tiers --seed 1 --seconds 30 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file). Each workload is a closed loop with one client: the next CLI command
starts only after the previous one exits. Commands run as
``PYTHONPATH=src python -m mateval.cli ...`` child processes, launched by the
small ``spawner.py`` process so that their peak RSS is their own, on inputs
that ``gen.py`` writes from the seed into a scratch directory, which is
removed at the end.

``--trace 0`` repeats the workload's command sequence for ``--seconds`` and
reports the end-to-end metrics (medians over repetitions). ``--trace 1``
reports the per-layer metrics instead: import times, each module's public
functions called in-process on the workload's inputs (``layers.py``), the
stub counters of the plain command sequence, each layer's self time in the
same sequence run under ``traced_cli.py``, and the tracing overhead, i.e.
the traced sequence minus the plain one.

Every output is checked (``checks.py``) and must be byte-identical across
repetitions; each command and each check is one attempted operation. Human
readable lines, including ``error_rate``, ``calls_per_s``, ``probe_s`` and a
SHA-256 of every output, go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from spans import TARGETS  # noqa: E402

SETUP_PER_REPETITION = 1
STEP_TIMEOUT_S = 150
CREDENTIAL_ENV = "MATEVAL_BENCH_KEY"


@dataclass
class Step:
    name: str
    argv: list[str]
    outputs: tuple[str, ...] = ()  # files the command writes, hashed with stdout
    codes: tuple[int, ...] = (0,)  # exit codes that count as success


@dataclass
class StepResult:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    hashes: dict[str, str]


@dataclass
class Plan:
    steps: list[Step]
    check: object  # callable(exit codes by step name) -> list of (name, problem)
    pairs: int  # gold x pred candidate pairs one sequence compares
    doc_runs: int


class Stubs:
    """The stub service process (``stubs.py``), started and stopped by us."""

    def __init__(self, work: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stubs.py"), "--replies",
             str(work / "chat_replies.json")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ports = json.loads(self.proc.stdout.readline())
        except ValueError:
            self.close()
            raise RuntimeError("stub services did not start") from None
        self.chat = f"http://127.0.0.1:{ports['chat']}"
        self.similarity = f"http://127.0.0.1:{ports['similarity']}/score"
        # the client settings both the CLI (--config) and layers.py use
        self.config = work / "endpoint.cfg"
        self.config.write_text(
            f"base_url = {self.chat}/v1\n"
            f"credential_env = {CREDENTIAL_ENV}\n"
            "model = stub-model\n"
            "timeout = 10\n"
            "max_retries = 2\n"
            "backoff_base = 0.05\n"
            f"max_concurrency = {min(2, os.cpu_count() or 1)}\n"
            f"semantic_endpoint = {self.similarity}\n", encoding="utf-8")
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.chat + path, data=data, timeout=10) as reply:
            return json.loads(reply.read())

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env[CREDENTIAL_ENV] = "stub-key"
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


class Runner:
    """Runs commands in the scratch directory through ``spawner.py``."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py"), str(STEP_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def child(self, argv: list[str], outputs=()) -> StepResult:
        """Run one command to completion; its stdout and stderr go to files."""
        out_path = self.work / "stdout.txt"
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": str(self.work), "env": self.env,
            "stdout": str(out_path), "stderr": str(self.work / "stderr.txt"),
        }) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        hashes = {"stdout": hashlib.sha256(out_path.read_bytes()).hexdigest()}
        for name in outputs:
            path = self.work / name
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
        return StepResult(reply["code"], reply["wall"], reply["cpu"], reply["rss_mb"], hashes)

    def sequence(self, plan: Plan, launcher=None) -> tuple[float, list[StepResult]]:
        """Run every step once; returns (summed wall seconds, step results)."""
        results = []
        for i, step in enumerate(plan.steps):
            argv = cli(*step.argv) if launcher is None else launcher(i) + step.argv
            results.append(self.child(argv, step.outputs))
            shutil.copyfile(self.work / "stdout.txt", self.work / f"{step.name}.stdout")
        return sum(r.wall for r in results), results

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STEP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "mateval.cli", *args]


def probe() -> float:
    """Time a fixed pure-Python loop; recorded beside repetitions, never used to rescale."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# workloads


def plan_ner_tiers(work: Path, seed: int, stubs) -> Plan:
    inputs = checks.Inputs(work / "corpus.jsonl")
    predictions = checks.read_jsonl(work / "ner_predictions.jsonl")
    steps = [Step("eval-ner", ["eval-ner", "--corpus", "corpus.jsonl", "--predictions",
                               "ner_predictions.jsonl", "--matchers", "strict,soft,formula",
                               "--seed", str(seed), "--output", "ner_report.json", "--force"],
                  outputs=("ner_report.json",))]

    def check(codes: dict) -> list:
        sys.path.insert(0, str(SRC))
        from mateval.matching import formula_match

        report = json.loads((work / "eval-ner.stdout").read_text(encoding="utf-8"))
        tiers = {
            "strict": (checks.norm, None),
            "soft": (None, checks.soft_pair),
            "formula": (None, lambda a, b: formula_match(a, b).matched),
        }
        same = (work / "ner_report.json").read_text(encoding="utf-8") == \
            (work / "eval-ner.stdout").read_text(encoding="utf-8")
        return checks.check_ner_report(report, inputs, predictions, tiers, seed) + [
            ("eval-ner: --output equals stdout", None if same else "files differ")]

    pairs = 3 * sum(len(inputs.gold[p["doc_id"]]) * len(p["entities"]["material"])
                    for p in predictions)
    return Plan(steps, check, pairs, len(predictions))


def plan_pipeline(work: Path, seed: int, stubs) -> Plan:
    inputs = checks.Inputs(work / "corpus.jsonl")
    runs = str(gen.WORKLOADS["pipeline-offline"].runs)
    common = ["--corpus", "corpus.jsonl", "--dry-run", "--fixtures", "fixtures",
              "--runs", runs, "--seed", str(seed), "--force"]
    steps = [
        Step("extract-ner", ["extract", "--task", "ner_material", *common,
                             "--output", "ner_out.jsonl"], outputs=("ner_out.jsonl",)),
        Step("extract-re", ["extract", "--task", "re", "--mode", "few", "--shuffle", "shuffled",
                            *common, "--output", "re_out.jsonl"], outputs=("re_out.jsonl",)),
        Step("eval-re", ["eval-re", "--corpus", "corpus.jsonl", "--predictions", "re_out.jsonl",
                         "--matchers", "strict", "--seed", str(seed), "--output",
                         "re_report.json", "--force"], outputs=("re_report.json",), codes=(0, 1)),
        Step("prepare-finetune", ["prepare-finetune", "--corpus", "corpus.jsonl", "--task", "re",
                                  "--strategy", "augmented", "--seed", str(seed),
                                  "--train-output", "train.jsonl", "--test-output",
                                  "test.jsonl", "--force"], outputs=("train.jsonl", "test.jsonl")),
        Step("report-md", ["report", "--input", "re_report.json", "--format", "markdown",
                           "--output", "report.md", "--force"], outputs=("report.md",)),
        Step("report-csv", ["report", "--input", "re_report.json", "--format", "csv",
                            "--output", "report.csv", "--force"], outputs=("report.csv",)),
    ]
    re_predictions = checks.read_jsonl(work / "re_predictions.jsonl")

    def check(codes: dict) -> list:
        results = []
        for step, expected in (("ner_out.jsonl", "ner_predictions.jsonl"),
                               ("re_out.jsonl", "re_predictions.jsonl")):
            same = (work / step).read_bytes() == (work / expected).read_bytes()
            results.append((f"extract: {step} equals the parsed fixtures",
                            None if same else "extracted records differ"))
        report = json.loads((work / "eval-re.stdout").read_text(encoding="utf-8"))
        results += checks.check_re_report(report, codes["eval-re"], inputs, re_predictions)
        summary = json.loads((work / "prepare-finetune.stdout").read_text(encoding="utf-8"))
        lines = [len((work / f).read_text(encoding="utf-8").splitlines())
                 for f in ("train.jsonl", "test.jsonl")]
        results += checks.check_finetune(summary, *lines, inputs)
        results += checks.check_markdown((work / "report.md").read_text(encoding="utf-8"), report)
        results += checks.check_csv((work / "report.csv").read_text(encoding="utf-8"), report)
        return results

    pairs = sum(len(inputs.relations[p["doc_id"]])
                * len(inputs.kept_blocks(p["doc_id"], p["relations"])) for p in re_predictions)
    return Plan(steps, check, pairs, len(re_predictions))


def plan_endpoint(work: Path, seed: int, stubs: Stubs) -> Plan:
    inputs = checks.Inputs(work / "corpus.jsonl")
    predictions = checks.read_jsonl(work / "ner_predictions.jsonl")
    steps = [
        Step("extract-live", ["extract", "--task", "ner_material", "--corpus", "corpus.jsonl",
                              "--config", "endpoint.cfg", "--seed", str(seed),
                              "--output", "live.jsonl", "--force"], outputs=("live.jsonl",)),
        Step("eval-semantic", ["eval-ner", "--corpus", "corpus.jsonl", "--predictions",
                               "live.jsonl", "--matchers", "semantic", "--config", "endpoint.cfg",
                               "--seed", str(seed), "--output", "sem_report.json", "--force"],
             outputs=("sem_report.json",)),
    ]

    def check(codes: dict) -> list:
        same = (work / "live.jsonl").read_bytes() == (work / "ner_predictions.jsonl").read_bytes()
        report = json.loads((work / "eval-semantic.stdout").read_text(encoding="utf-8"))
        return [("extract: live records equal the stub replies",
                 None if same else "extracted records differ")] + checks.check_ner_report(
            report, inputs, predictions, {"semantic": (checks.squeeze, None)}, seed)

    pairs = sum(len(inputs.gold[p["doc_id"]]) * len(p["entities"]["material"])
                for p in predictions)
    return Plan(steps, check, pairs, len(predictions))


PLANS = {"ner-tiers": plan_ner_tiers, "pipeline-offline": plan_pipeline,
         "endpoint-stub": plan_endpoint}


# --------------------------------------------------------------------------
# measurement


class Tally:
    """Attempted and failed operations: every command and every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {problem}")


def verify_sequence(plan: Plan, results: list[StepResult], reference, tally: Tally) -> None:
    for step, result, ref in zip(plan.steps, results, reference):
        problem = None
        if result.code not in step.codes:
            problem = f"exit code {result.code}"
        elif result.hashes != ref.hashes or result.code != ref.code:
            problem = "output differs from the first repetition"
        tally.record(step.name, problem)


def import_times(runner: Runner, runs: int = 5) -> dict:
    """Cumulative import time of mateval.cli and of requests, from -X importtime."""
    samples = {"cli.import_s": [], "cli.import_requests_s": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mateval.cli"],
                              cwd=runner.work, env=runner.env, capture_output=True, text=True,
                              timeout=60)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        samples["cli.import_s"].append(found.get("mateval.cli", 0.0))
        samples["cli.import_requests_s"].append(found.get("requests", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    summary = gen.generate(workload, seed, runner.work)
    stubs = Stubs(runner.work) if (trace or workload == "endpoint-stub") else None
    try:
        return _measure(workload, seed, seconds, trace, runner, summary, stubs)
    finally:
        if stubs:
            stubs.close()


def _measure(workload, seed, seconds, trace, runner, summary, stubs) -> dict:
    plan = PLANS[workload](runner.work, seed, stubs)
    tally = Tally()
    lines = [
        f"workload {workload} seed {seed}: {summary['docs']} docs x {summary['runs']} runs, "
        f"{summary['pairs_per_tier']} material pairs per tier, distinct strings "
        f"{summary['distinct_string_share']:.1%}, distinct pairs "
        f"{summary['distinct_pair_share']:.1%}",
    ]

    # first repetition: fills bytecode caches, is checked in full, and is
    # the reference later repetitions must reproduce byte for byte
    _, reference = runner.sequence(plan)
    codes = {s.name: r.code for s, r in zip(plan.steps, reference)}
    for step, result in zip(plan.steps, reference):
        tally.record(step.name, None if result.code in step.codes else f"exit code {result.code}")
    try:
        for name, problem in plan.check(codes):
            tally.record(name, problem)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        tally.record("output checks", f"outputs could not be read: {exc!r}")
    for step, result in zip(plan.steps, reference):
        for name, digest in result.hashes.items():
            lines.append(f"sha256 {step.name} {name} {digest}")

    if trace:
        metrics = trace_metrics(workload, seed, seconds, runner, plan, reference, stubs, tally,
                                lines)
    else:
        metrics = e2e_metrics(seconds, runner, plan, reference, stubs, tally, lines)
    lines.append(f"error_rate {tally.failed / tally.attempted:.6g} ratio "
                 f"({tally.failed} of {tally.attempted} operations failed)")
    lines += [f"problem: {p}" for p in tally.problems]
    print("\n".join(lines))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def e2e_metrics(seconds, runner, plan, reference, stubs, tally, lines) -> dict:
    setup, walls, cpus, rss, probes, calls = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        probes.append(probe())
        # set-up is sampled between repetitions, so bursts of machine noise
        # touch it no more than they touch the sequences
        setup += [runner.child(cli("--help")) for _ in range(SETUP_PER_REPETITION)]
        if stubs:
            stubs.reset()
        wall, results = runner.sequence(plan)
        verify_sequence(plan, results, reference, tally)
        walls.append(wall)
        cpus.append(sum(r.cpu for r in results))
        rss.append(max(r.rss_mb for r in results))
        if stubs:
            stats = stubs.stats()
            tally.record("stub: every request answered with 2xx",
                         "non-2xx replies" if any(s["non2xx"] for s in stats.values()) else None)
            calls.append(sum(s["requests"] for s in stats.values()) / wall)
    wall = statistics.median(walls)
    lines.append("wall_s per repetition: " + " ".join(f"{w:.4f}" for w in walls))
    lines.append("probe_s per repetition: " + " ".join(f"{p:.4f}" for p in probes))
    lines.append(f"closed loop, 1 client: {len(walls)} repetitions in {seconds:g} s; "
                 f"probe_s median {statistics.median(probes):.6f} "
                 f"(min {min(probes):.6f}, max {max(probes):.6f})")
    lines.append(f"calls_per_s {statistics.median(calls) if calls else 0.0:.6g} 1/s")
    lines.append(f"setup wall median {statistics.median(r.wall for r in setup):.6g} s over "
                 f"{len(setup)} --help runs")
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        # CPU time of a no-op start: steadier than its wall time on a host
        # that steals cycles, and it still shows work moved into start-up
        "setup_s": (statistics.median(r.cpu for r in setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "pairs_per_s": (plan.pairs / wall, "1/s"),
        "docs_per_s": (plan.doc_runs / wall, "1/s"),
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def trace_metrics(workload, seed, seconds, runner, plan, reference, stubs, tally,
                  lines) -> dict:
    import layers

    work = runner.work
    start = time.perf_counter()
    metrics = {k: (v, "s") for k, v in import_times(runner).items()}
    os.environ.update(runner.env)  # credential and proxy settings for in-process calls
    probes = [probe()]
    metrics.update(layers.measure(work, seed, stubs, gen.WORKLOADS[workload].runs))
    probes.append(probe())

    # the in-process layer calls above count toward --seconds; pairs of plain
    # and traced sequences fill the rest (at least one pair). Stub counters
    # come from the plain sequence, self times from the traced one.
    untraced, traced = [], []
    counters = defaultdict(list)
    self_s = defaultdict(list)
    while not traced or time.perf_counter() - start < seconds:
        probes.append(probe())
        stubs.reset()
        wall, results = runner.sequence(plan)
        verify_sequence(plan, results, reference, tally)
        untraced.append(wall)
        stats = stubs.stats()
        for field in ("requests", "connections", "max_inflight", "retries", "non2xx"):
            combine = max if field == "max_inflight" else sum
            counters[f"stub.{field}"].append(combine(s[field] for s in stats.values()))

        def launcher(i: int) -> list[str]:
            return [sys.executable, str(HERE / "traced_cli.py"), str(work / f"spans{i}.json")]

        wall, results = runner.sequence(plan, launcher)
        verify_sequence(plan, results, reference, tally)
        traced.append(wall)
        repetition = defaultdict(float)
        for i in range(len(plan.steps)):
            spans = json.loads((work / f"spans{i}.json").read_text(encoding="utf-8"))
            for layer, value in spans.items():
                repetition[layer] += value
        for layer in ("cli", *TARGETS):
            self_s[layer].append(repetition[layer])
    tally.record("stub: every request answered with 2xx",
                 "non-2xx replies" if any(counters["stub.non2xx"]) else None)
    for name, values in counters.items():
        metrics[name] = (statistics.median(values), "count")
    for layer in TARGETS:  # a layer the workload's commands never enter reads 0
        metrics[f"{layer}.self_s"] = (statistics.median(self_s[layer]), "s")
    reps = len(traced)
    base, with_spans = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_s"] = (with_spans - base, "s")
    metrics["trace.overhead_ratio"] = ((with_spans - base) / base, "ratio")
    metrics["probe_s"] = (statistics.median(probes), "s")
    lines.append(f"tracing overhead: traced wall {with_spans:.6g} s - untraced wall "
                 f"{base:.6g} s over {reps} pairs of repetitions")
    lines.append(f"cli.self_s {statistics.median(self_s['cli']):.6g} s (not a listed metric)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mateval" / "cli.py").is_file():
        print(f"error: mateval sources not found under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    runner = Runner(work)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), runner)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
