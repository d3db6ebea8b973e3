"""Output checks that do not trust the program under test.

Each check returns ``(name, problem)`` where ``problem`` is None on success.
Counts come from the generated inputs, never from mateval: strict and
semantic (against the similarity stub) true positives are multiset
intersections, relation true positives are intersections of normalized
slot tuples, and on sampled documents the report's true positives must
equal a maximum assignment found by ``scipy.optimize.linear_sum_assignment``
when scipy can be imported.
"""

import csv
import io
import json
import math
import random
import re
import statistics
from collections import Counter
from difflib import SequenceMatcher

from gen import planted

_WS_RE = re.compile(r"\s+")
SLOTS = ("material", "tc", "pressure")
THRESHOLD = 0.9  # the CLI's default matcher threshold

try:
    import numpy
    from scipy.optimize import linear_sum_assignment
except ImportError:  # the assignment check is skipped without scipy
    linear_sum_assignment = None


def norm(text: str) -> str:
    return _WS_RE.sub(" ", text.strip())


def squeeze(text: str) -> str:
    """Key under which the similarity stub scores two strings as a match."""
    return _WS_RE.sub("", text).casefold()


def soft_pair(a: str, b: str) -> bool:
    return SequenceMatcher(None, norm(a), norm(b), autojunk=False).ratio() >= THRESHOLD


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Inputs:
    """Gold and predicted items of a generated workload, read without mateval."""

    def __init__(self, corpus_path):
        self.docs = read_jsonl(corpus_path)
        self.gold = {d["id"]: [e["text"] for e in d["entities"] if e["class"] == "material"]
                     for d in self.docs}
        self.supplied = {
            d["id"]: {s: [e["text"] for e in d["entities"] if e["class"] == s] for s in SLOTS}
            for d in self.docs
        }
        self.relations = {d["id"]: d["relations"] for d in self.docs}

    def kept_blocks(self, doc_id: str, blocks: list[dict]) -> list[dict]:
        """Relation blocks that survive the documented drop rule."""
        kept = []
        for block in blocks:
            slots = {s: block.get(s) for s in SLOTS}
            slots = {s: v if v is not None and str(v).strip() else None for s, v in slots.items()}
            if slots["material"] is None or slots["tc"] is None:
                continue
            pools = self.supplied[doc_id]
            if all(v is None or norm(v) in {norm(c) for c in pools[s]} for s, v in slots.items()):
                kept.append(slots)
        return kept


def relation_key(block: dict) -> tuple:
    return tuple(norm(block[s]) if block.get(s) is not None else None for s in SLOTS)


def intersection(a, b) -> int:
    return sum((Counter(a) & Counter(b)).values())


def max_assignment(matrix: list[list[bool]]) -> int:
    if not matrix or not matrix[0]:
        return 0
    weights = numpy.array(matrix, dtype=float)
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return int(weights[rows, cols].sum())


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_scores(name: str, block: dict) -> list:
    """P/R/F1 recomputed from per-document counts, and the run aggregate."""
    problem = None
    f1s, supports = [], []
    for run in block["runs"]:
        tp = sum(d["tp"] for d in run["per_document"])
        fp = sum(d["fp"] for d in run["per_document"])
        fn = sum(d["fn"] for d in run["per_document"])
        p, r, f1 = _prf(tp, fp, fn)
        s = run["scores"]
        if not (_close(p, s["precision"]) and _close(r, s["recall"])
                and _close(f1, s["f1"]) and s["support"] == tp + fp):
            problem = problem or f"{run['run']}: scores disagree with per-document counts"
        f1s.append(f1)
        supports.append(tp + fp)
    agg = block["aggregate"]
    std = statistics.stdev(f1s) if len(f1s) > 1 else 0.0
    if not (_close(agg["mean_f1"], statistics.fmean(f1s)) and _close(agg["std_f1"], std)
            and _close(agg["avg_support"], statistics.fmean(supports))):
        problem = problem or "aggregate disagrees with run scores"
    return [(f"{name}: P/R/F1 recomputed", problem)]


def check_pairs(name: str, block: dict, expected_items, predicted_items, key=None,
                pair=None, sample=0, seed=0) -> list:
    """Counts against input sizes, tp against an oracle, and the aggregate.

    ``expected_items(run, doc)`` and ``predicted_items(run, doc)`` give the
    compared lists. With ``key`` the matcher is an equivalence, so tp is a
    multiset intersection on every document; with ``pair`` tp is checked
    against a maximum assignment on ``sample`` random documents per run plus
    every planted one, where a greedy assignment would undercount.
    """
    results = []
    sizes = oracle = None
    rng = random.Random(seed)
    for run in block["runs"]:
        docs = run["per_document"]
        picked = set(rng.sample(range(len(docs)), min(sample, len(docs))))
        picked |= {i for i, d in enumerate(docs) if planted(d["doc_id"])}
        for i, d in enumerate(docs):
            gold = expected_items(run["run"], d["doc_id"])
            pred = predicted_items(run["run"], d["doc_id"])
            where = f"{run['run']}/{d['doc_id']}"
            if d["fp"] != len(pred) - d["tp"] or d["fn"] != len(gold) - d["tp"]:
                sizes = sizes or f"{where}: tp/fp/fn do not add up to the input sizes"
            if key is not None:
                want = intersection(map(key, gold), map(key, pred))
            elif i in picked and linear_sum_assignment is not None:
                want = max_assignment([[pair(g, p) for p in pred] for g in gold])
            else:
                continue
            if d["tp"] != want:
                oracle = oracle or f"{where}: tp {d['tp']} but the oracle finds {want}"
    results.append((f"{name}: counts add up to input sizes", sizes))
    if key is not None or (sample and linear_sum_assignment is not None):
        results.append((f"{name}: tp equals the oracle", oracle))
    return results + check_scores(name, block)


def check_ner_report(report: dict, inputs: Inputs, predictions: list[dict], tiers: dict,
                     seed: int) -> list:
    """Check an eval-ner report; ``tiers`` maps matcher name -> (key, pair)."""
    preds = {(p["run"], p["doc_id"]): p["entities"].get("material", []) for p in predictions}
    scored = sorted(report["matchers"]) == sorted(tiers) and not report["skipped"]
    results = [("eval-ner: every matcher scored",
                None if scored else "matchers missing or skipped")]
    for tier, (key, pair) in tiers.items():
        if tier not in report["matchers"]:
            continue
        results += check_pairs(
            f"eval-ner {tier}", report["matchers"][tier],
            lambda run, doc: inputs.gold[doc], lambda run, doc: preds.get((run, doc), []),
            key=key, pair=pair, sample=6, seed=seed)
    if "strict" in report["matchers"]:
        strict = _tp_by_doc(report["matchers"]["strict"])
        for tier in report["matchers"]:
            below = [k for k, tp in _tp_by_doc(report["matchers"][tier]).items()
                     if tp < strict[k]]
            results.append((f"eval-ner {tier}: tp at least strict tp",
                             f"{below[0]}: below strict" if below else None))
    return results


def _tp_by_doc(block: dict) -> dict:
    return {(r["run"], d["doc_id"]): d["tp"] for r in block["runs"] for d in r["per_document"]}


def check_re_report(report: dict, code: int, inputs: Inputs, predictions: list[dict]) -> list:
    kept = {(p["run"], p["doc_id"]): inputs.kept_blocks(p["doc_id"], p.get("relations", []))
            for p in predictions}
    dropped = sum(len(p.get("relations", [])) for p in predictions) - sum(map(len, kept.values()))
    results = check_pairs(
        "eval-re strict", report["matchers"]["strict"],
        lambda run, doc: inputs.relations[doc], lambda run, doc: kept.get((run, doc), []),
        key=relation_key)
    warned = bool(report["warnings"])
    results.append(("eval-re: drop warnings and exit code agree with dropped blocks",
                    None if (warned == (dropped > 0) and code == (1 if warned else 0))
                    else f"{dropped} dropped, warnings {warned}, exit {code}"))
    return results


def check_finetune(summary: dict, train_lines: int, test_lines: int, inputs: Inputs) -> list:
    n = sum(1 for d in inputs.docs if any(inputs.supplied[d["id"]].values()))
    total = train_lines + test_lines
    return [
        ("prepare-finetune: records within [N, 2N]",
         None if n <= total <= 2 * n else f"{total} records for {n} documents"),
        ("prepare-finetune: summary matches files",
         None if (summary["train_records"], summary["test_records"]) == (train_lines, test_lines)
         else "record counts in the summary differ from the files"),
    ]


def check_csv(rendered: str, report: dict) -> list:
    rows = list(csv.reader(io.StringIO(rendered)))
    want = [[r["run"], name, r["scores"]["f1"]]
            for name, block in report["matchers"].items() for r in block["runs"]]
    got = [[row[0], row[1], float(row[4])] for row in rows[1:1 + len(want)]]
    return [("report csv: one row per run with the report's F1",
             None if got == want else "csv rows differ from the report")]


def check_markdown(rendered: str, report: dict) -> list:
    runs = {r["run"] for block in report["matchers"].values() for r in block["runs"]}
    missing = [run for run in runs if f"| {run} |" not in rendered]
    return [("report markdown: a row per run",
             f"no row for {missing[0]}" if missing else None)]
