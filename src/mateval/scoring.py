"""Match counting and Precision/Recall/F1 scoring.

Counts come from a MAXIMUM one-to-one assignment between expected and
predicted items (augmenting-path bipartite matching), so scores are
invariant under any permutation of either list. The match matrix is built
from per-item keys when the matcher is a tier (see :mod:`mateval.matching`);
when the tier's match is key equality, the assignment size is the multiset
intersection of the keys and no matrix is built. Scores are micro-averaged
by summing counts corpus-wide before applying the P/R/F1 formulas.
"""

import math
import statistics
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from .errors import EmptyRunsError


@dataclass(frozen=True)
class MatchCounts:
    """True positive / false positive / false negative tallies."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        return MatchCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn
        )

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn}


@dataclass(frozen=True)
class Scores:
    """Precision/recall/F1 with support (number of predicted entities)."""

    precision: float
    recall: float
    f1: float
    support: int

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
        }


@dataclass(frozen=True)
class RunAggregate:
    """Mean and sample standard deviation of F1 over extraction runs."""

    mean_f1: float
    std_f1: float
    avg_support: float
    n_runs: int

    def table_f1(self, places: int = 2) -> tuple[float, float]:
        """F1 mean/std at report-table precision.

        Summary rows truncate (not round) at ``places`` decimals; rendered
        tables elsewhere in the toolchain follow the same convention, so
        truncation is what makes stored reports diff cleanly against them.
        """
        return _truncate(self.mean_f1, places), _truncate(self.std_f1, places)

    def to_dict(self) -> dict:
        return {
            "mean_f1": self.mean_f1,
            "std_f1": self.std_f1,
            "avg_support": self.avg_support,
            "n_runs": self.n_runs,
        }


def _truncate(value: float, places: int) -> float:
    scale = 10 ** places
    return math.floor(value * scale + 1e-9) / scale


def count_matches(
    expected: Sequence[Any],
    predicted: Sequence[Any],
    matcher: Callable[[Any, Any], bool],
) -> MatchCounts:
    """Count tp/fp/fn between two entity lists under a boolean matcher.

    tp is the size of a maximum one-to-one assignment (Kuhn's augmenting
    paths over the match matrix), which makes the result independent of the
    order of either list; duplicates are honoured as multiset multiplicity.
    The matcher is called as ``matcher(expected_item, predicted_item)``, or
    is a tier whose ``verify`` is called on the items' ``key``s; a tier
    with ``closed_form`` set matches on key equality, an equivalence
    relation, so tp is the size of the keys' multiset intersection.
    The search is iterative, so corpus-sized lists cannot hit the
    interpreter recursion limit.
    """
    n, m = len(expected), len(predicted)
    key = getattr(matcher, "key", None)
    if key is not None:
        expected, predicted = [key(x) for x in expected], [key(y) for y in predicted]
        if matcher.closed_form:
            tp = sum((Counter(expected) & Counter(predicted)).values())
            return MatchCounts(tp=tp, fp=m - tp, fn=n - tp)
        matcher = matcher.verify
    adjacency = [[j for j, p in enumerate(predicted) if matcher(e, p)] for e in expected]
    owner = [-1] * m  # predicted index -> expected index
    matched_pred = [-1] * n  # expected index -> predicted index

    def augment(start: int) -> bool:
        # fast path: an adjacent free predicted item is an augmenting path
        # of length one
        for j in adjacency[start]:
            if owner[j] == -1:
                owner[j] = start
                matched_pred[start] = j
                return True
        # alternating-path DFS with explicit frames
        visited: set[int] = set()
        parent: dict[int, int] = {}
        frames = [(start, iter(adjacency[start]))]
        while frames:
            i, candidates = frames[-1]
            pushed = False
            for j in candidates:
                if j in visited:
                    continue
                visited.add(j)
                parent[j] = i
                if owner[j] == -1:
                    while True:  # flip assignments along the path
                        holder = parent[j]
                        released = matched_pred[holder]
                        matched_pred[holder] = j
                        owner[j] = holder
                        if released == -1:
                            return True
                        j = released
                frames.append((owner[j], iter(adjacency[owner[j]])))
                pushed = True
                break
            if not pushed:
                frames.pop()
        return False

    tp = sum(1 for i in range(n) if augment(i))
    return MatchCounts(tp=tp, fp=m - tp, fn=n - tp)


def prf(counts: MatchCounts) -> Scores:
    """Precision, recall and F1 from raw counts.

    Zero denominators yield 0 (empty-document convention); F1 is the
    harmonic mean and 0 when precision + recall is 0. Support is the
    predicted-entity count, tp + fp.
    """
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return Scores(precision=precision, recall=recall, f1=f1, support=tp + fp)


def micro_average(per_doc: Sequence[MatchCounts]) -> Scores:
    """P/R/F1 of the field-wise sum of per-document counts.

    The result is independent of how entities distribute over documents;
    an empty list scores all zeros.
    """
    total = MatchCounts()
    for counts in per_doc:
        total = total + counts
    return prf(total)


def aggregate_runs(runs: Sequence[Any]) -> RunAggregate:
    """Aggregate F1 over repeated extraction runs.

    Accepts :class:`Scores` objects or bare F1 numbers. Reports the
    arithmetic mean and the sample standard deviation (n-1 denominator;
    zero for a single run). ``avg_support`` averages supports when Scores
    are given.

    Raises:
        EmptyRunsError: on an empty sequence.
    """
    if not runs:
        raise EmptyRunsError("cannot aggregate zero runs")
    f1s = [r.f1 if isinstance(r, Scores) else float(r) for r in runs]
    supports = [r.support for r in runs if isinstance(r, Scores)]
    mean_f1 = statistics.fmean(f1s)
    std_f1 = statistics.stdev(f1s) if len(f1s) > 1 else 0.0
    avg_support = statistics.fmean(supports) if supports else 0.0
    return RunAggregate(
        mean_f1=mean_f1,
        std_f1=std_f1,
        avg_support=avg_support,
        n_runs=len(f1s),
    )
