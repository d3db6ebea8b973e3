"""Match counting and Precision/Recall/F1 scoring.

Counts come from a MAXIMUM one-to-one assignment between expected and
predicted items (augmenting-path bipartite matching), so scores are
invariant under any permutation of either list. Each row is a :class:`LazyRow`
over the candidates a tier (see :mod:`mateval.matching`) names, or over every
item for a plain matcher; when the tier's match is key equality, tp is the
keys' multiset intersection and no row is built. Scores are micro-averaged
by summing counts corpus-wide before applying the P/R/F1 formulas.
"""

import math
import statistics
from collections import Counter
from collections.abc import Callable, Sequence
from typing import Any, NamedTuple

from .errors import EmptyRunsError


class MatchCounts(NamedTuple):
    """True positive / false positive / false negative tallies."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        return MatchCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn
        )


class Scores(NamedTuple):
    """Precision/recall/F1 with support (number of predicted entities)."""

    precision: float
    recall: float
    f1: float
    support: int


class RunAggregate(NamedTuple):
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


def _truncate(value: float, places: int) -> float:
    scale = 10 ** places
    return math.floor(value * scale + 1e-9) / scale


class LazyRow:
    """A row of the search, verified on demand. Iterating it replays the
    indices found so far, then verifies the predicted keys ``order`` lists
    next, so a reader that stops early leaves the rest of the row unverified.
    One reader at a time: the search reads a row at most once per augment."""

    def __init__(self, verify, ka, predicted: Sequence[Any], order):
        self.verify, self.ka, self.predicted, self.order = verify, ka, predicted, order
        self.found: list[int] = []
        self.scanned = 0  # entries of order verified so far

    def __iter__(self):
        yield from self.found
        for scanned in range(self.scanned, len(self.order)):
            j = self.order[scanned]
            matched = self.verify(self.ka, self.predicted[j])
            self.scanned = scanned + 1  # after verify: a failed call is asked again
            if matched:
                self.found.append(j)
                yield j


def count_matches(
    expected: Sequence[Any],
    predicted: Sequence[Any],
    matcher: Callable[[Any, Any], bool],
) -> MatchCounts:
    """Count tp/fp/fn between two entity lists under a boolean matcher.

    tp is the size of a maximum one-to-one assignment (Kuhn's augmenting
    paths), which makes the result independent of the order of either list;
    duplicates are honoured as multiset multiplicity. The matcher is called
    as ``matcher(expected_item, predicted_item)``, each row in index order,
    or is a tier: ``verify`` on keys, and ``scan_orders``, per expected key
    the predicted indices to verify, leaving out only ones ``verify``
    rejects. A maximum matching's size depends neither on a row's order nor
    on pairs that cannot match, and a :class:`LazyRow` verifies only the
    pairs the search reaches. A ``closed_form`` tier matches on key
    equality, so tp is the size of the keys' multiset intersection. The
    search is iterative, so corpus-sized lists cannot hit the interpreter
    recursion limit.
    """
    n, m = len(expected), len(predicted)
    key = getattr(matcher, "key", None)
    verify, orders = matcher, [range(m)] * n
    if key is not None:
        expected, predicted = [key(x) for x in expected], [key(y) for y in predicted]
        if matcher.closed_form:
            tp = sum((Counter(expected) & Counter(predicted)).values())
            return MatchCounts(tp=tp, fp=m - tp, fn=n - tp)
        verify, orders = matcher.verify, matcher.scan_orders(expected, predicted)
    adjacency = [LazyRow(verify, ka, predicted, order) for ka, order in zip(expected, orders)]
    owner = [-1] * m  # predicted index -> expected index
    matched_pred = [-1] * n  # expected index -> predicted index

    def augment(start: int) -> bool:
        # breadth-first search for a free predicted item along alternating
        # paths; reached maps each predicted item to the expected item that
        # reached it
        reached: dict[int, int] = {}
        queue = [start]
        for i in queue:
            for j in adjacency[i]:
                if j in reached:
                    continue
                reached[j] = i
                if owner[j] == -1:
                    while j != -1:  # flip assignments back along the path
                        i = reached[j]
                        released = matched_pred[i]
                        owner[j], matched_pred[i] = i, j
                        j = released
                    return True
                queue.append(owner[j])
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
    return prf(sum(per_doc, MatchCounts()))


def aggregate_runs(runs: Sequence[Scores]) -> RunAggregate:
    """Aggregate F1 over repeated extraction runs.

    Reports the arithmetic mean and the sample standard deviation of the
    runs' F1 (n-1 denominator; zero for a single run), and their mean
    support.

    Raises:
        EmptyRunsError: on an empty sequence.
    """
    if not runs:
        raise EmptyRunsError("cannot aggregate zero runs")
    f1s = [r.f1 for r in runs]
    return RunAggregate(
        mean_f1=statistics.fmean(f1s),
        std_f1=statistics.stdev(f1s) if len(f1s) > 1 else 0.0,
        avg_support=statistics.fmean(r.support for r in runs),
        n_runs=len(f1s),
    )
