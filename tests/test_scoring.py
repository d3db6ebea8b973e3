"""Tests for match counting and P/R/F1 scoring."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mateval.errors import EmptyRunsError
from mateval.matching import (
    FormulaTier,
    SoftTier,
    StrictTier,
    formula_match,
    soft_match,
    strict_match,
)
from mateval.scoring import (
    MatchCounts,
    Scores,
    aggregate_runs,
    count_matches,
    micro_average,
    prf,
)


def brute_force_max_matching(matrix):
    """Exhaustive maximum bipartite matching size over all injections."""
    n = len(matrix)
    m = len(matrix[0]) if matrix else 0

    def best(i, used):
        if i == n:
            return 0
        top = best(i + 1, used)
        for j in range(m):
            if matrix[i][j] and j not in used:
                top = max(top, 1 + best(i + 1, used | {j}))
        return top

    return best(0, frozenset())


class TestCountMatches:
    def test_single_overlap(self):
        counts = count_matches(["MgB2", "H2S"], ["MgB2", "H3S"], strict_match)
        assert counts == MatchCounts(tp=1, fp=1, fn=1)

    def test_multiset_multiplicity(self):
        counts = count_matches(["a", "a"], ["a"], strict_match)
        assert counts == MatchCounts(tp=1, fp=0, fn=1)

    def test_formula_matcher(self):
        counts = count_matches(
            ["hole-doped La 2-x Sr x CuO 4"],
            ["La 2-x Sr x CuO 4"],
            lambda a, b: formula_match(a, b).matched,
        )
        assert counts == MatchCounts(tp=1, fp=0, fn=0)

    def test_empty_lists(self):
        assert count_matches([], [], strict_match) == MatchCounts(0, 0, 0)
        assert count_matches(["a"], [], strict_match) == MatchCounts(0, 0, 1)
        assert count_matches([], ["a"], strict_match) == MatchCounts(0, 1, 0)

    def test_maximum_not_greedy(self):
        # greedy left-to-right would pair e0 with p0 and strand e1
        expected = ["e0", "e1"]
        predicted = ["p0", "p1"]
        allowed = {("e0", "p0"), ("e0", "p1"), ("e1", "p0")}
        counts = count_matches(
            expected, predicted, lambda a, b: (a, b) in allowed
        )
        assert counts.tp == 2

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(5)
        for _ in range(200):
            n, m = rng.randint(0, 6), rng.randint(0, 6)
            matrix = [[rng.random() < 0.4 for _ in range(m)] for _ in range(n)]
            expected = [f"e{i}" for i in range(n)]
            predicted = [f"p{j}" for j in range(m)]
            counts = count_matches(
                expected,
                predicted,
                lambda a, b: matrix[int(a[1:])][int(b[1:])],
            )
            assert counts.tp == brute_force_max_matching(matrix)
            assert counts.tp + counts.fn == n
            assert counts.tp + counts.fp == m

    def test_strict_closed_form(self):
        rng = random.Random(17)
        alphabet = ["MgB2", "H2S", "H3S", "LaFeO3", "x"]
        for _ in range(200):
            expected = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            predicted = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            counts = count_matches(expected, predicted, strict_match)
            want = sum(
                (Counter(expected) & Counter(predicted)).values()
            )
            assert counts.tp == want

    def test_permutation_invariance(self):
        rng = random.Random(3)
        expected = ["a", "b", "b", "c", "d"]
        predicted = ["b", "c", "c", "a"]
        base = count_matches(expected, predicted, strict_match)
        for _ in range(20):
            e = expected[:]
            p = predicted[:]
            rng.shuffle(e)
            rng.shuffle(p)
            assert count_matches(e, p, strict_match) == base

    def test_corpus_sized_lists_do_not_recurse_out(self):
        # 1200 identical strings exercise the deep-augmenting-path regime
        # that would overflow a recursive implementation
        items = ["MgB2"] * 1200
        counts = count_matches(items, items, strict_match)
        assert counts == MatchCounts(tp=1200, fp=0, fn=0)

    def test_deep_alternating_paths(self):
        # a ladder graph where every augment after the first must rewire the
        # whole chain: e_i matches p_i and p_{i+1}; processing order forces
        # long alternating paths
        n = 400
        adj = {i: [i, i + 1] if i + 1 < n else [i] for i in range(n)}
        expected = list(range(n - 1, -1, -1))  # worst insertion order
        predicted = list(range(n))
        counts = count_matches(
            expected, predicted, lambda e, p: p in adj[e]
        )
        assert counts.tp == n


items = st.lists(
    st.sampled_from([
        "MgB2", " MgB2", "MgB2  ", "H2S", "H 2 S", "H2 S", "", " ", "La2-xSrxCuO4",
        "La 2-x Sr x CuO 4", "hole-doped La 2-x Sr x CuO 4",
    ]),
    max_size=8,
)


class TestTierCounting:
    @settings(max_examples=200, deadline=None)
    @given(items, items)
    def test_strict_closed_form_equals_assignment(self, expected, predicted):
        closed = count_matches(expected, predicted, StrictTier())
        assert closed == count_matches(expected, predicted, strict_match)
        want = Counter(" ".join(e.split()) for e in expected) & Counter(
            " ".join(p.split()) for p in predicted
        )
        assert closed.tp == sum(want.values())

    @settings(max_examples=100, deadline=None)
    @given(items, items, st.sampled_from([0.5, 0.9, 1.0]))
    def test_keyed_tiers_equal_their_predicates(self, expected, predicted, threshold):
        soft = count_matches(expected, predicted, SoftTier(threshold))
        assert soft == count_matches(
            expected, predicted, lambda a, b: soft_match(a, b, threshold).matched
        )
        formula = count_matches(expected, predicted, FormulaTier())
        assert formula == count_matches(
            expected, predicted, lambda a, b: formula_match(a, b).matched
        )

    def test_agrees_with_scipy_assignment(self):
        numpy = pytest.importorskip("numpy")
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(13)
        for _ in range(300):
            n, m = rng.randint(0, 12), rng.randint(0, 12)
            density = rng.choice([0.1, 0.3, 0.6])
            matrix = numpy.array(
                [[rng.random() < density for _ in range(m)] for _ in range(n)], dtype=bool
            ).reshape(n, m)
            rows, cols = optimize.linear_sum_assignment(matrix, maximize=True)
            counts = count_matches(range(n), range(m), lambda i, j: matrix[i, j])
            assert counts.tp == int(matrix[rows, cols].sum())


class TestPrf:
    def test_all_zero(self):
        assert prf(MatchCounts(0, 0, 0)) == Scores(0.0, 0.0, 0.0, 0)

    def test_direct_formula(self):
        scores = prf(MatchCounts(tp=3, fp=1, fn=3))
        assert scores.precision == 0.75
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(0.6)
        assert scores.support == 4

    def test_strict_to_formula_gain_case(self):
        # counts chosen to yield P=0.2250 and R=0.1364 exactly
        scores = prf(MatchCounts(tp=3069, fp=10571, fn=19431))
        assert scores.precision == pytest.approx(0.225)
        assert scores.recall == pytest.approx(0.1364)
        assert scores.f1 == pytest.approx(0.1701, abs=5e-4)

    def test_f1_bounded_by_max(self):
        rng = random.Random(29)
        for _ in range(200):
            counts = MatchCounts(
                rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20)
            )
            s = prf(counts)
            assert 0.0 <= s.f1 <= 1.0
            assert s.f1 <= max(s.precision, s.recall) + 1e-12
            if s.f1 == 1.0:
                assert counts.fp == 0 and counts.fn == 0 and counts.tp > 0


class TestMicroAverage:
    def test_sum_then_score(self):
        per_doc = [MatchCounts(2, 1, 1), MatchCounts(1, 0, 2)]
        scores = micro_average(per_doc)
        assert scores.precision == 0.75
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(0.6)

    def test_singleton_identity(self):
        counts = MatchCounts(5, 2, 3)
        assert micro_average([counts]) == prf(counts)

    def test_empty_corpus(self):
        assert micro_average([]) == Scores(0.0, 0.0, 0.0, 0)

    def test_definitional_identity(self):
        rng = random.Random(41)
        for _ in range(100):
            per_doc = [
                MatchCounts(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
                for _ in range(rng.randint(0, 6))
            ]
            total = MatchCounts()
            for c in per_doc:
                total = total + c
            assert micro_average(per_doc) == prf(total)


class TestAggregateRuns:
    def test_three_run_zero_shot_row(self):
        agg = aggregate_runs([21.64, 20.24, 21.79])
        mean, std = agg.table_f1()
        assert mean == pytest.approx(21.22, abs=5e-3)
        assert std == pytest.approx(0.85, abs=5e-3)

    def test_three_run_few_shot_row(self):
        agg = aggregate_runs([59.34, 59.31, 59.09])
        mean, std = agg.table_f1()
        assert mean == pytest.approx(59.24, abs=5e-3)
        assert std == pytest.approx(0.13, abs=5e-3)

    def test_single_run(self):
        agg = aggregate_runs([0.5])
        assert agg.mean_f1 == 0.5
        assert agg.std_f1 == 0.0
        assert agg.n_runs == 1

    def test_identical_runs_have_zero_std(self):
        agg = aggregate_runs([0.7, 0.7, 0.7])
        assert agg.std_f1 == 0.0

    def test_scores_objects_carry_support(self):
        runs = [
            Scores(0.5, 0.5, 0.5, 564),
            Scores(0.5, 0.5, 0.5, 531),
            Scores(0.5, 0.5, 0.5, 567),
        ]
        agg = aggregate_runs(runs)
        assert agg.avg_support == pytest.approx(554.0)
        assert agg.n_runs == 3

    def test_empty_runs(self):
        with pytest.raises(EmptyRunsError):
            aggregate_runs([])

    def test_sample_standard_deviation(self):
        # n-1 denominator: [1, 3] has std sqrt(2), not 1
        agg = aggregate_runs([1.0, 3.0])
        assert agg.std_f1 == pytest.approx(2 ** 0.5)
