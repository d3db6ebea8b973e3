"""Tests for match counting and P/R/F1 scoring."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mateval.corpus import Document, EntityMention, PredictionSet, RelationGroup
from mateval.errors import EmptyRunsError, ProviderUnavailableError
from mateval.evaluation import EvalConfig, _GroupTier, evaluate_ner, evaluate_re
from mateval.matching import (
    FormulaTier,
    SemanticTier,
    SoftTier,
    StrictTier,
    formula_match,
    soft_match,
    strict_match,
)
from mateval.scoring import (
    LazyRow,
    MatchCounts,
    Scores,
    aggregate_runs,
    count_matches,
    micro_average,
    prf,
)

from test_endpoint_io import (
    RecordingProvider,
    _all_pairs_report,
    _ner_items,
    _per_document,
    _re_items,
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


def max_matching_size(matrix):
    """Maximum bipartite matching size by recursive Kuhn's augmenting paths
    over a full boolean matrix: an oracle sharing nothing with the rows and
    the search of count_matches."""
    owner = {}

    def augment(i, seen):
        for j, hit in enumerate(matrix[i]):
            if hit and j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(matrix)))


def all_pairs_counts(expected, predicted, matches):
    """tp/fp/fn from the maximum matching over every pair's verdict."""
    tp = max_matching_size([[matches(a, b) for b in predicted] for a in expected])
    return MatchCounts(tp=tp, fp=len(predicted) - tp, fn=len(expected) - tp)


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

    def test_a_callable_is_asked_only_the_pairs_the_search_reaches(self):
        calls = []

        def counting_strict(a, b):
            calls.append((a, b))
            return strict_match(a, b)

        assert count_matches(["a"], ["a", "b", "c", "d"], counting_strict) == MatchCounts(1, 3, 0)
        assert calls == [("a", "a")]  # the first candidate is free: the row stops there

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


def f1_runs(*f1s):
    """One :class:`Scores` per run, with these F1 values."""
    return [Scores(0.0, 0.0, f1, 0) for f1 in f1s]


class TestAggregateRuns:
    def test_three_run_zero_shot_row(self):
        agg = aggregate_runs(f1_runs(21.64, 20.24, 21.79))
        mean, std = agg.table_f1()
        assert mean == pytest.approx(21.22, abs=5e-3)
        assert std == pytest.approx(0.85, abs=5e-3)

    def test_three_run_few_shot_row(self):
        agg = aggregate_runs(f1_runs(59.34, 59.31, 59.09))
        mean, std = agg.table_f1()
        assert mean == pytest.approx(59.24, abs=5e-3)
        assert std == pytest.approx(0.13, abs=5e-3)

    def test_single_run(self):
        agg = aggregate_runs(f1_runs(0.5))
        assert agg.mean_f1 == 0.5
        assert agg.std_f1 == 0.0
        assert agg.n_runs == 1

    def test_identical_runs_have_zero_std(self):
        agg = aggregate_runs(f1_runs(0.7, 0.7, 0.7))
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
        agg = aggregate_runs(f1_runs(1.0, 3.0))
        assert agg.std_f1 == pytest.approx(2 ** 0.5)


class OverlapProvider:
    """Semantic stub: 1.0 for identical strings, else their character-set overlap."""

    def score(self, a, b):
        if a == b:
            return 1.0
        union = set(a) | set(b)
        return len(set(a) & set(b)) / len(union) if union else 0.0


# parseable, unparseable and whitespace variants of one another: unparseable
# texts with equal normalized text must stay formula candidates
index_texts = st.lists(
    st.sampled_from([
        "MgB2", " MgB2", "MgB2  thin film", "Mg B 2", "H2S", "H 2 S", "", " ", "\t",
        "La2-xSrxCuO4", "La 2-x Sr x CuO 4", "hole-doped La 2-x Sr x CuO 4",
        "Zr 5 X 3 (X = Sb, Pb)", "Zr5Pb3", "Zr5Sb3", "foo  bar", "foo bar", "ab", "ba",
        "aab", "a", "LSCO", "SCLO", "MgB2/CuO", "1-x/2",
    ]),
    max_size=8,
)
index_thresholds = st.one_of(
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 5e-324, 0.5, 2 / 3, 0.8, 0.9]),
    st.floats(),  # any float a tier accepts: NaN, infinities, negatives too
)
# every counted group holds a material: gold by schema, predicted by the filter
groups = st.lists(
    st.builds(
        RelationGroup,
        material=st.sampled_from(["MgB2", "MgB 2", "H2S", "foo  bar", "foo bar"]),
        tc=st.sampled_from(["39 K", "39  K", "39.5 K", None]),
        pressure=st.sampled_from([None, "150 GPa", "150  GPa"]),
    ),
    max_size=5,
)
# empty and whitespace-only materials beside other ones
blank_groups = st.lists(
    st.builds(
        RelationGroup,
        material=st.sampled_from(["", " ", "\t", "MgB2", "MgB 2", "H2S", "a", "La2-xSrxCuO4"]),
        tc=st.sampled_from(["39 K", "", None]),
        pressure=st.sampled_from([None, "", "150 GPa"]),
    ),
    max_size=6,
)


def all_pairs_rows(tier, expected_keys, predicted_keys):
    return [
        [j for j in range(len(predicted_keys)) if tier.verify(ka, predicted_keys[j])]
        for ka in expected_keys
    ]


def scanned_rows(tier, expected_keys, predicted_keys):
    """All pairs, each row listed in the order the tier's lazy rows scan it."""
    orders = tier.scan_orders(expected_keys, predicted_keys)
    return [[j for j in order if tier.verify(ka, predicted_keys[j])]
            for ka, order in zip(expected_keys, orders)]


def lazy_rows(tier, expected_keys, predicted_keys):
    """The rows count_matches builds for a tier, each iterated to its end."""
    orders = tier.scan_orders(expected_keys, predicted_keys)
    return [list(LazyRow(tier.verify, ka, predicted_keys, order))
            for ka, order in zip(expected_keys, orders)]


def assert_orders_hold_every_match(tier, expected_keys, predicted_keys, ascending):
    """Each expected key's scan order lists predicted indices only, every
    all-pairs match exactly once, and (``ascending``) no index twice, in
    ascending order."""
    orders = tier.scan_orders(expected_keys, predicted_keys)
    assert len(orders) == len(expected_keys)
    for ka, order, row in zip(expected_keys, orders,
                              all_pairs_rows(tier, expected_keys, predicted_keys)):
        assert all(0 <= j < len(predicted_keys) for j in order)
        assert sorted(j for j in order if tier.verify(ka, predicted_keys[j])) == row
        if ascending:
            assert list(order) == sorted(set(order))


def slot_tiers(threshold):
    return [
        StrictTier(),
        SoftTier(threshold),
        FormulaTier(),
        SemanticTier(threshold, OverlapProvider()),
    ]


class TestCandidateIndex:
    """Each tier's scan orders hold every match all pairs give, and its rows,
    iterated to the end, list exactly those matches in scan order: ascending,
    or likeliest first for semantic rows."""

    @settings(max_examples=300, deadline=None)
    @given(index_texts, index_texts, index_thresholds)
    def test_rows_equal_all_pairs(self, expected, predicted, threshold):
        for tier in slot_tiers(threshold):
            ek, pk = [tier.key(x) for x in expected], [tier.key(y) for y in predicted]
            rows = lazy_rows(tier, ek, pk)
            assert [sorted(row) for row in rows] == all_pairs_rows(tier, ek, pk)
            assert rows == scanned_rows(tier, ek, pk)
            assert_orders_hold_every_match(tier, ek, pk, not isinstance(tier, SemanticTier))
            assert count_matches(expected, predicted, tier) == all_pairs_counts(
                expected, predicted, lambda a, b, tier=tier: tier.outcome(a, b).matched
            )

    @settings(max_examples=150, deadline=None)
    @given(groups, groups, index_thresholds)
    def test_group_tier_rows_equal_all_pairs(self, expected, predicted, threshold):
        for slot in slot_tiers(threshold):
            tier = _GroupTier(slot)
            ek, pk = [tier.key(x) for x in expected], [tier.key(y) for y in predicted]
            rows = lazy_rows(tier, ek, pk)
            assert [sorted(row) for row in rows] == all_pairs_rows(tier, ek, pk)
            assert rows == scanned_rows(tier, ek, pk)
            assert count_matches(expected, predicted, tier) == all_pairs_counts(
                expected, predicted,
                lambda a, b, tier=tier: tier.verify(tier.key(a), tier.key(b)),
            )

    @settings(max_examples=300, deadline=None)
    @given(blank_groups, blank_groups, index_thresholds)
    def test_group_orders_hold_every_match_with_empty_and_whitespace_materials(
        self, expected, predicted, threshold
    ):
        for slot in slot_tiers(threshold):
            tier = _GroupTier(slot)
            ek, pk = [tier.key(x) for x in expected], [tier.key(y) for y in predicted]
            assert_orders_hold_every_match(tier, ek, pk, not isinstance(slot, SemanticTier))
            assert count_matches(expected, predicted, tier) == all_pairs_counts(
                expected, predicted,
                lambda a, b, tier=tier: tier.verify(tier.key(a), tier.key(b)),
            )

    def test_unparseable_keys_with_equal_text_are_formula_candidates(self):
        tier = FormulaTier()
        keys = [tier.key(t) for t in ("foo  bar", "foo bar", "LSCO", "SCLO")]
        assert keys[0].error is not None and not keys[0].variants
        assert tier.scan_orders(keys[:2], keys[:2]) == [[0, 1], [0, 1]]
        assert lazy_rows(tier, keys, keys) == all_pairs_rows(tier, keys, keys)
        assert_orders_hold_every_match(tier, keys, keys, ascending=True)

    @pytest.mark.parametrize(
        "threshold", [1.0, 1.5, 2.0, 3.0, 5e-324, 0.0, -1.0, math.inf, math.nan]
    )
    def test_soft_window_at_every_threshold(self, threshold):
        # la = lb = 0 for the empty and whitespace-only keys; at t = 2 the
        # closed-form window la*t/(2-t) would divide by zero
        texts = ["", " \t", "a", "ab", "ba", "aab", "abc", "MgB2", "MgB2 ", "MgB", "Mg", "abcdefgh"]
        tier = SoftTier(threshold)
        keys = [tier.key(t) for t in texts]
        rows = lazy_rows(tier, keys, keys)
        assert rows == all_pairs_rows(tier, keys, keys)
        assert rows == [
            [j for j, b in enumerate(texts) if soft_match(a, b, threshold).matched] for a in texts
        ]
        assert_orders_hold_every_match(tier, keys, keys, ascending=True)


class TestLazyRow:
    def test_a_row_read_in_parts_verifies_each_candidate_once(self):
        calls = []

        def even(_, b):
            calls.append(b)
            return b % 2 == 0

        row = LazyRow(even, None, list(range(6)), [5, 4, 3, 2, 1, 0])
        assert next(iter(row)) == 4 and calls == [5, 4]  # a reader that stops early
        assert list(row) == [4, 2, 0] and calls == [5, 4, 3, 2, 1, 0]
        assert list(row) == [4, 2, 0] and len(calls) == 6  # replayed, not verified again

    def test_a_verify_that_raised_is_asked_again(self):
        calls = []

        def flaky(_, b):
            calls.append(b)
            if len(calls) == 2:
                raise ProviderUnavailableError("down")
            return True

        row = LazyRow(flaky, None, ["a", "b"], [0, 1])
        with pytest.raises(ProviderUnavailableError):
            list(row)
        assert list(row) == [0, 1] and calls == ["a", "b", "b"]


class CountingSoftTier(SoftTier):
    """A soft tier that records the key pairs it verifies."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def verify(self, ka, kb):
        self.calls.append((ka[0], kb[0]))
        return super().verify(ka, kb)


class TestSlotCandidatesInGroups:
    """Relation groups scan their material slot's candidates."""

    def test_soft_groups_verify_no_material_outside_the_length_window(self):
        slot = CountingSoftTier(0.9)
        gold = [RelationGroup("MgB2", "39 K")]
        predicted = [RelationGroup("x" * n, "39 K") for n in (30, 31, 45)]
        assert count_matches(gold, predicted, _GroupTier(slot)) == MatchCounts(0, 3, 1)
        assert slot.calls == []  # 2*4/(4+30) < 0.9: no predicted material is a candidate

    def test_soft_groups_verify_the_window(self):
        slot = CountingSoftTier(0.9)
        gold = [RelationGroup("MgB2", "39 K")]
        predicted = [RelationGroup("x" * 30, "39 K"), RelationGroup("MgB2", "39 K")]
        assert count_matches(gold, predicted, _GroupTier(slot)) == MatchCounts(1, 1, 0)
        assert slot.calls == [("MgB2", "MgB2"), ("39 K", "39 K")]


class RowsTier:
    """A tier over index keys whose rows scan the given orders, verified
    against a boolean matrix."""

    closed_form = False

    def __init__(self, matrix, orders):
        self.matrix, self.orders = matrix, orders

    def key(self, item):
        return item

    def verify(self, i, j):
        return self.matrix[i][j]

    def scan_orders(self, expected, predicted):
        return self.orders


def multiset_overlap(a, b):
    """Oracle for the scan rank: ``2*|ms(a) & ms(b)|/(len a + len b)`` over
    whitespace-normalized text, 1.0 for two empty texts."""
    a, b = " ".join(a.split()), " ".join(b.split())
    common = sum((Counter(a) & Counter(b)).values())
    return 2.0 * common / (len(a) + len(b)) if a or b else 1.0


ROW_MATERIALS = ["MgB2", "MgB 2", "H3S", "H 3 S", "Nb3Sn", "Nb3Sn wires", ""]
ROW_TCS = ["39 K", "39  K", "203 K"]
ROW_PRESSURES = [None, "150 GPa", "155 GPa"]
ROW_TEXTS = ROW_MATERIALS + ROW_TCS + ROW_PRESSURES[1:]
score_tables = st.dictionaries(
    st.tuples(st.sampled_from(ROW_TEXTS), st.sampled_from(ROW_TEXTS)),
    st.sampled_from([0.1, 0.85, 0.9, 0.95]),
    max_size=30,
)
row_groups = st.builds(RelationGroup, st.sampled_from(ROW_MATERIALS),
                       st.sampled_from(ROW_TCS), st.sampled_from(ROW_PRESSURES))


class TestRowOrder:
    """The order in which a row lists its matches changes which pairs the
    search asks for, never tp."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_permuted_rows_count_the_assignment_maximum(self, data):
        optimize = pytest.importorskip("scipy.optimize")
        n = data.draw(st.integers(0, 6))
        m = data.draw(st.integers(0, 6))
        matrix = data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                    min_size=n, max_size=n))
        # every match in any order, with any of the non-matches
        orders = [[j for j in data.draw(st.permutations(range(m)))
                   if row[j] or data.draw(st.booleans())] for row in matrix]
        tp = count_matches(range(n), range(m), RowsTier(matrix, orders)).tp
        if n and m:
            picked_rows, picked_cols = optimize.linear_sum_assignment(matrix, maximize=True)
            best = sum(matrix[i][j] for i, j in zip(picked_rows, picked_cols))
        else:
            best = 0
        assert tp == best

    @settings(max_examples=200, deadline=None)
    @given(index_texts, index_texts, groups, groups)
    def test_semantic_rows_scan_likeliest_first(self, expected, predicted, eg, pg):
        def rank(a, order, texts):
            return [(-multiset_overlap(a, texts[j]), j) for j in order]

        semantic = SemanticTier(0.9, OverlapProvider())
        for a, order in zip(expected, semantic.scan_orders(expected, predicted)):
            assert sorted(order) == list(range(len(predicted)))
            assert rank(a, order, predicted) == sorted(rank(a, order, predicted))
        group = _GroupTier(semantic)
        ek, pk = [group.key(g) for g in eg], [group.key(g) for g in pg]
        materials = [g.material for g in pg]
        for g, order in zip(eg, group.scan_orders(ek, pk)):
            assert sorted(order) == list(range(len(pg)))
            assert rank(g.material, order, materials) == sorted(rank(g.material, order, materials))
        strict = StrictTier()
        ek, pk = [strict.key(x) for x in expected], [strict.key(y) for y in predicted]
        assert [list(order) for order in strict.scan_orders(ek, pk)] == [
            list(range(len(predicted)))] * len(expected)  # ascending over all indices
        for tier, e, p in [(SoftTier(), expected, predicted), (FormulaTier(), expected, predicted),
                           (_GroupTier(SoftTier()), eg, pg), (_GroupTier(FormulaTier()), eg, pg)]:
            ek, pk = [tier.key(x) for x in e], [tier.key(y) for y in p]
            assert_orders_hold_every_match(tier, ek, pk, ascending=True)  # candidates only

    @pytest.mark.parametrize("task", ["ner_material", "re"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), table=score_tables)
    def test_semantic_reports_equal_all_pairs_at_any_concurrency(self, task, data, table):
        if task == "re":
            supplied = [EntityMention(t, c) for texts, c in (
                (ROW_MATERIALS, "material"), (ROW_TCS, "tc"), (ROW_PRESSURES[1:], "pressure"))
                for t in texts]
            items, evaluate, kind = _re_items, evaluate_re, st.lists(row_groups, max_size=4)
            docs = [Document(f"d{i}", "t", supplied, gold)
                    for i, gold in enumerate(data.draw(st.lists(kind, min_size=1, max_size=3)))]
            preds = [PredictionSet(doc.id, f"run{r}", relations=data.draw(kind))
                     for r in (1, 2) for doc in docs]
        else:
            items, evaluate = _ner_items, evaluate_ner
            kind = st.lists(st.sampled_from(ROW_MATERIALS), max_size=5)
            docs = [Document(f"d{i}", "t", [EntityMention(t, "material") for t in gold])
                    for i, gold in enumerate(data.draw(st.lists(kind, min_size=1, max_size=3)))]
            preds = [PredictionSet(doc.id, f"run{r}", {"material": data.draw(kind)})
                     for r in (1, 2) for doc in docs]
        seen = []
        for concurrency in (None, 1, 4):  # None: a provider without map
            provider = RecordingProvider(table, concurrency)
            report = evaluate(docs, preds, EvalConfig(task=task, matchers=("semantic",)),
                              provider)
            assert _per_document(report) == _all_pairs_report(
                docs, preds, provider, items, groups=task == "re")
            assert len(provider.calls) == len(set(provider.calls))
            seen.append((sorted(provider.calls), report.to_dict()))
        assert seen[0] == seen[1] == seen[2]
