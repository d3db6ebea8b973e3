"""Tests for the four matcher tiers."""

import gc
import hashlib
import importlib.util
import json
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mateval.errors import MatEvalError, ProviderUnavailableError
from mateval.llm import parse_response
from mateval.matching import (
    FormulaTier,
    MatchOutcome,
    SoftTier,
    StrictTier,
    formula_match,
    material_variants,
    normalize_whitespace,
    ratcliff_obershelp,
    semantic_match,
    soft_match,
    strict_match,
)
from mateval.materials import Linear, compositions_equal
from test_materials import material_texts

MIXTURE = (
    "(1-x/2)La 2 O 3 /xSrCO 3 /CuO in molar ratio "
    "with x = 0.063, 0.07, 0.09, 0.10, 0.111 and 0.125"
)


def oracle_ratio(a: str, b: str) -> float:
    """Brute-force Ratcliff/Obershelp: recursive longest-common-substring
    decomposition, ties broken by earliest start in ``a`` then ``b``."""

    def longest_block(x, y):
        best = (0, 0, 0)
        for i in range(len(x)):
            for j in range(len(y)):
                k = 0
                while i + k < len(x) and j + k < len(y) and x[i + k] == y[j + k]:
                    k += 1
                if k > best[2]:
                    best = (i, j, k)
        return best

    def matched(x, y):
        if not x or not y:
            return 0
        i, j, k = longest_block(x, y)
        if k == 0:
            return 0
        return k + matched(x[:i], y[:j]) + matched(x[i + k:], y[j + k:])

    if not a and not b:
        return 1.0
    return 2 * matched(a, b) / (len(a) + len(b))


class TestStrictMatch:
    def test_identity(self):
        assert strict_match("MgB2", "MgB2")

    def test_adjoined_descriptor_fails(self):
        assert not strict_match(
            "La 2-x Sr x CuO 4", "hole-doped La 2-x Sr x CuO 4"
        )

    def test_whitespace_collapse(self):
        assert strict_match("355  ml", "355 ml")
        assert strict_match("  MgB2 ", "MgB2")

    def test_case_sensitive(self):
        assert not strict_match("CA", "Ca")


class TestRatcliffObershelp:
    def test_plural_suffix(self):
        assert ratcliff_obershelp("solar cell", "solar cells") == pytest.approx(20 / 21)

    def test_single_letter_overlap(self):
        assert ratcliff_obershelp("Ca", "Cr") == 0.5

    def test_identical(self):
        assert ratcliff_obershelp("abc", "abc") == 1.0

    def test_empty_sides(self):
        assert ratcliff_obershelp("", "") == 1.0
        assert ratcliff_obershelp("", "abc") == 0.0
        assert ratcliff_obershelp("abc", "") == 0.0

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(23)
        for _ in range(300):
            a = "".join(rng.choice("abcAB ") for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice("abcAB ") for _ in range(rng.randint(0, 12)))
            assert ratcliff_obershelp(a, b) == oracle_ratio(a, b)
            assert ratcliff_obershelp(b, a) == oracle_ratio(b, a)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30))
    def test_self_similarity_is_one(self, s):
        assert ratcliff_obershelp(s, s) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=20), st.text(max_size=20))
    def test_range(self, a, b):
        assert 0.0 <= ratcliff_obershelp(a, b) <= 1.0


class TestSoftMatch:
    def test_plural_concepts_match(self):
        outcome = soft_match("solar cell", "solar cells", 0.9)
        assert outcome.matched and outcome.tier == "soft"
        assert outcome.similarity == pytest.approx(20 / 21)

    def test_distinct_materials_do_not(self):
        outcome = soft_match("Ca", "Cr", 0.9)
        assert not outcome.matched and outcome.tier == "none"
        assert outcome.similarity == 0.5

    def test_identity(self):
        outcome = soft_match("x", "x", 0.9)
        assert outcome.matched and outcome.similarity == 1.0

    def test_whitespace_runs_score_one(self):
        outcome = soft_match("355  ml", "355 ml", 1.0)
        assert outcome.matched and outcome.similarity == 1.0


class StubProvider:
    def __init__(self, table=None):
        self.table = table or {}

    def score(self, a, b):
        if a == b:
            return 1.0
        return self.table.get(frozenset((a, b)), 0.0)


class FailingProvider:
    def score(self, a, b):
        raise ProviderUnavailableError("unreachable")


class TestSemanticMatch:
    def test_identity_via_contract(self):
        assert semantic_match("abc", "abc", 0.9, StubProvider()).matched

    def test_threshold_on_stubbed_score(self):
        stub = StubProvider({frozenset(("solar cell", "solar cells")): 0.97})
        outcome = semantic_match("solar cell", "solar cells", 0.9, stub)
        assert outcome.matched and outcome.tier == "semantic"
        assert outcome.similarity == 0.97

    def test_unreachable_provider(self):
        with pytest.raises(ProviderUnavailableError):
            semantic_match("a", "b", 0.9, FailingProvider())

    def test_no_provider(self):
        for a, b in (("a", "b"), ("a", "a")):  # an identical pair too
            with pytest.raises(ProviderUnavailableError):
                semantic_match(a, b, 0.9, None)


class TestFormulaMatch:
    def test_adjunct_difference_matches(self):
        outcome = formula_match(
            "hole-doped La 2-x Sr x CuO 4", "La 2-x Sr x CuO 4"
        )
        assert outcome.matched and outcome.tier == "formula"
        assert not strict_match("hole-doped La 2-x Sr x CuO 4", "La 2-x Sr x CuO 4")

    def test_substitution_against_fused_form(self):
        outcome = formula_match(
            "electron-doped infinite-layer superconductors "
            "Sr 0.9 La 0.1 Cu 1-x R x O 2 where R = Zn and Ni",
            "Sr0.9La0.1Cu1-xNixO2",
        )
        assert outcome.matched and outcome.tier == "formula"
        assert "Sr0.9La0.1Cu1-xNixO2" in outcome.detail

    def test_doping_list_against_concrete_value(self):
        outcome = formula_match(
            "Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5",
            "Eu 0.5 K 0.5 Fe 2 As 2",
        )
        assert outcome.matched and outcome.tier == "formula"

    def test_mixture_never_matches(self):
        outcome = formula_match(MIXTURE, "La2O3")
        assert not outcome.matched
        assert "unparseable" in outcome.detail

    def test_expansion_overflow_folds_into_non_match(self):
        # 8 * 8 * 5 = 320 variants, past the expansion cap
        oversized = (
            "Zr 1 A 1 D 1 E 1 "
            "(A = Sb, Pb, Sn, Ge, Si, Al, Zn, Ni)"
            "(D = Sb, Pb, Sn, Ge, Si, Al, Zn, Ni)"
            "(E = Sb, Pb, Sn, Ge, Si)"
        )
        outcome = formula_match(oversized, "ZrSbPbSn")
        assert not outcome.matched
        assert "exceed the expansion cap" in outcome.detail

    def test_overflowing_amounts_do_not_match(self):
        a, b = "O" + "9" * 400, "O" + "8" * 400
        outcome = formula_match(a, b)
        assert not outcome.matched
        assert "out of range" in outcome.detail
        tier = FormulaTier()
        assert not tier.verify(tier.key(a), tier.key(b))

    def test_identical_strings_take_strict_tier(self):
        outcome = formula_match("anything at all", "anything at all")
        assert outcome.matched and outcome.tier == "strict"

    def test_formatting_variants_match(self):
        assert formula_match("Nd 2-x Ce x CuO 4", "Nd2-xCexCuO4").matched

    def test_different_cuprates_do_not_match(self):
        assert not formula_match("Nd 2-x Ce x CuO 4", "La 2-x Sr x CuO 4").matched

    def test_symmetry(self):
        pairs = [
            ("hole-doped La 2-x Sr x CuO 4", "La 2-x Sr x CuO 4"),
            ("MgB2", "MgB3"),
            ("Ca", "Cr"),
            (MIXTURE, "La2O3"),
        ]
        for a, b in pairs:
            assert formula_match(a, b).matched == formula_match(b, a).matched


class TestSubsumption:
    @pytest.mark.parametrize("a", ["MgB2", "La 2-x Sr x CuO 4", "355 ml", ""])
    def test_strict_implies_soft_and_formula(self, a):
        if not a:
            assert soft_match(a, a, 1.0).matched
            return
        assert strict_match(a, a)
        assert soft_match(a, a, 1.0).matched
        assert formula_match(a, a).matched

    @pytest.mark.parametrize("a,b", [
        ("355  ml", "355 ml"),
        ("  MgB2", "MgB2  "),
        ("La 2-x  Sr x CuO 4", "La 2-x Sr x CuO 4"),
    ])
    def test_subsumption_across_whitespace_variants(self, a, b):
        assert strict_match(a, b)
        assert soft_match(a, b, 1.0).matched
        assert formula_match(a, b).matched


class TestMatchOutcomeShape:
    def test_unmatched_tier_is_none(self):
        for outcome in (
            soft_match("Ca", "Cr", 0.9),
            formula_match("Ca", "Cr"),
        ):
            assert isinstance(outcome, MatchOutcome)
            assert not outcome.matched and outcome.tier == "none"


class TestThreadSafety:
    def test_concurrent_formula_matching_agrees_with_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        pairs = [
            ("hole-doped La 2-x Sr x CuO 4", "La 2-x Sr x CuO 4"),
            ("MgB2", "MgB2"),
            ("Ca", "Cr"),
            ("Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5",
             "Eu 0.5 K 0.5 Fe 2 As 2"),
        ] * 25
        serial = [formula_match(a, b).matched for a, b in pairs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda p: formula_match(*p).matched, pairs))
        assert threaded == serial


def reference_formula(a: str, b: str) -> bool:
    """Unpruned formula predicate: every variant pair through compositions_equal."""
    if strict_match(a, b):
        return True
    try:
        left, right = material_variants(a), material_variants(b)
    except MatEvalError:
        return False
    return any(compositions_equal(x, y) for x in left for y in right)


FRAGMENTS = [
    "La", "Sr", "Cu", "O", "Fe", "As", "Mg", "B", "Sb", "Pb", "X", "x", "2", "4",
    "0.5", "1-x", "7-δ", " - ", "(X = Sb, Pb)", " with x = 0.1 and 0.2",
    "hole-doped ", " ", "  ", "\t", "ab", "ba",
]
texts = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=6).map("".join),
    st.text(alphabet="ab \t\n", max_size=8),
)
# exact ratios (1/2, 2/3, 4/5, 9/10) make bounds land on the threshold itself
thresholds = st.one_of(
    st.sampled_from([1.0, 0.5, 2 / 3, 0.8, 0.9]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


class TestTierExactness:
    @settings(max_examples=400, deadline=None)
    @given(texts, texts, thresholds)
    def test_pruned_tiers_agree_with_unpruned_predicates(self, a, b, threshold):
        for tier, expected in (
            (StrictTier(), strict_match(a, b)),
            (SoftTier(threshold), soft_match(a, b, threshold).matched),
            (FormulaTier(), reference_formula(a, b)),
        ):
            assert tier.verify(tier.key(a), tier.key(b)) == expected
        assert formula_match(a, b).matched == reference_formula(a, b)

    @settings(max_examples=300, deadline=None)
    @given(texts, texts)
    def test_soft_bounds_never_undercut_ratio(self, a, b):
        (a, la, ca), (b, lb, cb) = SoftTier.make_key(a), SoftTier.make_key(b)
        if la + lb:
            ratio = ratcliff_obershelp(a, b)
            assert 2.0 * min(la, lb) / (la + lb) >= ratio
            assert 2.0 * sum((ca & cb).values()) / (la + lb) >= ratio

    def test_empty_strings_match_at_threshold_one(self):
        tier = SoftTier(1.0)
        assert tier.verify(tier.key(""), tier.key(" \t"))

    def test_threshold_above_one_matches_nothing(self):
        tier = SoftTier(1.5)
        assert not tier.verify(tier.key("MgB2"), tier.key("MgB2"))
        assert not soft_match("MgB2", "MgB2", 1.5).matched

    def test_witness_is_first_matching_variant_pair(self):
        outcome = formula_match("Zr 5 X 3 (X = Sb, Pb, Sn)", "Zr5Pb3")
        assert outcome.detail == "Zr5Pb3 ~ Zr5Pb3"

    def test_greek_variable_amounts_match(self):
        assert formula_match("YBa2Cu3O7-δ", "YBa2Cu3O7 - δ").matched
        assert formula_match("YBa2Cu3O7-δ", "YBa 2 Cu 3 O 7-δ").tier == "formula"
        assert FormulaTier().key("YBa2Cu3O7-δ").variants

    @pytest.mark.parametrize("a, b, detail", [
        # one constant, two spellings
        ("La2-xSrxCuO4", "La2.0-xSrxCuO4", "La2-xSrxCuO4 ~ La2-xSrxCuO4"),
        ("Fe0+xSe", "FexSe", "FexSe ~ FexSe"),  # 0 + x is x
        # constants 4e-8 apart, within tol
        ("La0.3333333-xSrx", "La0.33333334-xSrx", "La0.3333333-xSrx ~ La0.33333334-xSrx"),
    ])
    def test_linear_amounts_compare_by_value(self, a, b, detail):
        assert formula_match(a, b) == MatchOutcome(True, "formula", detail=detail)

    def test_substitution_making_an_amount_negative_is_refused(self):
        outcome = formula_match("La2-xSrxCuO4 (x = 3)", "Sr3CuO4")
        detail = "left side unparseable: x = 3.0 makes the amount of La negative: -1.0"
        assert outcome == MatchOutcome(False, "none", detail=detail)
        assert formula_match("La2-xSrxCuO4 (x = 3)", "La2-xSrxCuO4 (x = 3)").tier == "strict"
        outcome = formula_match("La2-xSrxCuO4 (x = 2)", "Sr2CuO4")
        assert outcome == MatchOutcome(True, "formula", detail="Sr2CuO4 ~ Sr2CuO4")

    @pytest.mark.parametrize("text", [
        "YBa2Cu3O7-δ (δ = 0.1)", "YBa2Cu3O7-δ with δ = 0.1", "YBa2Cu3O7-δ (Δ = 0.1)",
    ])
    def test_clauses_bind_any_amount_variable(self, text):
        assert formula_match(text, "YBa2Cu3O6.9").tier == "formula"


ROOT = Path(__file__).resolve().parent.parent
# SHA-256 of every fixture and bench string's formula key (text, compositions
# and error message), as the phrase-by-phrase strip and the character-by-
# character fragment reader gave them; error messages are `match` details
FORMULA_KEYS_SHA256 = "478792b4a681a51879fcedcd91eb03410e369ba95abd3a4c5a770c48686ed3a8"
BENCH_INPUTS = [("ner-tiers", 1), ("ner-tiers", 5521), ("ner-tiers", 9137),
                ("pipeline-offline", 1), ("endpoint-stub", 1)]


def entity_strings(path):
    """Every entity text and relation slot value in a JSONL corpus or predictions file."""
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        entities = row.get("entities", ())
        if isinstance(entities, dict):
            for texts in entities.values():
                yield from texts
        else:
            yield from (e["text"] for e in entities)
        for relation in row.get("relations", ()):
            yield from relation.values()


def test_formula_keys_unchanged_on_fixture_and_bench_strings(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    data = ROOT / "tests" / "data"
    strings = set(entity_strings(data / "corpus.jsonl"))
    for path in sorted((data / "fixtures").rglob("*.txt")):
        for item in parse_response(path.read_text(encoding="utf-8"), path.parent.name):
            values = item.values() if isinstance(item, dict) else item
            strings.update(v for v in values if isinstance(v, str))
    for workload, seed in BENCH_INPUTS:
        out = tmp_path / f"{workload}-{seed}"
        out.mkdir()
        gen.generate(workload, seed, out)
        for name in ("corpus.jsonl", "ner_predictions.jsonl", "re_predictions.jsonl"):
            strings.update(entity_strings(out / name))
    tier, digest = FormulaTier(), hashlib.sha256()
    for text in sorted(strings):
        key = tier.key(text)
        compositions = [{k: str(v) if isinstance(v, Linear) else v for k, v in c.items()}
                        for _, c in key.variants]  # a linear amount as its canonical text
        digest.update(repr((text, key.text, compositions, key.error)).encode())
    assert len(strings) == 10524
    assert digest.hexdigest() == FORMULA_KEYS_SHA256


# SHA-256 of the formula verdict (matched, tier, detail) of every ordered pair
# of those strings that share an element tuple, as amount text compared them
FORMULA_VERDICTS_SHA256 = "59512726951e10ee0e5f957cab229d1f8a69a380488e596c1b55d72954b3d0bb"


def test_formula_verdicts_unchanged_on_fixture_and_bench_strings(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    strings = set(fixture_strings())
    for workload, seed in BENCH_INPUTS:
        out = tmp_path / f"{workload}-{seed}"
        out.mkdir()
        gen.generate(workload, seed, out)
        for name in ("corpus.jsonl", "ner_predictions.jsonl", "re_predictions.jsonl"):
            strings.update(entity_strings(out / name))
    tier, by_elements = FormulaTier(), {}
    for text in sorted(strings):
        for elements, _ in tier.key(text).variants:
            by_elements.setdefault(elements, set()).add(text)
    pairs = sorted({(a, b) for texts in by_elements.values() for a in texts for b in texts})
    digest = hashlib.sha256()
    for a, b in pairs:
        outcome = tier.outcome(a, b)
        digest.update(repr((a, b, outcome.matched, outcome.tier, outcome.detail)).encode())
    assert (len(strings), len(pairs)) == (10524, 22033)
    assert digest.hexdigest() == FORMULA_VERDICTS_SHA256


def material_strings(path):
    """The material texts of a JSONL corpus or NER predictions file: what eval-ner keys."""
    for line in path.read_text(encoding="utf-8").splitlines():
        entities = json.loads(line).get("entities", ())
        if isinstance(entities, dict):
            yield from entities.get("material", ())
        else:
            yield from (e["text"] for e in entities if e["class"] == "material")


def test_formula_keys_stay_compact(tmp_path):
    # a key holds its text, one (element tuple, composition) per variant and
    # its error; shared strings and no per-key sets or dicts keep it small
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.generate("ner-tiers", 9137, tmp_path)
    strings = sorted({s for name in ("corpus.jsonl", "ner_predictions.jsonl")
                      for s in material_strings(tmp_path / name)})
    warm = FormulaTier()  # first uses fill the parser's caches: not the keys' bytes
    for text in strings:
        warm.key(text)
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        tier = FormulaTier()
        for text in strings:
            tier.key(text)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(strings) == 2997
    assert retained / len(strings) <= 900


def fixture_strings() -> list[str]:
    """Every entity and slot text of the fixture corpus and its canned responses."""
    data = ROOT / "tests" / "data"
    strings = set(entity_strings(data / "corpus.jsonl"))
    for path in sorted((data / "fixtures").rglob("*.txt")):
        for item in parse_response(path.read_text(encoding="utf-8"), path.parent.name):
            values = item.values() if isinstance(item, dict) else item
            strings.update(v for v in values if isinstance(v, str))
    return sorted(strings)


def first_equal_pair(ka, kb):
    """Witness oracle: every variant pair, ``ka``'s outer and ``kb``'s inner, in expansion order."""
    return next(((va, vb) for _, va in ka.variants for _, vb in kb.variants
                 if compositions_equal(va, vb)), None)


def assert_witness_is_first_equal_pair(tier, a, b):
    ka, kb = tier.key(a), tier.key(b)
    found, first = tier.witness(ka, kb), first_equal_pair(ka, kb)
    assert (found is None) == (first is None)
    if found is not None:  # the same dicts, not merely equal ones
        assert found[0] is first[0] and found[1] is first[1]


def test_witness_is_first_equal_pair_on_fixture_strings():
    tier, strings = FormulaTier(), fixture_strings()
    for a in strings:
        for b in strings:
            assert_witness_is_first_equal_pair(tier, a, b)


# several variants a side, candidates in any order: two sides can match
# through crossing variant pairs, and a value of 1 empties a site
crossing_texts = st.builds(
    lambda core, values, elements: core + (f" with x = {' and '.join(values)}" if values else "")
    + (f" (X = {', '.join(elements)})" if elements else ""),
    st.sampled_from(["Zr 5 X 3", "La 1-x X x CuO 4", "X 2 Cu 1-x O x", "Zr5Pb3", "LaSbCuO4"]),
    st.lists(st.sampled_from(["0.1", "0.2", "1"]), unique=True, max_size=3),
    st.lists(st.sampled_from(["Sb", "Pb", "Sn"]), unique=True, max_size=3),
)
witness_texts = st.one_of(material_texts, crossing_texts, st.sampled_from(fixture_strings()))


@settings(max_examples=400, deadline=None)
@given(witness_texts, witness_texts)
def test_witness_is_first_equal_pair(a, b):
    assert_witness_is_first_equal_pair(FormulaTier(), a, b)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.characters(), max_size=12))
def test_normalize_whitespace_equals_regex_collapse(text):
    assert normalize_whitespace(text) == re.sub(r"\s+", " ", text.strip())


def test_split_whitespace_is_regex_whitespace():
    # str.split and regex \s must agree on every code point
    assert all(
        bool(re.match(r"\s", chr(c))) == chr(c).isspace() for c in range(sys.maxunicode + 1)
    )
