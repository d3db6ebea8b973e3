"""Tests for material expression parsing, expansion, and comparison."""

import hashlib
import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mateval import materials
from mateval.errors import (
    EmptyInputError,
    MatEvalError,
    ExpansionLimitError,
    MixtureNotSupportedError,
    UnparseableMaterialError,
)
from mateval.materials import (
    DEFAULT_ADJUNCTS,
    ELEMENTS,
    Linear,
    SubstitutionSet,
    compositions_equal,
    expand_substitutions,
    format_composition,
    is_element,
    parse_material,
    strip_adjuncts,
)

MIXTURE = (
    "(1-x/2)La 2 O 3 /xSrCO 3 /CuO in molar ratio "
    "with x = 0.063, 0.07, 0.09, 0.10, 0.111 and 0.125"
)
X = Linear(0.0, 1.0, "x")
ONE_MINUS_X = Linear(1.0, -1.0, "x")


class TestConstants:
    """The periodic table and the default lexicon, pinned to the package
    data they replaced: digests of the symbols sorted and of the phrases
    in order."""

    def test_elements_are_the_118_symbols(self):
        assert len(ELEMENTS) == 118
        digest = hashlib.sha256(" ".join(sorted(ELEMENTS)).encode()).hexdigest()
        assert digest == "d3838a8b22cb49e39d94e357e1019572f475dbfa5cef56cdcaaa88fff48b690b"

    def test_default_adjuncts_are_the_12_phrases_in_order(self):
        digest = hashlib.sha256(json.dumps(list(DEFAULT_ADJUNCTS)).encode()).hexdigest()
        assert digest == "2ad78939ac76b25e67756603c01a3b6242ef7455c5b5587cfd3d6a68efc4717c"


class TestStripAdjuncts:
    def test_leading_descriptor(self):
        core, adjuncts = strip_adjuncts("hole-doped La 2-x Sr x CuO 4")
        assert core == "La 2-x Sr x CuO 4"
        assert adjuncts == ["hole-doped"]

    def test_no_adjuncts(self):
        assert strip_adjuncts("MgB2") == ("MgB2", [])

    def test_multiple_descriptors(self):
        core, adjuncts = strip_adjuncts(
            "electron-doped infinite-layer superconductors "
            "Sr 0.9 La 0.1 Cu 1-x R x O 2"
        )
        assert core == "Sr 0.9 La 0.1 Cu 1-x R x O 2"
        assert adjuncts == ["electron-doped", "infinite-layer", "superconductors"]

    def test_trailing_multiword_descriptor(self):
        core, adjuncts = strip_adjuncts("MgB2 single crystal")
        assert core == "MgB2"
        assert adjuncts == ["single crystal"]

    def test_case_insensitive_lexicon_match(self):
        core, adjuncts = strip_adjuncts("Bulk MgB2")
        assert core == "MgB2"
        assert adjuncts == ["Bulk"]

    def test_whitespace_only_rejected(self):
        with pytest.raises(EmptyInputError):
            strip_adjuncts("   ")

    def test_coverage_up_to_whitespace(self):
        raw = "hole-doped La 2-x Sr x CuO 4 single crystal"
        core, adjuncts = strip_adjuncts(raw)
        reassembled = " ".join(adjuncts) + " " + core
        assert sorted(reassembled.split()) == sorted(raw.split())

    def test_empty_lexicon_strips_nothing(self):
        assert strip_adjuncts("MgB2 thin film", ()) == ("MgB2 thin film", [])

    def test_custom_lexicon(self):
        core, adjuncts = strip_adjuncts("fancy MgB2", lexicon=("fancy",))
        assert (core, adjuncts) == ("MgB2", ["fancy"])

    @pytest.mark.parametrize("raw", ["İx MgB2", "MgB2 İx"], ids=["prefix", "suffix"])
    def test_phrase_whose_lowercase_is_longer(self, raw):
        # "İ".lower() is two code points: the text is cut by the phrase's own length
        assert strip_adjuncts(raw, ("İx",)) == ("MgB2", ["İx"])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_lexicon_reads_the_same_with_any_line_ending(tmp_path, newline):
    lexicon = tmp_path / "lexicon.json"
    text = json.dumps({"adjuncts": ["shiny", "thin film"]}, indent=2)
    lexicon.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert materials.load_adjuncts(str(lexicon)) == ("shiny", "thin film")


class TestParseMaterial:
    def test_simple_fused(self):
        pm = parse_material("MgB2")
        assert pm.composition == {"Mg": 1.0, "B": 2.0}
        assert pm.substitutions == []
        assert pm.free_variables == set()

    def test_spaced_and_fused_agree(self):
        assert (
            parse_material("La 3 Ir 2 Ge 2").composition
            == parse_material("La3Ir2Ge2").composition
        )

    def test_element_substitution_clause(self):
        pm = parse_material("Zr 5 X 3 (X = Sb, Pb, Sn, Ge, Si and Al)")
        assert pm.composition == {"Zr": 5.0, "X": 3.0}
        assert pm.substitutions == [
            SubstitutionSet("X", ("Sb", "Pb", "Sn", "Ge", "Si", "Al"))
        ]

    def test_numeric_substitution_clause(self):
        pm = parse_material("Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5")
        assert pm.composition == {"Eu": ONE_MINUS_X, "K": X, "Fe": 2.0, "As": 2.0}
        assert pm.substitutions == [SubstitutionSet("x", (0.35, 0.45, 0.5))]
        assert "samples" in pm.adjuncts

    def test_where_clause_binds_placeholder(self):
        pm = parse_material("Sr 0.9 La 0.1 Cu 1-x R x O 2 where R = Zn and Ni")
        assert pm.composition == {
            "Sr": 0.9, "La": 0.1, "Cu": ONE_MINUS_X, "R": X, "O": 2.0,
        }
        assert pm.substitutions == [SubstitutionSet("R", ("Zn", "Ni"))]
        assert pm.free_variables == {"x"}

    def test_combined_element_and_doping_clause(self):
        pm = parse_material("La Fe 1-x A x O 3 (A = Ni and x = 0.2)")
        assert pm.substitutions == [
            SubstitutionSet("A", ("Ni",)),
            SubstitutionSet("x", (0.2,)),
        ]

    def test_parenthesized_amounts(self):
        pm = parse_material("La(1-x)Fe(x)O3")
        assert pm.composition == {"La": ONE_MINUS_X, "Fe": X, "O": 3.0}

    def test_complementary_variables_fused(self):
        pm = parse_material("LaFexO1-x")
        assert pm.composition == {"La": 1.0, "Fe": X, "O": ONE_MINUS_X}
        assert pm.free_variables == {"x"}

    def test_mixture_rejected(self):
        with pytest.raises(MixtureNotSupportedError):
            parse_material(MIXTURE)

    def test_no_element_token(self):
        with pytest.raises(UnparseableMaterialError):
            parse_material("ambient pressure")

    def test_bare_quantity_rejected(self):
        with pytest.raises(UnparseableMaterialError):
            parse_material("4.7 K")

    def test_range_rejected(self):
        with pytest.raises(UnparseableMaterialError):
            parse_material("29-31 K")

    def test_rich_expression_rejected(self):
        with pytest.raises(UnparseableMaterialError):
            parse_material("La 1-x/2 O 3")

    def test_abbreviation_style_rejected(self):
        with pytest.raises(UnparseableMaterialError):
            parse_material("(TMTSF) 2 PF 6")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_material(" \t ")

    def test_adjuncts_stripped_before_parse(self):
        pm = parse_material("hole-doped La 2-x Sr x CuO 4")
        assert pm.adjuncts == ["hole-doped"]
        assert pm.core_text == "La 2-x Sr x CuO 4"
        assert pm.composition == {"La": Linear(2.0, -1.0, "x"), "Sr": X, "Cu": 1.0, "O": 4.0}

    def test_percent_doping_recorded_as_adjunct(self):
        pm = parse_material("4% MgB2")
        assert pm.composition == {"Mg": 1.0, "B": 2.0}
        assert "4%" in pm.adjuncts

    def test_case_sensitive_symbols(self):
        # "CA" must not collapse into calcium
        assert parse_material("CA").composition != parse_material("Ca").composition

    def test_repeated_element_amounts_summed(self):
        assert parse_material("CaOH2O").composition == {"Ca": 1.0, "O": 2.0, "H": 2.0}

    def test_deterministic(self):
        text = "Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5"
        assert parse_material(text) == parse_material(text)


class TestExpandSubstitutions:
    def test_element_expansion(self):
        pm = parse_material("Zr 5 X 3 (X = Sb, Pb, Sn, Ge, Si and Al)")
        variants = expand_substitutions(pm)
        assert len(variants) == 6
        assert variants[0].composition == {"Zr": 5.0, "Sb": 3.0}
        assert all(not v.substitutions for v in variants)

    def test_numeric_expansion(self):
        pm = parse_material("Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5")
        variants = expand_substitutions(pm)
        assert len(variants) == 3
        assert {"Eu": 0.5, "K": 0.5, "Fe": 2.0, "As": 2.0} in [
            v.composition for v in variants
        ]

    def test_identity_without_substitutions(self):
        pm = parse_material("MgB2")
        assert expand_substitutions(pm) == [pm]

    def test_cartesian_count(self):
        pm = parse_material("La Fe 1-x A x O 3 (A = Ni, Cu and x = 0.1, 0.2, 0.3)")
        variants = expand_substitutions(pm)
        assert len(variants) == 2 * 3

    def test_expansion_cap(self):
        pm = parse_material("Zr 5 X 3 (X = Sb, Pb, Sn)")
        with pytest.raises(ExpansionLimitError):
            expand_substitutions(pm, cap=2)

    def test_zero_amount_vacates_site(self):
        for x in ("1", "1.0000001"):  # zero, or below it within tol
            pm = parse_material(f"Eu 1-x K x Fe 2 As 2 with x = {x}")
            (variant,) = expand_substitutions(pm)
            assert "Eu" not in variant.composition
            assert variant.composition["K"] == float(x)


class TestCompositionsEqual:
    def test_key_order_irrelevant(self):
        assert compositions_equal({"Mg": 1, "B": 2}, {"B": 2, "Mg": 1})

    def test_distinct_elements(self):
        assert not compositions_equal({"Ca": 1}, {"Cr": 1})

    def test_symbolic_against_parsed(self):
        left = {"Sr": 0.9, "La": 0.1, "Cu": "1-x", "Ni": "x", "O": 2}
        right = parse_material("Sr0.9La0.1Cu1-xNixO2").composition
        assert compositions_equal(left, right)

    def test_variable_renaming_is_consistent(self):
        assert compositions_equal({"Cu": "1-x", "Ni": "x"}, {"Cu": "1-y", "Ni": "y"})
        assert not compositions_equal({"Cu": "1-x", "Ni": "x"}, {"Cu": "1-x", "Ni": "y"})

    def test_numeric_tolerance(self):
        assert compositions_equal({"Mg": 1.0}, {"Mg": 1.0 + 5e-7})
        assert not compositions_equal({"Mg": 1.0}, {"Mg": 1.001})

    def test_non_finite_amounts_never_equal(self):
        for value in (float("inf"), float("nan")):
            assert not compositions_equal({"O": value}, {"O": value})

    def test_numeric_vs_symbolic_never_equal(self):
        assert not compositions_equal({"Eu": 0.5}, {"Eu": "x"})

    def test_malformed_linear_amounts_never_equal(self):
        for bad in (Linear("2", -1.0, "x"), Linear(2.0, -1.0, ["x"])):
            assert not compositions_equal({"La": bad}, {"La": Linear(2.0, -1.0, "x")})

    def test_symmetry(self):
        rng = random.Random(11)
        pool = [
            {"Mg": 1.0, "B": 2.0},
            {"La": "2-x", "Sr": "x", "Cu": 1.0, "O": 4.0},
            {"La": "2-y", "Sr": "y", "Cu": 1.0, "O": 4.0},
            {"Eu": 0.5, "K": 0.5},
        ]
        for _ in range(50):
            a, b = rng.choice(pool), rng.choice(pool)
            assert compositions_equal(a, b) == compositions_equal(b, a)

    def test_reflexive(self):
        for comp in ({"Mg": 1}, {"La": "2-x", "Sr": "x"}, {"Eu": 0.35}):
            assert compositions_equal(comp, comp)

    def test_linear_constants_within_tol(self):
        assert compositions_equal({"La": Linear(2.0, -1.0, "x")}, {"La": "2.0000001-y"})
        assert not compositions_equal({"La": Linear(2.0, -1.0, "x")}, {"La": "2.001-x"})
        assert not compositions_equal({"La": Linear(2.0, -1.0, "x")}, {"La": "2+x"})


class TestAmountGrammar:
    def test_greek_variable_is_reflexive(self):
        comp = parse_material("YBa2Cu3O7-δ").composition
        assert comp["O"] == Linear(7.0, -1.0, "δ")
        assert str(comp["O"]) == "7-δ"
        assert compositions_equal(comp, comp)

    @pytest.mark.parametrize("text", ["YBa 2 Cu 3 O 7-δ", "YBa2Cu3O7 - δ", "YBa2Cu3O7-Δ"])
    def test_renderings_share_one_grammar(self, text):
        assert parse_material(text).composition == parse_material("YBa2Cu3O7-δ").composition

    def test_sign_before_element_is_not_an_amount(self):
        with pytest.raises(UnparseableMaterialError):
            parse_material("MgB2 + C")

    def test_clause_letter_must_be_a_variable(self):
        with pytest.raises(UnparseableMaterialError):
            parse_material("MgB2 (中 = 1)")  # a letter without case names no variable

    @pytest.mark.parametrize("comp,text", [
        ({"S": "n"}, "S(n)"),
        ({"O": 0.00001}, "O0.00001"),
        ({"Fe": Linear(0.0, 1.0, "x")}, "Fex"),
        ({"O": Linear(1e-11, 1.0, "x")}, "O0+x"),
        ({"La": "2.0-x", "Sr": "x"}, "La2-xSrx"),
    ])
    def test_format_reparses(self, comp, text):
        assert format_composition(comp) == text
        assert compositions_equal(parse_material(text).composition, comp)


def canonical(text):
    """The canonical text of an amount read by the one amount grammar."""
    return str(materials._parse_amount_text(text))


class TestCanonicalization:
    @pytest.mark.parametrize("text,expected", [
        ("1-x", "1-x"),
        (" 1 - X ", "1-x"),
        ("x", "x"),
        ("2+Y", "2+y"),
        ("7 - Δ", "7-δ"),
        ("2.0-x", "2-x"),
        ("0+x", "x"),
        ("0.50-x", "0.5-x"),
    ])
    def test_canonical_forms(self, text, expected):
        assert canonical(text) == expected

    def test_idempotent(self):
        for text in ("1-x", "2+y", "x", " 0.5 - z", "0-x", "2.00+y"):
            once = canonical(text)
            assert canonical(once) == once

    def test_rejects_rich_expressions(self):
        for text in ("1-x/2", "1 2", "0. 5"):  # whitespace never joins a decimal
            with pytest.raises(UnparseableMaterialError):
                canonical(text)

    def test_whitespace_inside_a_decimal_never_compares_equal(self):
        assert not compositions_equal({"Cu": "1 2"}, {"Cu": 12.0})
        assert not compositions_equal({"Cu": "0. 5"}, {"Cu": 0.5})


@st.composite
def compositions(draw):
    symbols = draw(
        st.lists(
            st.sampled_from(["La", "Sr", "Cu", "O", "Fe", "As", "Mg", "B", "Zr", "K"]),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    comp = {}
    variables = ["x", "y", "z"]
    for i, sym in enumerate(symbols):
        kind = draw(st.sampled_from(["int", "dec", "sym", "one"]))
        if kind == "int":
            comp[sym] = float(draw(st.integers(min_value=1, max_value=9)))
        elif kind == "dec":
            comp[sym] = draw(st.integers(min_value=1, max_value=99)) / 100
        elif kind == "sym":
            var = variables[i % len(variables)]
            coeff = draw(st.sampled_from([None, "1", "2", "0.9"]))
            comp[sym] = var if coeff is None else f"{coeff}-{var}"
        else:
            comp[sym] = 1.0
    return comp


SYMBOLS = ["La", "Sr", "Cu", "O", "Fe", "S", "B", "A", "X", "Δ"]
AMOUNTS = [
    "", "2", "0.5", "0.00001", "12345.678901234", "x", "n", "δ", "1-x", "2+y",
    "7-δ", "7-Δ", "7 - δ", "(1-x)", "(x)", "-", "İ",
]
CLAUSES = ["", " (X = Sb, Pb)", " with x = 0.1 and 0.2", " samples with δ = 0.1"]
formulas = st.builds(
    lambda parts, clause: "".join(parts) + clause,
    st.lists(
        st.builds("{}{}{}".format, st.sampled_from(SYMBOLS), st.sampled_from(["", " "]),
                  st.sampled_from(AMOUNTS)).map(lambda part: part + " "),
        min_size=1, max_size=5,
    ),
    st.sampled_from(CLAUSES),
)
material_texts = st.one_of(formulas, st.text(max_size=12))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(compositions())
    def test_roundtrip_through_fused_text(self, comp):
        rendered = format_composition(comp)
        assert compositions_equal(parse_material(rendered).composition, comp)

    @settings(max_examples=150, deadline=None)
    @given(compositions(), st.randoms(use_true_random=False))
    def test_spacing_invariance(self, comp, rnd):
        fused = format_composition(comp)
        spaced_all = " ".join(
            f"{sym}" if amount == 1.0 else f"{sym} {_render_amount(amount)}"
            for sym, amount in comp.items()
        )
        assert (
            parse_material(fused).composition
            == parse_material(spaced_all).composition
        )

    @settings(max_examples=150, deadline=None)
    @given(compositions(), st.integers(min_value=1, max_value=3))
    def test_constant_spelling_is_irrelevant(self, comp, zeros):
        fused = format_composition(comp)
        # "2-x" -> "2.0-x", "0.9-x" -> "0.90-x": the same constants, other text
        respelled = re.sub(r"\d+(?:\.\d+)?(?=[+-])",
                           lambda m: m.group(0) + ("" if "." in m.group(0) else ".") + "0" * zeros,
                           fused)
        assert parse_material(respelled).composition == parse_material(fused).composition
        assert compositions_equal(parse_material(respelled).composition, comp)

    @settings(max_examples=100, deadline=None)
    @given(compositions())
    def test_equality_reflexive(self, comp):
        assert compositions_equal(comp, comp)

    @settings(max_examples=500, deadline=None)
    @given(material_texts)
    # amounts that read as inf, or sum to inf when parsed or expanded
    @example("O" + "9" * 400)
    @example("Ox with x = " + "9" * 400)
    @example("O" + "9" * 308 + " O" + "9" * 308)
    @example("X" + "9" * 308 + " O" + "9" * 308 + " (X = O)")
    @example("O(" + "9" * 308 + "+x) with x = " + "9" * 308)
    @example("B U L K")  # renders as the adjunct word "BULK"
    def test_every_accepted_variant_is_reflexive_and_reparses(self, text):
        try:
            variants = expand_substitutions(parse_material(text))
        except MatEvalError:
            return
        for variant in variants:
            comp = variant.composition
            assert compositions_equal(comp, comp)
            rendered = format_composition(comp)
            assert compositions_equal(parse_material(rendered).composition, comp)

    def test_expansion_preserves_slot_count(self):
        pm = parse_material("Zr 5 X 3 (X = Sb, Pb, Sn)")
        for variant in expand_substitutions(pm):
            assert len(variant.composition) == len(pm.composition)


def _render_amount(amount):
    if isinstance(amount, str):
        return amount
    if amount == int(amount):
        return str(int(amount))
    return format(amount, ".10g")


def oracle_strip_adjuncts(raw, lexicon=None):
    """The phrase-by-phrase strip: each phrase, longest first (a stable
    sort), compared with the text cut at the phrase's length and lowered."""
    text = raw.strip()
    if not text:
        raise EmptyInputError("material expression is empty")
    phrases = sorted(DEFAULT_ADJUNCTS if lexicon is None else lexicon, key=len, reverse=True)
    phrases = [(p.lower(), len(p)) for p in phrases]
    adjuncts = []

    def strip_edge(s, suffix):
        for p, n in phrases:
            if suffix:
                if len(s) > n and s[-n - 1].isspace() and s[len(s) - n:].lower() == p:
                    return s[:-n].strip(), s[len(s) - n:]
            else:
                if len(s) > n and s[n].isspace() and s[:n].lower() == p:
                    return s[n:].strip(), s[:n]
        return s, None

    for suffix in (False, True):
        while text:
            text, removed = strip_edge(text, suffix)
            if removed is None:
                break
            adjuncts.append(removed)
    return text, adjuncts


ORACLE_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")


def oracle_variable(ch):
    low = ch.lower()
    return low if len(low) == 1 and low.islower() else None


def oracle_finite(value):
    if not math.isfinite(value):
        raise UnparseableMaterialError(f"amount out of range: {value}")
    return value


def oracle_read_amount(text, i):
    """The string-index amount reader: ``c``, ``c±v`` or ``v`` at ``text[i:]``."""
    m = ORACLE_NUMBER_RE.match(text, i)
    if m is None:
        if i < len(text) and oracle_variable(text[i]) == text[i]:
            return Linear(0.0, 1.0, text[i]), i + 1
        return None
    j = m.end()
    value = oracle_finite(float(m.group(0)))
    var = oracle_variable(text[j + 1]) if j + 1 < len(text) and text[j] in "+-" else None
    if var:
        return Linear(value, -1.0 if text[j] == "-" else 1.0, var), j + 2
    return value, j


def oracle_parse_amount_text(text):
    """A whole amount read from the text with all whitespace squeezed out
    (so it is only a reference where the text holds none)."""
    squeezed = re.sub(r"\s+", "", text).lower()
    read = oracle_read_amount(squeezed, 0)
    if read is None or read[1] != len(squeezed):
        raise UnparseableMaterialError(f"unsupported amount expression: {text!r}")
    return read[0]


def oracle_parse_fragment(token):
    """The character-by-character fused-fragment reader."""
    pairs = []
    i = 0
    while i < len(token):
        ch = token[i]
        if not ch.isupper():
            raise UnparseableMaterialError(f"expected element symbol at {token[i:]!r}")
        two = token[i: i + 2]
        if len(two) == 2 and two[1].islower() and is_element(two):
            symbol, i = two, i + 2
        else:  # an uppercase letter that names no element is a placeholder
            symbol, i = ch, i + 1
        if i < len(token) and token[i] == "(":
            j = token.find(")", i)
            if j == -1:
                raise UnparseableMaterialError(f"unbalanced parenthesis in {token!r}")
            pairs.append((symbol, oracle_parse_amount_text(token[i + 1: j])))
            i = j + 1
            continue
        start, read = i, oracle_read_amount(token, i)
        amount = None
        if read is not None:
            amount, i = read
        if isinstance(amount, Linear) and i < len(token):
            if i - start > 1 and token[i].islower():  # c±v
                raise UnparseableMaterialError(f"ambiguous variable in amount: {token!r}")
            if i - start == 1 and not (token[i].isupper() or token[i] == "("):
                raise UnparseableMaterialError(f"cannot read amount in {token!r}")
        pairs.append((symbol, amount))
    return pairs


def read_word(token):
    """The parser's unit reader over one word's tokens."""
    pairs = []
    materials._read_word(materials._TOKEN_RE.findall(token), pairs)
    return pairs


def outcome(fn, *args):
    try:
        return fn(*args)
    except MatEvalError as exc:
        return type(exc).__name__, str(exc)


# phrase pieces in case variants, with the characters whose lowercase is
# special: U+0130 lowers to two code points, the long s U+017F folds to s
# under re.IGNORECASE but not under str.lower, the Kelvin sign U+212A lowers
# to k, and capital sigma lowers by context
EDGE_PIECES = [
    "bulk", "BULK", "Bulk", "single crystal", "\u017fingle crystal", "SINGLE  crystal",
    "\u0130x", "i\u0307x", "Ix", "K", "k", "\u212a", "\u0391\u03a3", "\u03b1\u03c2",
    "\u03c3", "doped", "hole-doped", "MgB2", "La 2-x Sr x CuO 4", " ", "  ", "\t", "\xa0",
]
edge_texts = st.lists(st.sampled_from(EDGE_PIECES), max_size=6).map("".join)
lexicons = st.one_of(
    st.none(),
    st.just(()),
    st.lists(
        st.sampled_from([
            "\u0130x", "i\u0307x", "bulk", "single crystal", "\u0391\u03a3", "K", "\u212a",
            "\u017f", "", "x",
        ]),
        max_size=4,
    ).map(tuple),
)
FUSED_PIECES = [
    "Cu", "C", "u", "O", "Eu", "Mg", "B", "X", "R", "x", "y", "\u03b4", "2", "0.5", "1-x",
    "2+y", "-", "+", "(", ")", "(1-x)", "(x)", ".", "\u0130", "\u03a3", "\u03d2", "\u017f",
    "\u212a", "\u0661", "9" * 400,
]
fused_tokens = st.lists(st.sampled_from(FUSED_PIECES), min_size=1, max_size=6).map("".join)


class TestReaderOracles:
    """The per-length strip and the token-based word reader against the
    loops they replaced, and the tokenizer they read."""

    @settings(max_examples=500, deadline=None)
    @given(edge_texts, lexicons)
    @example("İx MgB2", ("İx",))
    @example("MgB2 İx", ("İx",))
    @example("ſingle crystal MgB2", ("single crystal",))
    @example("bulk MgB2 single crystal", ())
    @example("K MgB2 k", ("k",))
    @example("ΑΣ MgB2", ("ΑΣ",))
    def test_strip_adjuncts_equals_phrase_loop(self, raw, lexicon):
        assert outcome(strip_adjuncts, raw, lexicon) == outcome(oracle_strip_adjuncts, raw, lexicon)

    def test_long_s_is_not_folded_into_s(self):
        # re.IGNORECASE would fold the long s to s; str.lower keeps it
        raw = "\u017fingle crystal MgB2"
        assert strip_adjuncts(raw, ("single crystal",)) == (raw, [])

    def test_empty_lexicon_and_empty_phrase_strip_nothing(self):
        assert strip_adjuncts("bulk MgB2 thin film", ()) == ("bulk MgB2 thin film", [])
        assert strip_adjuncts("bulk MgB2", ("",)) == ("bulk MgB2", [])

    @settings(max_examples=1000, deadline=None)
    @given(fused_tokens)
    @example("C(x).")
    @example("Cu(1-x)\u03b4")
    @example("A0.25Eu6")
    @example("Cu1-X")
    @example("Mg(")
    def test_fragment_reader_equals_character_loop(self, token):
        assert outcome(read_word, token) == outcome(oracle_parse_fragment, token)

    @settings(max_examples=1000, deadline=None)
    @given(st.text())
    @example("Cu1.5.2 \t\n\u0661\u0662.\u0663x\xa0%")
    def test_tokenizer_loses_no_character(self, text):
        tokens = materials._TOKEN_RE.findall(text)
        assert "".join(tokens) == text  # a dropped character is a misread formula
        for token, after in zip(tokens, tokens[1:] + [""]):
            if token.isspace():  # one whole whitespace run
                assert not after[:1].isspace()
            elif token[0].isdecimal():  # one whole decimal
                assert all(part.isdecimal() for part in token.split(".", 1))
                assert not after[:1].isdecimal()
            else:
                assert len(token) == 1


class TestAmountMerge:
    """Repeats of one symbol, in a formula or after substituting a placeholder,
    merge by one rule: numeric amounts sum, a symbolic amount clashes."""

    @pytest.mark.parametrize("text, composition", [
        ("CuOCu", {"Cu": 2.0, "O": 1.0}),  # two implicit amounts of 1
        ("Cu2OCu0.5", {"Cu": 2.5, "O": 1.0}),
    ])
    def test_numeric_repeats_sum(self, text, composition):
        assert parse_material(text).composition == composition

    def test_substituted_numeric_repeats_sum(self):
        (variant,) = expand_substitutions(parse_material("ACu2O (A = Cu)"))
        assert variant.composition == {"Cu": 3.0, "O": 1.0}

    @pytest.mark.parametrize("text", ["CuxCu", "CuCuxO"])
    def test_symbolic_repeat_message(self, text):
        with pytest.raises(UnparseableMaterialError) as err:
            parse_material(text)
        assert str(err.value) == f"repeated element 'Cu' with symbolic amounts in {text!r}"

    @pytest.mark.parametrize("text", ["AxCu (A = Cu)", "ACux (A = Cu)"])
    def test_substitution_clash_message(self, text):
        with pytest.raises(UnparseableMaterialError) as err:
            expand_substitutions(parse_material(text))
        assert str(err.value) == "substituting A->Cu collides with a symbolic amount"

    def test_a_clash_leaves_the_composition_as_it_was(self):
        composition = {"Cu": "x", "O": 1.0}
        assert materials._add_amount(composition, "Cu", 1.0) is False
        assert materials._add_amount(composition, "O", "y") is False
        assert composition == {"Cu": "x", "O": 1.0}


def golden_formula_rows():
    """The rows of ``tests/data/formulas.tsv``; lines starting "#" are comments."""
    path = Path(__file__).parent / "data" / "formulas.tsv"
    lines = [line for line in path.read_text(encoding="utf-8").split("\n")
             if line and not line.startswith("#")]
    header, *rows = (line.split("\t") for line in lines)
    assert header == ["input", "formula", "adjuncts", "error", "message", "known"]
    return [pytest.param(*row, id=row[0].strip() or "whitespace") for row in rows]


@pytest.mark.parametrize("text, formula, adjuncts, error, message, known", golden_formula_rows())
def test_golden_formula_table(text, formula, adjuncts, error, message, known):
    assert re.fullmatch(r"(item \d+)?", known)
    if not error:
        pm = parse_material(text)
        expected = adjuncts.split("|") if adjuncts else []
        assert (format_composition(pm.composition), pm.adjuncts) == (formula, expected)
        return
    with pytest.raises(MatEvalError) as err:
        parse_material(text)
    assert type(err.value).__name__ == error
    assert not message or str(err.value) == message
