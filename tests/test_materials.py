"""Tests for material expression parsing, expansion, and comparison."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mateval.errors import (
    EmptyInputError,
    MatEvalError,
    ExpansionLimitError,
    MixtureNotSupportedError,
    UnparseableMaterialError,
)
from mateval.materials import (
    SubstitutionSet,
    canonicalize_amount,
    compositions_equal,
    expand_substitutions,
    format_composition,
    parse_material,
    strip_adjuncts,
)

MIXTURE = (
    "(1-x/2)La 2 O 3 /xSrCO 3 /CuO in molar ratio "
    "with x = 0.063, 0.07, 0.09, 0.10, 0.111 and 0.125"
)


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

    def test_custom_lexicon(self):
        core, adjuncts = strip_adjuncts("fancy MgB2", lexicon=("fancy",))
        assert (core, adjuncts) == ("MgB2", ["fancy"])


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
        assert pm.composition == {"Eu": "1-x", "K": "x", "Fe": 2.0, "As": 2.0}
        assert pm.substitutions == [SubstitutionSet("x", (0.35, 0.45, 0.5))]
        assert "samples" in pm.adjuncts

    def test_where_clause_binds_placeholder(self):
        pm = parse_material("Sr 0.9 La 0.1 Cu 1-x R x O 2 where R = Zn and Ni")
        assert pm.composition == {
            "Sr": 0.9, "La": 0.1, "Cu": "1-x", "R": "x", "O": 2.0,
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
        assert pm.composition == {"La": "1-x", "Fe": "x", "O": 3.0}

    def test_complementary_variables_fused(self):
        pm = parse_material("LaFexO1-x")
        assert pm.composition == {"La": 1.0, "Fe": "x", "O": "1-x"}
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
        assert pm.composition == {"La": "2-x", "Sr": "x", "Cu": 1.0, "O": 4.0}

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
        pm = parse_material("Eu 1-x K x Fe 2 As 2 with x = 1")
        (variant,) = expand_substitutions(pm)
        assert "Eu" not in variant.composition
        assert variant.composition["K"] == 1.0


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

    def test_numeric_vs_symbolic_never_equal(self):
        assert not compositions_equal({"Eu": 0.5}, {"Eu": "x"})

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


class TestAmountGrammar:
    def test_greek_variable_is_reflexive(self):
        comp = parse_material("YBa2Cu3O7-δ").composition
        assert comp["O"] == "7-δ"
        assert compositions_equal(comp, comp)

    @pytest.mark.parametrize("text", ["YBa 2 Cu 3 O 7-δ", "YBa2Cu3O7 - δ", "YBa2Cu3O7-Δ"])
    def test_renderings_share_one_grammar(self, text):
        assert parse_material(text).composition == parse_material("YBa2Cu3O7-δ").composition

    def test_sign_before_element_is_not_an_amount(self):
        with pytest.raises(UnparseableMaterialError):
            parse_material("MgB2 + C")

    @pytest.mark.parametrize("comp,text", [
        ({"S": "n"}, "S(n)"),
        ({"O": 0.00001}, "O0.00001"),
    ])
    def test_format_reparses(self, comp, text):
        assert format_composition(comp) == text
        assert compositions_equal(parse_material(text).composition, comp)


class TestCanonicalization:
    @pytest.mark.parametrize("text,expected", [
        ("1-x", "1-x"),
        (" 1 - X ", "1-x"),
        ("x", "x"),
        ("2+Y", "2+y"),
        ("7 - Δ", "7-δ"),
    ])
    def test_canonical_forms(self, text, expected):
        assert canonicalize_amount(text) == expected

    def test_idempotent(self):
        for text in ("1-x", "2+y", "x", " 0.5 - z"):
            once = canonicalize_amount(text)
            assert canonicalize_amount(once) == once

    def test_rejects_rich_expressions(self):
        with pytest.raises(UnparseableMaterialError):
            canonicalize_amount("1-x/2")


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

    @settings(max_examples=100, deadline=None)
    @given(compositions())
    def test_equality_reflexive(self, comp):
        assert compositions_equal(comp, comp)

    @settings(max_examples=500, deadline=None)
    @given(material_texts)
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
