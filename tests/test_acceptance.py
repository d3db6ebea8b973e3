"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Everything here is offline and finishes in well under a minute.
"""

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mateval.corpus import Document, EntityMention, RelationGroup
from mateval.evaluation import _GroupTier, filter_relation_blocks
from mateval.finetune import prepare_finetune
from mateval.matching import StrictTier, formula_match, ratcliff_obershelp, strict_match
from mateval.materials import compositions_equal, parse_material
from mateval.scoring import MatchCounts, aggregate_runs, count_matches, prf

from test_matching import oracle_ratio
from test_scoring import brute_force_max_matching, f1_runs

DATA = Path(__file__).parent / "data"

PASS_LINE = "acceptance criterion {n} ({name}): PASS"


def report(n, name):
    print(PASS_LINE.format(n=n, name=name))


def test_criterion_1_f1_arithmetic():
    """Harmonic-mean arithmetic and the strict-to-formula F1 gain."""
    # counts reproducing P=0.2250, R=0.1364 exactly
    strict_scores = prf(MatchCounts(tp=3069, fp=10571, fn=19431))
    assert strict_scores.precision == pytest.approx(0.2250, abs=1e-12)
    assert strict_scores.recall == pytest.approx(0.1364, abs=1e-12)
    assert abs(strict_scores.f1 - 0.1701) <= 5e-4

    # counts reproducing P=0.6112, R=0.3600 exactly
    formula_scores = prf(MatchCounts(tp=3438, fp=2187, fn=6112))
    assert formula_scores.precision == pytest.approx(0.6112, abs=1e-12)
    assert formula_scores.recall == pytest.approx(0.3600, abs=1e-12)
    assert abs(formula_scores.f1 - 0.4531) <= 5e-4

    gain = (formula_scores.f1 - strict_scores.f1) * 100
    assert abs(gain - 28.3) <= 0.1
    report(1, "F1 arithmetic")


def test_criterion_2_run_aggregation():
    """Three-run F1 mean/std aggregation at table precision."""
    agg = aggregate_runs(f1_runs(21.64, 20.24, 21.79))
    mean, std = agg.table_f1()
    assert abs(mean - 21.22) <= 5e-3
    assert abs(std - 0.85) <= 5e-3

    agg = aggregate_runs(f1_runs(59.34, 59.31, 59.09))
    mean, std = agg.table_f1()
    assert abs(mean - 59.24) <= 5e-3
    assert abs(std - 0.13) <= 5e-3
    report(2, "run aggregation")


POSITIVE_FORMULA_PAIRS = [
    ("hole-doped La 2-x Sr x CuO 4", "La 2-x Sr x CuO 4"),
    ("Nd 2-x Ce x CuO 4", "Nd2-xCexCuO4"),
    (
        "electron-doped infinite-layer superconductors "
        "Sr 0.9 La 0.1 Cu 1-x R x O 2 where R = Zn and Ni",
        "Sr0.9La0.1Cu1-xNixO2",
    ),
    (
        "Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5",
        "Eu 0.5 K 0.5 Fe 2 As 2",
    ),
]

MIXTURE_PAIR = (
    "(1-x/2)La 2 O 3 /xSrCO 3 /CuO in molar ratio "
    "with x = 0.063, 0.07, 0.09, 0.10, 0.111 and 0.125",
    "La2O3",
)


def test_criterion_3_formula_matching_golden_suite():
    """Adjunct, formatting, and substitution match cases, plus the mixture
    that must NOT match."""
    for a, b in POSITIVE_FORMULA_PAIRS:
        outcome = formula_match(a, b)
        assert outcome.matched, (a, b, outcome.detail)
        assert not strict_match(a, b), (a, b)

    # formatting variants are the same parsed composition...
    assert (
        parse_material("Nd 2-x Ce x CuO 4").composition
        == parse_material("Nd2-xCexCuO4").composition
    )
    assert compositions_equal(
        parse_material("La 2-x Sr x CuO 4").composition,
        parse_material("La2-xSrxCuO4").composition,
    )
    # ...but the two different cuprate families stay distinct
    assert not formula_match("Nd 2-x Ce x CuO 4", "La 2-x Sr x CuO 4").matched

    # deliberate divergence: the mixture is rejected instead of mis-matched
    assert not formula_match(*MIXTURE_PAIR).matched
    report(3, "formula-matching golden suite")


def test_criterion_4_ratcliff_obershelp():
    """Exact values and 1,000-pair agreement with the brute-force oracle."""
    solar = ratcliff_obershelp("solar cell", "solar cells")
    assert 0.95 <= solar <= 0.96
    assert solar >= 0.9
    assert ratcliff_obershelp("Ca", "Cr") == 0.5

    rng = random.Random(404)
    for _ in range(1000):
        a = "".join(rng.choice("abcAB ") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abcAB ") for _ in range(rng.randint(0, 12)))
        assert ratcliff_obershelp(a, b) == oracle_ratio(a, b)
    report(4, "Ratcliff/Obershelp oracle agreement")


def test_criterion_5_counting_oracle():
    """Maximum matching vs exhaustive search, and the strict closed form."""
    rng = random.Random(505)
    for _ in range(500):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        matrix = [[rng.random() < 0.4 for _ in range(m)] for _ in range(n)]
        counts = count_matches(
            [f"e{i}" for i in range(n)],
            [f"p{j}" for j in range(m)],
            lambda a, b: matrix[int(a[1:])][int(b[1:])],
        )
        assert counts.tp == brute_force_max_matching(matrix)

    alphabet = ["MgB2", "H2S", "H3S", "LaFeO3", "Nb3Sn", "x"]
    for _ in range(500):
        expected = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        predicted = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        counts = count_matches(expected, predicted, strict_match)
        closed_form = sum((Counter(expected) & Counter(predicted)).values())
        assert counts.tp == closed_form
    report(5, "counting oracle")


def test_criterion_6_order_invariance():
    """Scores are bit-identical under random permutations of either side."""
    rng = random.Random(606)
    alphabet = ["MgB2", "H2S", "H3S", "LaFeO3", "39 K", "150 GPa"]
    for trial in range(200):
        if trial % 2 == 0:  # NER-style string lists
            expected = [rng.choice(alphabet) for _ in range(rng.randint(0, 7))]
            predicted = [rng.choice(alphabet) for _ in range(rng.randint(0, 7))]
            base = prf(count_matches(expected, predicted, strict_match))
            e, p = expected[:], predicted[:]
            rng.shuffle(e)
            rng.shuffle(p)
            again = prf(count_matches(e, p, strict_match))
        else:  # RE-style relation groups
            def group():
                return RelationGroup(
                    rng.choice(["MgB2", "H2S", "H3S"]),
                    rng.choice(["39 K", "150 K"]),
                    rng.choice(["150 GPa", None]),
                )

            expected = [group() for _ in range(rng.randint(0, 5))]
            predicted = [group() for _ in range(rng.randint(0, 5))]
            base = prf(count_matches(expected, predicted, _GroupTier(StrictTier())))
            e, p = expected[:], predicted[:]
            rng.shuffle(e)
            rng.shuffle(p)
            again = prf(count_matches(e, p, _GroupTier(StrictTier())))
        assert base == again
    report(6, "order invariance")


def test_criterion_7_relation_block_filtering():
    """The three block-filter rules, plus idempotence on random block lists."""
    supplied = {
        "material": ["H2S", "H3S"],
        "tc": ["150 K", "203 K"],
        "pressure": ["150 GPa"],
    }
    assert filter_relation_blocks([RelationGroup(tc="4.7 K")], supplied) == []
    assert filter_relation_blocks(
        [RelationGroup(material="H2S", tc="999 K")], supplied
    ) == []
    assert filter_relation_blocks(
        [RelationGroup(material="H3S", tc="203 K", pressure="150 GPa")], supplied
    ) == [RelationGroup("H3S", "203 K", "150 GPa")]

    rng = random.Random(707)
    materials = ["H2S", "H3S", "MgB2", None]
    tcs = ["150 K", "203 K", "999 K", None]
    pressures = ["150 GPa", "90 GPa", None]
    for _ in range(200):
        blocks = []
        for _ in range(rng.randint(0, 8)):
            block = {}
            for key, pool in (("material", materials), ("tc", tcs),
                              ("pressure", pressures)):
                value = rng.choice(pool)
                if value is not None:
                    block[key] = value
            blocks.append(RelationGroup(**block))
        once = filter_relation_blocks(blocks, supplied)
        assert filter_relation_blocks(once, supplied) == once
    report(7, "relation block filtering")


def _synthetic_re_corpus(n):
    docs = []
    for i in range(n):
        materials = [f"Mat{i}A", f"Mat{i}B"]
        tcs = [f"{i % 90 + 1} K", f"{i % 90 + 2} K"]
        entities = [EntityMention(m, "material") for m in materials]
        entities += [EntityMention(t, "tc") for t in tcs]
        relations = [
            RelationGroup(materials[0], tcs[0]),
            RelationGroup(materials[1], tcs[1]),
        ]
        docs.append(
            Document(id=f"doc{i:04d}", text=f"text {i}", entities=entities,
                     relations=relations)
        )
    return docs


def test_criterion_8_finetune_preparation():
    """Split sizes and strategy relationships on a 492-record corpus."""
    docs = _synthetic_re_corpus(492)

    base_train, base_test = prepare_finetune(docs, "re", "base", seed=11)
    assert len(base_train) == 344
    assert len(base_test) == 148

    aug_train, aug_test = prepare_finetune(docs, "re", "augmented", seed=11)
    total = len(aug_train) + len(aug_test)
    assert 492 < total <= 984
    # every record here has two entities per class, so augmentation must add
    assert total > len(base_train) + len(base_test)

    doco = prepare_finetune(docs, "re", "document_order", seed=11)

    def keys(records):
        out = []
        for record in records:
            user = record.messages[1]["content"]
            lists = sorted(
                tuple(sorted(line.split(": ", 1)[1].split(", ")))
                for line in user.splitlines()
                if line.startswith(("materials:", "tcs:", "pressures:"))
            )
            out.append((record.source_doc, tuple(lists),
                        record.messages[2]["content"]))
        return Counter(out)

    assert keys(base_train + base_test) == keys(doco[0] + doco[1])
    report(8, "fine-tune preparation")


def _run_cli(argv):
    result = subprocess.run(
        [sys.executable, "-m", "mateval.cli", *map(str, argv)],
        capture_output=True,
        text=True,
    )
    return result


# per-document tallies derived by hand from the fixture corpus and the
# canned responses; micro scores follow via prf
EXPECTED_NER = {
    "strict": MatchCounts(tp=2, fp=4, fn=5),
    "soft": MatchCounts(tp=3, fp=3, fn=4),
    "formula": MatchCounts(tp=3, fp=3, fn=4),
    "semantic": MatchCounts(tp=4, fp=2, fn=3),
}
EXPECTED_RE = {
    "strict": MatchCounts(tp=2, fp=4, fn=4),
    "soft": MatchCounts(tp=3, fp=3, fn=3),
    "formula": MatchCounts(tp=3, fp=3, fn=3),
    "semantic": MatchCounts(tp=4, fp=2, fn=2),
}


def test_criterion_9_end_to_end_dry_run(tmp_path, semantic_endpoint):
    """extract --dry-run piped into eval-ner / eval-re reproduces the
    hand-computed micro scores for all four matchers, byte-identically."""
    outputs = {}
    for attempt in ("first", "second"):
        workdir = tmp_path / attempt
        workdir.mkdir()
        artifacts = {}
        for task, eval_cmd in (("ner_material", "eval-ner"), ("re", "eval-re")):
            preds = workdir / f"preds_{task}.jsonl"
            result = _run_cli([
                "extract", "--corpus", DATA / "corpus.jsonl", "--task", task,
                "--dry-run", "--fixtures", DATA / "fixtures",
                "--seed", "7", "--output", preds,
            ])
            assert result.returncode == 0, result.stderr
            result = _run_cli([
                eval_cmd, "--corpus", DATA / "corpus.jsonl",
                "--predictions", preds,
                "--matchers", "strict,soft,semantic,formula",
                "--semantic-endpoint", semantic_endpoint,
            ])
            assert result.returncode == 0, result.stderr
            artifacts[task] = (preds.read_bytes(), result.stdout)
        outputs[attempt] = artifacts

    assert outputs["first"] == outputs["second"]  # byte-identical reruns

    for task, expected_counts in (("ner_material", EXPECTED_NER), ("re", EXPECTED_RE)):
        report_payload = json.loads(outputs["first"][task][1])
        for matcher, counts in expected_counts.items():
            scores = report_payload["matchers"][matcher]["runs"][0]["scores"]
            want = prf(counts)
            assert scores["precision"] == want.precision, (task, matcher)
            assert scores["recall"] == want.recall, (task, matcher)
            assert scores["f1"] == want.f1, (task, matcher)
            assert scores["support"] == want.support, (task, matcher)
    report(9, "end-to-end dry run")
