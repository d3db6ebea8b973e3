"""Tests for NER/RE evaluation orchestration, shuffling, and filtering."""

import itertools
import random
from pathlib import Path

import pytest

from mateval.corpus import (
    Document,
    EntityMention,
    PredictionSet,
    RelationGroup,
    load_corpus,
)
from mateval.errors import (
    DuplicateIdError,
    NoMatchersSelectedError,
    ProviderUnavailableError,
    UnknownDocumentError,
)
from mateval.evaluation import (
    EvalConfig,
    _GroupTier,
    evaluate_ner,
    evaluate_re,
    filter_relation_blocks,
)
from mateval.matching import TIERS, StrictTier
from mateval.prompts import shuffle_entities
from mateval.scoring import MatchCounts, aggregate_runs, count_matches

DATA = Path(__file__).parent / "data"


def ner_pred(doc_id, materials, run="run1"):
    return PredictionSet(doc_id=doc_id, run_label=run, entities={"material": materials})


class TestEvaluateNer:
    def test_perfect_single_doc(self):
        docs = [Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")])]
        report = evaluate_ner(
            docs, [ner_pred("d1", ["MgB2"])], EvalConfig(task="ner_material")
        )
        run = report.matchers["strict"].runs[0]
        assert run.scores.f1 == 1.0
        assert run.scores.support == 1

    def test_config_runs_counts_the_runs(self):
        docs = [Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")])]
        preds = [ner_pred("d1", ["MgB2"]), ner_pred("d1", ["MgB2"], run="run2")]
        report = evaluate_ner(docs, preds, EvalConfig(task="ner_material"))
        assert report.config["run_labels"] == ["run1", "run2"]
        assert report.config["runs"] == report.matchers["strict"].aggregate.n_runs == 2

    def test_formula_gain_over_strict(self):
        docs = [
            Document(
                id="d1",
                text="t",
                entities=[EntityMention("hole-doped La 2-x Sr x CuO 4", "material")],
            )
        ]
        preds = [ner_pred("d1", ["La 2-x Sr x CuO 4"])]
        config = EvalConfig(task="ner_material", matchers=("strict", "formula"))
        report = evaluate_ner(docs, preds, config)
        strict_f1 = report.matchers["strict"].runs[0].scores.f1
        formula_f1 = report.matchers["formula"].runs[0].scores.f1
        assert strict_f1 == 0.0
        assert formula_f1 == 1.0

    def test_identical_runs_zero_std(self):
        docs = [Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")])]
        preds = [ner_pred("d1", ["MgB2"], run=f"run{i}") for i in (1, 2, 3)]
        report = evaluate_ner(docs, preds, EvalConfig(task="ner_material"))
        agg = report.matchers["strict"].aggregate
        assert agg.n_runs == 3
        assert agg.std_f1 == 0.0

    def test_duplicate_doc_run_prediction_sets(self):
        docs = [Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")])]
        preds = [ner_pred("d1", ["MgB2"]), ner_pred("d1", [])]
        with pytest.raises(DuplicateIdError, match=r"doc_id 'd1', run 'run1'"):
            evaluate_ner(docs, preds, EvalConfig(task="ner_material"))

    def test_unknown_document(self):
        docs = [Document(id="d1", text="t")]
        with pytest.raises(UnknownDocumentError):
            evaluate_ner(docs, [ner_pred("ghost", [])], EvalConfig(task="ner_material"))

    def test_no_matchers(self):
        with pytest.raises(NoMatchersSelectedError):
            EvalConfig(task="ner_material", matchers=())

    def test_semantic_skipped_not_zero_scored(self):
        docs = [Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")])]
        preds = [ner_pred("d1", ["MgB2"])]
        config = EvalConfig(task="ner_material", matchers=("strict", "semantic"))
        # every pair is identical, yet without a provider the matcher is skipped
        report = evaluate_ner(docs, preds, config, provider=None)
        assert "semantic" not in report.matchers
        assert report.skipped == ["semantic: no similarity provider configured"]
        assert report.matchers["strict"].runs[0].scores.f1 == 1.0

    def test_missing_prediction_counts_as_empty(self):
        docs = [
            Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")]),
            Document(id="d2", text="t", entities=[EntityMention("H2S", "material")]),
        ]
        report = evaluate_ner(
            docs, [ner_pred("d1", ["MgB2"])], EvalConfig(task="ner_material")
        )
        scores = report.matchers["strict"].runs[0].scores
        assert scores.recall == 0.5 and scores.precision == 1.0

    def test_aggregate_recomputes_from_runs(self):
        docs = load_corpus(str(DATA / "corpus.jsonl"))
        preds = [
            ner_pred("d1", ["MgB2"], run="run1"),
            ner_pred("d1", [], run="run2"),
        ]
        config = EvalConfig(task="ner_material", matchers=("strict", "soft", "formula"))
        report = evaluate_ner(docs, preds, config)
        assert list(report.matchers) == ["strict", "soft", "formula"]
        for block in report.matchers.values():
            assert block.aggregate == aggregate_runs([r.scores for r in block.runs])

    def test_run_labels_sort_naturally(self):
        docs = [Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")])]
        preds = [ner_pred("d1", ["MgB2"] * (i % 2), run=f"run{i}") for i in range(11, 0, -1)]
        report = evaluate_ner(docs, preds, EvalConfig(task="ner_material"))
        labels = [f"run{i}" for i in range(1, 12)]
        assert report.config["run_labels"] == labels
        runs = report.matchers["strict"].runs
        assert [r.run for r in runs] == labels
        assert [r.scores.f1 for r in runs] == [float(i % 2) for i in range(1, 12)]

    def test_quantity_class(self):
        docs = [
            Document(
                id="q1",
                text="volume was 355 ml",
                entities=[
                    EntityMention("355 ml", "quantity"),
                    EntityMention("MgB2", "material"),
                ],
            )
        ]
        preds = [
            PredictionSet(
                doc_id="q1", run_label="run1",
                entities={"quantity": ["355  ml"]},
            )
        ]
        config = EvalConfig(task="ner_quantity", matchers=("strict",))
        report = evaluate_ner(docs, preds, config)
        # whitespace-collapsed match; the material entity is out of scope
        assert report.matchers["strict"].runs[0].scores.f1 == 1.0


class TestShuffleEntities:
    def test_deterministic(self):
        entities = {"material": ["a", "b", "c"], "tc": ["1 K", "2 K"]}
        assert shuffle_entities(entities, 9) == shuffle_entities(entities, 9)

    def test_multiset_preserved(self):
        entities = {"material": ["a", "b", "a", "c"]}
        shuffled = shuffle_entities(entities, 3)
        assert sorted(shuffled["material"]) == sorted(entities["material"])

    def test_singletons_unchanged(self):
        assert shuffle_entities({"material": ["only"]}, 5) == {"material": ["only"]}

    def test_golden_permutation(self):
        # frozen at first implementation as the regression oracle for the PRNG
        assert shuffle_entities({"material": ["a", "b", "c"]}, 42) == {
            "material": ["b", "c", "a"]
        }

    def test_classes_shuffled_independently(self):
        entities = {"material": ["a", "b", "c"], "tc": ["1", "2", "3"]}
        with_both = shuffle_entities(entities, 42)
        only_material = shuffle_entities({"material": ["a", "b", "c"]}, 42)
        assert with_both["material"] == only_material["material"]


SUPPLIED = {
    "material": ["H2S", "H3S"],
    "tc": ["150 K", "203 K"],
    "pressure": ["150 GPa"],
}


class TestFilterRelationBlocks:
    def test_drops_block_without_material(self):
        assert filter_relation_blocks([RelationGroup(tc="4.7 K")], SUPPLIED) == []

    def test_drops_unsupplied_tc(self):
        blocks = [RelationGroup(material="H2S", tc="999 K")]
        assert filter_relation_blocks(blocks, SUPPLIED) == []

    def test_keeps_fully_supplied_block(self):
        blocks = [RelationGroup(material="H3S", tc="203 K", pressure="150 GPa")]
        kept = filter_relation_blocks(blocks, SUPPLIED)
        assert kept == [RelationGroup("H3S", "203 K", "150 GPa")]

    def test_preserves_order(self):
        blocks = [
            RelationGroup(material="H3S", tc="203 K"),
            RelationGroup(material="H2S", tc="150 K"),
        ]
        kept = filter_relation_blocks(blocks, SUPPLIED)
        assert [g.material for g in kept] == ["H3S", "H2S"]

    def test_idempotent(self):
        rng = random.Random(19)
        materials = ["H2S", "H3S", "MgB2", ""]
        tcs = ["150 K", "203 K", "999 K", None]
        pressures = ["150 GPa", "1 GPa", None]
        for _ in range(100):
            blocks = []
            for _ in range(rng.randint(0, 6)):
                block = {}
                m = rng.choice(materials)
                t = rng.choice(tcs)
                p = rng.choice(pressures)
                if m:
                    block["material"] = m
                if t:
                    block["tc"] = t
                if p:
                    block["pressure"] = p
                blocks.append(RelationGroup(**block))
            once = filter_relation_blocks(blocks, SUPPLIED)
            assert filter_relation_blocks(once, SUPPLIED) == once


def strict_group_counts(expected, predicted):
    """Relation groups counted as ``evaluate_re`` counts them under strict."""
    return count_matches(expected, predicted, _GroupTier(StrictTier()))


class TestMatchRelationGroups:
    def test_identity(self):
        groups = [
            RelationGroup("H2S", "150 K", "150 GPa"),
            RelationGroup("H3S", "203 K", "150 GPa"),
        ]
        assert strict_group_counts(groups, list(groups)) == MatchCounts(2, 0, 0)

    def test_swapped_tcs_are_all_wrong(self):
        expected = [
            RelationGroup("H2S", "150 K", "150 GPa"),
            RelationGroup("H3S", "203 K", "150 GPa"),
        ]
        predicted = [
            RelationGroup("H2S", "203 K", "150 GPa"),
            RelationGroup("H3S", "150 K", "150 GPa"),
        ]
        assert strict_group_counts(expected, predicted) == MatchCounts(0, 2, 2)

    def test_pressureless_group(self):
        expected = [RelationGroup("La 3 Ir 2 Ge 2", "4.7 K")]
        assert strict_group_counts(expected, list(expected)) == MatchCounts(1, 0, 0)

    def test_missing_pressure_is_non_match(self):
        expected = [RelationGroup("H2S", "150 K", "150 GPa")]
        predicted = [RelationGroup("H2S", "150 K")]
        assert strict_group_counts(expected, predicted) == MatchCounts(0, 1, 1)


def re_pred(doc_id, blocks, run="run1"):
    return PredictionSet(doc_id=doc_id, run_label=run, relations=blocks)


class TestEvaluateRe:
    def fixture_docs(self):
        return load_corpus(str(DATA / "corpus.jsonl"))

    def perfect_preds(self, docs, run="run1"):
        return [
            re_pred(d.id, list(d.relations), run=run) for d in docs
        ]

    def test_perfect_predictions_echo_the_seed(self):
        docs = self.fixture_docs()
        report = evaluate_re(docs, self.perfect_preds(docs), EvalConfig(task="re", seed=13))
        assert report.matchers["strict"].runs[0].scores.f1 == 1.0
        assert report.config["seed"] == 13

    def test_shuffle_is_not_an_evaluation_setting(self):
        # it orders the entities of RE prompts (extract), never scores
        with pytest.raises(TypeError):
            EvalConfig(task="re", shuffle="shuffled")

    def test_empty_blocks_score_zero(self):
        docs = self.fixture_docs()
        preds = [re_pred(d.id, []) for d in docs]
        report = evaluate_re(docs, preds, EvalConfig(task="re"))
        scores = report.matchers["strict"].runs[0].scores
        assert scores.precision == 0.0 and scores.recall == 0.0

    def test_dropped_blocks_warn(self):
        docs = self.fixture_docs()
        preds = [re_pred("d1", [RelationGroup(material="MgB2", tc="999 K")])]
        report = evaluate_re(docs, preds, EvalConfig(task="re"))
        assert any("999 K" in w for w in report.warnings)

    def test_warnings_are_the_first_50_distinct_drop_notes_in_run_then_document_order(self):
        ids = [f"d{i:02d}" for i in range(20)]
        supplied = [EntityMention("MgB2", "material"), EntityMention("39 K", "tc")]
        docs = [Document(d, "t", supplied, [RelationGroup("MgB2", "39 K")]) for d in ids]
        tcs = {"run1": "10 K", "run2": "20 K", "run3": "30 K"}
        preds = [
            re_pred(d, [RelationGroup(None, "39 K"), RelationGroup("MgB2", tc),
                        RelationGroup(None, "39 K")], run=run)
            for run, tc in tcs.items() for d in ids
        ]

        def without_material(d):
            return f"doc {d}: dropped block without material"

        def unsupplied(d, tc):
            return f"doc {d}: dropped block: tc {tc!r} was not among the supplied entities"

        # 60 drops per run, 80 distinct notes in all; a material-less block
        # repeats within a document and across runs
        report = evaluate_re(docs[::-1], preds[::-1], EvalConfig(task="re"))
        first_run = [note for d in ids for note in (without_material(d), unsupplied(d, "10 K"))]
        assert report.warnings == first_run + [unsupplied(d, "20 K") for d in ids[:10]]

    def test_order_invariance(self):
        docs = self.fixture_docs()
        preds = self.perfect_preds(docs)
        base = evaluate_re(docs, preds, EvalConfig(task="re"))
        rng = random.Random(2)
        for _ in range(5):
            shuffled_docs = docs[:]
            rng.shuffle(shuffled_docs)
            shuffled_preds = preds[:]
            rng.shuffle(shuffled_preds)
            for p in shuffled_preds:
                rng.shuffle(p.relations)
            report = evaluate_re(shuffled_docs, shuffled_preds, EvalConfig(task="re"))
            assert (
                report.matchers["strict"].runs[0].scores
                == base.matchers["strict"].runs[0].scores
            )


# every non-empty set of matchers, in TIERS order
MATCHER_SETS = [ms for n in range(1, len(TIERS) + 1) for ms in itertools.combinations(TIERS, n)]


class TestReportConfig:
    """A report's config records only what shaped its scores."""

    @pytest.mark.parametrize("task", ["ner_material", "re"])
    @pytest.mark.parametrize("matchers", MATCHER_SETS, ids=",".join)
    def test_threshold_is_recorded_only_when_soft_or_semantic_runs(self, task, matchers):
        docs = load_corpus(str(DATA / "corpus.jsonl"))
        if task == "re":
            evaluate, preds = evaluate_re, [re_pred(d.id, list(d.relations)) for d in docs]
        else:
            evaluate = evaluate_ner
            preds = [ner_pred(d.id, d.entity_texts("material")) for d in docs]
        config = EvalConfig(task=task, matchers=matchers, threshold=0.8, seed=3)
        report = evaluate(docs, preds, config, CountingProvider())
        assert list(report.matchers) == list(matchers)  # every matcher ran
        keys = {"task", "matchers", "seed", "runs", "run_labels"}
        if {"soft", "semantic"} & set(matchers):
            keys.add("threshold")
            assert report.config["threshold"] == 0.8
        assert set(report.config) == keys  # never "shuffle"
        assert report.config["seed"] == 3


class CountingProvider:
    def __init__(self):
        self.calls = 0

    def score(self, a, b):
        self.calls += 1
        return 1.0 if a.replace(" ", "") == b.replace(" ", "") else 0.0


class TestSemanticPath:
    def test_semantic_matcher_uses_provider(self):
        docs = [Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")])]
        provider = CountingProvider()
        config = EvalConfig(task="ner_material", matchers=("semantic",))
        # not identical, so the one pair is asked (an identical one is not)
        report = evaluate_ner(docs, [ner_pred("d1", ["MgB 2"])], config, provider)
        assert report.matchers["semantic"].runs[0].scores.f1 == 1.0
        assert provider.calls == 1

    def test_provider_failure_mid_run_skips(self):
        class Flaky:
            def score(self, a, b):
                raise ProviderUnavailableError("boom")

        docs = [Document(id="d1", text="t", entities=[EntityMention("MgB2", "material")])]
        config = EvalConfig(task="ner_material", matchers=("semantic", "strict"))
        # not identical, so the pair is asked and the provider fails
        report = evaluate_ner(docs, [ner_pred("d1", ["MgB 2"])], config, Flaky())
        assert "semantic" not in report.matchers
        assert report.skipped
        assert "strict" in report.matchers
