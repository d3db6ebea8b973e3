"""Tests for corpus loading, validation, and report rendering."""

import json
from pathlib import Path

import pytest

from mateval.corpus import (
    RELATION_SLOTS,
    Document,
    EntityMention,
    PredictionSet,
    RelationGroup,
    load_corpus,
    load_predictions,
)
from mateval.errors import DuplicateIdError, SchemaViolationError, read_as
from mateval.report import EvalReport, render_report, write_report

DATA = Path(__file__).parent / "data"


def write_lines(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


def document_line(doc: Document) -> dict:
    """The corpus line of a document, as the README's schema spells it."""
    entities = []
    for e in doc.entities:
        item: dict = {"text": e.text, "class": e.class_}
        if e.span is not None:
            item["span"] = list(e.span)
        entities.append(item)
    return {"id": doc.id, "text": doc.text, "entities": entities,
            "relations": [r.to_dict() for r in doc.relations]}


class TestLoadCorpus:
    def test_fixture_roundtrip(self, tmp_path):
        docs = load_corpus(str(DATA / "corpus.jsonl"))
        assert len(docs) == 5
        assert docs[0].id == "d1"
        assert docs[0].entities[0] == EntityMention("MgB2", "material", (15, 19))
        assert docs[2].relations[0] == RelationGroup("H2S", "150 K", "150 GPa")

        out = tmp_path / "copy.jsonl"
        write_lines(out, [document_line(doc) for doc in docs])
        assert load_corpus(str(out)) == docs

    def test_two_valid_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            {"id": "a", "text": "t", "entities": [], "relations": []},
            {"id": "b", "text": "t", "entities": [], "relations": []},
        ])
        assert len(load_corpus(str(path))) == 2

    def test_missing_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            {"id": "a", "text": "t"},
            {"text": "no id here"},
        ])
        with pytest.raises(SchemaViolationError) as err:
            load_corpus(str(path))
        assert err.value.line == 2
        assert err.value.field == "id"

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            {"id": "d1", "text": "t"},
            {"id": "d1", "text": "t"},
        ])
        with pytest.raises(DuplicateIdError):
            load_corpus(str(path))

    def test_unknown_class(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            {"id": "a", "text": "t", "entities": [{"text": "x", "class": "animal"}]},
        ])
        with pytest.raises(SchemaViolationError) as err:
            load_corpus(str(path))
        assert "animal" in str(err.value)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "t"}\nnot json\n')
        with pytest.raises(SchemaViolationError) as err:
            load_corpus(str(path))
        assert err.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(str(tmp_path / "absent.jsonl"))

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"],
                             ids=["u2028", "u2029", "u0085"])
    def test_a_raw_line_separator_in_a_string_stays_in_its_line(self, tmp_path, separator):
        # str.splitlines would end a line there; only LF (or CRLF, CR) does
        path = tmp_path / "c.jsonl"
        first = json.dumps({"id": "a", "text": f"MgB2{separator}39 K"}, ensure_ascii=False)
        assert separator in first
        path.write_text(first + "\n" + json.dumps({"id": "b", "text": "t"}) + "\n",
                        encoding="utf-8")
        assert [doc.text for doc in load_corpus(str(path))] == [f"MgB2{separator}39 K", "t"]
        path.write_text(first + "\nnot json\n", encoding="utf-8")
        with pytest.raises(SchemaViolationError) as err:
            load_corpus(str(path))
        assert err.value.line == 2


class TestLoadPredictions:
    def test_basic(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [
            {"doc_id": "d1", "run": "run1", "entities": {"material": ["MgB2"]}},
            {"doc_id": "d1", "run": "run2", "relations": [{"material": "MgB2"}]},
        ])
        preds = load_predictions(str(path))
        assert preds[0].entities == {"material": ["MgB2"]}
        assert preds[1].run_label == "run2"
        assert preds[1].relations == [RelationGroup(material="MgB2")]

    def test_partial_relation_blocks_allowed(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [
            {"doc_id": "d1", "run": "run1", "relations": [{"tc": "4.7 K"}]},
        ])
        assert load_predictions(str(path))[0].relations == [RelationGroup(tc="4.7 K")]

    def test_unknown_entity_class(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [{"doc_id": "d1", "entities": {"animal": ["cat"]}}])
        with pytest.raises(SchemaViolationError):
            load_predictions(str(path))

    def test_duplicate_doc_run_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [
            {"doc_id": "d1", "run": "run1", "entities": {"material": ["MgB2"]}},
            {"doc_id": "d1", "run": "run2", "entities": {"material": ["MgB2"]}},
            {"doc_id": "d1", "run": "run1", "relations": []},
        ])
        with pytest.raises(DuplicateIdError, match="line 3 .first at line 1"):
            load_predictions(str(path))

    def test_null_entity_value(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [
            {"doc_id": "d1", "entities": {"material": ["MgB2"]}},
            {"doc_id": "d2", "entities": {"material": ["MgB2", None]}},
        ])
        with pytest.raises(SchemaViolationError, match="line 2") as info:
            load_predictions(str(path))
        assert info.value.line == 2


    def test_blank_relation_slot_reads_as_none(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [
            {"doc_id": "d1", "relations": [{"material": " ", "tc": "4.7 K", "pressure": None}]},
        ])
        assert load_predictions(str(path))[0].relations == [RelationGroup(tc="4.7 K")]


def test_a_list_or_dict_left_out_is_each_record_s_own():
    # records are NamedTuples, whose plain defaults every instance would share
    a, b = Document("a", "t"), Document("b", "t")
    a.entities.append(EntityMention("MgB2", "material"))
    a.relations.append(RelationGroup("MgB2", "39 K"))
    assert (b.entities, b.relations) == ([], [])
    p, q = PredictionSet("a"), PredictionSet("b")
    p.entities["material"] = ["MgB2"]
    p.relations.append(RelationGroup("MgB2"))
    assert (q.run_label, q.entities, q.relations) == ("run1", {}, [])


def test_relation_group_fields_are_the_relation_slots():
    assert RelationGroup._fields == RELATION_SLOTS
    group = RelationGroup("MgB2", "39 K")
    assert tuple(group) == ("MgB2", "39 K", None)
    assert group.to_dict() == {"material": "MgB2", "tc": "39 K"}


class TestValidateCorpus:
    """The checks ``load_corpus`` makes on each document it reads."""

    def load_one(self, tmp_path, doc: Document):
        path = tmp_path / "c.jsonl"
        write_lines(path, [{"id": "ok", "text": "t"}, document_line(doc)])
        return load_corpus(str(path))

    def test_clean_fixture(self):
        assert len(load_corpus(str(DATA / "corpus.jsonl"))) == 5

    def test_dangling_relation_slot(self, tmp_path):
        doc = Document(
            id="x",
            text="some text",
            entities=[EntityMention("MgB2", "material"), EntityMention("39 K", "tc")],
            relations=[RelationGroup("MgB2", "99 K")],
        )
        with pytest.raises(SchemaViolationError) as err:
            self.load_one(tmp_path, doc)
        assert (err.value.line, err.value.field) == (2, "relations[0].tc")
        assert "'99 K' is not among the document's tc entities" in str(err.value)

    def test_tc_slot_is_not_satisfied_by_quantity_entity(self, tmp_path):
        # an RE prompt supplies the tc entities only, so eval-re could never
        # keep a predicted block naming this tc
        doc = Document(
            id="x",
            text="t",
            entities=[
                EntityMention("MgB2", "material"),
                EntityMention("99 K", "quantity"),
            ],
            relations=[RelationGroup("MgB2", "99 K")],
        )
        with pytest.raises(SchemaViolationError, match="relations.0..tc"):
            self.load_one(tmp_path, doc)

    def test_span_mismatch(self, tmp_path):
        # a span is provenance only: its shape is checked, not what it slices
        path = tmp_path / "c.jsonl"
        entity = {"text": "ZZZ", "class": "material"}
        write_lines(path, [
            {"id": "a", "text": "ABCDEF", "entities": [{**entity, "span": [0, 3]}]},
            {"id": "b", "text": "ABCDEF", "entities": [{**entity, "span": [0, 3, 5]}]},
        ])
        with pytest.raises(SchemaViolationError) as err:
            load_corpus(str(path))
        assert (err.value.line, err.value.field) == (2, "entities[0].span")
        assert "expected 2 items, got 3" in str(err.value)

    def test_empty_document(self, tmp_path):
        with pytest.raises(SchemaViolationError) as err:
            self.load_one(tmp_path, Document(id="x", text="  "))
        assert (err.value.line, err.value.field) == (2, "text")

    def test_validation_does_not_mutate(self):
        lines = (DATA / "corpus.jsonl").read_text().splitlines()
        assert load_corpus(str(DATA / "corpus.jsonl")) == [
            read_as(json.loads(line), Document) for line in lines]


SAMPLE_REPORT = {
    "task": "ner_material",
    "config": {"matchers": ["strict"], "threshold": 0.9},
    "matchers": {
        "strict": {
            "runs": [
                {
                    "run": "run1",
                    "scores": {"precision": 0.5, "recall": 0.25, "f1": 1 / 3, "support": 4},
                    "expected_total": 8,
                    "per_document": [{"doc_id": "d1", "tp": 2, "fp": 2, "fn": 6}],
                },
            ],
            "aggregate": {
                "mean_f1": 1 / 3, "std_f1": 0.0, "avg_support": 4.0, "n_runs": 1,
            },
        },
    },
    "skipped": [],
    "warnings": [],
}


class TestReports:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(EvalReport.from_dict(SAMPLE_REPORT), "json", str(path))
        assert json.loads(path.read_text()) == SAMPLE_REPORT

    def test_markdown_structure(self):
        text = render_report(EvalReport.from_dict(SAMPLE_REPORT), "markdown")
        assert "| Run | Matching | P | R | F1 | Supp |" in text
        assert "| run1 | strict | 50.00 | 25.00 | 33.33 | 4 |" in text
        assert "Mean and standard deviation of F1 score" in text
        assert "| strict | 33.33 | 0.00 | 4 |" in text

    def test_markdown_three_run_layout(self):
        def run(label, f1):
            return {
                "run": label,
                "scores": {"precision": f1, "recall": f1, "f1": f1, "support": 10},
                "expected_total": 10,
                "per_document": [],
            }

        report = {
            "task": "ner_material",
            "config": {},
            "matchers": {
                "soft": {
                    "runs": [run("run1", 0.5), run("run2", 0.6), run("run3", 0.7)],
                    "aggregate": {
                        "mean_f1": 0.6, "std_f1": 0.1, "avg_support": 10.0, "n_runs": 3,
                    },
                },
            },
            "skipped": [],
            "warnings": [],
        }
        text = render_report(EvalReport.from_dict(report), "markdown")
        run_rows = [l for l in text.splitlines() if l.startswith("| run")]
        assert len(run_rows) == 3
        assert "| soft | 60.00 | 10.00 | 10 |" in text

    def test_csv_rows(self):
        text = render_report(EvalReport.from_dict(SAMPLE_REPORT), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "run,matcher,precision,recall,f1,support"
        assert lines[1].startswith("run1,strict,0.5,0.25,")

    def test_empty_report(self, tmp_path):
        empty = {"task": "re", "config": {}, "matchers": {}, "skipped": [], "warnings": []}
        for fmt in ("json", "markdown", "csv"):
            path = tmp_path / f"r.{fmt}"
            write_report(EvalReport.from_dict(empty), fmt, str(path))
            assert path.read_text()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(EvalReport.from_dict(SAMPLE_REPORT), "xml")
