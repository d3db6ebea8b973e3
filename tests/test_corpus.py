"""Tests for corpus loading, validation, and report rendering."""

import json
from pathlib import Path

import pytest

from mateval.corpus import (
    Document,
    EntityMention,
    RelationGroup,
    load_corpus,
    load_predictions,
    render_report,
    save_corpus,
    validate_corpus,
    write_report,
)
from mateval.errors import DuplicateIdError, SchemaViolationError

DATA = Path(__file__).parent / "data"


def write_lines(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


class TestLoadCorpus:
    def test_fixture_roundtrip(self, tmp_path):
        docs = load_corpus(str(DATA / "corpus.jsonl"))
        assert len(docs) == 5
        assert docs[0].id == "d1"
        assert docs[0].entities[0] == EntityMention("MgB2", "material", (15, 19))
        assert docs[2].relations[0] == RelationGroup("H2S", "150 K", "150 GPa")

        out = tmp_path / "copy.jsonl"
        save_corpus(docs, str(out))
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
        assert preds[1].relations == [{"material": "MgB2"}]

    def test_partial_relation_blocks_allowed(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [
            {"doc_id": "d1", "run": "run1", "relations": [{"tc": "4.7 K"}]},
        ])
        assert load_predictions(str(path))[0].relations == [{"tc": "4.7 K"}]

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


class TestValidateCorpus:
    def test_clean_fixture(self):
        docs = load_corpus(str(DATA / "corpus.jsonl"))
        assert validate_corpus(docs) == []

    def test_dangling_relation_slot(self):
        doc = Document(
            id="x",
            text="some text",
            entities=[EntityMention("MgB2", "material")],
            relations=[RelationGroup("MgB2", "99 K")],
        )
        issues = validate_corpus([doc])
        assert len(issues) == 1
        assert issues[0].kind == "DanglingRelationSlot"
        assert "99 K" in issues[0].detail

    def test_tc_slot_satisfied_by_quantity_entity(self):
        doc = Document(
            id="x",
            text="t",
            entities=[
                EntityMention("MgB2", "material"),
                EntityMention("99 K", "quantity"),
            ],
            relations=[RelationGroup("MgB2", "99 K")],
        )
        assert validate_corpus([doc]) == []

    def test_span_mismatch(self):
        doc = Document(
            id="x",
            text="ABCDEF",
            entities=[EntityMention("ZZZ", "material", span=(0, 3))],
        )
        issues = validate_corpus([doc])
        assert issues and issues[0].kind == "SpanMismatch"

    def test_empty_document(self):
        issues = validate_corpus([Document(id="x", text="  ")])
        assert issues and issues[0].kind == "EmptyDocument"

    def test_validation_does_not_mutate(self):
        docs = load_corpus(str(DATA / "corpus.jsonl"))
        snapshot = [doc for doc in docs]
        validate_corpus(docs)
        assert docs == snapshot


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
        write_report(SAMPLE_REPORT, "json", str(path))
        assert json.loads(path.read_text()) == SAMPLE_REPORT

    def test_markdown_structure(self):
        text = render_report(SAMPLE_REPORT, "markdown")
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
        text = render_report(report, "markdown")
        run_rows = [l for l in text.splitlines() if l.startswith("| run")]
        assert len(run_rows) == 3
        assert "| soft | 60.00 | 10.00 | 10 |" in text

    def test_csv_rows(self):
        text = render_report(SAMPLE_REPORT, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "run,matcher,precision,recall,f1,support"
        assert lines[1].startswith("run1,strict,0.5,0.25,")

    def test_empty_report(self, tmp_path):
        empty = {"task": "re", "config": {}, "matchers": {}, "skipped": [], "warnings": []}
        for fmt in ("json", "markdown", "csv"):
            path = tmp_path / f"r.{fmt}"
            write_report(empty, fmt, str(path))
            assert path.read_text()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(SAMPLE_REPORT, "xml")
