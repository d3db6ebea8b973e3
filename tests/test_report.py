"""Stored reports: the round trip through ``EvalReport.from_dict`` and the
checks ``mateval report --input`` makes on a file."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mateval.cli import main
from mateval.corpus import PredictionSet, RelationGroup, load_corpus, load_predictions
from mateval.errors import ReportSchemaError
from mateval.evaluation import EvalConfig, evaluate_ner, evaluate_re
from mateval.report import EvalReport, MatcherBlock, RunScores, read_report, render_report
from mateval.scoring import RunAggregate, Scores

DATA = Path(__file__).parent / "data"
CORPUS = str(DATA / "corpus.jsonl")
FORMATS = ("json", "markdown", "csv")


def dry_run_predictions(path, task, runs=1) -> str:
    """Predictions extracted from the canned fixture responses."""
    assert main(["extract", "--corpus", CORPUS, "--task", task, "--runs", str(runs),
                 "--dry-run", "--fixtures", str(DATA / "fixtures"), "--seed", "7",
                 "--output", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict[str, EvalReport]:
    preds = dry_run_predictions(tmp_path_factory.mktemp("reports") / "ner.jsonl",
                                "ner_material", runs=3)
    docs = load_corpus(CORPUS)
    ner = evaluate_ner(docs, load_predictions(preds),
                       EvalConfig(task="ner_material", matchers=("strict", "soft", "formula")))
    relations = [
        PredictionSet("d1", "run1", relations=[RelationGroup("MgB2", "39 K")]),
        PredictionSet("d2", "run1", relations=[RelationGroup("MgB2", "999 K")]),
    ]
    re_report = evaluate_re(docs, relations, EvalConfig(task="re"))
    stamped = ner._replace(generated_at="2026-01-02T03:04:05.678901+00:00")
    return {"ner": ner, "re": re_report, "stamped": stamped}


def test_the_reports_cover_runs_matchers_and_warnings(reports):
    assert list(reports["ner"].matchers) == ["strict", "soft", "formula"]
    assert reports["ner"].matchers["soft"].aggregate.n_runs == 3
    assert reports["re"].warnings


@pytest.mark.parametrize("name", ["ner", "re", "stamped"])
def test_round_trip(reports, name):
    report = reports[name]
    again = EvalReport.from_dict(json.loads(render_report(report, "json")))
    assert again == report
    for fmt in FORMATS:
        assert render_report(again, fmt).encode() == render_report(report, fmt).encode()


def test_generated_at_is_written_only_when_set(reports):
    assert "generated_at" not in reports["ner"].to_dict()
    assert reports["stamped"].to_dict()["generated_at"] == reports["stamped"].generated_at


def test_int_is_read_where_a_float_is_expected(reports):
    payload = json.loads(render_report(reports["ner"], "json"))
    payload["matchers"]["strict"]["runs"][0]["scores"]["f1"] = 1
    report = EvalReport.from_dict(copy.deepcopy(payload))
    assert report.matchers["strict"].runs[0].scores.f1 == 1
    assert json.loads(render_report(report, "json")) == payload


def test_config_and_per_document_entries_pass_through(reports):
    payload = json.loads(render_report(reports["ner"], "json"))
    payload["config"]["anything"] = [None, {"nested": True}]
    payload["matchers"]["strict"]["runs"][0]["per_document"][0]["note"] = "kept"
    assert EvalReport.from_dict(copy.deepcopy(payload)).to_dict() == payload


def _oracle(report: EvalReport) -> dict:
    """The report JSON as hand-written ``to_dict`` methods, one per type, wrote it."""
    def scores(s):
        return {"precision": s.precision, "recall": s.recall, "f1": s.f1, "support": s.support}

    def aggregate(a):
        return {"mean_f1": a.mean_f1, "std_f1": a.std_f1, "avg_support": a.avg_support,
                "n_runs": a.n_runs}

    def run(r):
        return {"run": r.run, "scores": scores(r.scores), "expected_total": r.expected_total,
                "per_document": r.per_document}

    payload = {
        "task": report.task,
        "config": report.config,
        "matchers": {name: {"runs": [run(r) for r in block.runs],
                            "aggregate": aggregate(block.aggregate)}
                     for name, block in report.matchers.items()},
        "skipped": list(report.skipped),
        "warnings": list(report.warnings),
    }
    if report.generated_at is not None:
        payload["generated_at"] = report.generated_at
    return payload


_numbers = st.floats(allow_nan=False, allow_infinity=False)
_counts = st.integers(min_value=0, max_value=10**6)
_json = st.recursive(st.none() | st.booleans() | st.integers() | _numbers | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(), inner, max_size=3), max_leaves=6)
_documents = st.fixed_dictionaries(
    {"doc_id": st.text(), "tp": _counts, "fp": _counts, "fn": _counts},
    optional={"note": _json})
_runs = st.builds(RunScores, run=st.text(), scores=st.builds(Scores, _numbers, _numbers,
                                                             _numbers, _counts),
                  expected_total=_counts, per_document=st.lists(_documents, max_size=3))
_blocks = st.builds(MatcherBlock, runs=st.lists(_runs, max_size=3),
                    aggregate=st.builds(RunAggregate, _numbers, _numbers, _numbers, _counts))
_reports = st.builds(
    EvalReport, task=st.text(), config=st.dictionaries(st.text(), _json, max_size=4),
    matchers=st.dictionaries(st.text(), _blocks, max_size=3),
    skipped=st.lists(st.text(), max_size=2), warnings=st.lists(st.text(), max_size=2),
    generated_at=st.none() | st.text())


@settings(max_examples=200, deadline=None)
@given(_reports)
def test_to_dict_writes_what_the_typed_serializers_wrote(report):
    payload = report.to_dict()
    assert payload == _oracle(report)
    assert payload.get("generated_at", "unset") is not None
    rendered = render_report(report, "json")
    assert render_report(EvalReport.from_dict(json.loads(rendered)), "json") == rendered


@pytest.mark.parametrize("command", [
    ["eval-ner", "--matchers", "strict,soft,formula"],
    ["eval-re"],
    ["eval-ner", "--timestamps"],
], ids=["eval-ner", "eval-re", "eval-ner --timestamps"])
def test_report_json_reproduces_the_stored_file(capsys, tmp_path, command):
    task = "re" if command[0] == "eval-re" else "ner_material"
    preds = dry_run_predictions(tmp_path / "preds.jsonl", task)
    stored = tmp_path / "report.json"
    assert main([*command, "--corpus", CORPUS, "--predictions", preds,
                 "--output", str(stored)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(stored), "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == stored.read_bytes()


_DELETE = object()


def _edit(path, value=_DELETE):
    """An edit of a report payload: set, or delete, the key at ``path``."""
    def edit(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        if value is _DELETE:
            del payload[last]
        else:
            payload[last] = value
    return edit


SCORES = ("matchers", "strict", "runs", 0, "scores")
AGGREGATE = ("matchers", "strict", "aggregate")

# (edit of a good stored report, or the file's bytes; the message after the file name)
BAD_REPORTS = {
    "non-utf-8 file": (b'{"task": "caf\xe9"}', "not UTF-8: "),
    "non-utf-8 line 3": (b'{\n"task":\n"caf\xe9"}', "not UTF-8: line 3\n"),
    "non-utf-8 line 3 after a CRLF and a CR": (b'{\r\n"task":\r"caf\xe9"}',
                                               "not UTF-8: line 3\n"),
    "json list": (b"[]", "expected dict, got list"),
    "no matchers": (_edit(["matchers"]), "matchers: missing"),
    "run without scores": (_edit(SCORES), "matchers.strict.runs[0].scores: missing"),
    "string f1": (_edit([*SCORES, "f1"], "0.5"),
                  "matchers.strict.runs[0].scores.f1: expected float, got str"),
    "boolean support": (_edit([*SCORES, "support"], True),
                        "matchers.strict.runs[0].scores.support: expected int, got bool"),
    "null aggregate": (_edit(AGGREGATE, None),
                       "matchers.strict.aggregate: expected dict, got NoneType"),
    "unknown key": (_edit([*AGGREGATE, "median_f1"], 0.5),
                    "matchers.strict.aggregate.median_f1: unknown key"),
    # not strict JSON: never read, nor written back as NaN or Infinity
    "NaN precision": (_edit([*SCORES, "precision"], float("nan")),
                      "invalid JSON: NaN is not a finite number"),
    "overflowing number": (b'{"task": 1e400}', "invalid JSON: 1e400 is not a finite number"),
    "repeated key": (b'{"task": "ner", "task": "re"}', "invalid JSON: repeated key 'task'"),
    "deep nesting": (b"[" * 100_000, "invalid JSON: maximum recursion depth"),
}


@pytest.mark.parametrize("content, message", BAD_REPORTS.values(), ids=BAD_REPORTS.keys())
def test_bad_stored_report_exits_3(reports, tmp_path, content, message):
    stored, output = tmp_path / "report.json", tmp_path / "report.md"
    if isinstance(content, bytes):
        stored.write_bytes(content)
    else:
        payload = json.loads(render_report(reports["ner"], "json"))
        content(payload)
        stored.write_text(json.dumps(payload))
    result = subprocess.run(
        [sys.executable, "-m", "mateval.cli", "report", "--input", str(stored),
         "--output", str(output)],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith(f"error: {stored}: {message}")
    assert "Traceback" not in result.stderr
    assert not output.exists()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_report_with_crlf_or_cr_endings_reads_as_its_lf_form(reports, tmp_path, newline):
    rendered = render_report(reports["stamped"], "json")
    stored = tmp_path / "report.json"
    stored.write_bytes(rendered.replace("\n", newline).encode("utf-8"))
    assert render_report(read_report(str(stored)), "json") == rendered


def test_read_report_raises_a_mateval_error(tmp_path):
    stored = tmp_path / "report.json"
    stored.write_text('{"task": "re"}')
    with pytest.raises(ReportSchemaError, match=r"report\.json: config: missing"):
        read_report(str(stored))
