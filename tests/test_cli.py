"""Tests for the command-line interface (exit codes, outputs, determinism)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from mateval.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv):
    return subprocess.run(
        [sys.executable, "-m", "mateval.cli", *map(str, argv)],
        capture_output=True,
        text=True,
    )


class TestParseMaterialCommand:
    def test_simple_formula(self, capsys):
        code, out, _ = run_cli(["parse-material", "MgB2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["composition"] == {"Mg": 1.0, "B": 2.0}

    def test_expand_flag(self, capsys):
        code, out, _ = run_cli(
            ["parse-material", "Zr 5 X 3 (X = Sb, Pb, Sn)", "--expand"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["variants"]) == 3

    def test_unparseable_exits_3(self, capsys):
        code, _, err = run_cli(["parse-material", "ambient pressure"], capsys)
        assert code == 3
        assert "error" in err

    def test_custom_lexicon(self, capsys, tmp_path):
        lex = tmp_path / "lex.json"
        lex.write_text(json.dumps({"adjuncts": ["shiny"]}))
        code, out, _ = run_cli(
            ["parse-material", "shiny MgB2", "--adjunct-lexicon", lex], capsys
        )
        assert code == 0
        assert json.loads(out)["adjuncts"] == ["shiny"]

    @pytest.mark.parametrize("content", [
        b'{"adjuncts": 5}', b'["caf\xe9"]', b'{"words": []}', b'[1, "bulk"]', b'["", "bulk"]',
    ], ids=["number", "not utf-8", "no adjuncts key", "number entry", "empty entry"])
    def test_bad_lexicon_exits_3(self, tmp_path, content):
        lex = tmp_path / "lex.json"
        lex.write_bytes(content)
        result = run_subprocess(["parse-material", "MgB2", "--adjunct-lexicon", lex])
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {lex}: ") and "Traceback" not in result.stderr

    def test_output_file_mirrors_stdout(self, capsys, tmp_path):
        target = tmp_path / "parsed.json"
        code, out, _ = run_cli(
            ["parse-material", "MgB2", "--output", target], capsys
        )
        assert code == 0
        assert target.read_text() == out


class TestMatchCommand:
    def test_formula_match_case(self, capsys):
        code, out, _ = run_cli(
            ["match", "--matcher", "formula",
             "hole-doped La 2-x Sr x CuO 4", "La 2-x Sr x CuO 4"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matched"] is True
        assert payload["tier"] == "formula"

    def test_formula_overflowing_amounts(self, capsys):
        a, b = "O" + "9" * 400, "O" + "8" * 400
        code, out, _ = run_cli(["match", "--matcher", "formula", a, b], capsys)
        payload = json.loads(out)
        assert code == 0 and payload["matched"] is False
        assert "out of range" in payload["detail"]
        code, _, err = run_cli(["parse-material", a], capsys)
        assert code == 3 and "out of range" in err

    def test_strict_match(self, capsys):
        code, out, _ = run_cli(["match", "--matcher", "strict", "355  ml", " 355 ml"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "matched": True, "tier": "strict", "similarity": None, "detail": None,
        }

    def test_soft_match(self, capsys):
        code, out, _ = run_cli(
            ["match", "--matcher", "soft", "solar cell", "solar cells"], capsys
        )
        payload = json.loads(out)
        assert code == 0 and payload["matched"] is True

    def test_semantic_requires_endpoint(self, capsys):
        code, _, err = run_cli(["match", "--matcher", "semantic", "a", "b"], capsys)
        assert code == 3

    def test_semantic_with_stub(self, capsys, semantic_endpoint):
        code, out, _ = run_cli(
            ["match", "--matcher", "semantic", "--semantic-endpoint",
             semantic_endpoint, "solar cell", "solar cells"],
            capsys,
        )
        payload = json.loads(out)
        assert code == 0 and payload["matched"] is True
        assert payload["similarity"] == 0.97

    def test_parsed_namespace_without_threshold_uses_the_default(self, capsys):
        from mateval.cli import build_parser, cmd_match
        from mateval.matching import DEFAULT_THRESHOLD

        pair = ["solar cell", "solar cells"]
        assert cmd_match(build_parser().parse_args(["match", "--matcher", "soft", *pair])) == 0
        implied = capsys.readouterr().out
        code, given, _ = run_cli(
            ["match", "--matcher", "soft", "--threshold", DEFAULT_THRESHOLD, *pair], capsys)
        assert code == 0 and implied == given and json.loads(given)["matched"] is True

    def test_semantic_endpoint_from_config_file(self, capsys, tmp_path,
                                                semantic_endpoint):
        cfg = tmp_path / "endpoint.cfg"
        cfg.write_text(f"semantic_endpoint={semantic_endpoint}\n")
        code, out, _ = run_cli(
            ["match", "--matcher", "semantic", "--config", cfg,
             "solar cell", "solar cells"],
            capsys,
        )
        assert code == 0 and json.loads(out)["matched"] is True


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        result = run_subprocess(["no-such-command"])
        assert result.returncode == 2

    def test_missing_required_flag_exits_2(self):
        result = run_subprocess(["eval-ner", "--corpus", "x.jsonl"])
        assert result.returncode == 2

    def test_unknown_matcher_exits_2_naming_the_matchers(self):
        from mateval.matching import TIERS

        result = run_subprocess(["match", "--matcher", "bogus", "a", "b"])
        assert result.returncode == 2
        assert "invalid choice: 'bogus'" in result.stderr
        assert all(repr(name) in result.stderr for name in TIERS)

    def test_match_help_lists_the_matchers(self):
        from mateval.matching import TIERS

        result = run_subprocess(["match", "--help"])
        assert result.returncode == 0
        assert "one of " + ", ".join(TIERS) in result.stdout

    def test_help_exits_0(self):
        result = run_subprocess(["--help"])
        assert result.returncode == 0
        assert "parse-material" in result.stdout


class TestEvalCommands:
    def test_missing_corpus_exits_3(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text("")
        code, _, err = run_cli(
            ["eval-ner", "--corpus", tmp_path / "missing.jsonl",
             "--predictions", preds],
            capsys,
        )
        assert code == 3
        assert "i/o error" in err

    def test_strict_eval_report(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(
            json.dumps({"doc_id": "d1", "run": "run1",
                        "entities": {"material": ["MgB2"]}}) + "\n"
        )
        code, out, _ = run_cli(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        scores = report["matchers"]["strict"]["runs"][0]["scores"]
        assert scores["precision"] == 1.0

    def test_semantic_without_endpoint_warns_and_exits_1(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(
            json.dumps({"doc_id": "d1", "run": "run1",
                        "entities": {"material": ["MgB2"]}}) + "\n"
        )
        code, out, _ = run_cli(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
             "--matchers", "strict,semantic"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert report["skipped"]

    def test_output_requires_force_to_overwrite(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(
            json.dumps({"doc_id": "d1", "run": "run1",
                        "entities": {"material": ["MgB2"]}}) + "\n"
        )
        target = tmp_path / "report.json"
        target.write_text("precious")
        code, _, err = run_cli(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
             "--output", target],
            capsys,
        )
        assert code == 3
        assert target.read_text() == "precious"
        code, _, _ = run_cli(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
             "--output", target, "--force"],
            capsys,
        )
        assert code == 0
        assert json.loads(target.read_text())["task"] == "ner_material"

    def test_reports_are_byte_identical_without_timestamps(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(
            json.dumps({"doc_id": "d1", "run": "run1",
                        "entities": {"material": ["MgB2"]}}) + "\n"
        )
        argv = ["eval-ner", "--corpus", DATA / "corpus.jsonl",
                "--predictions", preds]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second
        _, stamped, _ = run_cli(argv + ["--timestamps"], capsys)
        assert "generated_at" in json.loads(stamped)

    def test_pretty_table_on_stderr(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(
            json.dumps({"doc_id": "d1", "run": "run1",
                        "entities": {"material": ["MgB2"]}}) + "\n"
        )
        code, out, err = run_cli(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
             "--pretty"],
            capsys,
        )
        assert code == 0
        json.loads(out)  # stdout stays machine-readable
        assert "| Run | Matching |" in err


GOOD_PREDICTION = json.dumps({"doc_id": "d1", "entities": {"material": ["MgB2"]}}).encode()
GOOD_DOCUMENT = json.dumps({"id": "x1", "text": "MgB2 at 39 K", "entities": []}).encode()

# (file kind, command, second line of the file)
BAD_LINES = {
    "non-utf-8 corpus": ("corpus", "eval-ner", b'{"id": "x2", "text": "caf\xe9"}'),
    "bool span": ("corpus", "eval-ner", json.dumps({
        "id": "x2", "text": "MgB2", "entities": [
            {"text": "MgB2", "class": "material", "span": [True, False]}]}).encode()),
    "non-utf-8 predictions": ("predictions", "eval-ner", b'{"doc_id": "d2", "run": "caf\xe9"}'),
    "null run": ("predictions", "eval-ner", json.dumps({"doc_id": "d2", "run": None}).encode()),
    "list entity": ("predictions", "eval-ner", json.dumps(
        {"doc_id": "d2", "entities": {"material": [["MgB2"], 39]}}).encode()),
    "number entity": ("predictions", "eval-ner", json.dumps(
        {"doc_id": "d2", "entities": {"material": [39]}}).encode()),
    "number relation slot": ("predictions", "eval-re", json.dumps(
        {"doc_id": "d2", "relations": [{"material": "MgB2", "tc": 39}]}).encode()),
    "null gold entities": ("corpus", "eval-ner", json.dumps(
        {"id": "x2", "text": "MgB2", "entities": None}).encode()),
    "object gold relations": ("corpus", "eval-re", json.dumps(
        {"id": "x2", "text": "MgB2", "relations": {}}).encode()),
}


class TestBadInputLines:
    @pytest.mark.parametrize("kind, command, line", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_exits_3_naming_the_line(self, capsys, tmp_path, kind, command, line):
        corpus, preds = tmp_path / "corpus.jsonl", tmp_path / "preds.jsonl"
        corpus.write_bytes(GOOD_DOCUMENT + b"\n" + line + b"\n")
        preds.write_bytes(GOOD_PREDICTION + b"\n" + line + b"\n")
        if kind == "predictions":
            corpus = DATA / "corpus.jsonl"
        else:
            preds.write_bytes(b"")
        code, out, err = run_cli(
            [command, "--corpus", corpus, "--predictions", preds], capsys
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: line 2, field ") and "Traceback" not in err


# values the library rejects, given after each command's required inputs
REJECTED_VALUES = {
    "threshold above 1": ["eval-ner", "--threshold", "2"],
    "unknown matcher": ["eval-ner", "--matchers", "bogus"],
    "repeated matcher": ["eval-ner", "--matchers", "strict,strict"],
    "split ratio above 1": ["prepare-finetune", "--task", "re", "--seed", "1",
                            "--split-ratio", "1.5"],
    "no runs": ["extract", "--task", "ner_material", "--dry-run",
                "--fixtures", DATA / "fixtures", "--runs", "0"],
    "match threshold above 1": ["match", "--matcher", "soft", "--threshold", "2",
                                "solar cell", "solar cell"],
    "match threshold nan": ["match", "--matcher", "soft", "--threshold", "nan",
                            "solar cell", "solar cell"],
    "match negative threshold": ["match", "--matcher", "soft", "--threshold", "-1",
                                 "abc", "xyz"],
}


class TestRejectedOptionValues:
    @pytest.mark.parametrize("argv", REJECTED_VALUES.values(), ids=REJECTED_VALUES.keys())
    def test_exits_3_without_traceback(self, tmp_path, argv):
        preds = tmp_path / "preds.jsonl"
        preds.write_bytes(GOOD_PREDICTION + b"\n")
        corpus = ["--corpus", DATA / "corpus.jsonl"]
        inputs = {
            "eval-ner": [*corpus, "--predictions", preds],
            "prepare-finetune": [*corpus, "--train-output", tmp_path / "train.jsonl",
                                 "--test-output", tmp_path / "test.jsonl"],
            "extract": [*corpus, "--output", tmp_path / "out.jsonl"],
            "match": ["--output", tmp_path / "out.jsonl"],
        }[argv[0]]
        result = run_subprocess([*argv, *inputs])
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
        assert not (tmp_path / "out.jsonl").exists() and not (tmp_path / "train.jsonl").exists()


class TestExtractCommand:
    def test_dry_run_writes_predictions(self, capsys, tmp_path):
        out_path = tmp_path / "preds.jsonl"
        code, _, _ = run_cli(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_material",
             "--dry-run", "--fixtures", DATA / "fixtures", "--seed", "7",
             "--output", out_path],
            capsys,
        )
        assert code == 0
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(lines) == 5
        assert lines[0] == {
            "doc_id": "d1", "entities": {"material": ["MgB2"]}, "run": "run1",
        }

    def test_dry_run_byte_identical_reruns(self, capsys, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            out_path = tmp_path / name
            code, _, _ = run_cli(
                ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "re",
                 "--dry-run", "--fixtures", DATA / "fixtures", "--seed", "7",
                 "--output", out_path],
                capsys,
            )
            assert code == 0
            paths.append(out_path.read_bytes())
        assert paths[0] == paths[1]

    def test_missing_fixture_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_quantity",
             "--dry-run", "--fixtures", DATA / "fixtures", "--seed", "1"],
            capsys,
        )
        assert code == 3
        assert "canned response" in err

    def test_auto_seed_is_printed(self, capsys, tmp_path):
        out_path = tmp_path / "preds.jsonl"
        code, _, err = run_cli(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_material",
             "--dry-run", "--fixtures", DATA / "fixtures", "--output", out_path],
            capsys,
        )
        assert code == 0
        assert "seed:" in err

    def test_three_run_pipeline_aggregates(self, capsys, tmp_path):
        preds = tmp_path / "preds.jsonl"
        code, _, _ = run_cli(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_material",
             "--dry-run", "--fixtures", DATA / "fixtures", "--runs", "3",
             "--seed", "7", "--output", preds],
            capsys,
        )
        assert code == 0
        assert len(preds.read_text().splitlines()) == 15
        code, out, _ = run_cli(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
             "--matchers", "strict,formula"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        strict = report["matchers"]["strict"]
        assert [r["run"] for r in strict["runs"]] == ["run1", "run2", "run3"]
        assert strict["aggregate"]["n_runs"] == 3
        # run2 carries an extra false positive, so the spread is non-zero
        assert strict["aggregate"]["std_f1"] > 0
        f1s = [r["scores"]["f1"] for r in strict["runs"]]
        assert f1s[0] == f1s[2] != f1s[1]


class TestPrepareFinetuneCommand:
    def test_writes_both_partitions(self, capsys, tmp_path):
        train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        code, out, _ = run_cli(
            ["prepare-finetune", "--corpus", DATA / "corpus.jsonl", "--task", "re",
             "--strategy", "base", "--seed", "3",
             "--train-output", train, "--test-output", test],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["train_records"] == len(train.read_text().splitlines())
        assert summary["test_records"] == len(test.read_text().splitlines())
        assert summary["train_records"] + summary["test_records"] == 5


class TestReportCommand:
    def test_rerender_markdown(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text(
            json.dumps({"doc_id": "d1", "run": "run1",
                        "entities": {"material": ["MgB2"]}}) + "\n"
        )
        stored = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
             "--output", stored],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["report", "--input", stored, "--format", "markdown"], capsys
        )
        assert code == 0
        assert "| Run | Matching |" in out
