"""Tests for the command-line interface (exit codes, outputs, determinism)."""

import json
import subprocess
import sys
from pathlib import Path


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
