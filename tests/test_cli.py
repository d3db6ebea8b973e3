"""Tests for the command-line interface (exit codes, outputs, determinism)."""

import json
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import mateval.materials
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

    def test_linear_amounts_print_canonical_text(self, capsys):
        code, out, _ = run_cli(
            ["parse-material", "La 2.0-x Sr x CuO 4 with x = 0.5", "--expand"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["composition"] == {"La": "2-x", "Sr": "x", "Cu": 1.0, "O": 4.0}
        assert payload["variants"] == [{"La": 1.5, "Sr": 0.5, "Cu": 1.0, "O": 4.0}]

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
        b'{"adjuncts": ["bulk"], "adjunct": ["film"]}', b"[" * 100_000,
        b'{"adjuncts": ["bulk"], "adjuncts": []}',
    ], ids=["number", "not utf-8", "no adjuncts key", "number entry", "empty entry",
            "misspelt second key", "deep nesting", "repeated key"])
    def test_bad_lexicon_exits_3(self, tmp_path, content):
        lex = tmp_path / "lex.json"
        lex.write_bytes(content)
        result = run_subprocess(["parse-material", "MgB2", "--adjunct-lexicon", lex])
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {lex}: ") and "Traceback" not in result.stderr

    @pytest.mark.parametrize("content, message", [
        (b'["caf\xe9"]', "not UTF-8: "),
        (b'{"adjuncts": ["bulk"], "adjuncts": []}', "invalid JSON: repeated key 'adjuncts'"),
        (b'[\n"bulk",\r\n"caf\xe9"]', "not UTF-8: line 3"),
    ], ids=["not utf-8", "repeated key", "not utf-8 on line 3"])
    def test_an_unreadable_lexicon_says_why(self, tmp_path, content, message):
        lex = tmp_path / "lex.json"
        lex.write_bytes(content)
        result = run_subprocess(["parse-material", "MgB2", "--adjunct-lexicon", lex])
        assert result.stderr.startswith(f"error: {lex}: {message}")

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


class TestRunsFromAZip:
    """The package runs from a zip on ``PYTHONPATH``: the formula parser
    reads no file of its own. ``-S`` leaves site-packages out, so the zip
    is the only mateval the interpreter can find."""

    def test_formula_commands_exit_0(self, capsys, tmp_path):
        archive = tmp_path / "mateval.zip"
        package = Path(mateval.materials.__file__).parent
        with zipfile.ZipFile(archive, "w") as zf:
            for source in sorted(package.rglob("*.py")):
                zf.write(source, Path("mateval") / source.relative_to(package))
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"doc_id": "d1", "run": "run1",
                                     "entities": {"material": ["MgB2"]}}) + "\n")
        eval_ner = ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
                    "--matchers", "strict,formula"]
        outputs = []
        for argv in (["parse-material", "La 2-x Sr x CuO 4"],
                     ["match", "--matcher", "formula", "MgB2", "Mg B 2"], eval_ner):
            result = subprocess.run(
                [sys.executable, "-S", "-B", "-m", "mateval.cli", *map(str, argv)],
                env={**os.environ, "PYTHONPATH": str(archive)}, cwd=tmp_path,
                capture_output=True, text=True)
            assert (result.returncode, result.stderr) == (0, ""), argv
            outputs.append(result.stdout)
        assert json.loads(outputs[0])["composition"]["La"] == "2-x"
        assert json.loads(outputs[1])["matched"] is True
        assert outputs[2] == run_cli(eval_ner, capsys)[1]


class TestInternalErrors:
    """An exception that is not a MatEvalError or OSError is a bug: exit 4,
    never 1, which means a run finished with warnings."""

    @staticmethod
    def _raising(monkeypatch, exc):
        def parse_material(expression, adjuncts=None):
            raise exc

        monkeypatch.setattr(mateval.materials, "parse_material", parse_material)

    def test_crash_exits_4_with_the_traceback_on_stderr(self, capsys, monkeypatch):
        self._raising(monkeypatch, RuntimeError("boom"))
        code, out, err = run_cli(["parse-material", "MgB2"], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("Traceback") and err.endswith("RuntimeError: boom\n")

    def test_keyboard_interrupt_is_not_an_internal_error(self, monkeypatch):
        self._raising(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            main(["parse-material", "MgB2"])


class TestEvalCommands:
    @pytest.mark.parametrize("command", ["eval-ner", "eval-re"])
    def test_format_without_output_exits_3(self, capsys, tmp_path, command):
        preds = tmp_path / "p.jsonl"
        preds.write_text("")
        code, out, err = run_cli(
            [command, "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
             "--format", "markdown"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: --format applies to --output")

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
    # not strict JSON
    "deep prediction line": ("predictions", "eval-ner", b"[" * 100_000),
    "long integer span": ("corpus", "eval-ner", b'{"id": "x2", "text": "MgB2", "entities": ['
                          b'{"text": "MgB2", "class": "material", "span": [0, '
                          + b"7" * 5000 + b"]}]}"),
    "repeated prediction key": ("predictions", "eval-ner",
                                b'{"doc_id": "d2", "entities": {"material": ["MgB2"], '
                                b'"material": []}}'),
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
        bad_file = preds if kind == "predictions" else corpus
        assert err.startswith(f"error: {bad_file}: line 2, field ") and "Traceback" not in err


# values the library rejects, given after each command's required inputs
REJECTED_VALUES = {
    "threshold above 1": ["eval-ner", "--matchers", "soft", "--threshold", "2"],
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
    # endpoint flags that only a semantic matcher reads
    "config without semantic": ["eval-ner", "--matchers", "strict", "--config",
                                "/nonexistent.cfg"],
    "semantic endpoint without semantic": ["eval-ner", "--matchers", "strict,soft",
                                           "--semantic-endpoint", "http://127.0.0.1:9/score"],
    "timeout without semantic": ["eval-ner", "--timeout", "5"],
    "match config with strict": ["match", "--matcher", "strict", "--config", "/nonexistent.cfg",
                                 "MgB2", "MgB2"],
    "match timeout with formula": ["match", "--matcher", "formula", "--timeout", "5",
                                   "MgB2", "MgB2"],
    # a threshold that only soft and semantic read, a lexicon that only formula reads
    "threshold with strict": ["eval-ner", "--matchers", "strict", "--threshold", "0.5"],
    "threshold with formula": ["eval-ner", "--matchers", "formula", "--threshold", "0.5"],
    "match threshold with strict": ["match", "--matcher", "strict", "--threshold", "0.5",
                                    "MgB2", "MgB2"],
    # refused before any file is opened: any existing file will do
    "match lexicon with soft": ["match", "--matcher", "soft", "--adjunct-lexicon",
                                DATA / "formulas.tsv", "MgB2", "MgB2"],
    "match missing lexicon with strict": ["match", "--matcher", "strict", "--adjunct-lexicon",
                                          "/nonexistent.json", "MgB2", "MgB2"],
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

    @pytest.mark.parametrize("flag, argv", [
        ("--config", ["match", "--matcher", "soft", "--config", "/nonexistent.cfg", "a", "b"]),
        ("--semantic-endpoint", ["eval-ner", "--corpus", "/nonexistent.jsonl", "--predictions",
                                 "/nonexistent.jsonl", "--matchers", "strict,soft,formula",
                                 "--semantic-endpoint", "http://127.0.0.1:9/score"]),
        ("--timeout", ["eval-re", "--corpus", "/nonexistent.jsonl", "--predictions",
                       "/nonexistent.jsonl", "--timeout", "5"]),
    ], ids=["match", "eval-ner", "eval-re"])
    def test_unread_endpoint_flag_is_named_before_any_input_is_read(self, capsys, flag, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {flag} is read only by the semantic matcher, and it is not selected\n"

    @pytest.mark.parametrize("argv, message", [
        (["eval-ner", "--corpus", "/nonexistent.jsonl", "--predictions", "/nonexistent.jsonl",
          "--matchers", "strict,formula", "--threshold", "0.5"],
         "--threshold is read only by the soft and semantic matchers, and neither is selected"),
        (["eval-re", "--corpus", "/nonexistent.jsonl", "--predictions", "/nonexistent.jsonl",
          "--threshold", "0.5"],
         "--threshold is read only by the soft and semantic matchers, and neither is selected"),
        (["match", "--matcher", "strict", "--threshold", "0.5", "a", "b"],
         "--threshold is read only by the soft and semantic matchers, and neither is selected"),
        (["match", "--matcher", "strict", "--threshold", "2", "MgB2", "MgB2"],
         "--threshold is read only by the soft and semantic matchers, and neither is selected"),
        (["match", "--matcher", "strict", "--adjunct-lexicon", "/nonexistent.json", "a", "b"],
         "--adjunct-lexicon is read only by the formula matcher, and it is not selected"),
        (["match", "--matcher", "semantic", "--adjunct-lexicon", "/nonexistent.json", "a", "b"],
         "--adjunct-lexicon is read only by the formula matcher, and it is not selected"),
    ], ids=["eval-ner", "eval-re", "match threshold", "match threshold out of range",
            "match lexicon", "semantic lexicon"])
    def test_unread_scoring_flag_is_named_before_any_input_is_read(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (3, "", f"error: {message}\n")


class TestScoringFlagsReadByTheirMatchers:
    """--threshold reaches soft and semantic, --adjunct-lexicon reaches formula."""

    @pytest.mark.parametrize("threshold, matched", [("0.95", True), ("0.96", False)])
    def test_soft_reads_the_threshold(self, capsys, threshold, matched):
        # ratio("solar cell", "solar cells") = 20/21 = 0.952...
        code, out, _ = run_cli(["match", "--matcher", "soft", "--threshold", threshold,
                                "solar cell", "solar cells"], capsys)
        assert code == 0 and json.loads(out)["matched"] is matched

    @pytest.mark.parametrize("threshold, matched", [("0.96", True), ("0.98", False)])
    def test_semantic_reads_the_threshold(self, capsys, semantic_endpoint, threshold, matched):
        code, out, _ = run_cli(["match", "--matcher", "semantic", "--threshold", threshold,
                                "--semantic-endpoint", semantic_endpoint,
                                "solar cell", "solar cells"], capsys)  # the stub scores 0.97
        assert code == 0 and json.loads(out)["matched"] is matched

    def test_formula_reads_the_lexicon(self, capsys, tmp_path):
        lex = tmp_path / "lex.json"
        lex.write_text(json.dumps(["shiny"]))
        pair = ["shiny MgB2", "MgB 2"]
        code, out, _ = run_cli(["match", "--matcher", "formula", "--adjunct-lexicon", lex, *pair],
                               capsys)
        assert code == 0 and json.loads(out)["tier"] == "formula"
        code, out, _ = run_cli(["match", "--matcher", "formula", *pair], capsys)
        assert code == 0 and json.loads(out)["matched"] is False

    @pytest.mark.parametrize("matchers, threshold", [
        ("strict", None), ("strict,formula", None), ("soft", 0.8), ("strict,semantic", 0.8)])
    def test_eval_report_records_the_threshold_only_when_read(
            self, capsys, tmp_path, semantic_endpoint, matchers, threshold):
        preds = tmp_path / "preds.jsonl"
        preds.write_bytes(GOOD_PREDICTION + b"\n")
        argv = ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
                "--matchers", matchers, "--seed", "4"]
        if threshold is not None:
            argv += ["--threshold", threshold]
        if "semantic" in matchers:
            argv += ["--semantic-endpoint", semantic_endpoint]
        code, out, _ = run_cli(argv, capsys)
        config = json.loads(out)["config"]
        assert code == 0 and config.get("threshold") == threshold
        assert sorted(config) == sorted(
            ["task", "matchers", "seed", "runs", "run_labels"] + ["threshold"] * bool(threshold))
        assert config["seed"] == 4


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

    def test_fixture_that_is_not_utf8_exits_3_naming_it(self, tmp_path):
        fixtures, out_path = tmp_path / "fixtures", tmp_path / "preds.jsonl"
        shutil.copytree(DATA / "fixtures", fixtures)
        bad = fixtures / "d2" / "ner_material" / "run1.txt"
        bad.write_bytes(b"\xff\xfe[\x00]\x00")
        result = run_subprocess(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_material",
             "--dry-run", "--fixtures", fixtures, "--seed", "1", "--output", out_path])
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("error: ") and str(bad) in result.stderr
        assert "Traceback" not in result.stderr
        assert not out_path.exists()

    def test_fixture_that_is_not_utf8_names_the_line(self, capsys, tmp_path):
        fixture = tmp_path / "fixtures" / "d1" / "ner_material" / "run1.txt"
        fixture.parent.mkdir(parents=True)
        fixture.write_bytes(b"materials:\r\n - MgB2\r - caf\xe9\n")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(CORPUS_LINES[0] + "\n", encoding="utf-8")
        code, out, err = run_cli(
            ["extract", "--corpus", corpus, "--task", "ner_material", "--dry-run",
             "--fixtures", tmp_path / "fixtures", "--seed", "1"], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {fixture}: not UTF-8: line 3\n"

    def test_auto_seed_is_printed(self, capsys, tmp_path):
        # a shuffled RE prompt is the one extract prompt that reads a seed
        out_path = tmp_path / "preds.jsonl"
        code, _, err = run_cli(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "re",
             "--shuffle", "shuffled", "--dry-run", "--fixtures", DATA / "fixtures",
             "--output", out_path],
            capsys,
        )
        assert code == 0
        assert "seed:" in err

    @pytest.mark.parametrize("task", ["ner_material", "re"])
    def test_no_seed_is_selected_when_nothing_reads_it(self, capsys, tmp_path, task):
        code, _, err = run_cli(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", task,
             "--shuffle", "non_shuffled", "--dry-run", "--fixtures", DATA / "fixtures",
             "--output", tmp_path / "preds.jsonl"],
            capsys,
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("task", ["ner_material", "ner_quantity"])
    def test_shuffle_with_an_ner_task_exits_3(self, capsys, tmp_path, task):
        out_path = tmp_path / "preds.jsonl"
        code, out, err = run_cli(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", task,
             "--shuffle", "shuffled", "--dry-run", "--fixtures", DATA / "fixtures",
             "--seed", "1", "--output", out_path],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: --shuffle shuffled ") and task in err
        assert not out_path.exists()

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


CORPUS_LINES = (DATA / "corpus.jsonl").read_text(encoding="utf-8").splitlines()


class TestResponseFormatThroughExtract:
    """A pseudo-format answer with a bracketed fragment keeps its entities,
    and an RE slot value drops a trailing JSON object."""

    ANSWERS = {
        "ner_material": ("materials:\n - MgB2 [12]\n",
                         {"entities": {"material": ["MgB2 [12]"]}}),
        "re": ('material: MgB2, tc: 39 K {"ref": 3}\n',
               {"relations": [{"material": "MgB2", "tc": "39 K"}]}),
    }

    @pytest.mark.parametrize("task", ANSWERS)
    def test_bracketed_fragment_in_a_pseudo_answer(self, capsys, tmp_path, task):
        answer, parsed = self.ANSWERS[task]
        fixture = tmp_path / "fixtures" / "d1" / task / "run1.txt"
        fixture.parent.mkdir(parents=True)
        fixture.write_text(answer, encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(CORPUS_LINES[0] + "\n", encoding="utf-8")
        code, out, err = run_cli(
            ["extract", "--corpus", corpus, "--task", task, "--dry-run",
             "--fixtures", tmp_path / "fixtures", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"doc_id": "d1", "run": "run1", **parsed}

    def test_a_relation_with_a_json_citation_is_scored(self, capsys, tmp_path):
        fixture = tmp_path / "fixtures" / "d1" / "re" / "run1.txt"
        fixture.parent.mkdir(parents=True)
        fixture.write_text(self.ANSWERS["re"][0], encoding="utf-8")
        corpus, preds = tmp_path / "corpus.jsonl", tmp_path / "preds.jsonl"
        corpus.write_text(CORPUS_LINES[0] + "\n", encoding="utf-8")
        code, _, _ = run_cli(
            ["extract", "--corpus", corpus, "--task", "re", "--dry-run", "--fixtures",
             tmp_path / "fixtures", "--seed", "1", "--output", preds], capsys)
        assert code == 0
        code, out, _ = run_cli(["eval-re", "--corpus", corpus, "--predictions", preds], capsys)
        report = json.loads(out)
        assert (code, report["warnings"]) == (0, [])
        assert report["matchers"]["strict"]["runs"][0]["per_document"] == [
            {"doc_id": "d1", "tp": 1, "fp": 0, "fn": 0}]

    def test_response_format_option_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["extract", "--corpus", str(DATA / "corpus.jsonl"), "--task", "re",
                  "--response-format", "json"])
        assert "unrecognized arguments: --response-format" in capsys.readouterr().err


class TestPrepareFinetuneOutputs:
    @pytest.mark.parametrize("test_name", ["same.jsonl", "./same.jsonl", "link/same.jsonl"])
    def test_one_file_for_both_outputs_exits_3_writing_nothing(
            self, capsys, tmp_path, monkeypatch, test_name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path)
        code, out, err = run_cli(
            ["prepare-finetune", "--corpus", DATA / "corpus.jsonl", "--task", "re",
             "--seed", "1", "--train-output", "same.jsonl", "--test-output", test_name],
            capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "one file" in err
        assert not (tmp_path / "same.jsonl").exists()


class TestFewShotHints:
    """Few-shot NER prompts need --hints, of one line per document, and
    nothing else reads them."""

    @pytest.fixture
    def hints(self, capsys, tmp_path):
        """Prediction files of one run and of three runs per document."""
        paths = {}
        for runs in (1, 3):
            paths[runs] = tmp_path / f"hints{runs}.jsonl"
            code, _, _ = run_cli(
                ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_material",
                 "--runs", runs, "--dry-run", "--fixtures", DATA / "fixtures", "--seed", "1",
                 "--output", paths[runs]], capsys)
            assert code == 0
        return paths

    def _extract(self, capsys, tmp_path, *argv):
        out = tmp_path / "out.jsonl"
        code, _, err = run_cli(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--dry-run", "--fixtures",
             DATA / "fixtures", "--seed", "1", "--output", out, *argv], capsys)
        return code, err, out.exists()

    @pytest.mark.parametrize("argv, with_hints", [
        (["--task", "ner_material", "--mode", "few"], False),
        (["--task", "ner_material", "--mode", "zero"], True),
        (["--task", "ner_material"], True),
        (["--task", "re", "--mode", "few"], True),
        (["--task", "re", "--mode", "zero"], True),
    ])
    def test_unread_or_missing_hints_exit_3(self, capsys, tmp_path, hints, argv, with_hints):
        extra = ["--hints", hints[1]] if with_hints else []
        code, err, written = self._extract(capsys, tmp_path, *argv, *extra)
        assert (code, written) == (3, False)
        assert err.startswith("error: ") and "--hints" in err

    def test_several_runs_per_document_exit_3_naming_file_and_document(
            self, capsys, tmp_path, hints):
        code, err, written = self._extract(
            capsys, tmp_path, "--task", "ner_material", "--mode", "few", "--hints", hints[3])
        assert (code, written) == (3, False)
        assert err.startswith("error: ") and str(hints[3]) in err and "'d1'" in err

    def test_a_line_for_an_unknown_document_exits_3_naming_file_and_line(
            self, capsys, tmp_path, hints):
        unknown = tmp_path / "unknown.jsonl"
        unknown.write_text(hints[1].read_text(encoding="utf-8") + json.dumps(
            {"doc_id": "no-such-doc", "run": "run1", "entities": {"material": ["MgB2"]}}) + "\n",
            encoding="utf-8")
        lines = len(unknown.read_text(encoding="utf-8").splitlines())
        code, err, written = self._extract(
            capsys, tmp_path, "--task", "ner_material", "--mode", "few", "--hints", unknown)
        assert (code, written) == (3, False)
        assert err.startswith("error: ") and f"{unknown}: line {lines}:" in err
        assert "'no-such-doc'" in err

    def test_one_line_per_document_is_read(self, capsys, tmp_path, hints):
        code, err, written = self._extract(
            capsys, tmp_path, "--task", "ner_material", "--mode", "few", "--hints", hints[1])
        assert (code, written) == (0, True)


class TestEvalNerQuantityClass:
    def test_scores_quantity_entities_only(self, capsys, tmp_path):
        corpus, preds = tmp_path / "corpus.jsonl", tmp_path / "preds.jsonl"
        corpus.write_text(json.dumps({
            "id": "q1", "text": "The can held 355 ml at 4.2 K.",
            "entities": [{"text": "355 ml", "class": "quantity"},
                         {"text": "4.2 K", "class": "quantity"},
                         {"text": "can", "class": "material"}]}) + "\n")
        preds.write_text(json.dumps({
            "doc_id": "q1", "run": "run1",
            "entities": {"quantity": ["355 ml", "4.2K", "7 days"], "material": ["can"]}}) + "\n")
        code, out, _ = run_cli(
            ["eval-ner", "--corpus", corpus, "--predictions", preds, "--class", "quantity",
             "--matchers", "strict,soft", "--threshold", "0.85"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["task"] == "ner_quantity"
        counts = {name: block["runs"][0]["per_document"][0]
                  for name, block in report["matchers"].items()}
        assert counts == {"strict": {"doc_id": "q1", "tp": 1, "fp": 2, "fn": 1},
                          "soft": {"doc_id": "q1", "tp": 2, "fp": 1, "fn": 0}}
