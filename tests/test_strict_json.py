"""Every input is read by one strict JSON reader, ``errors.read_json``.

Text that is not strict JSON (bad syntax, a repeated key, ``NaN`` or
``Infinity``, a number that overflows, an integer or nesting past the
interpreter's limits) is refused. A file that is not exits 3 naming the
file, and the line of a JSONL file (the cases of each file kind sit with
that file's other bad inputs, in ``test_cli`` and ``test_report``). A model
reply that is not is noted on stderr and the run exits 1 with its output
written; a similarity reply that is not skips the semantic matcher. No
input ends a command with a traceback, as the fuzz at the end checks.
"""

import json
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mateval.matching
from mateval.cli import main
from mateval.errors import InvalidJSONError, MatEvalError, read_json

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "corpus.jsonl"
DEEP = "[" * 100_000
LONG_INT = "7" * 5000

# texts strict JSON refuses, each with a fragment of the reason given
REFUSED = {
    "syntax": ("{", "Expecting property name"),
    "repeated key": ('{"a": 1, "b": {"c": 2, "c": 3}}', "repeated key 'c'"),
    "NaN": ("[NaN]", "NaN is not a finite number"),
    "Infinity": ('{"a": -Infinity}', "-Infinity is not a finite number"),
    "overflowing float": ("[1e400]", "1e400 is not a finite number"),
    "long integer": (LONG_INT, "4300"),
    "deep nesting": (DEEP, "recursion"),
}


@pytest.mark.parametrize("text, reason", REFUSED.values(), ids=REFUSED.keys())
def test_read_json_refuses(text, reason):
    with pytest.raises(InvalidJSONError, match=reason) as refused:
        read_json(text)
    assert isinstance(refused.value, MatEvalError)
    with pytest.raises(InvalidJSONError):
        read_json(text.encode())


@pytest.mark.parametrize("text", [
    '{"a": [1, 2.5, -0.0, 1e308, "x"], "b": {"a": null}, "c": true}',
    '"\\u00e9"', "  3  ", "[]", "{}", "9" * 4300,
], ids=["object", "escape", "whitespace", "empty list", "empty object", "4300 digits"])
def test_read_json_reads_what_json_loads_reads(text):
    assert read_json(text) == json.loads(text) == read_json(text.encode("utf-16"))


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _extract(capsys, tmp_path, task, reply):
    """``extract --dry-run`` of document d1 whose one canned reply is ``reply``."""
    corpus, fixtures, out = tmp_path / "c.jsonl", tmp_path / "fixtures", tmp_path / "p.jsonl"
    corpus.write_text(CORPUS.read_text(encoding="utf-8").splitlines()[0] + "\n")
    (fixtures / "d1" / task).mkdir(parents=True)
    (fixtures / "d1" / task / "run1.txt").write_text(reply, encoding="utf-8")
    code, _, err = run(["extract", "--corpus", corpus, "--task", task, "--dry-run",
                        "--fixtures", fixtures, "--seed", "1", "--output", out], capsys)
    return code, err, out.read_text(encoding="utf-8") if out.exists() else None


class TestModelReplies:
    @pytest.mark.parametrize("reply", [DEEP, f"[{LONG_INT}]"], ids=["deep", "long integer"])
    def test_unreadable_reply_is_noted_and_the_output_written(self, capsys, tmp_path, reply):
        code, err, written = _extract(capsys, tmp_path, "ner_material", reply)
        assert code == 1
        assert err.startswith("unparseable response: d1/run1: ") and "Traceback" not in err
        assert json.loads(written) == {"doc_id": "d1", "run": "run1",
                                       "entities": {"material": []}}

    @pytest.mark.parametrize("task, reply", [
        ("ner_material", '[{"material": "MgB2", "material": "MgO"}]'),
        ("re", '[{"material": "MgB2", "tc": "39 K", "tc": "40 K"}]'),
        ("re", '[{"material": "MgB2", "tc": NaN}]'),
        ("ner_material", '["MgB2", Infinity]'),
    ], ids=["ner repeated key", "re repeated key", "re NaN", "ner Infinity"])
    def test_reply_that_is_not_strict_json_is_unreadable(self, capsys, tmp_path, task, reply):
        code, err, written = _extract(capsys, tmp_path, task, reply)
        assert code == 1
        assert err.startswith("unparseable response: d1/run1: ")
        empty = {"relations": []} if task == "re" else {"entities": {"material": []}}
        assert json.loads(written) == {"doc_id": "d1", "run": "run1", **empty}

    def test_deep_chat_body_is_an_endpoint_error(self, capsys, tmp_path, chat_stub,
                                                 monkeypatch):
        monkeypatch.setenv("MATEVAL_TEST_KEY", "k")
        config, out = tmp_path / "endpoint.cfg", tmp_path / "p.jsonl"
        config.write_text(f"base_url = {chat_stub.url}\ncredential_env = MATEVAL_TEST_KEY\n"
                          "max_retries = 0\n")
        chat_stub.script = [(200, {}, DEEP.encode())]
        code, _, err = run(["extract", "--corpus", CORPUS, "--task", "ner_material",
                            "--config", config, "--output", out], capsys)
        assert code == 3
        assert err.startswith("error: malformed endpoint response: ") and "Traceback" not in err


class _BodyHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        payload = self.server.body
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def similarity_body():
    """A similarity service on 127.0.0.1 that answers every request with ``body``."""
    server = HTTPServer(("127.0.0.1", 0), _BodyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_port}/score"
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.mark.parametrize("body", [DEEP, '{"score": 0.5, "score": 1.0}', '{"score": NaN}'],
                         ids=["deep", "repeated key", "NaN"])
def test_unreadable_similarity_body_skips_the_matcher(capsys, tmp_path, similarity_body, body):
    similarity_body.body = body.encode()
    preds, stored = tmp_path / "preds.jsonl", tmp_path / "report.json"
    preds.write_text('{"doc_id": "d1", "entities": {"material": ["MgB 2"]}}\n')
    code, _, err = run(["eval-ner", "--corpus", CORPUS, "--predictions", preds, "--matchers",
                        "strict,semantic", "--semantic-endpoint", similarity_body.url,
                        "--output", stored], capsys)
    assert code == 1 and "Traceback" not in err
    report = json.loads(stored.read_text(encoding="utf-8"))
    assert list(report["matchers"]) == ["strict"]
    assert report["skipped"][0].startswith(
        f"semantic: similarity service at {similarity_body.url} failed: ")


# --- fuzz: arbitrary text where each reader expects JSON -------------------

SPECIAL = st.sampled_from([DEEP, "{" * 3000, LONG_INT, "NaN", "-Infinity", "1e400",
                           '{"a": 1, "a": 1}', "", "\ufeff{}", "[1, 2,]"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
).map(json.dumps)  # floats include nan and inf, written as NaN and Infinity
VALUES = st.one_of(st.text(max_size=40), SPECIAL, JSON_VALUES)

# each input: a JSON skeleton the fuzzed value is put in, or None for the value itself
SKELETONS = {
    "corpus": '{"id": "d1", "text": "MgB2", "entities": [{"text": "MgB2", "class": '
              '"material", "span": %s}]}',
    "predictions": '{"doc_id": "d1", "run": "run1", "entities": {"material": %s}}',
    "report": None,
    "lexicon": '{"adjuncts": %s}',
    "fixture": '[{"material": %s}]',
    "similarity": '{"score": %s}',
}


def _command(kind: str, path: Path, work: Path) -> list:
    empty = work / "empty.jsonl"
    empty.write_text("")
    return {
        "corpus": ["eval-ner", "--corpus", path, "--predictions", empty],
        "predictions": ["eval-ner", "--corpus", CORPUS, "--predictions", path],
        "report": ["report", "--input", path],
        "lexicon": ["match", "--matcher", "formula", "--adjunct-lexicon", path, "MgB2", "MgB2"],
        "fixture": ["extract", "--corpus", CORPUS, "--task", "ner_material", "--dry-run",
                    "--fixtures", work / "fixtures", "--seed", "1",
                    "--output", work / "out.jsonl"],
        "similarity": ["match", "--matcher", "semantic", "--semantic-endpoint",
                       "http://127.0.0.1:9/score", "MgB2", "MgB 2"],
    }[kind]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=VALUES, bare=st.booleans())
@pytest.mark.parametrize("kind", SKELETONS)
def test_fuzzed_input_exits_0_1_or_3_naming_the_file(capsys, monkeypatch, kind, value, bare):
    skeleton = SKELETONS[kind]
    text = value if bare or skeleton is None else skeleton % value
    monkeypatch.setattr(mateval.matching, "post_json",
                        lambda url, payload, timeout: (200, {}, text.encode()))
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        path = work / "input.json"
        path.write_text(text, encoding="utf-8")
        for doc in ("d1", "d2", "d3", "d4", "d5") if kind == "fixture" else ():
            (work / "fixtures" / doc / "ner_material").mkdir(parents=True)
            (work / "fixtures" / doc / "ner_material" / "run1.txt").write_text(
                text, encoding="utf-8")
        code, _, err = run(_command(kind, path, work), capsys)
        if kind == "fixture":
            assert (work / "out.jsonl").exists()
    assert code in (0, 1, 3), err
    assert "Traceback" not in err
    if code == 3 and kind == "similarity":
        assert err.startswith("error: similarity service at http://127.0.0.1:9/score failed: ")
    elif code == 3:
        assert err.startswith(f"error: {path}: "), err
        if kind in ("corpus", "predictions"):
            assert err.startswith(f"error: {path}: line "), err
