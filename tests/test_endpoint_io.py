"""Endpoint I/O under ``max_concurrency``: the bounded ordered map, retries
and backoff, both HTTP clients against local stub services, and the
guarantee that concurrent extraction and batched semantic scoring give the
serial path's outputs, errors and provider calls."""

import json
import os
import shutil
import socketserver
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from mateval import llm
from mateval.cli import _semantic_provider, build_parser, main
from mateval.corpus import Document, EntityMention, PredictionSet, RelationGroup
from mateval.errors import (
    ConfigError,
    EndpointError,
    MissingFixtureError,
    ProviderUnavailableError,
)
from mateval.evaluation import EvalConfig, _GroupTier, evaluate_ner, evaluate_re
from mateval.llm import ChatEndpointConfig, RateLimiter, _TransientFailure, chat_complete
from mateval.matching import HttpSimilarityProvider, SemanticTier, SimilarityProvider
from mateval.prompts import build_ner_prompt
from mateval.transport import NO_REPLY, post_json

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
KEY_ENV = "MATEVAL_TEST_KEY"
CORPUS_LINES = (DATA / "corpus.jsonl").read_text().splitlines()


class TestRateLimiterMap:
    def test_results_keep_input_order(self):
        limiter = RateLimiter(max_concurrency=4)

        def slow_square(x):
            time.sleep(0.001 * (7 - x % 7))  # later items often finish first
            return x * x

        assert limiter.map(slow_square, range(30)) == [x * x for x in range(30)]

    def test_one_slot_runs_on_the_calling_thread(self):
        caller = threading.get_ident()
        seen = RateLimiter(max_concurrency=1).map(lambda _: threading.get_ident(), range(5))
        assert seen == [caller] * 5

    def test_empty_input(self):
        assert RateLimiter(max_concurrency=3).map(lambda x: x, []) == []

    def test_rejects_no_slots(self):
        with pytest.raises(ValueError):
            RateLimiter(max_concurrency=0)

    def test_concurrency_is_capped_under_stress(self):
        # more workers than cores and frequent thread switches: a lost update
        # to the in-flight count or a worker too many would show
        limiter = RateLimiter(max_concurrency=8)
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        def job(x):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.0005)
            with lock:
                state["now"] -= 1
            return x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert limiter.map(job, range(400)) == list(range(400))
        finally:
            sys.setswitchinterval(interval)
        assert 1 < state["peak"] <= 8
        assert state["now"] == 0

    def test_lowest_index_failure_wins_and_nothing_new_starts(self):
        limiter = RateLimiter(max_concurrency=3)
        started = []

        def job(x):
            started.append(x)
            if x in (4, 5):
                time.sleep(0.05 if x == 4 else 0.0)  # 5 fails first in time
                raise ValueError(f"item {x}")
            time.sleep(0.01)
            return x

        with pytest.raises(ValueError, match="item 4"):
            limiter.map(job, range(40))
        # items start in order and stop once a failure is seen
        assert sorted(started) == list(range(len(started)))
        assert len(started) < 40

    def test_slots_and_interval_come_from_the_callee(self):
        limiter = RateLimiter(max_concurrency=2, min_interval=0.02)
        stamps = []

        def request(_):
            limiter.acquire()
            try:
                stamps.append(time.monotonic())
            finally:
                limiter.release()

        limiter.map(request, range(5))
        stamps.sort()
        assert all(b - a >= 0.015 for a, b in zip(stamps, stamps[1:]))


def _live_config(base_url="http://127.0.0.1:9/v1", **kwargs) -> ChatEndpointConfig:
    return ChatEndpointConfig(base_url=base_url, credential_env=KEY_ENV, **kwargs)


@pytest.fixture
def sleeps(monkeypatch):
    """Record chat_complete's backoff waits instead of sleeping (in ``llm`` only)."""
    waits = []
    monkeypatch.setattr(llm, "time", SimpleNamespace(sleep=waits.append,
                                                     monotonic=time.monotonic))
    monkeypatch.setenv(KEY_ENV, "k")
    return waits


class TestBackoff:
    def test_slot_is_free_during_backoff(self, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "k")
        limiter = RateLimiter(max_concurrency=1)
        free_while_waiting = []

        def sleep(seconds):
            got = limiter._slots.acquire(blocking=False)
            if got:
                limiter._slots.release()
            free_while_waiting.append(got)

        monkeypatch.setattr(llm, "time", SimpleNamespace(sleep=sleep, monotonic=time.monotonic))
        attempts = iter([_TransientFailure("HTTP 503"), _TransientFailure("HTTP 500")])

        def flaky(cfg, credential, payload):
            failure = next(attempts, None)
            if failure:
                raise failure
            return "answer"

        bundle = build_ner_prompt("ner_material", "text")
        cfg = _live_config(max_retries=3, backoff_base=0.5)
        assert chat_complete(bundle, cfg, transport=flaky, limiter=limiter) == "answer"
        assert free_while_waiting == [True, True]

    def test_wait_is_the_longer_of_backoff_and_retry_after(self, sleeps):
        attempts = iter([
            _TransientFailure("HTTP 429", retry_after=3.0),
            _TransientFailure("HTTP 503", retry_after=0.1),
            _TransientFailure("HTTP 500"),
        ])

        def flaky(cfg, credential, payload):
            failure = next(attempts, None)
            if failure:
                raise failure
            return "answer"

        bundle = build_ner_prompt("ner_material", "text")
        cfg = _live_config(max_retries=3, backoff_base=0.5)
        assert chat_complete(bundle, cfg, transport=flaky) == "answer"
        assert sleeps == [3.0, 1.0, 2.0]


class TestHttpTransport:
    """``_http_transport`` over real HTTP, against the scripted chat stub."""

    def test_reply_and_request_shape(self, chat_stub, sleeps):
        bundle = build_ner_prompt("ner_material", "MgB2 at 39 K")
        raw = chat_complete(bundle, _live_config(chat_stub.url))
        assert json.loads(raw) and chat_stub.requests == 1
        assert sleeps == []

    def test_429_retry_after_then_500_then_success(self, chat_stub, sleeps):
        chat_stub.script = [
            (429, {"Retry-After": "2"}, b"{}"),
            (500, {"Retry-After": "30"}, b"{}"),  # only 429 and 503 are honoured
            (503, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, b"{}"),
        ]
        bundle = build_ner_prompt("ner_material", "text")
        cfg = _live_config(chat_stub.url, max_retries=3, backoff_base=0.25)
        assert chat_complete(bundle, cfg) == chat_complete(bundle, cfg)
        assert sleeps == [2.0, 0.5, 1.0]
        assert chat_stub.requests == 5

    def test_malformed_json_is_an_endpoint_error(self, chat_stub, sleeps):
        chat_stub.script = [(200, {}, b"{not json")]
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(EndpointError, match="malformed endpoint response"):
            chat_complete(bundle, _live_config(chat_stub.url))
        assert chat_stub.requests == 1  # not retried

    def test_client_error_is_not_retried(self, chat_stub, sleeps):
        chat_stub.script = [(400, {}, b'{"error": "bad request"}')]
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(EndpointError, match="HTTP 400"):
            chat_complete(bundle, _live_config(chat_stub.url, max_retries=2))
        assert chat_stub.requests == 1

    def test_slow_reply_times_out_and_exhausts_retries(self, chat_stub, sleeps):
        chat_stub.delay = 0.5
        bundle = build_ner_prompt("ner_material", "text")
        cfg = _live_config(chat_stub.url, timeout=0.05, max_retries=1, backoff_base=0.0)
        with pytest.raises(EndpointError, match="after 2 attempts"):
            chat_complete(bundle, cfg)
        assert chat_stub.requests == 2


def _write_config(path: Path, url: str, max_concurrency: int, **extra) -> Path:
    lines = [f"base_url = {url}", f"credential_env = {KEY_ENV}", "max_retries = 0",
             f"max_concurrency = {max_concurrency}"]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _extract(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConcurrentExtract:
    @pytest.mark.parametrize("task", ["ner_material", "re"])
    def test_output_identical_for_one_and_four_in_flight(
        self, chat_stub, capsys, tmp_path, monkeypatch, task
    ):
        monkeypatch.setenv(KEY_ENV, "k")
        chat_stub.delay = 0.02
        outputs = {}
        for n in (1, 4):
            chat_stub.max_inflight = 0
            cfg = _write_config(tmp_path / f"c{n}.cfg", chat_stub.url, n)
            out = tmp_path / f"out{n}.jsonl"
            code, _, err = _extract(
                ["extract", "--corpus", DATA / "corpus.jsonl", "--task", task, "--runs", 3,
                 "--shuffle", "shuffled", "--seed", 5, "--config", cfg, "--output", out],
                capsys,
            )
            assert code == 0, err
            assert 1 <= chat_stub.max_inflight <= n
            outputs[n] = out.read_bytes()
        assert chat_stub.max_inflight > 1  # the 4-slot run overlapped requests
        assert outputs[1] == outputs[4]
        records = [json.loads(line) for line in outputs[4].splitlines()]
        assert [(r["run"], r["doc_id"]) for r in records] == [
            (f"run{r}", f"d{d}") for r in (1, 2, 3) for d in range(1, 6)
        ]

    def test_endpoint_error_in_the_middle_names_the_first_failure(
        self, chat_stub, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(KEY_ENV, "k")
        texts = [json.loads(line)["text"] for line in CORPUS_LINES]

        def reply(user):  # d3 and d5 are refused; d5's refusal comes first
            if texts[2] in user:
                time.sleep(0.05)
                return 400, "d3 refused"
            if texts[4] in user:
                return 400, "d5 refused"
            return 200, "[]"

        chat_stub.reply = reply
        errors = set()
        for n in (1, 4):
            cfg = _write_config(tmp_path / f"c{n}.cfg", chat_stub.url, n)
            code, out, err = _extract(
                ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_material",
                 "--seed", 1, "--config", cfg], capsys)
            assert code == 3 and out == ""
            errors.add(err)
        assert len(errors) == 1
        assert "d3 refused" in errors.pop()

    def test_missing_fixture_in_the_middle_names_the_first_gap(self, capsys, tmp_path):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(DATA / "fixtures", fixtures)
        (fixtures / "d2" / "ner_material" / "run2.txt").unlink()
        (fixtures / "d4" / "ner_material" / "run1.txt").unlink()
        code, out, err = _extract(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_material",
             "--runs", 2, "--dry-run", "--fixtures", fixtures, "--seed", 1], capsys)
        assert code == 3 and out == ""
        assert str(Path("d4") / "ner_material" / "run1.txt") in err
        # the same jobs from four threads fail with the same message
        cfg = ChatEndpointConfig(dry_run=True, fixture_dir=str(fixtures))
        bundle = build_ner_prompt("ner_material", "text")
        jobs = [(f"d{d}", f"run{r}") for r in (1, 2) for d in range(1, 6)]
        with pytest.raises(MissingFixtureError) as failure:
            RateLimiter(4).map(lambda job: chat_complete(bundle, cfg, *job), jobs)
        assert err == f"error: {failure.value}\n"

    def test_re_skips_a_document_without_entities(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        docs = [json.loads(line) for line in CORPUS_LINES][:1]
        docs.append({"id": "d9", "text": "Nothing to relate here.", "entities": [],
                     "relations": []})
        corpus.write_text("".join(json.dumps(d) + "\n" for d in docs))
        out = tmp_path / "re.jsonl"
        code, _, err = _extract(
            ["extract", "--corpus", corpus, "--task", "re", "--dry-run",
             "--fixtures", DATA / "fixtures", "--seed", 1, "--output", out], capsys)
        assert code == 1
        assert "skipped d9" in err
        assert [json.loads(line)["doc_id"] for line in out.read_text().splitlines()] == ["d1"]


class TestHttpSimilarityProvider:
    PAIRS = [
        ("39.5 K", "39.5K"), ("solar cell", "solar cells"), ("MgB2", "MgB2"),
        ("a", "b"), ("hole-doped La 2-x Sr x CuO 4", "La 2-x Sr x CuO 4"),
    ] * 3

    def test_score_many_equals_serial_scores(self, semantic_endpoint):
        provider = HttpSimilarityProvider(semantic_endpoint, 10.0, max_concurrency=3)
        serial = [provider.score(a, b) for a, b in self.PAIRS]
        assert provider.score_many(self.PAIRS) == serial
        assert serial[:5] == [0.98, 0.97, 1.0, 0.0, 0.95]

    def test_score_many_goes_through_score(self, semantic_endpoint):
        provider = HttpSimilarityProvider(semantic_endpoint)
        seen = []
        score = provider.score
        provider.score = lambda a, b: seen.append((a, b)) or score(a, b)
        provider.score_many(self.PAIRS)
        assert Counter(seen) == Counter(self.PAIRS)

    def test_unreachable_service_raises_provider_error(self):
        provider = HttpSimilarityProvider("http://127.0.0.1:9/score", 0.5, max_concurrency=2)
        with pytest.raises(ProviderUnavailableError):
            provider.score_many(self.PAIRS)

    def test_concurrent_first_requests_import_the_http_stack_safely(self, semantic_endpoint):
        # a fresh interpreter: four threads send its first requests, so they
        # import the HTTP stack at the same time
        probe = (
            "import json, sys\n"
            "from mateval.matching import HttpSimilarityProvider\n"
            "assert 'http.client' not in sys.modules\n"
            "provider = HttpSimilarityProvider(sys.argv[1], 10.0, max_concurrency=4)\n"
            "print(json.dumps(provider.score_many(json.loads(sys.argv[2]))))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, semantic_endpoint, json.dumps(self.PAIRS)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        provider = HttpSimilarityProvider(semantic_endpoint, 10.0)
        assert json.loads(result.stdout) == [provider.score(a, b) for a, b in self.PAIRS]

    def test_http_stack_is_imported_before_the_first_helper_starts(self, semantic_endpoint):
        # a fresh interpreter: the calling thread imports it, so its allocations
        # do not land in a helper thread's malloc arena
        probe = (
            "import json, sys, threading\n"
            "from mateval.matching import HttpSimilarityProvider\n"
            "seen = []\n"
            "start = threading.Thread.start\n"
            "def recording_start(thread):\n"
            "    seen.append('http.client' in sys.modules)\n"
            "    start(thread)\n"
            "threading.Thread.start = recording_start\n"
            "provider = HttpSimilarityProvider(sys.argv[1], 10.0, max_concurrency=4)\n"
            "provider.score_many(json.loads(sys.argv[2]))\n"
            "print(json.dumps(seen))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, semantic_endpoint, json.dumps(self.PAIRS)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [True, True, True]

    def test_cli_reports_identical_for_one_and_four_in_flight(
        self, semantic_endpoint, capsys, tmp_path
    ):
        preds = tmp_path / "preds.jsonl"
        code, _, _ = _extract(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", "ner_material",
             "--runs", 3, "--dry-run", "--fixtures", DATA / "fixtures", "--seed", 1,
             "--output", preds], capsys)
        assert code == 0
        reports = set()
        for n in (1, 4):
            cfg = _write_config(tmp_path / f"c{n}.cfg", "http://127.0.0.1:9/v1", n,
                                semantic_endpoint=semantic_endpoint)
            code, out, _ = _extract(
                ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions", preds,
                 "--matchers", "semantic", "--config", cfg], capsys)
            assert code == 0
            reports.add(out)
        assert len(reports) == 1
        assert json.loads(reports.pop())["matchers"]["semantic"]["aggregate"]["n_runs"] == 3


class RecordingProvider(SimilarityProvider):
    """Scores by a table; records every pair it is asked for."""

    def __init__(self, table):
        self.table = table
        self.calls = []

    def score(self, a, b):
        self.calls.append((a, b))
        return 1.0 if a == b else self.table.get((a, b), 0.1)


def _serial_calls(monkeypatch, evaluate, *args):
    """The provider calls of the per-pair path: no tier prefetches."""
    provider = RecordingProvider(args[-1].table)
    with monkeypatch.context() as patch:
        patch.setattr(SemanticTier, "prefetch", lambda self, items: None)
        patch.setattr(_GroupTier, "prefetch", lambda self, items: None, raising=False)
        report = evaluate(*args[:-1], provider)
    return report, provider.calls


class TestBatchedSemanticScoring:
    def test_ner_asks_for_exactly_the_serial_pairs(self, monkeypatch):
        docs = [
            Document("d1", "t", [EntityMention("MgB2", "material"),
                                 EntityMention("Nb3Sn", "material")]),
            Document("d2", "t", [EntityMention("H3S", "material")]),
        ]
        preds = [
            PredictionSet("d1", "run1", {"material": ["MgB 2", "Nb3Sn", "MgB2"]}),
            PredictionSet("d2", "run1", {"material": ["H3S"]}),
            PredictionSet("d1", "run2", {"material": ["MgB 2", "Nb3Sn wires"]}),
        ]
        table = {("MgB2", "MgB 2"): 0.95, ("Nb3Sn", "Nb3Sn wires"): 0.93}
        config = EvalConfig(task="ner_material", matchers=("semantic",), runs=2)
        provider = RecordingProvider(table)
        report = evaluate_ner(docs, preds, config, provider)
        serial_report, serial_calls = _serial_calls(
            monkeypatch, evaluate_ner, docs, preds, config, RecordingProvider(table))
        assert report.to_dict() == serial_report.to_dict()
        assert Counter(provider.calls) == Counter(serial_calls)
        assert len(provider.calls) == len(set(provider.calls)) == 9

    def test_re_asks_for_exactly_the_serial_pairs(self, monkeypatch):
        entities = [EntityMention(t, c) for t, c in (
            ("MgB2", "material"), ("H3S", "material"), ("39 K", "tc"), ("203 K", "tc"),
            ("155 GPa", "pressure"), ("150 GPa", "pressure"))]
        docs = [Document("d1", "t", entities, [
            RelationGroup("MgB2", "39 K"), RelationGroup("H3S", "203 K", "155 GPa")])]
        blocks = [
            RelationGroup(material="MgB2", tc="39 K"),
            RelationGroup(material="H3S", tc="39 K", pressure="150 GPa"),
            RelationGroup(material="H3S", tc="203 K", pressure="150 GPa"),
            RelationGroup(material="H3S", tc="203 K"),
        ]
        preds = [PredictionSet("d1", run, relations=blocks) for run in ("run1", "run2")]
        table = {("155 GPa", "150 GPa"): 0.95}
        config = EvalConfig(task="re", matchers=("semantic",), runs=2)
        provider = RecordingProvider(table)
        report = evaluate_re(docs, preds, config, provider)
        serial_report, serial_calls = _serial_calls(
            monkeypatch, evaluate_re, docs, preds, config, RecordingProvider(table))
        assert report.to_dict() == serial_report.to_dict()
        assert Counter(provider.calls) == Counter(serial_calls)
        # tc only where materials matched, pressure only where both slots did
        assert ("39 K", "203 K") not in provider.calls
        assert ("155 GPa", "150 GPa") in provider.calls
        # blocks 1 and 3 match; block 2's tc and block 4's missing pressure do not
        assert report.matchers["semantic"].runs[0].per_document[0]["tp"] == 2

    def test_provider_with_only_score_is_still_batched_once(self):
        class ScoreOnly:
            def __init__(self):
                self.calls = []

            def score(self, a, b):
                self.calls.append((a, b))
                return float(a == b)

        docs = [Document("d1", "t", [EntityMention("MgB2", "material")])]
        preds = [PredictionSet("d1", run, {"material": ["MgB2", "x"]})
                 for run in ("run1", "run2")]
        provider = ScoreOnly()
        report = evaluate_ner(docs, preds, EvalConfig(
            task="ner_material", matchers=("semantic",), runs=2), provider)
        assert provider.calls == [("MgB2", "MgB2"), ("MgB2", "x")]
        assert report.matchers["semantic"].aggregate.mean_f1 == pytest.approx(2 / 3)

    def test_failing_batch_skips_the_matcher(self):
        docs = [Document("d1", "t", [EntityMention("MgB2", "material")])]
        preds = [PredictionSet("d1", "run1", {"material": ["MgB2", "x"]})]
        provider = HttpSimilarityProvider("http://127.0.0.1:9/score", 0.5)
        report = evaluate_ner(docs, preds, EvalConfig(
            task="ner_material", matchers=("semantic", "strict")), provider)
        assert "semantic" not in report.matchers and "strict" in report.matchers
        assert report.skipped[0].startswith("semantic: similarity service at")


class TestPostJson:
    """``transport.post_json`` returns every reply and raises only ``NO_REPLY``."""

    def test_error_statuses_are_returned(self, chat_stub):
        chat_stub.script = [(404, {"X-Probe": "1"}, b"gone"), (307, {"Location": "/x"}, b"")]
        status, headers, body = post_json(chat_stub.url, {"a": 1}, 5.0)
        assert (status, headers["X-Probe"], body) == (404, "1", b"gone")
        assert post_json(chat_stub.url, {}, 5.0)[0] == 307  # a POST is not redirected
        assert chat_stub.requests == 2

    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:9/", "localhost:8040/score", "file:///score",
        "http://[::1/", "http://127.0.0.1:port/",
    ])
    def test_no_reply_is_one_exception_family(self, url):
        with pytest.raises(NO_REPLY):
            post_json(url, {}, 0.5)


class _GarbageHandler(socketserver.StreamRequestHandler):
    """Reads one HTTP request, then answers with a line that is not HTTP."""

    def handle(self):
        length = 0
        for line in iter(self.rfile.readline, b"\r\n"):
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        self.rfile.read(length)
        self.server.requests += 1
        self.wfile.write(b"garbage\r\n\r\n")


@pytest.fixture
def garbage_server():
    server = socketserver.TCPServer(("127.0.0.1", 0), _GarbageHandler)
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    server.requests = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestReplyThatIsNotHttp:
    """A status line ``http.client`` cannot read raises one of its own errors,
    not an OSError; it arrives as ``NO_REPLY`` with the same text."""

    def test_post_json_raises_no_reply(self, garbage_server):
        with pytest.raises(NO_REPLY) as failure:
            post_json(garbage_server.url, {}, 5.0)
        assert str(failure.value) == "garbage\r\n"

    def test_chat_retries_then_fails(self, garbage_server, sleeps):
        bundle = build_ner_prompt("ner_material", "text")
        cfg = _live_config(garbage_server.url + "/v1", max_retries=1, backoff_base=0.5)
        with pytest.raises(EndpointError) as failure:
            chat_complete(bundle, cfg)
        assert str(failure.value) == "endpoint failed after 2 attempts: garbage\r\n"
        assert (garbage_server.requests, sleeps) == (2, [0.5])

    def test_semantic_matcher_is_skipped(self, garbage_server):
        docs = [Document("d1", "t", [EntityMention("MgB2", "material")])]
        preds = [PredictionSet("d1", "run1", {"material": ["MgB2", "x"]})]
        provider = HttpSimilarityProvider(garbage_server.url + "/score", 5.0)
        report = evaluate_ner(docs, preds, EvalConfig(
            task="ner_material", matchers=("semantic", "strict")), provider)
        assert list(report.matchers) == ["strict"]
        assert report.skipped == [
            f"semantic: similarity service at {provider.endpoint} failed: garbage\r\n"]


class TestMalformedChatReplies:
    @pytest.mark.parametrize("body", [
        b'{"choices": null}',
        b'{"choices": [{"message": {"content": null}}]}',
        b'{"choices": "text"}',
        b'[]',
    ])
    def test_reply_without_string_content_is_an_endpoint_error(self, chat_stub, sleeps, body):
        chat_stub.script = [(200, {}, body)]
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(EndpointError, match="malformed endpoint response"):
            chat_complete(bundle, _live_config(chat_stub.url))
        assert chat_stub.requests == 1

    def test_redirect_is_reported_not_followed(self, chat_stub, sleeps):
        chat_stub.script = [(308, {"Location": "/elsewhere"}, b"moved")]
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(EndpointError, match="HTTP 308: moved"):
            chat_complete(bundle, _live_config(chat_stub.url, max_retries=2))
        assert chat_stub.requests == 1


def _predictions(tmp_path: Path) -> Path:
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"doc_id": "d1", "run": "run1",
                                "entities": {"material": ["MgB2", "Nb3Sn"]}}) + "\n")
    return path


class TestSimilarityReplies:
    """The similarity client against the scripted stub, which answers any path."""

    @pytest.mark.parametrize("status, body", [
        (200, b'{"score": null}'), (200, b'{"score": "nan"}'), (200, b'{"score": 7}'),
        (200, b'{"score": -0.5}'), (200, b'{"score": 1e999}'), (200, b'{"score": "high"}'),
        (200, b'{"similarity": 0.5}'), (200, b"[0.5]"), (500, b'{"score": 0.5}'),
    ])
    def test_bad_reply_raises_provider_error(self, chat_stub, status, body):
        chat_stub.script = [(status, {}, body)]
        provider = HttpSimilarityProvider(chat_stub.url + "/score", 5.0)
        with pytest.raises(ProviderUnavailableError, match="similarity service at"):
            provider.score("a", "b")

    def test_scores_in_range_are_accepted(self, chat_stub):
        chat_stub.script = [(200, {}, b'{"score": 0}'), (200, {}, b'{"score": 1.0}')]
        provider = HttpSimilarityProvider(chat_stub.url + "/score", 5.0)
        assert [provider.score("a", "b"), provider.score("a", "a")] == [0.0, 1.0]

    def test_out_of_range_score_skips_the_matcher(self, chat_stub, capsys, tmp_path):
        chat_stub.script = [(200, {}, b'{"score": 7}')] * 50
        cfg = _write_config(tmp_path / "c.cfg", chat_stub.url, 1,
                            semantic_endpoint=chat_stub.url + "/score")
        code, out, err = _extract(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions",
             _predictions(tmp_path), "--matchers", "semantic,strict", "--config", cfg],
            capsys)
        assert code == 1, err
        report = json.loads(out)
        assert list(report["matchers"]) == ["strict"]
        assert "is not in [0, 1]" in report["skipped"][0]


class TestOutputRefusedBeforeWork:
    @pytest.mark.parametrize("command", ["eval-ner", "eval-re", "match"])
    def test_no_request_is_sent(self, chat_stub, capsys, tmp_path, command):
        target = tmp_path / "report.json"
        target.write_text("precious")
        flags = {
            "eval-ner": ["--matchers", "semantic"],
            "eval-re": ["--matchers", "semantic"],
            "match": ["--matcher", "semantic", "MgB2", "MgB 2"],
        }[command]
        preds = _predictions(tmp_path)
        if command == "eval-re":
            preds.write_text(json.dumps({"doc_id": "d1", "relations": [
                {"material": "MgB2", "tc": "39 K"}]}) + "\n")
        inputs = ["--corpus", DATA / "corpus.jsonl", "--predictions", preds]
        code, out, err = _extract(
            [command, *([] if command == "match" else inputs), *flags,
             "--semantic-endpoint", chat_stub.url + "/score", "--output", target],
            capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: refusing to overwrite {target}")
        assert chat_stub.requests == 0
        assert target.read_text() == "precious"


BAD_CONFIGS = {
    "unknown key": b"bogus = 1",
    "method name as key": b"from_file = 1",
    "uncastable value": b"max_concurrency = x",
    "no slot": b"max_concurrency = 0",
    "negative interval": b"min_interval = -1",
    "nan interval": b"min_interval = nan",
    "negative retries": b"max_retries = -1",
    "zero timeout": b"timeout = 0",
    "no equals sign": b"max_concurrency",
    "not utf-8": b"model = caf\xe9",
}


class TestRepeatedMatcher:
    def test_no_request_is_sent(self, chat_stub, capsys, tmp_path):
        code, out, err = _extract(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions",
             _predictions(tmp_path), "--matchers", "semantic,semantic",
             "--semantic-endpoint", chat_stub.url + "/score"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: repeated matchers: ['semantic']\n"
        assert chat_stub.requests == 0


class TestConfigErrors:
    @pytest.mark.parametrize("line", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    @pytest.mark.parametrize("command", ["extract", "eval-ner"])
    def test_bad_config_exits_3_naming_the_line(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# endpoint\r\nmodel = gpt-4\r\n" + line + b"\n")
        flags = {
            "extract": ["--task", "ner_material", "--seed", 1],
            "eval-ner": ["--predictions", _predictions(tmp_path), "--matchers", "semantic"],
        }[command]
        code, out, err = _extract(
            [command, "--corpus", DATA / "corpus.jsonl", *flags, "--config", cfg], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {cfg}:3: ") and "Traceback" not in err

    def test_bad_config_is_still_a_value_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("max_concurrency = 0\n")
        with pytest.raises(ConfigError) as failure:
            ChatEndpointConfig.from_file(str(cfg))
        assert isinstance(failure.value, ValueError)


class TestEndpointFlags:
    """Flags go through the config's one setter: checked as file keys are,
    and overriding them."""

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command", ["eval-ner", "match"])
    def test_bad_timeout_sends_no_request(self, chat_stub, capsys, tmp_path, command, value):
        flags = {
            "eval-ner": ["--corpus", DATA / "corpus.jsonl", "--predictions",
                         _predictions(tmp_path), "--matchers", "semantic"],
            "match": ["--matcher", "semantic", "MgB2", "MgB 2"],
        }[command]
        code, out, err = _extract(
            [command, *flags, "--semantic-endpoint", chat_stub.url + "/score",
             f"--timeout={value}"], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: --timeout: timeout must be positive and finite, got {value!r}\n"
        assert chat_stub.requests == 0

    def test_flag_and_file_fail_alike(self, capsys, tmp_path):
        cfg = tmp_path / "endpoint.cfg"
        cfg.write_text("timeout = 0\n")
        argv = ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions",
                _predictions(tmp_path), "--matchers", "semantic"]
        file_code, _, from_file = _extract([*argv, "--config", cfg], capsys)
        flag_code, _, from_flag = _extract([*argv, "--timeout", "0"], capsys)
        assert file_code == flag_code == 3
        assert from_file.startswith(f"error: {cfg}:1: ")
        assert from_flag.startswith("error: --timeout: ")
        assert from_file.removeprefix(f"error: {cfg}:1: ") == from_flag.removeprefix(
            "error: --timeout: ")

    @pytest.mark.parametrize("config", ["", "max_concurrency = 2\n"],
                             ids=["no config", "unrelated config"])
    def test_similarity_timeout_is_the_documented_default(self, tmp_path, config):
        cfg = tmp_path / "endpoint.cfg"
        cfg.write_text(config)
        args = build_parser().parse_args(
            ["match", "--matcher", "semantic", "--semantic-endpoint", "http://127.0.0.1:9/score",
             *(["--config", str(cfg)] if config else []), "a", "b"])
        assert _semantic_provider(args).timeout == ChatEndpointConfig().timeout == 60.0

    def test_flags_override_file_keys(self, tmp_path):
        cfg = tmp_path / "endpoint.cfg"
        cfg.write_text("timeout = 30\nsemantic_endpoint = http://127.0.0.1:9/a\n"
                       "max_concurrency = 2\n")
        args = build_parser().parse_args(
            ["eval-ner", "--corpus", "c", "--predictions", "p", "--config", str(cfg),
             "--semantic-endpoint", "http://127.0.0.1:9/b", "--timeout", "5"])
        provider = _semantic_provider(args)
        assert (provider.endpoint, provider.timeout) == ("http://127.0.0.1:9/b", 5.0)
        assert provider.limiter.max_concurrency == 2
