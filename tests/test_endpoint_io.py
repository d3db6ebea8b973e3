"""Endpoint I/O under ``max_concurrency``: the bounded ordered map, retries
and backoff, both HTTP clients against local stub services, and the
guarantee that concurrent extraction and batched semantic scoring give the
serial path's outputs, errors and provider calls."""

import json
import math
import os
import re
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
from mateval.evaluation import (
    EvalConfig,
    _GroupTier,
    evaluate_ner,
    evaluate_re,
    filter_relation_blocks,
)
from mateval.llm import ChatEndpointConfig, RateLimiter, chat_complete
from mateval.matching import (
    DEFAULT_THRESHOLD,
    HttpSimilarityProvider,
    SemanticTier,
    SimilarityProvider,
    Tier,
    semantic_match,
)
from mateval.prompts import build_ner_prompt
from mateval.scoring import count_matches
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
    def test_slot_is_free_during_backoff(self, monkeypatch, fake_post):
        monkeypatch.setenv(KEY_ENV, "k")
        limiter = RateLimiter(max_concurrency=1)
        free_while_waiting = []

        def sleep(seconds):
            got = limiter._slots.acquire(blocking=False)
            if got:
                limiter._slots.release()
            free_while_waiting.append(got)

        monkeypatch.setattr(llm, "time", SimpleNamespace(sleep=sleep, monotonic=time.monotonic))
        fake_post((503, {}, b""), (500, {}, b""), "answer")
        bundle = build_ner_prompt("ner_material", "text")
        cfg = _live_config(max_retries=3, backoff_base=0.5)
        assert chat_complete(bundle, cfg, limiter=limiter) == "answer"
        assert free_while_waiting == [True, True]

    def test_wait_is_the_longer_of_backoff_and_retry_after(self, sleeps, fake_post):
        fake_post(
            (429, {"Retry-After": "3"}, b""),
            (503, {"Retry-After": "0.1"}, b""),
            (500, {}, b""),
            "answer",
        )
        bundle = build_ner_prompt("ner_material", "text")
        cfg = _live_config(max_retries=3, backoff_base=0.5)
        assert chat_complete(bundle, cfg) == "answer"
        assert sleeps == [3.0, 1.0, 2.0]


class TestStatusPolicy:
    """What ``chat_complete`` does with each reply of a faked ``post_json``."""

    @pytest.mark.parametrize("status", [201, 204, 301, 404, 428])
    def test_a_status_other_than_200_429_or_5xx_fails_at_once(
            self, sleeps, fake_post, capsys, status):
        calls = fake_post((status, {}, b"no chat here"), "answer")
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(EndpointError) as failure:
            chat_complete(bundle, _live_config(max_retries=2))
        assert str(failure.value) == f"HTTP {status}: no chat here"
        assert len(calls) == 1 and sleeps == [] and capsys.readouterr().err == ""

    @pytest.mark.parametrize("status", [429, 500, 502, 599])
    def test_429_and_5xx_are_retried(self, sleeps, fake_post, capsys, status):
        calls = fake_post((status, {}, b""), "answer")
        bundle = build_ner_prompt("ner_material", "text")
        assert chat_complete(bundle, _live_config(max_retries=2, backoff_base=0.5)) == "answer"
        assert len(calls) == 2 and sleeps == [0.5]
        assert capsys.readouterr().err == (
            f"transient endpoint failure (HTTP {status}), retrying in 0.5s\n")

    def test_no_reply_on_every_attempt_is_the_errors_cause(self, sleeps, fake_post):
        refused = ConnectionRefusedError("connection refused")
        calls = fake_post(refused)
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(EndpointError) as failure:
            chat_complete(bundle, _live_config(max_retries=2, backoff_base=0.5))
        assert str(failure.value) == "endpoint failed after 3 attempts: connection refused"
        assert failure.value.__cause__ is refused
        assert len(calls) == 3 and sleeps == [0.5, 1.0]


class TestHttpTransport:
    """``chat_complete`` over real HTTP, against the scripted chat stub."""

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
                 *(["--shuffle", "shuffled"] if task == "re" else []),  # NER reads none
                 "--seed", 5, "--config", cfg, "--output", out],
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

    @staticmethod
    def score_all(provider, pairs):
        return provider.map(lambda pair: provider.score(*pair), pairs)

    def test_map_equals_serial_scores(self, semantic_endpoint):
        provider = HttpSimilarityProvider(semantic_endpoint, 10.0, max_concurrency=3)
        serial = [provider.score(a, b) for a, b in self.PAIRS]
        assert self.score_all(provider, self.PAIRS) == serial
        assert serial[:5] == [0.98, 0.97, 1.0, 0.0, 0.95]

    def test_map_goes_through_score(self, semantic_endpoint):
        provider = HttpSimilarityProvider(semantic_endpoint)
        seen = []
        score = provider.score
        provider.score = lambda a, b: seen.append((a, b)) or score(a, b)
        self.score_all(provider, self.PAIRS)
        assert Counter(seen) == Counter(self.PAIRS)

    def test_unreachable_service_raises_provider_error(self):
        provider = HttpSimilarityProvider("http://127.0.0.1:9/score", 0.5, max_concurrency=2)
        with pytest.raises(ProviderUnavailableError):
            self.score_all(provider, self.PAIRS)

    def test_concurrent_first_requests_import_the_http_stack_safely(self, semantic_endpoint):
        # a fresh interpreter: four threads send its first requests, so they
        # import the HTTP stack at the same time
        probe = (
            "import json, sys\n"
            "from mateval.matching import HttpSimilarityProvider\n"
            "assert 'http.client' not in sys.modules\n"
            "provider = HttpSimilarityProvider(sys.argv[1], 10.0, max_concurrency=4)\n"
            "pairs = json.loads(sys.argv[2])\n"
            "print(json.dumps(provider.map(lambda p: provider.score(*p), pairs)))\n"
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
            "provider.map(lambda p: provider.score(*p), json.loads(sys.argv[2]))\n"
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
    """Scores by a table after ``delay`` seconds; records every pair it is
    asked for. With ``concurrency`` it counts documents through a limiter
    ``map`` of that many threads."""

    def __init__(self, table, concurrency=None, delay=0.0):
        self.table, self.delay = table, delay
        self.calls = []
        if concurrency is not None:
            self.map = RateLimiter(concurrency).map

    def similarity(self, a, b):
        return 1.0 if a == b else self.table.get((a, b), 0.1)

    def score(self, a, b):
        self.calls.append((a, b))
        time.sleep(self.delay)
        return self.similarity(a, b)


NER_DOCS = [
    Document("d1", "t", [EntityMention("MgB2", "material"), EntityMention("Nb3Sn", "material")]),
    Document("d2", "t", [EntityMention("H3S", "material")]),
]
NER_PREDS = [
    PredictionSet("d1", "run1", {"material": ["MgB 2", "Nb3Sn", "MgB2"]}),
    PredictionSet("d2", "run1", {"material": ["H3S"]}),
    PredictionSet("d1", "run2", {"material": ["MgB 2", "Nb3Sn wires"]}),
]
NER_TABLE = {("MgB2", "MgB 2"): 0.95, ("Nb3Sn", "Nb3Sn wires"): 0.93}
RE_DOCS = [Document(
    "d1", "t",
    [EntityMention(t, c) for t, c in (
        ("MgB2", "material"), ("H3S", "material"), ("39 K", "tc"), ("203 K", "tc"),
        ("155 GPa", "pressure"), ("150 GPa", "pressure"))],
    [RelationGroup("MgB2", "39 K"), RelationGroup("H3S", "203 K", "155 GPa")],
)]
RE_BLOCKS = [
    RelationGroup(material="MgB2", tc="39 K"),
    RelationGroup(material="H3S", tc="39 K", pressure="150 GPa"),
    RelationGroup(material="H3S", tc="203 K", pressure="150 GPa"),
    RelationGroup(material="H3S", tc="203 K"),
]
RE_PREDS = [PredictionSet("d1", run, relations=RE_BLOCKS) for run in ("run1", "run2")]
RE_TABLE = {("155 GPa", "150 GPa"): 0.95}
# documents of unequal sizes, pairs shared between them
UNEQUAL_DOCS = [Document(f"d{i}", "t", [EntityMention(t, "material") for t in texts])
                for i, texts in enumerate((["MgB2"], ["MgB2", "Nb3Sn", "H3S"], ["Nb3Sn", "LaH10"]))]
UNEQUAL_PREDS = [PredictionSet(doc, run, {"material": texts}) for doc, run, texts in (
    ("d0", "run1", ["MgB 2", "Nb3Sn wires", "H3S", "x"]),
    ("d1", "run1", ["MgB 2"]),
    ("d1", "run2", ["Nb3Sn wires", "MgB 2", "H3S", "LaH 10", "y"]),
    ("d2", "run2", ["Nb3Sn", "LaH 10"]))]
UNEQUAL_TABLE = {**NER_TABLE, ("LaH10", "LaH 10"): 0.95}


def _ner_items(doc, pred):
    return doc.entity_texts("material"), pred.entities.get("material", []) if pred else []


def _re_items(doc, pred):
    blocks = pred.relations if pred else []
    return doc.relations, filter_relation_blocks(blocks, doc.relation_entities())


def _all_pairs_report(docs, preds, provider, items, groups=False):
    """Per run, the per-document counts of ``count_matches`` under a plain
    predicate that reads the provider's table, every pair of it."""
    def similar(a, b):
        return provider.similarity(a, b) >= DEFAULT_THRESHOLD

    def match(e, p):
        if not groups:
            return similar(e, p)
        return all((x is None) == (y is None) and (x is None or similar(x, y))
                   for x, y in zip(e, p))

    by_key = {(p.run_label, p.doc_id): p for p in preds}
    return {
        run: [{"doc_id": doc.id, **count_matches(*items(doc, by_key.get((run, doc.id))),
                                                  match)._asdict()}
              for doc in sorted(docs, key=lambda d: d.id)]
        for run in sorted({p.run_label for p in preds})
    }


def _per_document(report):
    return {run.run: run.per_document for run in report.matchers["semantic"].runs}


def _product(docs, preds, items, groups=False):
    """Every (gold, predicted) text pair a document offers, slot by slot for groups."""
    docs_by_id = {doc.id: doc for doc in docs}
    pairs = set()
    for pred in preds:
        expected, predicted = items(docs_by_id[pred.doc_id], pred)
        for e in expected:
            for p in predicted:
                pairs.update(zip(e, p) if groups else [(e, p)])
    return pairs


class AscendingSemanticTier(SemanticTier):
    """A semantic tier whose rows scan predicted keys in ascending index."""

    scan_orders = Tier.scan_orders


class FailingProvider(RecordingProvider):
    def score(self, a, b):
        super().score(a, b)
        raise ProviderUnavailableError(f"refused {a} ~ {b}")


def _within(seconds, fn):
    """``fn()`` on a daemon thread, failing the test if it has not returned
    after ``seconds``: a hang fails instead of blocking the suite."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestBatchedSemanticScoring:
    """An evaluation hands the documents of all runs to the provider's
    ``map`` as one batch. The semantic tier asks only for the pairs the
    maximum matching reaches, each distinct pair once, and reports what
    scoring every pair would."""

    def test_ner_asks_for_exactly_the_serial_pairs(self):
        provider = RecordingProvider(NER_TABLE)
        config = EvalConfig(task="ner_material", matchers=("semantic",), runs=2)
        report = evaluate_ner(NER_DOCS, NER_PREDS, config, provider)
        assert _per_document(report) == _all_pairs_report(
            NER_DOCS, NER_PREDS, provider, _ner_items)
        assert len(provider.calls) == len(set(provider.calls))
        assert set(provider.calls) <= _product(NER_DOCS, NER_PREDS, _ner_items)
        # rows scan likeliest first, and an identical pair scores 1.0 unasked.
        # d1 run1: MgB2 ranks "MgB2" (overlap 1) before "MgB 2" (8/9) and
        # takes it unasked, Nb3Sn ranks "Nb3Sn" first and takes it unasked;
        # d2 run1 takes "H3S" unasked; d1 run2: MgB2 asks and takes "MgB 2"
        # (8/9), Nb3Sn asks and takes "Nb3Sn wires" (10/16). No row asks a
        # pair that misses
        assert provider.calls == [("MgB2", "MgB 2"), ("Nb3Sn", "Nb3Sn wires")]
        assert [r.per_document[0]["tp"] for r in report.matchers["semantic"].runs] == [2, 2]

    def test_re_asks_for_exactly_the_serial_pairs(self):
        provider = RecordingProvider(RE_TABLE)
        config = EvalConfig(task="re", matchers=("semantic",), runs=2)
        report = evaluate_re(RE_DOCS, RE_PREDS, config, provider)
        assert _per_document(report) == _all_pairs_report(
            RE_DOCS, RE_PREDS, provider, _re_items, groups=True)
        assert len(provider.calls) == len(set(provider.calls))
        assert set(provider.calls) <= _product(RE_DOCS, RE_PREDS, _re_items, groups=True)
        # MgB2/39 K takes block 1 with both slots identical, unasked;
        # H3S/203 K/155 GPa ranks the H3S blocks before block 1 (material
        # overlap 1 against 0), matches block 2's material unasked, asks and
        # fails its tc ("203 K", "39 K"), then takes block 3: material and tc
        # identical, pressure asked ("155 GPa", "150 GPa"). Block 4 and
        # ("H3S", "MgB2") are never read, and run2 asks nothing. tc is asked
        # only where the materials matched
        assert provider.calls == [("203 K", "39 K"), ("155 GPa", "150 GPa")]
        assert report.matchers["semantic"].runs[0].per_document[0]["tp"] == 2

    def test_ner_likeliest_first_asks_fewer_pairs_than_ascending(self):
        # ascending: MgB2 asks "H3S", "LaH 10", then takes "MgB 2"; LaH10
        # asks "H3S", then takes "LaH 10". Ranked: MgB2 puts "MgB 2" (8/9)
        # first, LaH10 puts "LaH 10" (10/11) before "H3S" (2/8)
        gold, predicted = ["MgB2", "LaH10"], ["H3S", "LaH 10", "MgB 2"]
        table = {("MgB2", "MgB 2"): 0.95, ("LaH10", "LaH 10"): 0.95}
        calls = {}
        for name, tier in (("ascending", AscendingSemanticTier), ("ranked", SemanticTier)):
            provider = RecordingProvider(table)
            assert count_matches(gold, predicted, tier(provider=provider)).tp == 2
            calls[name] = provider.calls
        assert calls == {
            "ascending": [("MgB2", "H3S"), ("MgB2", "LaH 10"), ("MgB2", "MgB 2"),
                          ("LaH10", "H3S"), ("LaH10", "LaH 10")],
            "ranked": [("MgB2", "MgB 2"), ("LaH10", "LaH 10")],
        }

    def test_re_likeliest_first_asks_fewer_pairs_than_ascending(self):
        # rows rank blocks by material: MgB2 puts "MgB 2" (8/9) before "H3S"
        # (0), so ascending's ("MgB2", "H3S") is never asked. Identical slots
        # ("39 K", "H3S", "203 K") score 1.0 unasked in both orders
        gold = [RelationGroup("MgB2", "39 K"), RelationGroup("H3S", "203 K")]
        predicted = [RelationGroup("H3S", "203 K"), RelationGroup("MgB 2", "39 K")]
        calls = {}
        for name, tier in (("ascending", AscendingSemanticTier), ("ranked", SemanticTier)):
            provider = RecordingProvider({("MgB2", "MgB 2"): 0.95})
            assert count_matches(gold, predicted, _GroupTier(tier(provider=provider))).tp == 2
            calls[name] = provider.calls
        assert calls == {
            "ascending": [("MgB2", "H3S"), ("MgB2", "MgB 2")],
            "ranked": [("MgB2", "MgB 2")],
        }

    @pytest.mark.parametrize("evaluate, docs, preds, table, items", [
        (evaluate_ner, NER_DOCS, NER_PREDS, NER_TABLE, _ner_items),
        (evaluate_re, RE_DOCS, RE_PREDS, RE_TABLE, _re_items),
        (evaluate_ner, UNEQUAL_DOCS, UNEQUAL_PREDS, UNEQUAL_TABLE, _ner_items),
    ], ids=["ner", "re", "ner-unequal-sizes"])
    def test_calls_and_report_do_not_depend_on_concurrency(
        self, evaluate, docs, preds, table, items
    ):
        task = "re" if evaluate is evaluate_re else "ner_material"
        seen = []
        for concurrency in (None, 1, 4):  # None: a provider without map
            provider = RecordingProvider(table, concurrency, delay=0.005)
            report = evaluate(docs, preds, EvalConfig(task=task, matchers=("semantic",)),
                              provider)
            assert _per_document(report) == _all_pairs_report(
                docs, preds, provider, items, groups=task == "re")
            assert len(provider.calls) == len(set(provider.calls))
            seen.append((sorted(provider.calls), report.to_dict()))
        assert seen[0] == seen[1] == seen[2]

    def test_score_only_provider_asks_reached_pairs_once(self):
        class ScoreOnly:
            def __init__(self):
                self.calls = []

            def score(self, a, b):
                self.calls.append((a, b))
                return float(a.replace(" ", "") == b.replace(" ", ""))

        # MgB2 ranks "MgB 2" (8/9) before "x" (0): run1 asks the pair and
        # takes it, run2 reads it from the tier; "x" is never asked
        docs = [Document("d1", "t", [EntityMention("MgB2", "material")])]
        preds = [PredictionSet("d1", run, {"material": ["MgB 2", "x"]})
                 for run in ("run1", "run2")]
        provider = ScoreOnly()
        report = evaluate_ner(docs, preds, EvalConfig(
            task="ner_material", matchers=("semantic",), runs=2), provider)
        assert provider.calls == [("MgB2", "MgB 2")]
        assert report.matchers["semantic"].aggregate.mean_f1 == pytest.approx(2 / 3)

    def test_a_pair_two_documents_need_at_once_is_asked_once(self):
        docs = [Document(f"d{i}", "t", [EntityMention("MgB2", "material")]) for i in (1, 2)]
        preds = [PredictionSet(f"d{i}", "run1", {"material": ["MgB 2"]}) for i in (1, 2)]
        provider = RecordingProvider(NER_TABLE, concurrency=2, delay=0.2)
        report = _within(30, lambda: evaluate_ner(docs, preds, EvalConfig(
            task="ner_material", matchers=("semantic",)), provider))
        assert provider.calls == [("MgB2", "MgB 2")]
        assert [d["tp"] for d in report.matchers["semantic"].runs[0].per_document] == [1, 1]

    def test_shared_pairs_under_stress_are_each_asked_once(self):
        # more threads than cores, frequent switches, documents drawing on one
        # small pool of texts: a lost update to the score table shows as a
        # pair asked twice or a count that differs from the serial one
        texts = ["MgB2", "MgB 2", "H3S", "H 3 S", "Nb3Sn", "Nb3Sn wires", "LaH10"]
        table = {("MgB2", "MgB 2"): 0.95, ("H3S", "H 3 S"): 0.92, ("Nb3Sn", "Nb3Sn wires"): 0.9}
        docs = [Document(f"d{i:02}", "t", [EntityMention(texts[(i + k) % 7], "material")
                                           for k in range(3)]) for i in range(40)]
        preds = [PredictionSet(doc.id, f"run{r}", {"material": [
            texts[(i * r + k) % 7] for k in range(4)]})
            for r in (1, 2) for i, doc in enumerate(docs)]
        config = EvalConfig(task="ner_material", matchers=("semantic",))
        serial = RecordingProvider(table)
        expected = evaluate_ner(docs, preds, config, serial).to_dict()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            provider = RecordingProvider(table, concurrency=8, delay=0.001)
            report = _within(60, lambda: evaluate_ner(docs, preds, config, provider))
        finally:
            sys.setswitchinterval(interval)
        assert len(provider.calls) == len(set(provider.calls))
        assert sorted(provider.calls) == sorted(serial.calls)
        assert report.to_dict() == expected

    def test_a_failure_reaches_the_thread_waiting_on_its_pair(self):
        docs = [Document(f"d{i}", "t", [EntityMention("MgB2", "material")]) for i in (1, 2)]
        preds = [PredictionSet(f"d{i}", "run1", {"material": ["MgB 2"]}) for i in (1, 2)]
        provider = FailingProvider({}, concurrency=2, delay=0.2)
        report = _within(30, lambda: evaluate_ner(docs, preds, EvalConfig(
            task="ner_material", matchers=("semantic", "strict")), provider))
        assert provider.calls == [("MgB2", "MgB 2")]
        assert "semantic" not in report.matchers and "strict" in report.matchers
        assert report.skipped == ["semantic: refused MgB2 ~ MgB 2"]

    def test_a_failed_pair_fails_again_without_a_second_call(self):
        provider = FailingProvider({})
        tier = SemanticTier(provider=provider)
        for _ in range(2):
            with pytest.raises(ProviderUnavailableError, match="refused a ~ b"):
                _within(30, lambda: tier.verify("a", "b"))
        assert provider.calls == [("a", "b")]

    def test_failing_batch_skips_the_matcher(self):
        # not identical, so the pair is asked and the request fails
        docs = [Document("d1", "t", [EntityMention("MgB2", "material")])]
        preds = [PredictionSet("d1", "run1", {"material": ["MgB 2", "x"]})]
        provider = HttpSimilarityProvider("http://127.0.0.1:9/score", 0.5)
        report = evaluate_ner(docs, preds, EvalConfig(
            task="ner_material", matchers=("semantic", "strict")), provider)
        assert "semantic" not in report.matchers and "strict" in report.matchers
        assert report.skipped[0].startswith("semantic: similarity service at")


class ContractBreaker(RecordingProvider):
    """Scores every pair 0.0, identical ones too: the ``score(a, a) = 1``
    contract broken, so a pair it is asked for shows in the report."""

    def __init__(self, concurrency=None):
        super().__init__({}, concurrency)

    def similarity(self, a, b):
        return 0.0


class TestIdenticalPairsScoreOneUnasked:
    """A raw-identical pair scores 1.0 without a request, on every path that
    reaches ``semantic_match``; texts that differ in whitespace are asked."""

    def test_semantic_match(self):
        provider = ContractBreaker()
        outcome = semantic_match("MgB2", "MgB2", DEFAULT_THRESHOLD, provider)
        assert (outcome.matched, outcome.tier, outcome.similarity) == (True, "semantic", 1.0)
        assert not semantic_match("MgB2", "MgB2 ", DEFAULT_THRESHOLD, provider).matched
        assert provider.calls == [("MgB2", "MgB2 ")]

    def test_tier_verify_agrees_with_outcome(self):
        provider = ContractBreaker()
        tier = SemanticTier(provider=provider)
        for a, b in (("MgB2", "MgB2"), ("MgB2", "MgB 2"), ("39 K", "39  K")):
            assert tier.verify(tier.key(a), tier.key(b)) == tier.outcome(a, b).matched == (a == b)
        # each whitespace variant asked twice: outcome keeps no score, verify does
        assert provider.calls == [("MgB2", "MgB 2")] * 2 + [("39 K", "39  K")] * 2

    @pytest.mark.parametrize("concurrency", [None, 1, 4])
    def test_evaluate_ner(self, concurrency):
        provider = ContractBreaker(concurrency)
        report = evaluate_ner(NER_DOCS, NER_PREDS, EvalConfig(
            task="ner_material", matchers=("semantic",)), provider)
        # d1 run1 and d2 run1 reach identical pairs only; d1 run2 asks each
        # gold item's row in full, likeliest first, and matches nothing
        assert sorted(provider.calls) == [
            ("MgB2", "MgB 2"), ("MgB2", "Nb3Sn wires"), ("Nb3Sn", "MgB 2"),
            ("Nb3Sn", "Nb3Sn wires")]
        assert [[d["tp"] for d in run.per_document]
                for run in report.matchers["semantic"].runs] == [[2, 1], [0, 0]]

    @pytest.mark.parametrize("concurrency", [None, 1, 4])
    def test_evaluate_re_slot_by_slot(self, concurrency):
        provider = ContractBreaker(concurrency)
        report = evaluate_re(RE_DOCS, RE_PREDS, EvalConfig(task="re", matchers=("semantic",)),
                             provider)
        # MgB2/39 K takes block 1, both slots identical. H3S/203 K/155 GPa
        # matches block 2's material unasked and asks its tc, then block 3's
        # material and tc unasked and asks its pressure; block 4 has no
        # pressure, and block 1's material is asked last
        assert sorted(provider.calls) == [
            ("155 GPa", "150 GPa"), ("203 K", "39 K"), ("H3S", "MgB2")]
        assert [run.per_document[0]["tp"] for run in report.matchers["semantic"].runs] == [1, 1]

    def test_cli_match(self, chat_stub, capsys):
        chat_stub.script = [(200, {}, b'{"score": 0.0}')] * 2
        url = chat_stub.url + "/score"
        code, out, _ = _extract(["match", "--matcher", "semantic", "--semantic-endpoint", url,
                                 "MgB2", "MgB2"], capsys)
        assert (code, chat_stub.requests) == (0, 0)
        assert json.loads(out) == {"matched": True, "tier": "semantic", "similarity": 1.0,
                                   "detail": None}
        code, out, _ = _extract(["match", "--matcher", "semantic", "--semantic-endpoint", url,
                                 "MgB2", "MgB2 "], capsys)
        assert (code, chat_stub.requests) == (0, 1)
        assert json.loads(out)["similarity"] == 0.0

    def test_threshold_above_one_rejects_an_identical_pair(self):
        provider = ContractBreaker()
        tier = SemanticTier(threshold=1.5, provider=provider)
        outcome = tier.outcome("MgB2", "MgB2")
        assert (outcome.matched, outcome.similarity) == (False, 1.0)
        assert not tier.verify(tier.key("MgB2"), tier.key("MgB2"))
        assert not semantic_match("MgB2", "MgB2", 1.5, provider).matched
        assert count_matches(["MgB2"], ["MgB2"], tier).tp == 0
        assert provider.calls == []

    def test_unreachable_service_is_not_asked_for_identical_pairs(self):
        # "MgB2" ranks first in its row (overlap 1) and takes it, so "x" is
        # never reached and the service is never asked
        docs = [Document("d1", "t", [EntityMention("MgB2", "material")])]
        preds = [PredictionSet("d1", run, {"material": ["x", "MgB2"]})
                 for run in ("run1", "run2")]
        provider = HttpSimilarityProvider("http://127.0.0.1:9/score", 0.5, max_concurrency=2)
        asked = []
        score = provider.score
        provider.score = lambda a, b: asked.append((a, b)) or score(a, b)
        report = evaluate_ner(docs, preds, EvalConfig(
            task="ner_material", matchers=("semantic",)), provider)
        assert asked == [] and report.skipped == []
        assert [run.per_document[0] for run in report.matchers["semantic"].runs] == [
            {"doc_id": "d1", "tp": 1, "fp": 1, "fn": 0}] * 2


# a, b, c hold 2, 3 and 1 gold items. |G|*|P| per (run, doc): run1 a 6,
# b 6, c 4; run2 a 2, b 9, c 6. No text is shared between documents
SIZED_DOCS = [Document(doc, "t", [EntityMention(f"{doc}{k}", "material") for k in range(n)])
              for doc, n in (("a", 2), ("b", 3), ("c", 1))]
SIZED_PREDS = [PredictionSet(doc, run, {"material": [f"{doc}{k} {run}" for k in range(n)]})
               for run, sizes in (("run1", (3, 2, 4)), ("run2", (1, 3, 6)))
               for doc, n in zip("abc", sizes)]
SIZED_START_ORDER = [("run2", "b"), ("run1", "a"), ("run1", "b"), ("run2", "c"),
                     ("run1", "c"), ("run2", "a")]


def _started(calls):
    """(run, doc) of each document, in the order its first pair was asked."""
    order = []
    for _, predicted in calls:
        text, run = predicted.split()
        if (run, text[0]) not in order:
            order.append((run, text[0]))
    return order


class TestLargestDocumentsStartFirst:
    """Through a provider's ``map``, documents start in descending
    ``|G|*|P|``, ties in (run, doc) order; without one they are counted in
    (run, doc) order. (``test_calls_and_report_do_not_depend_on_concurrency``
    checks that reports and the pairs asked do not change.)"""

    @pytest.mark.parametrize("concurrency, expected", [
        (1, SIZED_START_ORDER),  # one slot: documents run in start order
        (None, sorted(SIZED_START_ORDER)),  # no map
    ], ids=["map", "no-map"])
    def test_start_order(self, concurrency, expected):
        provider = RecordingProvider({}, concurrency)
        evaluate_ner(SIZED_DOCS, SIZED_PREDS, EvalConfig(
            task="ner_material", matchers=("semantic",)), provider)
        # nothing matches, so each document asks all its pairs, in one run
        assert len(provider.calls) == 6 + 6 + 4 + 2 + 9 + 6
        assert _started(provider.calls) == expected

    @pytest.mark.parametrize("concurrency, failure", [
        (1, "H3S ~ H 3 S"), (2, "H3S ~ H 3 S"), (4, "H3S ~ H 3 S"),
        (None, "MgB2 ~ MgB 2"),  # no map: (run, doc) order
    ])
    def test_two_failures_name_the_first_to_start(self, concurrency, failure):
        # d1 (1x1) comes first in (run, doc) order, d2 (2x2) starts first
        # through map; d2's first row, H3S, ranks "H 3 S" (6/8) before
        # "LaH 10" (2/8). With two or more slots both documents start and fail
        docs = [Document("d1", "t", [EntityMention("MgB2", "material")]),
                Document("d2", "t", [EntityMention(t, "material") for t in ("H3S", "LaH10")])]
        preds = [PredictionSet("d1", "run1", {"material": ["MgB 2"]}),
                 PredictionSet("d2", "run1", {"material": ["H 3 S", "LaH 10"]})]
        for _ in range(3):
            provider = FailingProvider({}, concurrency, delay=0.05)
            report = _within(30, lambda: evaluate_ner(docs, preds, EvalConfig(
                task="ner_material", matchers=("semantic", "strict")), provider))
            assert report.skipped == [f"semantic: refused {failure}"]
            assert list(report.matchers) == ["strict"]


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
        # not identical, so the pair is asked and the reply is refused
        docs = [Document("d1", "t", [EntityMention("MgB2", "material")])]
        preds = [PredictionSet("d1", "run1", {"material": ["MgB 2", "x"]})]
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


def _predictions(tmp_path: Path, materials=("MgB2", "Nb3Sn")) -> Path:
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"doc_id": "d1", "run": "run1",
                                "entities": {"material": list(materials)}}) + "\n")
    return path


class TestSimilarityReplies:
    """The similarity client against the scripted stub, which answers any path."""

    @pytest.mark.parametrize("status, body", [
        (200, b'{"score": null}'), (200, b'{"score": "nan"}'), (200, b'{"score": 7}'),
        (200, b'{"score": -0.5}'), (200, b'{"score": 1e999}'), (200, b'{"score": "high"}'),
        (200, b'{"similarity": 0.5}'), (200, b"[0.5]"), (500, b'{"score": 0.5}'),
        (200, b'{"score": "0.95"}'), (200, b'{"score": true}'),
    ])
    def test_bad_reply_raises_provider_error(self, chat_stub, status, body):
        chat_stub.script = [(status, {}, body)]
        provider = HttpSimilarityProvider(chat_stub.url + "/score", 5.0)
        with pytest.raises(ProviderUnavailableError, match="similarity service at"):
            provider.score("a", "b")

    def test_integer_too_large_for_a_float_raises_provider_error(self, chat_stub):
        chat_stub.script = [(200, {}, b'{"score": 1' + b"0" * 400 + b"}")]
        provider = HttpSimilarityProvider(chat_stub.url + "/score", 5.0)
        with pytest.raises(ProviderUnavailableError, match="is not in"):
            provider.score("a", "b")

    def test_scores_in_range_are_accepted(self, chat_stub):
        chat_stub.script = [(200, {}, b'{"score": 0}'), (200, {}, b'{"score": 1.0}')]
        provider = HttpSimilarityProvider(chat_stub.url + "/score", 5.0)
        assert [provider.score("a", "b"), provider.score("a", "a")] == [0.0, 1.0]

    def test_out_of_range_score_skips_the_matcher(self, chat_stub, capsys, tmp_path):
        chat_stub.script = [(200, {}, b'{"score": 7}')] * 50
        cfg = _write_config(tmp_path / "c.cfg", chat_stub.url, 1,
                            semantic_endpoint=chat_stub.url + "/score")
        # d1's gold "MgB2" against "MgB 2": not identical, so the pair is asked
        code, out, err = _extract(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions",
             _predictions(tmp_path, ["MgB 2", "Nb3Sn"]), "--matchers", "semantic,strict",
             "--config", cfg],
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
    "misspelt boolean": b"dry_run = ture",
    "scheme-less base url": b"base_url = localhost:9/v1",
    "scheme-less semantic endpoint": b"semantic_endpoint = localhost:8040",
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

    @pytest.mark.parametrize("text, value", [("TRUE", True), ("No", False),
                                             ("1", True), ("0", False)])
    def test_booleans_are_read_in_any_case(self, text, value):
        cfg = ChatEndpointConfig(dry_run=not value).with_setting("dry_run", text)
        assert cfg.dry_run is value

    @pytest.mark.parametrize("fields, refused", [
        ({"base_url": "localhost:9"}, "base_url must be an http(s) URL, got 'localhost:9'"),
        ({"timeout": 0}, "timeout must be positive and finite, got 0"),
        ({"semantic_endpoint": "localhost:8040/score"}, "semantic_endpoint must be"),
        ({"min_interval": math.nan}, "min_interval must be >= 0 and finite"),
        ({"max_retries": -1}, "max_retries must be >= 0"),
        ({"max_concurrency": 0}, "max_concurrency must be >= 1"),
    ])
    def test_constructor_checks_as_the_file_does(self, fields, refused):
        with pytest.raises(ConfigError, match=re.escape(refused)):
            ChatEndpointConfig(**fields)

    @pytest.mark.parametrize("fields, refused", [
        ({"dry_run": "no"}, "dry_run must be of type bool, got 'no'"),
        ({"dry_run": 1}, "dry_run must be of type bool, got 1"),
        ({"max_concurrency": 2.5}, "max_concurrency must be of type int, got 2.5"),
        ({"max_retries": True}, "max_retries must be of type int, got True"),
        ({"timeout": "5"}, "timeout must be of type float, got '5'"),
        ({"min_interval": False}, "min_interval must be of type float, got False"),
        ({"base_url": None}, "base_url must be of type str, got None"),
        ({"fixture_dir": Path("fixtures")}, "fixture_dir must be of type str | None, got"),
    ])
    def test_constructor_refuses_a_value_of_another_type(self, fields, refused):
        with pytest.raises(ConfigError, match=re.escape(refused)):
            ChatEndpointConfig(**fields)

    def test_an_int_is_a_float_and_none_an_unset_endpoint(self):
        cfg = ChatEndpointConfig(timeout=5, backoff_base=0, semantic_endpoint=None)
        assert (cfg.timeout, cfg.backoff_base, cfg.semantic_endpoint) == (5, 0, None)

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

    def test_scheme_less_semantic_endpoint_is_refused(self, capsys, tmp_path):
        code, out, err = _extract(
            ["eval-ner", "--corpus", DATA / "corpus.jsonl", "--predictions",
             _predictions(tmp_path), "--matchers", "semantic",
             "--semantic-endpoint", "localhost:8040"], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: --semantic-endpoint: semantic_endpoint must be an http(s) "
                       "URL, got 'localhost:8040'\n")

    @pytest.mark.parametrize("task", ["ner_material", "re"])
    def test_requests_name_the_configured_model(self, chat_stub, capsys, tmp_path,
                                                monkeypatch, task):
        monkeypatch.setenv(KEY_ENV, "k")
        cfg = _write_config(tmp_path / "c.cfg", chat_stub.url, 2, model="gpt-4")
        code, _, err = _extract(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", task, "--seed", 1,
             "--config", cfg, "--output", tmp_path / "preds.jsonl"], capsys)
        assert code == 0, err
        assert {(b["model"], b["temperature"]) for b in chat_stub.bodies} == {("gpt-4", 0.0)}
        code, _, err = _extract(
            ["extract", "--corpus", DATA / "corpus.jsonl", "--task", task, "--seed", 1,
             "--config", cfg, "--model", "gpt-4-turbo",
             "--output", tmp_path / "preds.jsonl", "--force"], capsys)
        assert code == 0, err
        assert len(chat_stub.bodies) == 10
        assert {(b["model"], b["temperature"]) for b in chat_stub.bodies[5:]} == {
            ("gpt-4-turbo", 0.0)}


class TestEndpointUrls:
    @pytest.mark.parametrize("url", ["http://127.0.0.1:9/v1", "https://api.example.com/v1",
                                     "HTTPS://api.example.com"])
    @pytest.mark.parametrize("key", ["base_url", "semantic_endpoint"])
    def test_http_urls_are_kept(self, key, url):
        cfg = ChatEndpointConfig().with_setting(key, url)
        assert getattr(cfg, key) == url

    @pytest.mark.parametrize("url", ["localhost:9/v1", "127.0.0.1:8040", "http://",
                                     "ftp://example.com", "file:///tmp/x", ""])
    def test_other_base_urls_are_refused(self, url):
        with pytest.raises(ConfigError, match=r"base_url must be an http\(s\) URL"):
            ChatEndpointConfig().with_setting("base_url", url)

    def test_an_empty_semantic_endpoint_is_none_given(self):
        cfg = ChatEndpointConfig().with_setting("semantic_endpoint", "")
        assert not cfg.semantic_endpoint
