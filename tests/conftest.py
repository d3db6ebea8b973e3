"""Shared fixtures: paths, a stub semantic-similarity HTTP service and a
scripted OpenAI-compatible chat service."""

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"

# similarity scores for the pairs exercised by the 5-document fixture corpus;
# identical strings always score 1.0, unknown pairs 0.0
STUB_SCORES = {
    frozenset(("hole-doped La 2-x Sr x CuO 4", "La 2-x Sr x CuO 4")): 0.95,
    frozenset((
        "Bi2Sr2CaCu2O8 superconducting films",
        "Bi2Sr2CaCu2O8 superconducting film",
    )): 0.97,
    frozenset((
        "Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5",
        "Eu 0.5 K 0.5 Fe 2 As 2",
    )): 0.91,
    frozenset(("39.5 K", "39.5K")): 0.98,
    frozenset(("solar cell", "solar cells")): 0.97,
}


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        a, b = body["text_a"], body["text_b"]
        score = 1.0 if a == b else STUB_SCORES.get(frozenset((a, b)), 0.0)
        payload = json.dumps({"score": score}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="session")
def semantic_endpoint():
    """URL of a local similarity service implementing the wire contract."""
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


@pytest.fixture
def fake_post(monkeypatch):
    """Fake the chat client's POST: ``fake_post(*replies)`` makes each call of
    ``llm.post_json`` take the next reply, the last one repeating, and returns
    the list of each call's ``(url, payload, timeout, headers)``. A reply is a
    ``(status, headers, body)`` tuple, an OSError to raise, or a str: a 200
    whose assistant text it is."""
    from mateval import llm

    def install(*replies):
        calls = []

        def post_json(url, payload, timeout, headers):
            calls.append((url, payload, timeout, headers))
            reply = replies[min(len(calls), len(replies)) - 1]
            if isinstance(reply, OSError):
                raise reply
            if isinstance(reply, str):
                body = {"choices": [{"message": {"content": reply}}]}
                return 200, {}, json.dumps(body).encode()
            return reply

        monkeypatch.setattr(llm, "post_json", post_json)
        return calls

    return install


def digest_reply(prompt: str) -> tuple[int, str]:
    """Default chat reply: one block naming a digest of the prompt, so every
    prompt gets its own answer and a reordering shows in the output."""
    return 200, json.dumps([{"material": hashlib.sha256(prompt.encode()).hexdigest()[:12]}])


class ChatStub:
    """State of the scripted chat service.

    A request takes the next ``script`` entry, ``(status, headers, body
    bytes)``, while there is one; otherwise ``reply(prompt)``, where the
    prompt is every message's content joined by newlines, gives ``(status,
    assistant text)``. Every request first sleeps ``delay`` seconds.
    ``max_inflight`` is the most requests seen at once: a request stops
    counting before its reply is written, so a client that waits for each
    reply is never overcounted.
    """

    def __init__(self, url: str):
        self.url = url
        self.script: list[tuple[int, dict, bytes]] = []
        self.reply = digest_reply
        self.delay = 0.0
        self.requests = 0
        self.bodies: list[dict] = []  # each request's JSON, in arrival order
        self.max_inflight = 0
        self._inflight = 0
        self.lock = threading.Lock()

    def answer(self, body: dict) -> tuple[int, dict, bytes]:
        with self.lock:
            self.requests += 1
            self.bodies.append(body)
            self._inflight += 1
            self.max_inflight = max(self.max_inflight, self._inflight)
            scripted = self.script.pop(0) if self.script else None
        try:
            time.sleep(self.delay)
            if scripted:
                return scripted
            status, text = self.reply("\n".join(m["content"] for m in body["messages"]))
            payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
            return status, {}, json.dumps(payload).encode()
        finally:
            with self.lock:
                self._inflight -= 1


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        status, headers, payload = self.server.stub.answer(json.loads(self.rfile.read(length)))
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _ChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        pass  # a client that timed out closed the socket before the reply


@pytest.fixture
def chat_stub():
    """A fresh scripted chat service; ``url`` is its ``base_url``."""
    server = _ChatServer(("127.0.0.1", 0), _ChatHandler)
    server.stub = ChatStub(f"http://127.0.0.1:{server.server_port}/v1")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.stub
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR
