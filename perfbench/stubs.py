"""Local stub services: an OpenAI-compatible chat server and a similarity server.

Run as its own process so that the client under test never shares an
interpreter lock with the servers::

    python3 perfbench/stubs.py --replies chat_replies.json

The first line on stdout is ``{"chat": <port>, "similarity": <port>}``. Both
servers listen on 127.0.0.1, speak HTTP/1.1 (so a pooling client can reuse
connections), sleep ``DELAY_MS`` per request, and count requests,
new connections, peak in-flight requests, retries and non-2xx replies.
``GET /stats`` and ``POST /reset`` on the chat port read and zero the
counters; they are not counted themselves. SIGTERM, or end of input on
stdin (the parent closed the pipe or died), stops the process.
"""

import argparse
import hashlib
import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gen import doc_id_in  # noqa: E402

DELAY_MS = 20.0  # fixed service delay of both stubs
_WS_RE = re.compile(r"\s+")


def similarity(a: str, b: str) -> float:
    """Score the similarity stub returns; the benchmark's oracle uses it too.

    1.0 for whitespace-normalized equality, 0.92 when the strings agree after
    removing all whitespace and case, 0.2 otherwise.
    """
    if _WS_RE.sub(" ", a.strip()) == _WS_RE.sub(" ", b.strip()):
        return 1.0
    if _WS_RE.sub("", a).casefold() == _WS_RE.sub("", b).casefold():
        return 0.92
    return 0.2


class Counters:
    FIELDS = ("requests", "connections", "max_inflight", "retries", "non2xx")

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        with self._lock:
            self.values = dict.fromkeys(self.FIELDS, 0)
            self._inflight = 0
            self._failed: set[bytes] = set()

    def begin(self, digest: bytes, new_connection: bool):
        with self._lock:
            v = self.values
            v["requests"] += 1
            v["connections"] += new_connection
            v["retries"] += digest in self._failed
            self._inflight += 1
            v["max_inflight"] = max(v["max_inflight"], self._inflight)

    def end(self, digest: bytes, ok: bool):
        with self._lock:
            self._inflight -= 1
            if not ok:
                self.values["non2xx"] += 1
                self._failed.add(digest)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.values)


def make_handler(name: str, counters: dict, answer, delay: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.counted = False

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, {k: c.snapshot() for k, c in counters.items()})
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                for c in counters.values():
                    c.reset()
                self._reply(200, {})
                return
            digest = hashlib.sha256(self.path.encode() + raw).digest()
            mine = counters[name]
            mine.begin(digest, not self.counted)
            self.counted = True
            ok = False
            try:
                time.sleep(delay)
                status, payload = answer(self.path, json.loads(raw))
                self._reply(status, payload)
                ok = status // 100 == 2
            finally:
                mine.end(digest, ok)

        def log_message(self, *args):
            pass

    return Handler


def chat_answer(replies: dict):
    def answer(path: str, body: dict):
        if path.rstrip("/") != "/v1/chat/completions":
            return 404, {"error": "not found"}
        content = "\n".join(m.get("content", "") for m in body.get("messages", []))
        reply = replies.get(doc_id_in(content) or "")
        if reply is None:
            return 404, {"error": "unknown document"}
        return 200, {"choices": [{"message": {"role": "assistant", "content": reply}}]}

    return answer


def similarity_answer(path: str, body: dict):
    return 200, {"score": similarity(body["text_a"], body["text_b"])}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--replies", required=True, help="JSON: document id -> chat reply")
    args = parser.parse_args()
    replies = json.loads(Path(args.replies).read_text(encoding="utf-8"))
    counters = {"chat": Counters(), "similarity": Counters()}
    delay = DELAY_MS / 1000
    servers = {
        "chat": ThreadingHTTPServer(
            ("127.0.0.1", 0), make_handler("chat", counters, chat_answer(replies), delay)),
        "similarity": ThreadingHTTPServer(
            ("127.0.0.1", 0), make_handler("similarity", counters, similarity_answer, delay)),
    }
    threads = []
    for server in servers.values():
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        threads.append(thread)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    threading.Thread(target=lambda: (sys.stdin.buffer.read(), stop.set()), daemon=True).start()
    print(json.dumps({k: s.server_port for k, s in servers.items()}), flush=True)
    while not stop.wait(0.2):
        pass
    for server in servers.values():
        server.shutdown()
        server.server_close()
    for thread in threads:
        thread.join()


if __name__ == "__main__":
    main()
