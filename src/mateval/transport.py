"""Standard-library HTTP for the chat and similarity clients: one JSON POST,
whose callers each apply their own status policy, and the request limiter.
The HTTP stack (``http.client``, ``ssl``, ``email``) is imported by the first
request, or by :meth:`RateLimiter.map` before it starts helper threads: ~40 ms
of start-up that most commands, which send none, would pay."""

import json
import threading
import time

# raised by post_json when no reply was read: URLError, timeouts, ConnectionError
NO_REPLY = (OSError,)


def post_json(url: str, payload, timeout: float, headers: dict | None = None) -> tuple:
    """POST ``payload`` as JSON to an http(s) ``url``; ``(status, headers, body)``.

    Every reply is returned whatever its status, a 307 or 308 redirect
    included; only :data:`NO_REPLY` is raised, a reply that is not HTTP as a
    ConnectionError. Proxies come from ``*_proxy``/``no_proxy``; HTTPS is
    verified against the default trust store.
    """
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    try:
        if urllib.parse.urlsplit(url).scheme.lower() not in ("http", "https"):
            raise ValueError(f"not an http(s) URL: {url!r}")
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.headers, response.read()
        except urllib.error.HTTPError as reply:
            with reply:
                return reply.code, reply.headers, reply.read()
    except ValueError as exc:  # a request that cannot be sent, e.g. a malformed URL
        raise urllib.error.URLError(exc) from exc
    except http.client.HTTPException as exc:  # e.g. BadStatusLine, IncompleteRead
        raise ConnectionError(str(exc)) from exc


class RateLimiter:
    """In-flight cap plus a minimum interval between request starts.

    Shareable across threads; ``acquire`` blocks until a slot is free and
    the interval has elapsed.
    """

    def __init__(self, max_concurrency: int = 4, min_interval: float = 0.0):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.max_concurrency = max_concurrency
        self._slots = threading.Semaphore(max_concurrency)
        self._lock = threading.Lock()
        self._interval = min_interval
        self._last_start = 0.0

    def acquire(self):
        self._slots.acquire()
        if self._interval > 0:
            with self._lock:
                wait = self._last_start + self._interval - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                self._last_start = time.monotonic()

    def release(self):
        self._slots.release()

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]`` from up to ``max_concurrency`` threads.

        Results keep input order. ``fn`` takes a slot with :meth:`acquire`
        and :meth:`release` around each request it sends (as
        :func:`chat_complete` and ``HttpSimilarityProvider.score`` do), so
        request starts stay ``min_interval`` apart. The calling thread is one
        of the workers, so ``max_concurrency=1`` starts no thread. After a
        failure no new item starts; once the running ones finish, the failure
        with the lowest input index is raised: items start in input order, so
        it is the one a serial loop would have raised.
        """
        items = list(items)
        results = [None] * len(items)
        failures: dict[int, BaseException] = {}
        lock = threading.Lock()
        pending = iter(range(len(items)))

        def work():
            while True:
                with lock:
                    i = None if failures else next(pending, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # raised again by the calling thread
                    with lock:
                        failures[i] = exc

        helpers = [
            threading.Thread(target=work, daemon=True)
            for _ in range(min(self.max_concurrency, len(items)) - 1)
        ]
        # post_json's HTTP stack, imported on this thread: a helper's first
        # import would keep it in that thread's malloc arena
        if helpers:
            import urllib.request  # noqa: F401  (brings http.client, urllib.error, urllib.parse)
        for helper in helpers:
            helper.start()
        work()
        for helper in helpers:
            helper.join()
        if failures:
            raise failures[min(failures)]
        return results
