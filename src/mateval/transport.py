"""Standard-library HTTP for the chat and similarity clients: the endpoint
settings both read, one JSON POST, whose callers each apply their own status
policy, and the request limiter.
The HTTP stack (``http.client``, ``ssl``, ``email``) is imported by the first
request, or by :meth:`RateLimiter.map` before it starts helper threads: ~40 ms
of start-up that most commands, which send none, would pay."""

import json
import math
import threading
import time
from typing import NamedTuple

from .errors import ConfigError, SchemaError, numbered_lines, read_as


def _bool(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected 1/true/yes or 0/false/no, in any case")
    return text.lower() in ("1", "true", "yes")


def _is_http_url(text: str) -> bool:
    scheme, sep, rest = text.partition("://")
    return bool(sep and rest) and scheme.lower() in ("http", "https")


class _EndpointFields(NamedTuple):
    base_url: str = "https://api.openai.com/v1"
    credential_env: str = "OPENAI_API_KEY"
    model: str = "gpt-3.5-turbo"
    timeout: float = 60.0
    max_retries: int = 3
    dry_run: bool = False
    fixture_dir: str | None = None
    backoff_base: float = 1.0
    max_concurrency: int = 4
    min_interval: float = 0.0
    semantic_endpoint: str | None = None


class ChatEndpointConfig(_EndpointFields):
    """Settings of the chat endpoint and the similarity service.

    ``timeout``, ``max_concurrency`` and ``min_interval`` govern both
    clients. Every chat request names ``model``, at temperature 0.
    ``credential_env`` names the environment variable holding the API key,
    which never lives in config files. ``dry_run`` requires ``fixture_dir``.
    """

    __slots__ = ()

    _VALID = {  # NaN fails every comparison
        "base_url": (_is_http_url, "must be an http(s) URL"),
        "semantic_endpoint": (lambda v: not v or _is_http_url(v), "must be an http(s) URL"),
        "timeout": (lambda v: 0 < v < math.inf, "must be positive and finite"),
        "backoff_base": (lambda v: 0 <= v < math.inf, "must be >= 0 and finite"),
        "min_interval": (lambda v: 0 <= v < math.inf, "must be >= 0 and finite"),
        "max_retries": (lambda v: v >= 0, "must be >= 0"),
        "max_concurrency": (lambda v: v >= 1, "must be >= 1"),
    }

    def __new__(cls, *args, **kwargs):
        """Check every field's type as :func:`~mateval.errors.read_as` reads
        it (a bool is no int, an int is a float), then its value as
        :meth:`with_setting` would, so a config built in code is refused the
        way a config file is."""
        self = super().__new__(cls, *args, **kwargs)
        for key, kind in _EndpointFields.__annotations__.items():
            value = getattr(self, key)
            try:
                read_as(value, kind)
            except SchemaError:
                name = getattr(kind, "__name__", kind)
                raise ConfigError(f"{key} must be of type {name}, got {value!r}") from None
            self._check(key, value)
        return self

    def _check(self, key: str, value, shown=None) -> None:
        if key in self._VALID and not self._VALID[key][0](value):
            shown = value if shown is None else shown
            raise ConfigError(f"{key} {self._VALID[key][1]}, got {shown!r}")

    def with_setting(self, key: str, text: str) -> "ChatEndpointConfig":
        """This config with field ``key`` set to ``text``, cast by the field's
        annotation and checked.

        Config files and flags both set fields here. An unknown key, a value
        that does not convert, a negative count or interval, no concurrency
        slot, a timeout that is not positive and finite, or an endpoint that
        is not an http(s) URL raises ConfigError.
        """
        kind = _EndpointFields.__annotations__.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r}")
        try:
            value = {float: float, int: int, bool: _bool}.get(kind, str)(text)
        except ValueError as exc:
            raise ConfigError(f"bad {key} {text!r}: {exc}") from exc
        self._check(key, value, text)
        return self._replace(**{key: value})

    @classmethod
    def from_file(cls, path: str) -> "ChatEndpointConfig":
        """Read ``key=value`` lines through :meth:`with_setting`.

        Text that is not UTF-8, a line without ``=``, or a key or value
        that :meth:`with_setting` rejects raises ConfigError naming ``path:line``.
        """
        cfg = cls()
        for lineno, line in numbered_lines(path, lambda n, why: ConfigError(f"{path}:{n}: {why}")):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, text = line.partition("=")
            try:
                cfg = cfg.with_setting(key.strip(), text.strip())
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        return cfg



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
