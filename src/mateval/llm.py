"""Chat-completions client and model-response parsers.

The client speaks the OpenAI-compatible chat JSON protocol. In dry-run mode
it reads canned responses from ``<fixture_dir>/<doc_id>/<task>/<run>.txt``
and never touches the network. Response parsers handle both the JSON output
contract and the line-based pseudo format used by fine-tuned models; JSON
repair is bounded to three syntactic passes (code fences, outer-bracket
trimming, trailing commas) because deeper repair would quietly corrupt
evaluations.
"""

import math
import os
import re
import time

from .corpus import PSEUDO_HEADERS, RELATION_SLOTS, TASK_CLASSES
from .errors import (
    EndpointError,
    InvalidJSONError,
    MatEvalError,
    MissingCredentialError,
    MissingFixtureError,
    ResponseParseError,
    note,
    read_json,
    read_text,
)
from .prompts import PromptBundle
from .transport import NO_REPLY, ChatEndpointConfig, RateLimiter, post_json

REFUSALS = ("i don't know", "i do not know", "none", "n/a", "no answer")

_KEY_MARKER_RE = re.compile(r"(?:(?<=^)|(?<=,)|(?<=;))\s*([A-Za-z_][A-Za-z0-9_]*)\s*:")
_BULLET_RE = re.compile(r"^\s*[-*]\s+(.*\S)\s*$")
_HEADER_RE = re.compile(r"^\s*([A-Za-z_]+)\s*:\s*$")


def _retry_after(status: int, headers) -> float:
    """A numeric ``Retry-After`` on a 429 or 503 reply, else 0 (dates are ignored)."""
    if status not in (429, 503):
        return 0.0
    try:
        seconds = float(headers.get("Retry-After", ""))
    except ValueError:
        return 0.0
    return seconds if 0 <= seconds < math.inf else 0.0


def _content(body: bytes) -> str:
    """The assistant text of a 200 reply's body."""
    try:
        content = read_json(body)["choices"][0]["message"]["content"]
    except (InvalidJSONError, KeyError, IndexError, TypeError) as exc:
        raise EndpointError(f"malformed endpoint response: {exc}") from exc
    if not isinstance(content, str):
        raise EndpointError(
            f"malformed endpoint response: content is {type(content).__name__}, not str"
        )
    return content


def chat_complete(
    bundle: PromptBundle,
    cfg: ChatEndpointConfig,
    doc_id: str | None = None,
    run: str | None = None,
    limiter: RateLimiter | None = None,
) -> str:
    """Send one chat request and return the assistant text.

    Dry-run mode returns the canned fixture for ``(doc_id, task, run)``
    verbatim and performs no network activity; a ``doc_id`` or ``run``
    that is not one plain path component raises MissingFixtureError. Live
    mode resolves the credential before any request and retries the
    transient failures (no reply, 429 and 5xx) with exponential backoff,
    raising EndpointError once retries are exhausted; any other status than
    200 fails at once. A numeric ``Retry-After`` on a 429 or 503 lengthens
    that wait to what the server asked for. With a ``limiter``, each
    attempt holds one of its slots, never a backoff wait.
    """
    if cfg.dry_run:
        if not cfg.fixture_dir:
            raise MissingFixtureError("dry_run requires a fixture directory")
        if doc_id is None or run is None:
            raise MissingFixtureError("dry_run needs doc_id and run to key fixtures")
        for value in (doc_id, run):
            if value in ("", ".", "..") or os.path.isabs(value) or any(
                    sep and sep in value for sep in ("/", os.sep, os.altsep)):
                raise MissingFixtureError(f"fixture key {value!r} is not one path component")
        path = os.path.join(cfg.fixture_dir, doc_id, bundle.task, f"{run}.txt")
        if not os.path.isfile(path):
            raise MissingFixtureError(f"no canned response at {path}")
        return read_text(path, MatEvalError)

    credential = os.environ.get(cfg.credential_env, "")
    if not credential:
        raise MissingCredentialError(
            f"environment variable {cfg.credential_env} is not set"
        )
    payload = {
        "model": cfg.model,
        "temperature": 0.0,
        "messages": [
            {"role": "system", "content": bundle.system},
            {"role": "user", "content": bundle.user_message()},
        ],
    }
    url = cfg.base_url.rstrip("/") + "/chat/completions"
    headers = {"Authorization": f"Bearer {credential}"}
    delay = cfg.backoff_base
    for attempt in range(cfg.max_retries + 1):
        if limiter:
            limiter.acquire()
        try:
            status, reply_headers, body = post_json(url, payload, cfg.timeout, headers)
        except NO_REPLY as exc:
            failure, cause, wait = str(exc), exc, delay
        else:
            if status == 200:
                return _content(body)
            if status != 429 and status < 500:
                raise EndpointError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
            failure, cause = f"HTTP {status}", None
            wait = max(delay, _retry_after(status, reply_headers))
        finally:
            if limiter:
                limiter.release()
        if attempt == cfg.max_retries:
            raise EndpointError(
                f"endpoint failed after {cfg.max_retries + 1} attempts: {failure}"
            ) from cause
        note(f"transient endpoint failure ({failure}), retrying in {wait:.1f}s")
        time.sleep(wait)  # outside the slot, which other requests may take meanwhile
        delay *= 2
    raise AssertionError("unreachable")


def _is_refusal(text: str) -> bool:
    lowered = text.strip().strip(".!").lower()
    return any(lowered == r or lowered.startswith(r + ",") for r in REFUSALS)


def _strip_code_fences(text: str) -> str:
    stripped = text.strip()
    if stripped.startswith("```"):
        stripped = re.sub(r"^```[A-Za-z]*\s*", "", stripped)
        stripped = re.sub(r"```\s*$", "", stripped)
    return stripped.strip()


def _outer_bracketed(text: str) -> str:
    starts = [i for i in (text.find("["), text.find("{")) if i != -1]
    ends = [i for i in (text.rfind("]"), text.rfind("}")) if i != -1]
    if not starts or not ends:
        return text
    return text[min(starts): max(ends) + 1]


def _drop_trailing_commas(text: str) -> str:
    return re.sub(r",\s*([\]}])", r"\1", text)


# the bounded JSON repair; each pass works on the text the one before left
_REPAIRS = (_strip_code_fences, _outer_bracketed, _drop_trailing_commas)


def _loads_with_repair(raw: str, repairs=_REPAIRS):
    text = raw
    for repair in repairs:
        text = repair(text)
        try:
            return read_json(text)
        except InvalidJSONError:
            continue
    raise ResponseParseError("response is not valid JSON after bounded repair", raw)


def _text(value) -> str | None:
    """An answer value read as text: non-blank text, or a number that is not a
    bool. Anything else (blank text, a bool, a list, an object) is None."""
    if isinstance(value, str):
        return value if value.strip() else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return None


def _entity_from_obj(obj, key: str) -> str | None:
    if isinstance(obj, dict):
        named = obj.get(key)
        if isinstance(named, str) and named.strip():
            return named
        # quantities may arrive split into value and unit; a blank unit is none
        value, unit = _text(obj.get("value")), obj.get("unit")
        if value and isinstance(unit, str) and unit.strip():
            return f"{value} {unit}"
        return value
    return obj if isinstance(obj, str) and obj.strip() else None


def parse_json_response(raw: str, task: str):
    """Parse a JSON-formatted model response for the given task.

    Returns a list of entity strings for NER tasks, or a list of raw
    relation dicts (keys material/tc/pressure) for RE. Standardized
    refusals ("I don't know", "None") yield an empty result. Unrepairable
    text raises ResponseParseError with the raw response attached.
    """
    if _is_refusal(raw):
        return []
    return _json_items(_loads_with_repair(raw), task, raw)


def _json_items(payload, task: str, raw: str) -> list:
    """The entity strings or relation dicts of a decoded JSON response."""
    if isinstance(payload, dict):
        for key in ("materials", "quantities", "relations", "entities", "results"):
            if isinstance(payload.get(key), list):
                payload = payload[key]
                break
        else:
            payload = [payload]
    if not isinstance(payload, list):
        raise ResponseParseError(f"expected a JSON list, got {type(payload).__name__}", raw)
    if task == "re":
        blocks = []
        for item in payload:
            if not isinstance(item, dict):
                raise ResponseParseError("relation blocks must be objects", raw)
            blocks.append({
                k: text for k, v in item.items()
                if k in RELATION_SLOTS and (text := _text(v)) is not None
            })
        return blocks
    entities = []
    for item in payload:
        value = _entity_from_obj(item, TASK_CLASSES[task])
        if value is not None:
            entities.append(value)
        else:
            note(f"ignoring unrecognized {task} item: {item!r}")
    return entities


def parse_pseudo_format(raw: str, task: str):
    """Parse the line-based pseudo format used by fine-tuned models.

    RE responses are ``key: value`` lines, one or more pairs per line,
    groups separated by blank lines or a repeated ``material`` key; a value
    ending in a JSON object (a citation) is read without it. NER
    responses are a ``materials:``/``quantities:`` header followed by
    ``- item`` bullets. Every parsed value is a substring of the input;
    nothing is invented. "None" counts as an empty answer.
    """
    if _is_refusal(raw):
        return []
    if task == "re":
        return _parse_pseudo_relations(raw)
    return _parse_pseudo_entities(raw, task)


def _parse_pseudo_relations(raw: str) -> list[dict]:
    blocks: list[dict] = []
    current: dict = {}

    def flush():
        nonlocal current
        if current:
            blocks.append(current)
            current = {}

    saw_marker = False
    for line in raw.splitlines():
        if not line.strip():
            flush()
            continue
        text = line.strip()
        markers = list(_KEY_MARKER_RE.finditer(text))
        for marker in markers:
            if marker.group(1).lower() not in RELATION_SLOTS:
                note(f"ignoring unknown key {marker.group(1)!r} in response")
        if not any(m.group(1).lower() in RELATION_SLOTS for m in markers):
            continue
        saw_marker = True
        # a value runs from its key's colon to the next key of any kind, so
        # unknown-key segments never leak into the preceding value
        for i, marker in enumerate(markers):
            key = marker.group(1).lower()
            if key not in RELATION_SLOTS:
                continue
            end = markers[i + 1].start() if i + 1 < len(markers) else len(text)
            value = text[marker.end(): end].strip().strip(",").rstrip(":").strip()
            value = _drop_trailing_object(value)
            if not value:
                continue
            if key in current:
                flush()
            current[key] = value
    flush()
    if not saw_marker and raw.strip():
        raise ResponseParseError("no relation keys found in pseudo response", raw)
    return blocks


def _drop_trailing_object(value: str) -> str:
    """``value`` without a trailing brace-delimited text that reads as a JSON
    object (a citation such as ``{"ref": 3}``) and the whitespace before it."""
    for brace in re.finditer("{", value):
        try:
            if isinstance(read_json(value[brace.start():]), dict):
                return value[:brace.start()].rstrip()
        except InvalidJSONError:
            pass
    return value


def _parse_pseudo_entities(raw: str, task: str) -> list[str]:
    expected_header = PSEUDO_HEADERS[TASK_CLASSES[task]]
    entities = []
    saw_structure = False
    for line in raw.splitlines():
        if not line.strip():
            continue
        header = _HEADER_RE.match(line)
        if header:
            saw_structure = True
            if header.group(1).lower() != expected_header:
                note(f"ignoring unknown header {header.group(1)!r}")
            continue
        bullet = _BULLET_RE.match(line)
        if bullet:
            saw_structure = True
            entities.append(bullet.group(1))
    if not saw_structure:
        raise ResponseParseError("no pseudo-format structure found", raw)
    return entities


def parse_response(raw: str, task: str):
    """Parse a response in the format it is written in.

    JSON as written or inside a code fence comes first; then the pseudo
    format, if it reads at least one item; then the bounded JSON repair. So
    a citation such as ``[12]`` in a pseudo-format answer is not read as
    the answer's JSON. If all three fail, the pseudo parser's error is
    raised; a pseudo answer with no items (a lone header) is empty.
    """
    try:  # a refusal fails here, and reads as empty below
        return _json_items(_loads_with_repair(raw, _REPAIRS[:1]), task, raw)
    except ResponseParseError:
        pass
    try:
        parsed, error = parse_pseudo_format(raw, task), None
    except ResponseParseError as exc:
        parsed, error = [], exc
    if parsed:
        return parsed
    try:
        return parse_json_response(raw, task)
    except ResponseParseError:
        if error is not None:
            raise error from None
        return parsed
