"""Exception hierarchy shared by all mateval modules; :func:`read_json`, the one JSON
parser, for every file and reply mateval reads; :func:`read_as`, which reads parsed JSON
by a record's annotations; the only code that opens a file: :func:`read_text`, with the
readers on it, and :func:`write_text`; and :func:`note`, the one writer to stderr."""

import functools
import io
import itertools
import json
import math
import sys
import types
import typing


class MatEvalError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(MatEvalError):
    """Input text was empty or whitespace-only."""


class MixtureNotSupportedError(MatEvalError):
    """Material expression describes a mixture of compounds, which is rejected."""


class UnparseableMaterialError(MatEvalError):
    """No valid chemical composition could be read from the expression."""


class ExpansionLimitError(MatEvalError):
    """Substitution expansion would produce more variants than the configured cap."""


class ProviderUnavailableError(MatEvalError):
    """The external similarity scorer could not be reached or timed out."""


class EmptyRunsError(MatEvalError):
    """Run aggregation requires at least one run."""


class SchemaError(MatEvalError):
    """A JSON value does not have the type :func:`read_as` reads: ``reason``
    says why, and ``field`` is the dotted path to it inside the value read
    (``relations[0].tc``; "" for that value itself)."""

    def __init__(self, reason: str, field: str = ""):
        super().__init__(reason)
        self.reason, self._path = reason, f".{field}" if field else ""

    def within(self, part: str) -> "SchemaError":
        """This error, raised inside the key or the item ``part`` (".tc", "[0]")."""
        self._path = part + self._path
        return self

    @property
    def field(self) -> str:
        return self._path.removeprefix(".")

    def __str__(self) -> str:
        return f"{self.field}: {self.reason}" if self.field else self.reason


class SchemaViolationError(MatEvalError):
    """A line of the corpus or prediction file ``path`` does not conform to the JSONL schema."""

    def __init__(self, line: int, field: str, message: str, path: str):
        super().__init__(f"{path}: line {line}, field '{field}': {message}")
        self.line = line
        self.field = field


class ReportSchemaError(MatEvalError):
    """A stored report does not have the schema ``EvalReport.to_dict`` writes."""


class DuplicateIdError(MatEvalError):
    """Two documents in one corpus share an id."""


class UnknownDocumentError(MatEvalError):
    """A prediction references a doc_id absent from the corpus."""


class NoMatchersSelectedError(MatEvalError):
    """An evaluation was requested with an empty matcher set."""


class EmptyTextError(MatEvalError):
    """Prompt assembly requires non-empty passage text."""


class NoEntitiesError(MatEvalError):
    """A relation-extraction prompt needs at least one non-empty entity list."""


class ConfigError(MatEvalError, ValueError):
    """A setting has an unknown key or an invalid value.

    Also a ValueError, so callers of ``transport.ChatEndpointConfig.from_file``
    or a library constructor that catch ValueError keep working.
    """


class EndpointError(MatEvalError):
    """The chat endpoint failed (after retries, for transient faults)."""


class MissingCredentialError(MatEvalError):
    """The configured credential environment variable is not set."""


class MissingFixtureError(MatEvalError):
    """Dry-run mode found no canned response for the requested key."""


class ResponseParseError(MatEvalError):
    """A model response could not be parsed even after bounded repair.

    The offending text is kept on ``raw`` for auditing.
    """

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


class EmptyCorpusError(MatEvalError):
    """Fine-tune preparation needs a non-empty corpus."""


class InvalidJSONError(MatEvalError):
    """Text is not strict JSON (see :func:`read_json`); the message says why."""


def _unique_keys(pairs: list) -> dict:
    seen: set = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(text: str | bytes):
    """``text`` (str, or bytes decoded as ``json.loads`` does) read as strict
    RFC 8259 JSON. Bad syntax, a repeated key, ``NaN``, ``Infinity``, a float
    that overflows, or an integer or nesting past the interpreter's limits
    raises :class:`InvalidJSONError`; the caller names the file or reply."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys,
                          parse_constant=_finite, parse_float=_finite)
    except (ValueError, RecursionError) as exc:
        raise InvalidJSONError(str(exc)) from exc


def _text(path: str, bad) -> str:
    with open(path, "rb") as fh:  # CR and LF bytes are never part of a UTF-8 sequence
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise bad(data.count(b"\n", 0, exc.start) + 1, "not UTF-8") from exc


def read_text(path: str, error) -> str:
    """The UTF-8 file ``path``, CRLF and CR read as LF; text that is not UTF-8
    raises ``error("<path>: not UTF-8: line N")``, N the first bad byte's line."""
    return _text(path, lambda line, why: error(f"{path}: {why}: line {line}"))


def numbered_lines(path: str, bad):
    """``(line number, line)`` pairs, from 1, of :func:`read_text`'s text; text that
    is not UTF-8 raises ``bad(N, "not UTF-8")``. Only LF ends a line, not a raw
    U+2028 or U+0085 that a JSON string may hold."""
    return enumerate(io.StringIO(_text(path, bad)), 1)


def read_json_file(path: str, error):
    """:func:`read_json` of the UTF-8 file ``path``; unreadable text raises
    ``error("<path>: not UTF-8: line N")`` or ``error("<path>: invalid JSON: <why>")``."""
    try:
        return read_json(read_text(path, error))
    except InvalidJSONError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


def note(message: str) -> None:
    """Write ``message`` and a newline to stderr in one write (threads share it)."""
    sys.stderr.write(message + "\n")


def write_text(path: str, text: str) -> None:
    """Write ``text`` to the file ``path`` as UTF-8, replacing what it held."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_as(value, kind):
    """``value``, parsed JSON, read as the annotated type ``kind``, which is its schema:

    - a record, a NamedTuple, is an object of its fields. A field's key is
      its name, or its entry in the record's ``_json_keys`` (``class_`` is
      ``class``); a field with a default may be left out; any other key is an
      error.
    - ``list[X]`` is a list, ``tuple[X, Y]`` a list of exactly those items,
      and ``dict[K, V]`` an object whose keys read as ``K``;
    - ``X | None`` reads null as None; ``Literal[a, b]`` is one of its values;
    - ``Annotated[X, rule, ...]`` is ``X`` passed through each rule, a
      function that returns the value or raises :class:`SchemaError`;
    - any other class is an instance of it: an int is read as a float, and a
      bool is never a number.

    Raises:
        SchemaError: naming the dotted field, e.g. ``entities[0].class``.
    """
    return _reader(kind)(value)


@functools.cache
def _reader(kind):
    """The function that reads a value as ``kind``, built once per type."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Annotated:
        return _ruled(_reader(args[0]), _plain(args[0]), args[1:])
    if hasattr(kind, "_fields"):
        return _record(kind)
    if origin is list:
        return _items(_reader(args[0]), _plain(args[0]))
    if origin is tuple:
        return _fixed(tuple(map(_reader, args)))
    if origin is dict:
        return _mapping(_reader(args[0]), _reader(args[1]))
    if origin is types.UnionType:  # `X | None`
        read = _reader(args[0])
        return lambda value: None if value is None else read(value)
    if origin is typing.Literal:
        return functools.partial(_one_of, args)
    return functools.partial(_instance, kind=kind)


def _plain(kind):
    """The class whose exact instances ``kind`` reads unchanged, if any (a fast path)."""
    if typing.get_origin(kind) is types.UnionType:
        kind = typing.get_args(kind)[0]
    return kind if type(kind) is type and not hasattr(kind, "_fields") else None


def _instance(value, kind):
    if isinstance(value, (int, float) if kind is float else kind) and (
            type(value) is not bool or kind is bool):
        return value
    raise SchemaError(f"expected {kind.__name__}, got {type(value).__name__}")


def _one_of(allowed: tuple, value):
    if value in allowed:
        return value
    raise SchemaError(f"expected one of {', '.join(map(repr, allowed))}, got {value!r}")


def _ruled(read, plain, rules):
    def read_ruled(value):
        value = value if type(value) is plain else read(value)
        for rule in rules:
            value = rule(value)
        return value

    return read_ruled


def _each(readers, items) -> list:
    out = []
    for i, (read, item) in enumerate(zip(readers, items)):
        try:
            out.append(read(item))
        except SchemaError as exc:
            raise exc.within(f"[{i}]")
    return out


def _items(read_item, plain):
    def read(value):
        items = _instance(value, list)
        if plain is not None and all(type(item) is plain for item in items):
            return items
        try:
            return [read_item(item) for item in items]
        except SchemaError:  # read again, to name the item
            return _each(itertools.repeat(read_item), items)

    return read


def _fixed(readers: tuple):
    def read(value):
        items = _instance(value, list)
        if len(items) != len(readers):
            raise SchemaError(f"expected {len(readers)} items, got {len(items)}")
        return tuple(_each(readers, items))

    return read


def _mapping(read_key, read_value):
    def read(value):
        out = {}
        for key, item in _instance(value, dict).items():
            try:
                out[read_key(key)] = read_value(item)
            except SchemaError as exc:
                raise exc.within(f".{key}")
        return out

    return read


def _record(kind):
    hints = typing.get_type_hints(kind, include_extras=True)
    keys = {name: getattr(kind, "_json_keys", {}).get(name, name) for name in kind._fields}
    fields = {key: (name, _plain(hints[name]), _reader(hints[name])) for name, key in keys.items()}
    required = {name: key for name, key in keys.items() if name not in kind._field_defaults}

    def read(value):
        found = {}
        for key, item in (value if type(value) is dict else _instance(value, dict)).items():
            if key not in fields:
                raise SchemaError("unknown key", key)
            name, plain, read_field = fields[key]
            try:
                found[name] = item if type(item) is plain else read_field(item)
            except SchemaError as exc:
                raise exc.within(f".{key}")
        try:
            return kind(**found)
        except TypeError:  # a required field was left out, or kind itself failed
            missing = [key for name, key in required.items() if name not in found]
            if missing:
                raise SchemaError("missing", missing[0]) from None
            raise

    return read
