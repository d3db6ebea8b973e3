"""Corpus and prediction files in line-delimited JSON, and the task/slot vocabulary.

Corpus line schema::

    {"id": str, "text": str,
     "entities": [{"text": str, "class": str, "span": [int, int]?}],
     "relations": [{"material": str, "tc": str, "pressure": str?}]}

Prediction line schema::

    {"doc_id": str, "run": str,
     "entities": {class: [str]},
     "relations": [{"material"?: str, "tc"?: str, "pressure"?: str}]}

Both loaders read each relation object into a :class:`RelationGroup`: a
slot that is present must be a string, and gold groups must hold material
and tc. ``PredictionSet.relations`` may hold partial groups (a missing or
blank slot is ``None``); they are filtered at evaluation time. Reports live in
:mod:`mateval.report`.
"""

import io
import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DuplicateIdError, SchemaViolationError

ENTITY_CLASSES = ("material", "quantity", "tc", "pressure")
# the entity class each NER task extracts
TASK_CLASSES = {"ner_material": "material", "ner_quantity": "quantity"}
# the header of a pseudo-format NER answer, per entity class
PSEUDO_HEADERS = {"material": "materials", "quantity": "quantities"}
# the slots of a relation group, in prompt and report order
RELATION_SLOTS = ("material", "tc", "pressure")

_WS_RE = re.compile(r"\s+")


def __getattr__(name: str):
    # corpus.render_report stays the report renderer (perfbench reads it here),
    # imported on first use: a process that only reads corpora skips report,
    # scoring and statistics
    if name != "render_report":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .report import render_report

    globals()[name] = render_report
    return render_report


@dataclass(frozen=True)
class EntityMention:
    """A gold entity: surface text, class, optional provenance span."""

    text: str
    class_: str
    span: tuple[int, int] | None = None


class RelationGroup(NamedTuple):
    """A relation; its fields are ``RELATION_SLOTS``, and a slot left out is ``None``.

    Gold groups always hold material and tc; predicted groups may lack any
    slot until :func:`~mateval.evaluation.filter_relation_blocks` drops them.
    """

    material: str | None = None
    tc: str | None = None
    pressure: str | None = None

    def to_dict(self) -> dict:
        return {slot: value for slot, value in zip(RELATION_SLOTS, self) if value is not None}


@dataclass
class Document:
    id: str
    text: str
    entities: list[EntityMention] = field(default_factory=list)
    relations: list[RelationGroup] = field(default_factory=list)

    def entity_texts(self, class_: str) -> list[str]:
        return [e.text for e in self.entities if e.class_ == class_]

    def relation_entities(self) -> dict[str, list[str]]:
        """The non-empty entity list of each relation slot, in slot order:
        the lists an RE prompt supplies."""
        lists = {slot: self.entity_texts(slot) for slot in RELATION_SLOTS}
        return {slot: texts for slot, texts in lists.items() if texts}


@dataclass
class PredictionSet:
    """One run's predictions for one document.

    ``relations`` holds :class:`RelationGroup` blocks whose slots may be
    ``None``, because model output may omit slots; filtering happens in the
    evaluation layer.
    """

    doc_id: str
    run_label: str
    entities: dict[str, list[str]] = field(default_factory=dict)
    relations: list[RelationGroup] = field(default_factory=list)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    doc_id: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} [{self.doc_id}]: {self.detail}"


def _check(value, kind, line: int, field: str):
    if not isinstance(value, kind):
        raise SchemaViolationError(
            line, field, f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _require(payload: dict, key: str, kind, line: int):
    if key not in payload:
        raise SchemaViolationError(line, key, "missing field")
    return _check(payload[key], kind, line, key)


def _iter_jsonl(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise SchemaViolationError(lineno, "line", "not UTF-8 text") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(lineno, "line", f"invalid JSON: {exc}")
        if not isinstance(payload, dict):
            raise SchemaViolationError(lineno, "line", "expected a JSON object")
        yield lineno, payload


def _read_relation(item, line: int, gold: bool) -> RelationGroup:
    """One relation object of a gold or a predicted line.

    A present slot must be a string; a blank predicted slot reads as None,
    and a gold group must hold material and tc.
    """
    if not isinstance(item, dict):
        raise SchemaViolationError(line, "relations", "expected objects")
    slots = {}
    for slot in RELATION_SLOTS:
        value = item.get(slot)
        if value is not None:
            _check(value, str, line, f"relations.{slot}")
        slots[slot] = value if gold or value is None or value.strip() else None
    group = RelationGroup(**slots)
    if gold and not (group.material and group.tc):
        raise SchemaViolationError(line, "relations", "material and tc must be non-empty")
    return group


def load_corpus(path: str) -> list[Document]:
    """Load and validate a corpus JSONL file.

    Raises:
        SchemaViolationError: malformed line (carries line number and field).
        DuplicateIdError: two documents share an id.
        OSError: unreadable path.
    """
    documents: list[Document] = []
    seen: set[str] = set()
    for lineno, payload in _iter_jsonl(path):
        doc_id = _require(payload, "id", str, lineno)
        if doc_id in seen:
            raise DuplicateIdError(f"duplicate document id {doc_id!r} at line {lineno}")
        seen.add(doc_id)
        text = _require(payload, "text", str, lineno)
        entities = []
        for item in _check(payload.get("entities", []), list, lineno, "entities"):
            if not isinstance(item, dict):
                raise SchemaViolationError(lineno, "entities", "expected objects")
            etext = _require(item, "text", str, lineno)
            if not etext:
                raise SchemaViolationError(lineno, "entities.text", "empty text")
            class_ = _require(item, "class", str, lineno)
            if class_ not in ENTITY_CLASSES:
                raise SchemaViolationError(
                    lineno, "entities.class", f"unknown class {class_!r}"
                )
            span = None
            if item.get("span") is not None:
                raw_span = item["span"]
                if (
                    not isinstance(raw_span, list)
                    or len(raw_span) != 2
                    or not all(type(v) is int for v in raw_span)  # bool is an int
                ):
                    raise SchemaViolationError(
                        lineno, "entities.span", "expected [start, end]"
                    )
                span = (raw_span[0], raw_span[1])
            entities.append(EntityMention(text=etext, class_=class_, span=span))
        blocks = _check(payload.get("relations", []), list, lineno, "relations")
        relations = [_read_relation(block, lineno, True) for block in blocks]
        documents.append(
            Document(id=doc_id, text=text, entities=entities, relations=relations)
        )
    return documents


def load_predictions(path: str) -> list[PredictionSet]:
    """Load a prediction JSONL file (see module docstring for the schema).

    Raises:
        SchemaViolationError: malformed line, including a run label, entity
            value or relation slot that is not a string.
        DuplicateIdError: a second line for the same (doc_id, run).
    """
    predictions = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, payload in _iter_jsonl(path):
        doc_id = _require(payload, "doc_id", str, lineno)
        run_label = _check(payload.get("run", "run1"), str, lineno, "run")
        first = seen.setdefault((doc_id, run_label), lineno)
        if first != lineno:
            raise DuplicateIdError(
                f"duplicate prediction {doc_id!r}/{run_label!r} at line {lineno} "
                f"(first at line {first})"
            )
        entities: dict[str, list[str]] = {}
        raw_entities = payload.get("entities", {})
        if not isinstance(raw_entities, dict):
            raise SchemaViolationError(lineno, "entities", "expected an object")
        for class_, values in raw_entities.items():
            if class_ not in ENTITY_CLASSES:
                raise SchemaViolationError(
                    lineno, "entities", f"unknown class {class_!r}"
                )
            if not isinstance(values, list):
                raise SchemaViolationError(lineno, f"entities.{class_}", "expected list")
            entities[class_] = [_check(v, str, lineno, f"entities.{class_}") for v in values]
        blocks = _check(payload.get("relations", []), list, lineno, "relations")
        relations = [_read_relation(block, lineno, False) for block in blocks]
        predictions.append(PredictionSet(doc_id, run_label, entities, relations))
    return predictions


# relation slots may be satisfied by a dedicated class or a generic quantity
_SLOT_CLASSES = {
    "material": ("material",),
    "tc": ("tc", "quantity"),
    "pressure": ("pressure", "quantity"),
}


def validate_corpus(documents: list[Document]) -> list[ValidationIssue]:
    """Collect non-fatal quality warnings; an empty list means clean.

    Checks that relation slot values appear among entities of a compatible
    class, that spans slice to the entity text (after whitespace
    normalization), and that documents are non-empty. Never mutates input.
    """
    issues = []
    for doc in documents:
        if not doc.text.strip():
            issues.append(ValidationIssue("EmptyDocument", doc.id, "document text is empty"))
        by_class: dict[str, set[str]] = {}
        for entity in doc.entities:
            by_class.setdefault(entity.class_, set()).add(entity.text)
            if entity.span is not None:
                start, end = entity.span
                if not (0 <= start <= end <= len(doc.text)):
                    issues.append(
                        ValidationIssue(
                            "SpanMismatch",
                            doc.id,
                            f"span {entity.span} outside document bounds",
                        )
                    )
                    continue
                sliced = _WS_RE.sub(" ", doc.text[start:end].strip())
                wanted = _WS_RE.sub(" ", entity.text.strip())
                if sliced != wanted:
                    issues.append(
                        ValidationIssue(
                            "SpanMismatch",
                            doc.id,
                            f"span {entity.span} slices to {sliced!r}, not {wanted!r}",
                        )
                    )
        for relation in doc.relations:
            for slot, value in relation.to_dict().items():
                pools = _SLOT_CLASSES[slot]
                if not any(value in by_class.get(c, ()) for c in pools):
                    issues.append(
                        ValidationIssue(
                            "DanglingRelationSlot",
                            doc.id,
                            f"{slot} {value!r} not among "
                            f"{' or '.join(pools)} entities",
                        )
                    )
    return issues


def save_corpus(documents: list[Document], path: str) -> None:
    """Write documents back to the canonical JSONL form."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in documents:
            entities = []
            for e in doc.entities:
                item: dict = {"text": e.text, "class": e.class_}
                if e.span is not None:
                    item["span"] = list(e.span)
                entities.append(item)
            payload = {
                "id": doc.id,
                "text": doc.text,
                "entities": entities,
                "relations": [r.to_dict() for r in doc.relations],
            }
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
