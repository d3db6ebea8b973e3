"""Corpus and prediction files in line-delimited JSON, and the task/slot vocabulary.

Each corpus line is read as a :class:`Document`, and each prediction line as
a :class:`PredictionSet`, by :func:`~mateval.errors.read_as`: their
NamedTuple fields are the schema (spelled out in the README). A key outside
it is an error, a field with a default may be left out, a value rule that
differs from the plain field is declared on the field, and a JSON key that
is no Python name on the record's ``_json_keys``. Reports live in
:mod:`mateval.report`.
"""

from collections.abc import Container
from typing import Annotated, Literal, NamedTuple

from .errors import (
    DuplicateIdError,
    InvalidJSONError,
    SchemaError,
    SchemaViolationError,
    UnknownDocumentError,
    numbered_lines,
    read_as,
    read_json,
)

ENTITY_CLASSES = ("material", "quantity", "tc", "pressure")
# the entity class each NER task extracts
TASK_CLASSES = {"ner_material": "material", "ner_quantity": "quantity"}
# the header of a pseudo-format NER answer, per entity class
PSEUDO_HEADERS = {"material": "materials", "quantity": "quantities"}
# the slots of a relation group, in prompt and report order
RELATION_SLOTS = ("material", "tc", "pressure")


def __getattr__(name: str):
    # corpus.render_report stays the report renderer (perfbench reads it here),
    # imported on first use: a process that only reads corpora skips report,
    # scoring and statistics
    if name != "render_report":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .report import render_report

    globals()[name] = render_report
    return render_report


EntityClass = Literal[ENTITY_CLASSES]


def _filled(text: str) -> str:
    if not text or text.isspace():
        raise SchemaError("blank text")
    return text


class EntityMention(NamedTuple):
    """A gold entity: surface text, class, optional provenance span."""

    text: Annotated[str, _filled]
    class_: EntityClass
    span: tuple[int, int] | None = None

    _json_keys = {"class_": "class"}


class RelationGroup(NamedTuple):
    """A relation; its fields are ``RELATION_SLOTS``, and a slot left out is ``None``.

    Gold groups always hold material and tc; predicted groups may lack any
    slot until :func:`~mateval.evaluation.evaluate_re` drops them.
    """

    material: str | None = None
    tc: str | None = None
    pressure: str | None = None

    def to_dict(self) -> dict:
        return {slot: value for slot, value in zip(RELATION_SLOTS, self) if value is not None}


def _gold_relation(group: RelationGroup) -> RelationGroup:
    if not (group.material and group.tc):
        raise SchemaError("material and tc must be non-empty")
    return group


def _predicted_relation(group: RelationGroup) -> RelationGroup:
    """The group with each blank slot read as None."""
    if any(value is not None and not value.strip() for value in group):
        return RelationGroup(*(value if value and value.strip() else None for value in group))
    return group


class _DocumentFields(NamedTuple):
    id: str
    text: Annotated[str, _filled]
    entities: list[EntityMention] = None
    relations: list[Annotated[RelationGroup, _gold_relation]] = None


class Document(_DocumentFields):
    """A corpus document; a list left out is a new empty list, never a shared one."""

    __slots__ = ()

    def __new__(cls, id, text, entities=None, relations=None):
        return super().__new__(cls, id, text, [] if entities is None else entities,
                               [] if relations is None else relations)

    def entity_texts(self, class_: str) -> list[str]:
        return [e.text for e in self.entities if e.class_ == class_]

    def relation_entities(self) -> dict[str, list[str]]:
        """The non-empty entity list of each relation slot, in slot order:
        the lists an RE prompt supplies."""
        lists = {slot: self.entity_texts(slot) for slot in RELATION_SLOTS}
        return {slot: texts for slot, texts in lists.items() if texts}


class _PredictionFields(NamedTuple):
    doc_id: str
    run_label: str = "run1"
    entities: dict[EntityClass, list[str]] = None
    relations: list[Annotated[RelationGroup, _predicted_relation]] = None

    _json_keys = {"run_label": "run"}


class PredictionSet(_PredictionFields):
    """One run's predictions for one document; a dict or list left out is a new empty one.

    ``relations`` holds :class:`RelationGroup` blocks whose slots may be
    ``None``, because model output may omit slots; filtering happens in the
    evaluation layer.
    """

    __slots__ = ()

    def __new__(cls, doc_id, run_label="run1", entities=None, relations=None):
        return super().__new__(cls, doc_id, run_label, {} if entities is None else entities,
                               [] if relations is None else relations)


def _reachable(doc: Document) -> Document:
    """A gold document whose relation slots each name one of its entities of
    that slot's class, so an RE prompt supplies it and ``eval-re`` can keep
    a predicted block that matches the relation."""
    named = {(entity.class_, entity.text) for entity in doc.entities}
    for i, group in enumerate(doc.relations):
        for slot, value in zip(RELATION_SLOTS, group):
            if value is not None and (slot, value) not in named:
                raise SchemaError(f"{value!r} is not among the document's {slot} entities",
                                  f"relations[{i}].{slot}")
    return doc


def _read_lines(path: str, kind):
    """``(line number, record)`` for each non-blank line of a JSONL file,
    read as ``kind``; a bad line raises :class:`SchemaViolationError`."""
    def bad(lineno: int, field: str, message: str) -> SchemaViolationError:
        return SchemaViolationError(lineno, field, message, path)

    for lineno, line in numbered_lines(path, lambda n, why: bad(n, "line", why)):
        if not line.strip():
            continue
        try:
            yield lineno, read_as(read_json(line), kind)
        except InvalidJSONError as exc:
            raise bad(lineno, "line", f"invalid JSON: {exc}") from None
        except SchemaError as exc:
            raise bad(lineno, exc.field or "line", exc.reason) from None


def load_corpus(path: str) -> list[Document]:
    """Load a corpus JSONL file: each line is a :class:`Document` whose gold
    relations can be matched (see :func:`_reachable`).

    Raises:
        SchemaViolationError: malformed line (carries line number and field).
        DuplicateIdError: two documents share an id.
        OSError: unreadable path.
    """
    documents: list[Document] = []
    seen: set[str] = set()
    for lineno, doc in _read_lines(path, Annotated[Document, _reachable]):
        if doc.id in seen:
            raise DuplicateIdError(f"{path}: duplicate document id {doc.id!r} at line {lineno}")
        seen.add(doc.id)
        documents.append(doc)
    return documents


def load_predictions(path: str, known: Container[str] | None = None) -> list[PredictionSet]:
    """Load a prediction JSONL file: each line is a :class:`PredictionSet`,
    whose ``doc_id`` is in ``known`` when that is given.

    Raises:
        SchemaViolationError: malformed line, including a run label, entity
            value or relation slot that is not a string.
        DuplicateIdError: a second line for the same (doc_id, run).
        UnknownDocumentError: a ``doc_id`` not in ``known``, with its line.
    """
    predictions = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, pred in _read_lines(path, PredictionSet):
        if known is not None and pred.doc_id not in known:
            raise UnknownDocumentError(f"{path}: line {lineno}: prediction references "
                                       f"unknown document {pred.doc_id!r}")
        first = seen.setdefault((pred.doc_id, pred.run_label), lineno)
        if first != lineno:
            raise DuplicateIdError(f"{path}: duplicate prediction {pred.doc_id!r}/"
                                   f"{pred.run_label!r} at line {lineno} (first at line {first})")
        predictions.append(pred)
    return predictions
