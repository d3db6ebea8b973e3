"""Corpus and prediction files in line-delimited JSON, plus report writers.

Corpus line schema::

    {"id": str, "text": str,
     "entities": [{"text": str, "class": str, "span": [int, int]?}],
     "relations": [{"material": str, "tc": str, "pressure": str?}]}

Prediction line schema::

    {"doc_id": str, "run": str,
     "entities": {class: [str]},
     "relations": [{"material"?: str, "tc"?: str, "pressure"?: str}]}

Prediction relation blocks may be partial; they are filtered at evaluation
time. The report JSON schema is whatever ``EvalReport.to_dict`` produces and
is documented in the README.
"""

import csv
import io
import json
import re
from dataclasses import dataclass, field

from .errors import DuplicateIdError, SchemaViolationError

ENTITY_CLASSES = ("material", "quantity", "tc", "pressure")

_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class EntityMention:
    """A gold entity: surface text, class, optional provenance span."""

    text: str
    class_: str
    span: tuple[int, int] | None = None


@dataclass(frozen=True)
class RelationGroup:
    """A (material, tc, optional pressure) triple."""

    material: str
    tc: str
    pressure: str | None = None

    def to_dict(self) -> dict:
        out = {"material": self.material, "tc": self.tc}
        if self.pressure is not None:
            out["pressure"] = self.pressure
        return out


@dataclass
class Document:
    id: str
    text: str
    entities: list[EntityMention] = field(default_factory=list)
    relations: list[RelationGroup] = field(default_factory=list)

    def entity_texts(self, class_: str) -> list[str]:
        return [e.text for e in self.entities if e.class_ == class_]


@dataclass
class PredictionSet:
    """One run's predictions for one document.

    ``relations`` holds raw blocks (dicts) because model output may omit
    slots; filtering happens in the evaluation layer.
    """

    doc_id: str
    run_label: str
    entities: dict[str, list[str]] = field(default_factory=dict)
    relations: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    doc_id: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} [{self.doc_id}]: {self.detail}"


def _require(payload: dict, key: str, kind, line: int):
    if key not in payload:
        raise SchemaViolationError(line, key, "missing field")
    value = payload[key]
    if not isinstance(value, kind):
        raise SchemaViolationError(
            line, key, f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _iter_jsonl(path: str):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolationError(lineno, "line", f"invalid JSON: {exc}")
            if not isinstance(payload, dict):
                raise SchemaViolationError(lineno, "line", "expected a JSON object")
            yield lineno, payload


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
        for item in payload.get("entities", []):
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
                    or not all(isinstance(v, int) for v in raw_span)
                ):
                    raise SchemaViolationError(
                        lineno, "entities.span", "expected [start, end]"
                    )
                span = (raw_span[0], raw_span[1])
            entities.append(EntityMention(text=etext, class_=class_, span=span))
        relations = []
        for item in payload.get("relations", []):
            if not isinstance(item, dict):
                raise SchemaViolationError(lineno, "relations", "expected objects")
            material = _require(item, "material", str, lineno)
            tc = _require(item, "tc", str, lineno)
            if not material or not tc:
                raise SchemaViolationError(
                    lineno, "relations", "material and tc must be non-empty"
                )
            pressure = item.get("pressure")
            if pressure is not None and not isinstance(pressure, str):
                raise SchemaViolationError(lineno, "relations.pressure", "expected str")
            relations.append(RelationGroup(material=material, tc=tc, pressure=pressure))
        documents.append(
            Document(id=doc_id, text=text, entities=entities, relations=relations)
        )
    return documents


def load_predictions(path: str) -> list[PredictionSet]:
    """Load a prediction JSONL file (see module docstring for the schema).

    Raises:
        SchemaViolationError: malformed line, including a null entity value.
        DuplicateIdError: a second line for the same (doc_id, run).
    """
    predictions = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, payload in _iter_jsonl(path):
        doc_id = _require(payload, "doc_id", str, lineno)
        run_label = str(payload.get("run", "run1"))
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
            if None in values:
                raise SchemaViolationError(lineno, f"entities.{class_}", "null entity")
            entities[class_] = [str(v) for v in values]
        relations = payload.get("relations", [])
        if not isinstance(relations, list):
            raise SchemaViolationError(lineno, "relations", "expected a list")
        for block in relations:
            if not isinstance(block, dict):
                raise SchemaViolationError(lineno, "relations", "expected objects")
        predictions.append(
            PredictionSet(
                doc_id=doc_id,
                run_label=run_label,
                entities=entities,
                relations=list(relations),
            )
        )
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
            for slot, value in (
                ("material", relation.material),
                ("tc", relation.tc),
                ("pressure", relation.pressure),
            ):
                if value is None:
                    continue
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


def render_report(report, format: str = "json") -> str:
    """Render a report (EvalReport or its dict form) to json/markdown/csv."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    if format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if format == "markdown":
        return _render_markdown(payload)
    if format == "csv":
        return _render_csv(payload)
    raise ValueError(f"unknown report format {format!r}")


def write_report(report, format: str, path: str) -> None:
    """Render and write a report; propagates OSError on I/O failure."""
    rendered = render_report(report, format)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rendered)


def _pct(value: float) -> str:
    return f"{value * 100:.2f}"


def _render_markdown(payload: dict) -> str:
    lines = [f"# Evaluation report: {payload.get('task', '?')}", ""]
    config = payload.get("config", {})
    if config:
        lines.append("Config: `" + json.dumps(config, sort_keys=True) + "`")
        lines.append("")
    lines.append("| Run | Matching | P | R | F1 | Supp |")
    lines.append("| --- | --- | --- | --- | --- | --- |")
    matchers = payload.get("matchers", {})
    run_labels: list[str] = []
    for result in matchers.values():
        for run in result.get("runs", []):
            if run["run"] not in run_labels:
                run_labels.append(run["run"])
    for run_label in run_labels:
        for name, result in matchers.items():
            for run in result.get("runs", []):
                if run["run"] != run_label:
                    continue
                s = run["scores"]
                lines.append(
                    f"| {run_label} | {name} | {_pct(s['precision'])} | "
                    f"{_pct(s['recall'])} | {_pct(s['f1'])} | {s['support']} |"
                )
    lines.append("")
    lines.append("Mean and standard deviation of F1 score")
    lines.append("")
    lines.append("| Matching | Avg. F1 | Std | Avg. Supp |")
    lines.append("| --- | --- | --- | --- |")
    for name, result in matchers.items():
        agg = result.get("aggregate")
        if agg is None:
            lines.append(f"| {name} | skipped | - | - |")
            continue
        mean, std = _table_f1_from_dict(agg)
        supp = int(agg["avg_support"] + 0.5)  # rendered half-up
        lines.append(f"| {name} | {mean:.2f} | {std:.2f} | {supp} |")
    skipped = payload.get("skipped", [])
    if skipped:
        lines.append("")
        lines.append("Skipped:")
        for note in skipped:
            lines.append(f"- {note}")
    warnings = payload.get("warnings", [])
    if warnings:
        lines.append("")
        lines.append("Warnings:")
        for note in warnings:
            lines.append(f"- {note}")
    return "\n".join(lines) + "\n"


def _table_f1_from_dict(agg: dict) -> tuple[float, float]:
    from .scoring import RunAggregate

    return RunAggregate(
        mean_f1=agg["mean_f1"] * 100,
        std_f1=agg["std_f1"] * 100,
        avg_support=agg["avg_support"],
        n_runs=agg["n_runs"],
    ).table_f1()


def _render_csv(payload: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["run", "matcher", "precision", "recall", "f1", "support"])
    for name, result in payload.get("matchers", {}).items():
        for run in result.get("runs", []):
            s = run["scores"]
            writer.writerow(
                [run["run"], name, s["precision"], s["recall"], s["f1"], s["support"]]
            )
    writer.writerow([])
    writer.writerow(["matcher", "mean_f1", "std_f1", "avg_support", "n_runs"])
    for name, result in payload.get("matchers", {}).items():
        agg = result.get("aggregate")
        if agg is None:
            writer.writerow([name, "skipped", "", "", ""])
        else:
            writer.writerow(
                [name, agg["mean_f1"], agg["std_f1"], agg["avg_support"], agg["n_runs"]]
            )
    return buffer.getvalue()
