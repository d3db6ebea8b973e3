"""NER and RE evaluation across matchers and runs.

Scoring is deterministic and order-invariant: documents are processed in id
order, counts use maximum bipartite matching, and entity shuffling (which
affects prompt construction only, never scoring) uses per-document sub-seeds
derived from (seed, doc id) so results reproduce across platforms and
parallel schedules. The PRNG is Python's Mersenne Twister seeded from a
SHA-256 digest of the sub-seed key.
"""

import hashlib
import random
import re
from dataclasses import dataclass, field

from .corpus import Document, PredictionSet, RelationGroup
from .errors import (
    NoMatchersSelectedError,
    ProviderUnavailableError,
    UnknownDocumentError,
)
from .matching import TIERS, SimilarityProvider, StrictTier, Tier, normalize_whitespace
from .scoring import (
    MatchCounts,
    RunAggregate,
    Scores,
    aggregate_runs,
    count_matches,
    micro_average,
)

MATCHER_NAMES = ("strict", "soft", "semantic", "formula")
TASKS = ("ner_material", "ner_quantity", "re")
TASK_CLASSES = {"ner_material": "material", "ner_quantity": "quantity"}
RELATION_SLOTS = ("material", "tc", "pressure")


@dataclass(frozen=True)
class EvalConfig:
    task: str
    matchers: tuple[str, ...] = ("strict",)
    threshold: float = 0.9
    shuffle: str = "non_shuffled"
    seed: int = 0
    runs: int = 1

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        unknown = set(self.matchers) - set(MATCHER_NAMES)
        if unknown:
            raise ValueError(f"unknown matchers: {sorted(unknown)}")
        if not self.matchers:
            raise NoMatchersSelectedError("select at least one matcher")
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        if self.shuffle not in ("shuffled", "non_shuffled"):
            raise ValueError(f"unknown shuffle mode {self.shuffle!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "matchers": list(self.matchers),
            "threshold": self.threshold,
            "shuffle": self.shuffle,
            "seed": self.seed,
            "runs": self.runs,
        }


@dataclass
class RunScores:
    run: str
    scores: Scores
    expected_total: int
    per_document: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "run": self.run,
            "scores": self.scores.to_dict(),
            "expected_total": self.expected_total,
            "per_document": self.per_document,
        }


@dataclass
class MatcherBlock:
    runs: list[RunScores] = field(default_factory=list)
    aggregate: RunAggregate | None = None

    def to_dict(self) -> dict:
        return {
            "runs": [r.to_dict() for r in self.runs],
            "aggregate": self.aggregate.to_dict() if self.aggregate else None,
        }


@dataclass
class EvalReport:
    task: str
    config: dict
    matchers: dict[str, MatcherBlock] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "config": self.config,
            "matchers": {k: v.to_dict() for k, v in self.matchers.items()},
            "skipped": list(self.skipped),
            "warnings": list(self.warnings),
        }

    def verify(self) -> None:
        """Assert that every aggregate derives exactly from its run scores."""
        for name, block in self.matchers.items():
            if not block.runs:
                continue
            recomputed = aggregate_runs([r.scores for r in block.runs])
            if recomputed != block.aggregate:
                raise AssertionError(f"inconsistent aggregate for {name!r}")


def derive_subseed(seed: int, *parts: str) -> int:
    """Stable 64-bit sub-seed from a seed and context parts (e.g. doc id)."""
    key = ":".join([str(seed), *map(str, parts)])
    return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16)


def shuffle_entities(
    entities: dict[str, list[str]], seed: int
) -> dict[str, list[str]]:
    """Independently permute each class list with a deterministic PRNG.

    The same seed always produces the same output; each class draws its own
    generator so adding a class never perturbs the others.
    """
    shuffled = {}
    for class_, values in entities.items():
        rng = random.Random(derive_subseed(seed, class_))
        items = list(values)
        rng.shuffle(items)
        shuffled[class_] = items
    return shuffled


def _block_slots(block) -> dict[str, str | None]:
    if isinstance(block, RelationGroup):
        return {"material": block.material, "tc": block.tc, "pressure": block.pressure}
    slots = {}
    for slot in RELATION_SLOTS:
        value = block.get(slot)
        if value is not None and not str(value).strip():
            value = None
        slots[slot] = str(value) if value is not None else None
    return slots


def _filter_with_notes(
    blocks, supplied: dict[str, list[str]]
) -> tuple[list[RelationGroup], list[str]]:
    kept = []
    notes = []
    pools = {
        slot: set(map(normalize_whitespace, supplied.get(slot, [])))
        for slot in RELATION_SLOTS
    }
    for block in blocks:
        slots = _block_slots(block)
        if slots["material"] is None:
            notes.append("dropped block without material")
            continue
        if slots["tc"] is None:
            notes.append(f"dropped block without tc (material {slots['material']!r})")
            continue
        unsupplied = None
        for slot in RELATION_SLOTS:
            value = slots[slot]
            if value is not None and normalize_whitespace(value) not in pools[slot]:
                unsupplied = (slot, value)
                break
        if unsupplied:
            notes.append(
                f"dropped block: {unsupplied[0]} {unsupplied[1]!r} "
                f"was not among the supplied entities"
            )
            continue
        kept.append(
            RelationGroup(
                material=slots["material"],
                tc=slots["tc"],
                pressure=slots["pressure"],
            )
        )
    return kept, notes


def filter_relation_blocks(blocks, supplied: dict[str, list[str]]) -> list[RelationGroup]:
    """Drop malformed or non-echoed relation blocks, preserving order.

    A block survives only if material and tc are present and every present
    slot value strict-matches some supplied entity of that class. Idempotent.
    """
    kept, _ = _filter_with_notes(blocks, supplied)
    return kept


class _GroupTier:
    """A slot tier lifted to relation groups: material and tc must match,
    and pressure must be absent on both sides or present and matching."""

    def __init__(self, slot: Tier):
        self.slot = slot
        self.closed_form = slot.closed_form

    def key(self, group: RelationGroup) -> tuple:
        key = self.slot.key
        pressure = None if group.pressure is None else key(group.pressure)
        return key(group.material), key(group.tc), pressure

    def verify(self, ka: tuple, kb: tuple) -> bool:
        return all(
            (x is None) == (y is None) and (x is None or self.slot.verify(x, y))
            for x, y in zip(ka, kb)
        )


def match_relation_groups(
    expected: list[RelationGroup], predicted: list[RelationGroup]
) -> MatchCounts:
    """Count relation matches under strict slot comparison.

    A predicted group matches an expected one when material and tc
    strict-match and the pressure slots agree (both absent, or both present
    and strict-matching); tp comes from a maximum one-to-one assignment.
    Predicted groups are assumed to have passed
    :func:`filter_relation_blocks`.
    """
    return count_matches(expected, predicted, _GroupTier(StrictTier()))


def _group_predictions(
    documents: list[Document], predictions: list[PredictionSet]
) -> tuple[dict[str, Document], dict[str, dict[str, PredictionSet]]]:
    index = {doc.id: doc for doc in documents}
    by_run: dict[str, dict[str, PredictionSet]] = {}
    for pred in predictions:
        if pred.doc_id not in index:
            raise UnknownDocumentError(
                f"prediction references unknown document {pred.doc_id!r}"
            )
        by_run.setdefault(pred.run_label, {})[pred.doc_id] = pred
    return index, by_run


def _natural_key(label: str) -> tuple:
    """Sort key that orders digit runs by value: run2 before run10."""
    parts = re.split(r"(\d+)", label)
    return [int(p) if i % 2 else p for i, p in enumerate(parts)], label


def _evaluate(
    documents: list[Document],
    by_run: dict[str, dict[str, PredictionSet]],
    config: EvalConfig,
    provider: SimilarityProvider | None,
    count_for_doc,
) -> EvalReport:
    """Shared run/matcher/document loop for NER and RE evaluation."""
    report = EvalReport(task=config.task, config=config.to_dict())
    run_labels = sorted(by_run, key=_natural_key) or ["run1"]
    report.config["run_labels"] = run_labels
    ordered_docs = sorted(documents, key=lambda d: d.id)
    for name in config.matchers:
        matcher = TIERS[name](config.threshold, provider)
        block = MatcherBlock()
        try:
            for run_label in run_labels:
                doc_preds = by_run.get(run_label, {})
                per_doc_counts = []
                per_doc_detail = []
                expected_total = 0
                for doc in ordered_docs:
                    counts, n_expected = count_for_doc(
                        doc, doc_preds.get(doc.id), matcher, report
                    )
                    expected_total += n_expected
                    per_doc_counts.append(counts)
                    per_doc_detail.append({"doc_id": doc.id, **counts.to_dict()})
                block.runs.append(
                    RunScores(
                        run=run_label,
                        scores=micro_average(per_doc_counts),
                        expected_total=expected_total,
                        per_document=per_doc_detail,
                    )
                )
        except ProviderUnavailableError as exc:
            report.skipped.append(f"{name}: {exc}")
            continue
        block.aggregate = aggregate_runs([r.scores for r in block.runs])
        report.matchers[name] = block
    report.verify()
    return report


def evaluate_ner(
    documents: list[Document],
    predictions: list[PredictionSet],
    config: EvalConfig,
    provider: SimilarityProvider | None = None,
) -> EvalReport:
    """Score NER predictions for the configured entity class.

    Documents without a prediction line count as empty predictions. A
    semantic-provider failure skips that matcher (recorded in
    ``report.skipped``) rather than zero-scoring it.
    """
    if config.task not in TASK_CLASSES:
        raise ValueError("evaluate_ner requires a ner_* task")
    class_ = TASK_CLASSES[config.task]
    _, by_run = _group_predictions(documents, predictions)

    def count_for_doc(doc, pred, matcher, report):
        expected = doc.entity_texts(class_)
        predicted = pred.entities.get(class_, []) if pred else []
        return count_matches(expected, predicted, matcher), len(expected)

    return _evaluate(documents, by_run, config, provider, count_for_doc)


def evaluate_re(
    documents: list[Document],
    predictions: list[PredictionSet],
    config: EvalConfig,
    provider: SimilarityProvider | None = None,
) -> EvalReport:
    """Score relation-extraction predictions.

    Predicted blocks are filtered against the entities supplied in the
    prompt (the document's gold lists) before matching; dropped blocks are
    recorded as warnings. Slot comparison uses the configured matcher tier
    (strict for the headline scores). The shuffle mode and seed are echoed
    in the report; scoring itself is order-invariant.
    """
    if config.task != "re":
        raise ValueError("evaluate_re requires task 're'")
    _, by_run = _group_predictions(documents, predictions)
    max_warnings = 50

    def count_for_doc(doc, pred, matcher, report):
        supplied = {slot: doc.entity_texts(slot) for slot in RELATION_SLOTS}
        blocks = pred.relations if pred else []
        kept, notes = _filter_with_notes(blocks, supplied)
        for note in notes:
            if len(report.warnings) < max_warnings:
                message = f"doc {doc.id}: {note}"
                if message not in report.warnings:
                    report.warnings.append(message)
        return count_matches(doc.relations, kept, _GroupTier(matcher)), len(doc.relations)

    return _evaluate(documents, by_run, config, provider, count_for_doc)
