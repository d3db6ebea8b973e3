"""NER and RE evaluation across matchers and runs.

Scoring is deterministic and order-invariant: documents are processed in id
order and counts use maximum bipartite matching. A report's config holds the
task, the matchers, the run labels (``runs`` counts them), the threshold only
when a selected matcher reads it, and ``seed``, echoed as given and unread.
"""

import re
from typing import NamedTuple

from .corpus import RELATION_SLOTS, TASK_CLASSES, Document, PredictionSet, RelationGroup
from .errors import (
    ConfigError,
    DuplicateIdError,
    NoMatchersSelectedError,
    ProviderUnavailableError,
    UnknownDocumentError,
)
from .matching import (
    DEFAULT_THRESHOLD,
    TIERS,
    SemanticTier,
    SimilarityProvider,
    Tier,
    check_threshold,
    normalize_whitespace,
    settings_read,
)
from .report import EvalReport, MatcherBlock, RunScores
from .scoring import aggregate_runs, count_matches, micro_average

TASKS = (*TASK_CLASSES, "re")


class _EvalFields(NamedTuple):
    task: str
    matchers: tuple[str, ...] = ("strict",)
    threshold: float = DEFAULT_THRESHOLD
    seed: int = 0  # unread: echoed into the report's config
    runs: int = 1  # unread: a report's config.runs counts its run labels


class EvalConfig(_EvalFields):
    """An evaluation's settings, checked when it is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        unknown = set(self.matchers) - TIERS.keys()
        if unknown:
            raise ConfigError(f"unknown matchers: {sorted(unknown)}")
        if not self.matchers:
            raise NoMatchersSelectedError("select at least one matcher")
        repeated = sorted({m for m in self.matchers if self.matchers.count(m) > 1})
        if repeated:
            raise ConfigError(f"repeated matchers: {repeated}")
        check_threshold(self.threshold)
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        return self


def _filter_with_notes(
    blocks: list[RelationGroup], supplied: dict[str, list[str]]
) -> tuple[list[RelationGroup], list[str]]:
    kept = []
    notes = []
    pools = [set(map(normalize_whitespace, supplied.get(slot, []))) for slot in RELATION_SLOTS]
    for group in blocks:
        if group.material is None:
            notes.append("dropped block without material")
            continue
        if group.tc is None:
            notes.append(f"dropped block without tc (material {group.material!r})")
            continue
        unsupplied = [
            (slot, value)
            for slot, value, pool in zip(RELATION_SLOTS, group, pools)
            if value is not None and normalize_whitespace(value) not in pool
        ]
        if unsupplied:
            slot, value = unsupplied[0]
            notes.append(f"dropped block: {slot} {value!r} was not among the supplied entities")
            continue
        kept.append(group)
    return kept, notes


def filter_relation_blocks(
    blocks: list[RelationGroup], supplied: dict[str, list[str]]
) -> list[RelationGroup]:
    """The blocks that survive filtering, in order: the input objects themselves.

    A block survives only if material and tc are present and every present
    slot value strict-matches some supplied entity of that class. Idempotent.
    """
    kept, _ = _filter_with_notes(blocks, supplied)
    return kept


class _GroupTier(Tier):
    """A slot tier lifted to relation groups: material and tc must match,
    and pressure must be absent on both sides or present and matching."""

    def __init__(self, slot: Tier):
        self.slot = slot
        self.closed_form = slot.closed_form

    def key(self, group: RelationGroup) -> tuple:
        key = self.slot.key
        return tuple(None if value is None else key(value) for value in group)

    def slot_matches(self, x, y) -> bool:
        return (x is None) == (y is None) and (x is None or self.slot.verify(x, y))

    def verify(self, ka: tuple, kb: tuple) -> bool:
        return all(map(self.slot_matches, ka, kb))

    def scan_orders(self, expected: list, predicted: list) -> list:
        """The slot tier's scan order on the material slot, which every
        counted group holds: gold by schema, predicted by the filter."""
        return self.slot.scan_orders([k[0] for k in expected], [k[0] for k in predicted])


def _group_predictions(
    documents: list[Document], predictions: list[PredictionSet]
) -> dict[str, dict[str, PredictionSet]]:
    known = {doc.id for doc in documents}
    by_run: dict[str, dict[str, PredictionSet]] = {}
    for pred in predictions:
        if pred.doc_id not in known:
            raise UnknownDocumentError(
                f"prediction references unknown document {pred.doc_id!r}"
            )
        run = by_run.setdefault(pred.run_label, {})
        if pred.doc_id in run:
            raise DuplicateIdError(
                f"duplicate prediction for doc_id {pred.doc_id!r}, run {pred.run_label!r}"
            )
        run[pred.doc_id] = pred
    return by_run


def _natural_key(label: str) -> tuple:
    """Sort key that orders digit runs by value: run2 before run10."""
    parts = re.split(r"(\d+)", label)
    return [int(p) if i % 2 else p for i, p in enumerate(parts)], label


def _evaluate(
    documents: list[Document],
    predictions: list[PredictionSet],
    config: EvalConfig,
    provider: SimilarityProvider | None,
    doc_items,
    lift=lambda tier: tier,
) -> EvalReport:
    """Shared run/matcher/document loop for NER and RE evaluation.

    ``doc_items(doc, prediction)`` gives a document's expected and
    predicted lists, once per run; ``lift(tier)`` is the tier they are
    counted with. A semantic tier counts the documents of all runs through
    the provider's ``map``, when it has one, so they wait on the service
    together, largest ``len(expected) * len(predicted)`` first (ties in run,
    then document order); a failure skips the matcher, and the one named is
    the first in that start order.
    """
    by_run = _group_predictions(documents, predictions)
    run_labels = sorted(by_run, key=_natural_key) or ["run1"]
    settings = config._asdict()
    if "threshold" not in settings_read(config.matchers):
        del settings["threshold"]
    report = EvalReport(task=config.task, config={
        **settings, "matchers": list(config.matchers),  # a list, as read back
        "run_labels": run_labels, "runs": len(run_labels)}, matchers={}, skipped=[], warnings=[])
    ordered_docs = sorted(documents, key=lambda d: d.id)
    items = [
        doc_items(doc, by_run.get(run_label, {}).get(doc.id))
        for run_label in run_labels
        for doc in ordered_docs
    ]
    for name in config.matchers:
        matcher = TIERS[name](config.threshold, provider)
        tier = lift(matcher)
        count_all, order = map, range(len(items))
        if isinstance(matcher, SemanticTier) and hasattr(provider, "map"):
            count_all = provider.map  # largest first (LPT): a document asks at most |G|*|P| pairs
            order = sorted(order, key=lambda i: -len(items[i][0]) * len(items[i][1]))
        try:
            counted = zip(order, count_all(lambda i: count_matches(*items[i], tier), order))
            all_counts = [counts for _, counts in sorted(counted)]  # back in input order
        except ProviderUnavailableError as exc:
            report.skipped.append(f"{name}: {exc}")
            continue
        runs, n = [], len(ordered_docs)
        for k, run_label in enumerate(run_labels):
            per_doc_counts = all_counts[k * n:k * n + n]
            runs.append(
                RunScores(
                    run=run_label,
                    scores=micro_average(per_doc_counts),
                    expected_total=sum(c.tp + c.fn for c in per_doc_counts),
                    per_document=[
                        {"doc_id": doc.id, **counts._asdict()}
                        for doc, counts in zip(ordered_docs, per_doc_counts)
                    ],
                )
            )
        report.matchers[name] = MatcherBlock(runs, aggregate_runs([r.scores for r in runs]))
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

    def doc_items(doc, pred):
        return doc.entity_texts(class_), pred.entities.get(class_, []) if pred else []

    return _evaluate(documents, predictions, config, provider, doc_items)


def evaluate_re(
    documents: list[Document],
    predictions: list[PredictionSet],
    config: EvalConfig,
    provider: SimilarityProvider | None = None,
) -> EvalReport:
    """Score relation-extraction predictions.

    Predicted blocks are filtered against the entities supplied in the
    prompt (the document's gold lists) before matching; the warnings are
    the first 50 distinct drop notes, in run and then document order. Slot
    comparison uses the configured matcher tier (strict for the headline
    scores); scoring is order-invariant.
    """
    if config.task != "re":
        raise ValueError("evaluate_re requires task 're'")
    notes = []  # every drop, in (run, document) order

    def doc_items(doc, pred):
        kept, dropped = _filter_with_notes(pred.relations if pred else [], doc.relation_entities())
        notes.extend(f"doc {doc.id}: {note}" for note in dropped)
        return doc.relations, kept

    report = _evaluate(documents, predictions, config, provider, doc_items, _GroupTier)
    return report._replace(warnings=list(dict.fromkeys(notes))[:50])
