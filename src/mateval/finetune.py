"""Fine-tuning dataset preparation under three entity-ordering strategies.

``base`` shuffles the entity lists rendered into each RE prompt (seeded),
``document_order`` keeps them in appearance order, and ``augmented`` adds one
extra independently-shuffled copy per example, dropping copies whose
prompt renders exactly as the base record's, so the total lands between N
and 2N. Assistant answers always use the pseudo format, never JSON: the hosted
fine-tuning pipeline produced unreliable JSON, and the pseudo format is
parsed back locally by ``parse_pseudo_format``.

Strategies only affect RE records; NER prompts carry no entity lists to
reorder, so every strategy emits identical NER records.
"""

import json
import random
from typing import NamedTuple

from .corpus import PSEUDO_HEADERS, TASK_CLASSES, Document, RelationGroup
from .errors import ConfigError, EmptyCorpusError, write_text
from .prompts import PromptBundle, build_ner_prompt, build_re_prompt, derive_subseed

STRATEGIES = ("base", "document_order", "augmented")

# reshuffle attempts before conceding that a different ordering is impossible
_MAX_RESHUFFLES = 8


class FineTuneRecord(NamedTuple):
    """One conversation-format training example."""

    messages: tuple[dict, ...]
    strategy: str
    source_doc: str

    def to_wire(self) -> dict:
        return {"messages": [dict(m) for m in self.messages]}


def render_pseudo_relations(relations: list[RelationGroup]) -> str:
    """Expected-answer text for RE: one ``key: value`` line per relation."""
    if not relations:
        return "None"
    return "\n".join(
        ", ".join(f"{slot}: {value}" for slot, value in group.to_dict().items())
        for group in relations
    )


def render_pseudo_entities(class_: str, texts: list[str]) -> str:
    """Expected-answer text for NER: a labelled bullet list."""
    if not texts:
        return "None"
    return "\n".join([f"{PSEUDO_HEADERS[class_]}:"] + [f" - {t}" for t in texts])


def _record(doc: Document, bundle: PromptBundle, answer: str, strategy: str) -> FineTuneRecord:
    """The extraction prompt without format instructions, then the pseudo-format answer."""
    return FineTuneRecord(
        messages=(
            {"role": "system", "content": bundle.system},
            {"role": "user", "content": bundle.user},
            {"role": "assistant", "content": answer},
        ),
        strategy=strategy,
        source_doc=doc.id,
    )


def _doc_records(doc: Document, task: str, strategy: str, seed: int) -> list[FineTuneRecord]:
    if task != "re":
        bundle = build_ner_prompt(task, doc.text)  # ValueError for an unknown task
        class_ = TASK_CLASSES[task]
        answer = render_pseudo_entities(class_, doc.entity_texts(class_))
        return [_record(doc, bundle, answer, strategy)]
    entities = doc.relation_entities()
    if not entities:
        return []
    answer = render_pseudo_relations(doc.relations)

    def record(copy: int | None) -> FineTuneRecord:
        """The record of shuffled copy ``copy``; ``None`` keeps document order."""
        shuffle_seed = None if copy is None else derive_subseed(seed, doc.id, str(copy))
        bundle = build_re_prompt(doc.text, entities, shuffle_seed=shuffle_seed)
        return _record(doc, bundle, answer, strategy)

    if strategy == "document_order":
        return [record(None)]
    records = [record(0)]
    if strategy == "augmented":
        for attempt in range(1, _MAX_RESHUFFLES + 1):
            # compare rendered prompts: distinct orderings can render alike
            # when a value contains the ", " that joins a list
            candidate = record(attempt)
            if candidate != records[0]:
                records.append(candidate)
                break
        # single-ordering examples (all lists length <= 1) stay unduplicated
    return records


def prepare_finetune(
    documents: list[Document],
    task: str,
    strategy: str,
    seed: int = 0,
    split_ratio: float = 0.7,
    split_unit: str = "record",
) -> tuple[list[FineTuneRecord], list[FineTuneRecord]]:
    """Build (train, test) fine-tune records from a corpus.

    The split units are shuffled with the seeded PRNG and cut at
    ``floor(split_ratio * n)``. With the default ``split_unit="record"``
    (the unit behind reported dataset sizes) a unit is one record, so
    augmented copies of one document can land on both sides;
    ``split_unit="document"`` keeps all records of a document together,
    which avoids that leakage, and keeps corpus order on each side. Both
    are disjoint, exhaustive, and reproducible under the seed.

    Each record's system and user messages are the extraction prompt
    (:func:`~mateval.prompts.build_ner_prompt` or
    :func:`~mateval.prompts.build_re_prompt`) without format instructions.

    Raises:
        ConfigError: unknown strategy or split unit, or split_ratio not in (0, 1).
        EmptyCorpusError: no usable documents.
        EmptyTextError: a document that yields a record has whitespace-only
            text.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if not 0 < split_ratio < 1:
        raise ConfigError("split_ratio must be in (0, 1)")
    if split_unit not in ("record", "document"):
        raise ConfigError(f"unknown split unit {split_unit!r}")
    if not documents:
        raise EmptyCorpusError("no documents to prepare")

    per_doc = [_doc_records(doc, task, strategy, seed) for doc in documents]
    if not any(per_doc):
        raise EmptyCorpusError("no documents with usable entities")
    # a split unit is a document's records, or one record on its own
    units = per_doc if split_unit == "document" else [[r] for rs in per_doc for r in rs]
    order = list(range(len(units)))
    random.Random(derive_subseed(seed, "split")).shuffle(order)
    cut = int(split_ratio * len(units))
    sides = order[:cut], order[cut:]
    if split_unit == "document":  # each side keeps corpus order
        sides = tuple(map(sorted, sides))
    return tuple([r for i in side for r in units[i]] for side in sides)


def write_finetune_file(records: list[FineTuneRecord], path: str) -> None:
    """Write records in the hosted fine-tuning JSONL format (messages only)."""
    write_text(path, "".join(json.dumps(r.to_wire(), ensure_ascii=False) + "\n" for r in records))
