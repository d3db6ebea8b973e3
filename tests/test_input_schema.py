"""Corpus and prediction lines are read by their records' fields: a key
outside the schema is an error at any depth, naming the file, the line and
the dotted field, and a valid line reads as the record it spells."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mateval.corpus import (
    ENTITY_CLASSES,
    RELATION_SLOTS,
    Document,
    EntityMention,
    PredictionSet,
    RelationGroup,
    load_corpus,
    load_predictions,
)
from mateval.errors import SchemaViolationError

CORPUS = Path(__file__).parent / "data" / "corpus.jsonl"

# (command, corpus line or None for the fixture corpus, prediction line or None
# for none, field): each misspelling was once scored as if the key were absent
PROBES = {
    "prediction entites": ("eval-ner", None, {"doc_id": "d1", "entites": {"material": ["MgB2"]}},
                           "entites"),
    "prediction runn": ("eval-ner", None, {"doc_id": "d1", "runn": "run2"}, "runn"),
    "corpus entites": ("eval-ner", {"id": "d1", "text": "MgB2 at 39 K",
                                    "entites": [{"text": "MgB2", "class": "material"}]},
                       None, "entites"),
    "predicted Tc": ("eval-re", None, {"doc_id": "d1", "relations": [
        {"material": "MgB2", "Tc": "39 K"}]}, "relations[0].Tc"),
}


def _mateval(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "mateval.cli", *map(str, argv)],
                          capture_output=True, text=True)


@pytest.mark.parametrize("command, gold, predicted, field", PROBES.values(), ids=PROBES.keys())
def test_a_misspelt_key_exits_3_naming_file_line_and_field(tmp_path, command, gold, predicted,
                                                           field):
    corpus, preds = CORPUS, tmp_path / "preds.jsonl"
    preds.write_text(json.dumps(predicted) + "\n" if predicted else "")
    if gold:
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(gold) + "\n")
    result = _mateval(command, "--corpus", corpus, "--predictions", preds)
    bad = preds if predicted else corpus
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith(f"error: {bad}: line 1, field '{field}': unknown key")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["eval-ner", "eval-re"])
def test_an_unknown_document_exits_3_naming_file_and_line(tmp_path, command):
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"doc_id": "d1"}\n\n{"doc_id": "nope"}\n')
    result = _mateval(command, "--corpus", CORPUS, "--predictions", preds)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == (f"error: {preds}: line 3: prediction references "
                             "unknown document 'nope'\n")


GOLD = {"id": "d1", "text": "MgB2 becomes superconducting below 39 K.",
        "entities": [{"text": "MgB2", "class": "material"}, {"text": "39 K", "class": "tc"}]}


def test_unreachable_gold_exits_3_naming_the_slot(tmp_path):
    corpus, preds = tmp_path / "corpus.jsonl", tmp_path / "preds.jsonl"
    corpus.write_text(json.dumps({**GOLD, "relations": [{"material": "MgB2", "tc": "40 K"}]}))
    preds.write_text("")
    result = _mateval("eval-re", "--corpus", corpus, "--predictions", preds)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith(
        f"error: {corpus}: line 1, field 'relations[0].tc': "
        "'40 K' is not among the document's tc entities")


def test_a_gold_slot_names_its_entity_exactly(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({**GOLD, "relations": [{"material": "MgB2", "tc": "39  K"}]}))
    with pytest.raises(SchemaViolationError, match="'39  K' is not among the document's tc"):
        load_corpus(str(corpus))
    corpus.write_text(json.dumps({**GOLD, "relations": [{"material": "MgB2", "tc": "39 K"}]}))
    assert load_corpus(str(corpus))[0].relations == [RelationGroup("MgB2", "39 K")]


_texts = st.text(min_size=1, max_size=8).filter(lambda text: not text.isspace())
_entities = st.lists(st.fixed_dictionaries(
    {"text": _texts, "class": st.sampled_from(ENTITY_CLASSES)},
    optional={"span": st.lists(st.integers(), min_size=2, max_size=2)}), max_size=6)


@st.composite
def _corpus_lines(draw, doc_id=None) -> dict:
    """A valid corpus line: each relation slot names an entity of its class."""
    entities = draw(_entities)
    named = {slot: [e["text"] for e in entities if e["class"] == slot] for slot in RELATION_SLOTS}
    relations = []
    for _ in range(draw(st.integers(0, 3)) if named["material"] and named["tc"] else 0):
        relation = {slot: draw(st.sampled_from(named[slot])) for slot in ("material", "tc")}
        if named["pressure"] and draw(st.booleans()):
            relation["pressure"] = draw(st.sampled_from(named["pressure"]))
        relations.append(relation)
    line = {"id": doc_id or draw(_texts), "text": draw(_texts)}
    if relations or draw(st.booleans()):
        line["entities"] = entities
    if relations or draw(st.booleans()):
        line["relations"] = relations
    return line


_slots = st.one_of(st.none(), st.text(max_size=6))
_prediction_lines = st.fixed_dictionaries({"doc_id": _texts}, optional={
    "run": _texts,
    "entities": st.dictionaries(st.sampled_from(ENTITY_CLASSES), st.lists(st.text(), max_size=3)),
    "relations": st.lists(
        st.fixed_dictionaries({}, optional=dict.fromkeys(RELATION_SLOTS, _slots)), max_size=3),
})


def _document(line: dict) -> Document:
    """The document a corpus line spells, built by hand."""
    return Document(
        id=line["id"], text=line["text"],
        entities=[EntityMention(e["text"], e["class"], tuple(e["span"]) if "span" in e else None)
                  for e in line.get("entities", [])],
        relations=[RelationGroup(**r) for r in line.get("relations", [])])


def _prediction(line: dict) -> PredictionSet:
    """The prediction a line spells, built by hand: a blank slot is None."""
    relations = [RelationGroup(**{slot: value if value and value.strip() else None
                                  for slot, value in r.items()})
                 for r in line.get("relations", [])]
    return PredictionSet(line["doc_id"], line.get("run", "run1"), line.get("entities", {}),
                         relations)


def _write(path: Path, lines: list) -> str:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return str(path)


_LOADED = settings(max_examples=150, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


@_LOADED
@given(st.lists(_corpus_lines(), max_size=4, unique_by=lambda line: line["id"]),
       st.lists(_prediction_lines, max_size=4,
                unique_by=lambda line: (line["doc_id"], line.get("run", "run1"))))
def test_valid_lines_read_as_the_records_they_spell(tmp_path, corpus, predictions):
    assert load_corpus(_write(tmp_path / "c.jsonl", corpus)) == list(map(_document, corpus))
    loaded = load_predictions(_write(tmp_path / "p.jsonl", predictions))
    assert loaded == list(map(_prediction, predictions))


def _key_paths(value, path=()):
    """The path of every object key in a JSON value, at any depth."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield (*path, key)
            yield from _key_paths(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _key_paths(item, (*path, i))


def _renamed(value, path, new):
    """``value`` with the key at ``path`` renamed to ``new``, in its place."""
    head, *rest = path
    if not rest:
        return {new if key == head else key: item for key, item in value.items()}
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[head] = _renamed(value[head], rest, new)
    return copy


def _dotted(path) -> str:
    return "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in path)[1:]


# every key a corpus or prediction line may hold, at any depth
_KNOWN = {"id", "text", "entities", "relations", "class", "span", "doc_id", "run",
          *ENTITY_CLASSES, *RELATION_SLOTS}


@_LOADED
@given(st.one_of(st.tuples(st.just(load_corpus), _corpus_lines(doc_id="x")),
                 st.tuples(st.just(load_predictions), _prediction_lines)),
       st.data())
def test_a_renamed_key_names_its_line_and_dotted_field(tmp_path, case, data):
    load, line = case
    path = data.draw(st.sampled_from(list(_key_paths(line))))
    new = data.draw(st.text(min_size=1, max_size=6).filter(lambda key: key not in _KNOWN))
    first = {"id": "first", "text": "t"} if load is load_corpus else {"doc_id": "first"}
    target = tmp_path / "renamed.jsonl"
    target.write_text(json.dumps(first) + "\n\n" + json.dumps(_renamed(line, path, new)) + "\n",
                      encoding="utf-8")
    with pytest.raises(SchemaViolationError) as err:
        load(str(target))
    assert (err.value.line, err.value.field) == (3, _dotted((*path[:-1], new)))
    assert str(err.value).startswith(f"{target}: line 3, field ")
