"""Seeded input generator for the benchmark workloads.

Everything mateval reads during a benchmark run is written here: a corpus,
NER and RE predictions, dry-run fixtures in both response formats and the
replies the stub chat server sends. The same (workload, seed) pair always
gives byte-identical files, and the generator imports nothing from mateval.

Material strings follow the grammar the formula matcher targets: fused and
spaced stoichiometry, doping variables, ``(X = ...)`` and ``with x = ...``
clauses, lexicon adjuncts, mixtures and names no parser can read. The
vocabulary is a shared head of common materials plus a long tail of one-off
formulas, so how much the inputs share is fixed by the workload, not by luck.

Every choice of kind (how many elements, which clause, spaced or fused,
which prediction rewrite, ...) reads a fixed schedule (``Mix``), so the mix
of kinds, and with it the work per document, is the same for every seed.
So is which head ranks each document names. The seed picks the rest:
element symbols, doping values, adjunct phrases and reply formats, and so
which strings match.
"""

import bisect
import itertools
import json
import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

ELEMENTS = (
    "La", "Sr", "Cu", "O", "Y", "Ba", "Bi", "Ca", "Tl", "Hg", "Fe", "As", "Se",
    "Te", "K", "Co", "Ni", "Mg", "B", "Nb", "Sn", "Ge", "Ru", "Pb", "Sb", "Zn",
    "Mn", "Ti", "V", "Cr", "Ce", "Nd", "Sm", "Eu", "Gd", "Pr", "Li", "Na", "Rb",
    "Cs", "P", "S", "C", "N", "Al", "Ga", "In", "Ir", "Pt", "Pd", "Rh", "Zr",
    "Hf", "Ta", "Sc", "Lu", "Yb", "Er", "Ho", "Tb", "Mo", "W",
)
AMOUNTS = ("", "", "", "2", "2", "3", "4", "5", "6", "7", "0.5", "1.5", "0.25")
DOPING = ("0.1", "0.2", "0.25", "0.3", "0.4", "0.5", "0.6")
PLACEHOLDERS = ("X", "A", "R", "M")
# phrases from mateval's bundled adjunct lexicon, so the parser strips them
LEXICON_PREFIXES = ("hole-doped", "electron-doped", "polycrystalline", "bulk",
                    "infinite-layer")
LEXICON_SUFFIXES = ("single crystal", "thin film", "superconductor", "sample")
UNPARSEABLE = ("cuprate", "iron pnictide", "heavy-fermion compound",
               "organic charge-transfer salt", "nickelate", "kagome metal")
COPY_SHARE = 0.3  # predictions that copy their gold material verbatim
PLANT_EVERY = 10  # every tenth document gets a clause material and one of its members
SENTENCES = (
    "We report that {m} becomes superconducting below {t}.",
    "Resistivity data show that {m} has a transition at {t}.",
    "A diamagnetic signal appears in {m} near {t}.",
    "Specific-heat anomalies place the critical temperature of {m} at {t}.",
)


class Mix:
    """Equidistributed rolls in [0, 1) that depend only on how many were drawn.

    Each stream is a Weyl sequence ``frac(k * sqrt(p))`` with its own prime
    ``p``, so every kind's share over a workload is fixed up to one draw.
    """

    PRIMES = {"elements": 2, "amount": 3, "clause": 5, "values": 7, "spacing": 11,
              "adjunct": 13, "material": 17, "head": 19, "predict": 23, "block": 29}

    def __init__(self):
        self._drawn: dict[str, int] = defaultdict(int)

    def roll(self, stream: str) -> float:
        self._drawn[stream] += 1
        return self._drawn[stream] * math.sqrt(self.PRIMES[stream]) % 1.0

    def pick(self, stream: str, options):
        return options[int(self.roll(stream) * len(options))]


@dataclass(frozen=True)
class Workload:
    docs: int
    materials: tuple[int, int]  # gold materials per document, inclusive range
    runs: int
    head: int  # size of the shared vocabulary head
    head_share: float  # share of a document's gold materials taken from the head


# head and head_share give ner-tiers and pipeline-offline about 63% distinct
# strings among gold and predicted materials: the share of the one measured
# corpus on record (7,557 distinct strings in about 12k, from 300 docs x 10
# materials x 3 runs). endpoint-stub has a single run, so it shares less (~72%).
WORKLOADS = {
    "ner-tiers": Workload(docs=120, materials=(8, 12), runs=3, head=250, head_share=0.3),
    "pipeline-offline": Workload(docs=60, materials=(3, 6), runs=3, head=40, head_share=0.3),
    "endpoint-stub": Workload(docs=10, materials=(3, 5), runs=1, head=10, head_share=0.5),
}


@dataclass(frozen=True)
class Material:
    """A material expression kept in structured form so it can be rewritten."""

    parts: tuple[tuple[str, str], ...] = ()  # (symbol, amount text, "" for 1)
    spaced: bool = False
    clause: str = ""
    prefix: str = ""
    suffix: str = ""
    verbatim: str = ""  # mixtures and names rendered as-is
    doping: tuple[str, ...] = ()  # values listed in a "with x = ..." clause

    def render(self) -> str:
        if self.verbatim:
            core = self.verbatim
        elif self.spaced:
            core = " ".join(f"{s} {a}" if a else s for s, a in self.parts)
        else:
            core = "".join(s + a for s, a in self.parts)
        text = f"{self.prefix} {core}" if self.prefix else core
        if self.suffix:
            text = f"{text} {self.suffix}"
        return text + self.clause


def _formula(rng: random.Random, mix: Mix, doped: bool = False) -> Material:
    """A random formula; ``doped`` forces a ``with x = ...`` clause."""
    symbols = rng.sample(ELEMENTS, mix.pick("elements", (2, 3, 4, 5)))
    parts = [(s, mix.pick("amount", AMOUNTS)) for s in symbols]
    clause, values = "", ()
    roll = 0.0 if doped else mix.roll("clause")
    if roll < 0.25:
        i = rng.randrange(len(parts) - 1)
        base = rng.choice(("1", "2", "1", "3"))
        parts[i] = (parts[i][0], f"{base}-x")
        parts[i + 1] = (parts[i + 1][0], "x")
        if doped or roll < 0.25 * 0.35:
            values = tuple(sorted(rng.sample(DOPING, mix.pick("values", (2, 3)))))
            listed = ", ".join(values[:-1]) + " and " + values[-1]
            noun = rng.choice(("", "samples "))
            clause = f" {noun}with x = {listed}"
    elif roll < 0.33:
        i = rng.randrange(len(parts))
        letter = rng.choice(PLACEHOLDERS)
        candidates = rng.sample([e for e in ELEMENTS if e not in symbols],
                                mix.pick("values", (2, 3)))
        parts[i] = (letter, parts[i][1])
        clause = f" ({letter} = {', '.join(candidates)})"
    material = Material(parts=tuple(parts), spaced=mix.roll("spacing") < 0.35, clause=clause,
                        doping=values)
    roll = mix.roll("adjunct")
    if doped:
        pass
    elif roll < 0.08:
        material = replace(material, prefix=rng.choice(LEXICON_PREFIXES))
    elif roll < 0.14 and not clause:
        material = replace(material, suffix=rng.choice(LEXICON_SUFFIXES))
    return material


def _material(rng: random.Random, mix: Mix) -> Material:
    roll = mix.roll("material")
    if roll < 0.03:
        a, b = _formula(rng, mix), _formula(rng, mix)
        if roll < 0.015:
            return Material(verbatim=f"{a.render()} / {b.render()}")
        return Material(verbatim=f"{a.render()}-{b.render()} in molar ratio 1:2")
    if roll < 0.07:
        return Material(verbatim=rng.choice(UNPARSEABLE))
    if roll < 0.09:
        return Material(verbatim=f"{_formula(rng, mix).render()} wires")
    return _formula(rng, mix)


def _member(material: Material, value: str) -> Material:
    """The concrete compound a doping clause lists, e.g. x = 0.2 of La2-xSrxCuO4."""
    parts = []
    for symbol, amount in material.parts:
        if amount.endswith("-x"):
            amount = f"{float(amount[:-2]) - float(value):g}"
        elif amount == "x":
            amount = value
        parts.append((symbol, amount))
    return replace(material, parts=tuple(parts), clause="", doping=())


def _widen_space(text: str, rng: random.Random) -> str:
    spaces = [i for i, ch in enumerate(text) if ch == " "]
    if not spaces:
        return text
    i = rng.choice(spaces)
    return text[:i] + "  " + text[i + 1:]


def _predict(gold: Material, rng: random.Random, mix: Mix) -> str:
    """One predicted rendering of a gold material."""
    roll = mix.roll("predict")
    if roll < COPY_SHARE or gold.verbatim:
        return gold.render()
    roll = (roll - COPY_SHARE) / (1 - COPY_SHARE)  # the rewrites share the rest
    if roll < 0.20:
        return _widen_space(gold.render(), rng)
    if roll < 0.46:
        return replace(gold, spaced=not gold.spaced).render()
    if roll < 0.66:
        if gold.prefix:
            return replace(gold, prefix="").render()
        return replace(gold, prefix=rng.choice(LEXICON_PREFIXES)).render()
    if roll < 0.82:
        if gold.suffix:
            return gold.render() + "s"
        return replace(gold, suffix="crystals", clause="").render()
    parts = list(gold.parts)
    i = rng.randrange(len(parts))
    parts[i] = (rng.choice(ELEMENTS), parts[i][1])
    return replace(gold, parts=tuple(parts)).render()


def _tc(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return f"{rng.randint(4, 140)}.{rng.randint(1, 9)} K"
    return f"{rng.randint(4, 160)} K"


def _relation_blocks(doc: dict, rng: random.Random, mix: Mix) -> list[dict]:
    """Model-style RE blocks: copies, partial and unsupplied ones, spurious ones."""
    tcs = [e["text"] for e in doc["entities"] if e["class"] == "tc"]
    materials = [e["text"] for e in doc["entities"] if e["class"] == "material"]
    blocks = []
    for rel in doc["relations"]:
        roll = mix.roll("block")
        block = dict(rel)
        if roll < 0.60:
            pass
        elif roll < 0.68:
            block["material"] = _widen_space(block["material"], rng)
        elif roll < 0.76:
            del block["tc"]  # partial: dropped without tc
        elif roll < 0.80:
            del block["material"]  # partial: dropped without material
        elif roll < 0.87:
            block["material"] = _formula(rng, mix).render()  # not supplied: dropped
        elif roll < 0.93:
            others = [t for t in tcs if t != rel["tc"]]
            block["tc"] = rng.choice(others) if others else f"{rng.randint(200, 300)} K"
        elif roll < 0.97:
            block.pop("pressure", None)
        else:
            continue
        blocks.append(block)
    if mix.roll("block") < 0.15:
        blocks.append({"material": rng.choice(materials), "tc": rng.choice(tcs)})
    return blocks


def _render_ner(texts: list[str], fmt: str, rng: random.Random) -> str:
    if fmt == "pseudo":
        if not texts:
            return "None"
        return "\n".join(["materials:"] + [f" - {t}" for t in texts])
    style = rng.randrange(5)
    if style == 0:
        return json.dumps(texts)
    if style == 1:
        return json.dumps([{"material": t} for t in texts])
    if style == 2:
        return json.dumps({"materials": texts})
    if style == 3:
        return "```json\n" + json.dumps(texts, indent=1) + "\n```"
    if not texts:
        return "[]"
    return json.dumps(texts)[:-1] + ",]"  # trailing comma, repaired by the parser


def _render_re(blocks: list[dict], fmt: str, rng: random.Random) -> str:
    if fmt == "pseudo":
        if not blocks:
            return "None"
        return "\n\n".join(", ".join(f"{k}: {v}" for k, v in b.items()) for b in blocks)
    style = rng.randrange(3)
    if style == 0:
        return json.dumps(blocks)
    if style == 1:
        return json.dumps({"relations": blocks})
    return "```json\n" + json.dumps(blocks, indent=1) + "\n```"


def _jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
                    encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under ``out`` and return their summary.

    Files: ``corpus.jsonl``, ``ner_predictions.jsonl`` and
    ``re_predictions.jsonl`` (what a correct extraction yields),
    ``fixtures/<doc>/<task>/<run>.txt`` (dry-run replies, JSON or pseudo)
    and ``chat_replies.json`` (stub chat replies keyed by document id).
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    mix = Mix()
    head = [_material(rng, mix) for _ in range(spec.head)]
    # cumulative Zipf weights; the schedule, not the seed, picks head ranks
    weights = list(itertools.accumulate((rank + 1) ** -0.5 for rank in range(spec.head)))
    docs, golds = [], {}
    for n in range(1, spec.docs + 1):
        doc_id = f"d{n:04d}"
        # sizes follow a fixed schedule, so every seed compares as many pairs
        lo, hi = spec.materials
        count = lo + n % (hi - lo + 1)
        mats = []
        while len(mats) < round(count * spec.head_share):
            pick = head[bisect.bisect(weights, mix.roll("head") * weights[-1])]
            if pick not in mats:
                mats.append(pick)
        mats += [_material(rng, mix) for _ in range(count - len(mats))]
        rng.shuffle(mats)
        if n % PLANT_EVERY == 0:
            # a clause material and one member it lists: predicting two
            # members makes a greedy assignment undercount (see the predictions below)
            mats[0] = _formula(rng, mix, doped=True)
            mats[1] = _member(mats[0], mats[0].doping[0])
        n_rel = 1 + n % min(3, count)
        tcs = [_tc(rng) for _ in range(n_rel + n % 2)]
        pressures = [f"{rng.randint(2, 250)} GPa"] if n % 3 == 0 else []
        texts = [m.render() for m in mats]
        relations = []
        for i, mat in enumerate(rng.sample(sorted(set(texts)), min(n_rel, len(set(texts))))):
            rel = {"material": mat, "tc": tcs[i]}
            if pressures and rng.random() < 0.6:
                rel["pressure"] = pressures[0]
            relations.append(rel)
        sentences = [f"Batch {doc_id}."]
        for i, text in enumerate(texts):
            sentences.append(rng.choice(SENTENCES).format(m=text, t=tcs[i % len(tcs)]))
        if pressures:
            sentences.append(f"All data were taken at {pressures[0]}.")
        entities = [{"text": t, "class": "material"} for t in texts]
        entities += [{"text": t, "class": "tc"} for t in tcs]
        entities += [{"text": p, "class": "pressure"} for p in pressures]
        docs.append({"id": doc_id, "text": " ".join(sentences),
                     "entities": entities, "relations": relations})
        golds[doc_id] = mats

    ner_rows, re_rows, chat_replies = [], [], {}
    fixtures = out / "fixtures"
    for run in range(1, spec.runs + 1):
        label = f"run{run}"
        for n, doc in enumerate(docs):
            # one gold material in ten is missed; 0-2 spurious ones are added
            planted = (n + 1) % PLANT_EVERY == 0
            predicted = [_predict(g, rng, mix) for i, g in enumerate(golds[doc["id"]])
                         if (7 * n + 3 * run + i) % 10 and not (planted and i < 2)]
            if planted:
                clause_gold, member_gold = golds[doc["id"]][:2]
                predicted += [_member(clause_gold, clause_gold.doping[-1]).render(),
                              member_gold.render()]
            for _ in range((0, 1, 1, 2, 0)[(n + run) % 5]):
                predicted.append(_material(rng, mix).render())
            rng.shuffle(predicted)
            blocks = _relation_blocks(doc, rng, mix)
            ner_rows.append({"doc_id": doc["id"], "run": label,
                             "entities": {"material": predicted}})
            re_rows.append({"doc_id": doc["id"], "run": label, "relations": blocks})
            for task, reply in (
                ("ner_material", _render_ner(predicted, rng.choice(("json", "pseudo")), rng)),
                ("re", _render_re(blocks, rng.choice(("json", "pseudo")), rng)),
            ):
                path = fixtures / doc["id"] / task / f"{label}.txt"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(reply, encoding="utf-8")
            if run == 1:
                chat_replies[doc["id"]] = _render_ner(predicted, "json", rng)

    _jsonl(out / "corpus.jsonl", docs)
    _jsonl(out / "ner_predictions.jsonl", ner_rows)
    _jsonl(out / "re_predictions.jsonl", re_rows)
    (out / "chat_replies.json").write_text(json.dumps(chat_replies, sort_keys=True),
                                          encoding="utf-8")
    return summarize(docs, ner_rows, spec)


def summarize(docs: list[dict], ner_rows: list[dict], spec: Workload) -> dict:
    """Size and sharing figures of a generated workload."""
    gold = {d["id"]: [e["text"] for e in d["entities"] if e["class"] == "material"]
            for d in docs}
    strings, pairs, distinct_pairs = [], 0, set()
    for text_list in gold.values():
        strings += text_list
    for row in ner_rows:
        preds = row["entities"]["material"]
        strings += preds
        expected = gold[row["doc_id"]]
        pairs += len(expected) * len(preds)
        distinct_pairs.update((g, p) for g in expected for p in preds)
    return {
        "docs": len(docs),
        "runs": spec.runs,
        "strings": len(strings),
        "distinct_string_share": len(set(strings)) / len(strings),
        "pairs_per_tier": pairs,
        "distinct_pair_share": len(distinct_pairs) / pairs if pairs else 0.0,
    }


def planted(doc_id: str) -> bool:
    """Whether a document carries the clause-and-member pair greedy matching undercounts."""
    return int(doc_id[1:]) % PLANT_EVERY == 0


_DOC_ID_RE = re.compile(r"Batch (d\d+)\.")


def doc_id_in(text: str) -> str | None:
    """Document id embedded in a prompt built from a generated document."""
    m = _DOC_ID_RE.search(text)
    return m.group(1) if m else None
