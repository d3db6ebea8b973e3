"""Prompt assembly for NER and RE extraction.

Templates reproduce the extraction pipeline's wording exactly, including the
sample oddities in the in-context relation examples; determinism matters
more than tidiness here, since evaluations compare byte-identical reruns.
Assembly is pure: the same inputs (and shuffle seed) always produce the
same bundle. A bundle is prompt text and its task, nothing else: the model
a request names is the endpoint config's. This is the only module that
assembles prompt text: extraction sends a bundle's ``user_message()``, and
fine-tune preparation trains on its ``system`` and ``user`` text, so
training and inference prompts cannot drift.

Entity shuffling affects prompt construction only, never scoring. It uses
sub-seeds derived from (seed, doc id, ...) so prompts reproduce across
platforms and parallel schedules; the PRNG is Python's Mersenne Twister
seeded from a SHA-256 digest of the sub-seed key, taken from the builtin
module as ``random`` takes its SHA-512 (``hashlib`` maps OpenSSL's libcrypto).
"""

import random
from typing import NamedTuple

from .errors import EmptyTextError, NoEntitiesError

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

# system prompt shared by all NER requests; the passage rides along as context
NER_SYSTEM_TEMPLATE = """\
Use the following pieces of context to answer the user's question.
If you don't know the answer, just say that you don't know, don't try to make up an answer.
----------------
{text}"""

RE_SYSTEM_PROMPT = """\
You are a useful assistant, who knows about materials science, physics, chemistry and engineering.
You will be asked to compute relation extraction given a text and lists of entities.
If you are not sure, don't try to make up your answer, just answer "None"."""

MATERIAL_USER_PROMPT = """\
What are the superconductor materials mentioned in the text?
Only provide the mention of the materials. Avoid repetition.

The material can be expressed as follows:
- chemical formula with variables not substituted, like La(1-x)Fe(x),
- chemical formula with substitution variables like Zr 5 X 3 (X = Sb, Pb, Sn, Ge, Si and Al)
- with complete or partial abbreviations like (TMTSF) 2 PF 6,
- doping rates are represented as variables (x, y or other letters) appearing in the material names. These values can be used to complement the material variables (e.g. LaFexO1-x).
- doping rates as percentages, like 4%
- material chemical form with no variables e.g. LaFe03NaCl2 where the doping rates are included in the name
- chemical substitution or replacements, like (A is a random variable, can be any symbol): A = Ni, Cu, A = Ni, Ni substituted (which means A = Ni)
- chemical substitution with doping ratio, like (A is a random variable, can be any symbol): A = Ni and x = 0.2

If you don't know the answer, just say you don't know, don't try to make up an answer."""

QUANTITY_USER_PROMPT = """\
Quantity is either a Count, consisting of a value, or a Measurement,
consisting of a value and usually a unit. A Quantity can additionally include optional Modifiers like tolerances.
Include relevant text that indicates the application of a modifier, such as "between", "less than", "approximately",
or symbols such as ">" or "~" if they are contiguous with the span. Ignore them if they are separated by additional text.

Example: "The soda can's volume was 355 ml", the quantity is "355 ml".

Extract all the Quantities in the text."""

HINTS_LINE = "Here are some examples appearing in the text: {hints}"

FORMAT_INSTRUCTIONS_TEMPLATE = """\
The output should be formatted as a JSON instance that conforms to the JSON schema below.

As an example, for the schema {"properties": {"foo": {"title": "Foo", "description": "a list of strings", "type": "array", "items": {"type": "string"}}}, "required": ["foo"]}
the object {"foo": ["bar", "baz"]} is a well-formatted instance of the schema. The object {"properties": {"foo": ["bar", "baz"]}} is not well-formatted.

Here is the output schema:
```
{schema}
```"""

MATERIAL_SCHEMA = (
    '{"properties": {"material": {"title": "Material", "description": '
    '"Material or sample name, chemical formula, acronym. Include everything '
    'that describes the material.", "type": "string"}, "material_extra_info": '
    '{"title": "Material Extra Info", "description": "Additional information '
    'about the material", "type": "string"}}, "required": ["material"]}'
)

QUANTITY_SCHEMA = (
    '{"properties": {"quantity": {"title": "Quantity", "description": '
    '"The quantity mention: value with its unit and contiguous modifiers", '
    '"type": "string"}, "unit": {"title": "Unit", "description": '
    '"Unit of measurement, if any", "type": "string"}}, '
    '"required": ["quantity"]}'
)

RELATION_SCHEMA = (
    '{"properties": {"material": {"title": "Material", "type": "string"}, '
    '"tc": {"title": "Tc", "description": "Superconducting critical '
    'temperature", "type": "string"}, "pressure": {"title": "Pressure", '
    '"type": "string"}}, "required": ["material", "tc"]}'
)

RE_USER_TEMPLATE = """\
Given a text between triple quotes and a list of entities, find the relations between entities of different classes:
\"\"\"
{text}
\"\"\"

{entities}"""

RE_EXAMPLES_BLOCK = """\
Use the following examples separated by "--------" to learn the task:
--------
text 1: The researchers of Mg have discovered that MgB2 and MgB3 are superconducting at 29-31 K at ambient pressure.

entities 1:
 materials: MgB2, Mg, MgB3
 tcs: 29-31 K
 pressure: ambient pressure

Result 1:
 material: MgB2,
 tc: 29-31K,
 pressure: ambient pressure:

 material: MgB3,
 tc: 29-31K,
 pressure: ambient pressure:

--------
Text 2: We are studying the material La 3 A 2 Ge 2 (A = Ir, Rh). The critical temperature T C = 4.7 K discovered for La 3 Ir 2 Ge 2 in this work is by about 1.2 K higher than that found for La 3 Rh 2 Ge 2.

entities 2:
 materials: La 3 A 2 Ge 2 (A = Ir, Rh), La 3 Ir 2 Ge 2, La 3 Rh 2 Ge 2
 tcs: 4.7 K, 1.2 K

Result 2:
 material: La 3 Ir 2 Ge 2
 tc: 4.7 K

--------
Text 3: The experimental discovery of the high-temperature superconducting state in the compressed hydrogen and sulfur systems H2S (TC = 150 K for p = 150 GPa) and H3S (TC = 203 K for p = 150 GPa)

entities 3:
 materials: H2S, H3S
 tcs: 150 K, 203 K
 pressures: 150 GPa, 150 GPa

Result 3:
 material: H2S,
 tc: 4.7 K,
 pressure: 150 GPa

 material: H3S,
 tc: 150 K,
 pressure: 150 GPa
--------"""

RE_RULES_BLOCK = """\
Apply strictly the following rules:
    - if material is not specified, ignore the relation block,
    - if tc is not specified in absolute values, ignore the relation block"""

# entity classes rendered into RE prompts, with their list labels
RE_ENTITY_LABELS = (("material", "materials"), ("tc", "tcs"), ("pressure", "pressures"))


class PromptBundle(NamedTuple):
    """The prompt text of one chat request, and its task (the fixture key)."""

    system: str
    user: str
    format_instructions: str
    task: str

    def user_message(self) -> str:
        """User content as sent over the wire (format instructions last)."""
        return f"{self.user}\n\n{self.format_instructions}"


def build_ner_prompt(task: str, text: str, hints: list[str] | None = None) -> PromptBundle:
    """Assemble the NER prompt for ``ner_material`` or ``ner_quantity``.

    The passage is carried in the system prompt; ``hints`` (suggestions from
    an external tagger, possibly wrong) are inserted as examples the model
    may ignore.
    """
    if task == "ner_material":
        user, schema = MATERIAL_USER_PROMPT, MATERIAL_SCHEMA
    elif task == "ner_quantity":
        user, schema = QUANTITY_USER_PROMPT, QUANTITY_SCHEMA
    else:
        raise ValueError(f"unknown NER task {task!r}")
    if not text.strip():
        raise EmptyTextError("passage text is empty")
    if hints:
        user = f"{user}\n\n{HINTS_LINE.replace('{hints}', ', '.join(hints))}"
    return PromptBundle(
        system=NER_SYSTEM_TEMPLATE.replace("{text}", text),
        user=user,
        format_instructions=FORMAT_INSTRUCTIONS_TEMPLATE.replace("{schema}", schema),
        task=task,
    )


def render_entity_lists(entities: dict[str, list[str]]) -> str:
    """Render per-class entity lists as the labelled block used in prompts."""
    lines = []
    for class_, label in RE_ENTITY_LABELS:
        values = entities.get(class_, [])
        if values:
            lines.append(f"{label}: {', '.join(values)}")
    return "\n".join(lines)


def build_re_prompt(
    text: str,
    entities: dict[str, list[str]],
    mode: str = "zero",
    shuffle_seed: int | None = None,
) -> PromptBundle:
    """Assemble the RE prompt from a passage and its entity lists.

    ``mode="few"`` injects the three in-context examples between ``--------``
    delimiters. When ``shuffle_seed`` is given, each class list is permuted
    with the deterministic PRNG before rendering (same seed, same prompt).
    """
    if not text.strip():
        raise EmptyTextError("passage text is empty")
    if not any(entities.get(class_) for class_, _ in RE_ENTITY_LABELS):
        raise NoEntitiesError("no entities supplied for relation extraction")
    if mode not in ("zero", "few"):
        raise ValueError(f"unknown prompt mode {mode!r}")
    if shuffle_seed is not None:
        entities = shuffle_entities(entities, shuffle_seed)
    # one pass: a passage holding "{entities}" (or an entity "{text}") stays as written
    user = RE_USER_TEMPLATE.format(text=text, entities=render_entity_lists(entities))
    if mode == "few":
        user = f"{user}\n\n{RE_EXAMPLES_BLOCK}"
    user = f"{user}\n\n{RE_RULES_BLOCK}"
    return PromptBundle(
        system=RE_SYSTEM_PROMPT,
        user=user,
        format_instructions=FORMAT_INSTRUCTIONS_TEMPLATE.replace("{schema}", RELATION_SCHEMA),
        task="re",
    )


def derive_subseed(seed: int, *parts: str) -> int:
    """Stable 64-bit sub-seed from a seed and context parts (e.g. doc id)."""
    key = ":".join([str(seed), *map(str, parts)])
    return int(sha256(key.encode("utf-8")).hexdigest()[:16], 16)


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


def re_prompt_seed(seed: int, doc_id: str, run_label: str) -> int:
    """Per-document, per-run sub-seed for shuffled prompt construction."""
    return derive_subseed(seed, doc_id, run_label)
