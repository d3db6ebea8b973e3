"""Parse free-text material expressions into normalized chemical compositions.

A composition maps element symbols (or single-letter placeholders such as
``X``, ``A``, ``R``) to amounts. An amount is either a positive ``float`` or a
canonical symbolic string over one variable (``"x"``, ``"1-x"``, ``"2+y"``).
Substitution clauses such as ``(X = Sb, Pb, Sn)`` or ``with x = 0.35, 0.45
and 0.5`` are captured separately and can be expanded into concrete variants.

Spaced (``La 2-x Sr x CuO 4``) and fused (``La2-xSrxCuO4``) renderings parse
to identical compositions. Mixtures (``A/B in molar ratio``) are rejected
rather than mis-parsed.
"""

import itertools
import math
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .elements import default_adjuncts, is_element
from .errors import (
    EmptyInputError,
    ExpansionLimitError,
    MixtureNotSupportedError,
    UnparseableMaterialError,
)

Amount = float | str
Composition = dict[str, Amount]

EXPANSION_CAP = 256
DEFAULT_TOL = 1e-6

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
_PERCENT_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?\s*%$")
# a sign spaced between a decimal and a lone letter, as in "O 7 - δ"
_SPACED_SIGN_RE = re.compile(r"(\d)\s*([+-])\s*([^\W\d_])(?![^\W\d_])")
# trailing "(X = Sb, Pb and Sn)" style clause
_PAREN_CLAUSE_RE = re.compile(r"\(\s*([A-Za-z])\s*=\s*([^()]*)\)\s*$")
# trailing "samples with x = 0.35, 0.45 and 0.5" / "where R = Zn and Ni" clause
_TEXT_CLAUSE_RE = re.compile(
    r"(?:\b(samples?|compounds?|crystals?)\s+)?\b(?:where|with|for)\s+"
    r"([A-Za-z])\s*=\s*(.+)$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class SubstitutionSet:
    """Binds one placeholder variable to its candidate values.

    Candidates are homogeneous: either all element symbols (replacing a
    placeholder element) or all numeric doping values (evaluated into
    symbolic amounts).
    """

    variable: str
    candidates: tuple[Amount, ...]

    @property
    def is_numeric(self) -> bool:
        return bool(self.candidates) and isinstance(self.candidates[0], float)


@dataclass
class ParsedMaterial:
    """Structured form of a material expression."""

    source: str
    core_text: str
    composition: Composition
    substitutions: list[SubstitutionSet] = field(default_factory=list)
    free_variables: set[str] = field(default_factory=set)
    adjuncts: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "core_text": self.core_text,
            "composition": dict(self.composition),
            "substitutions": [
                {"variable": s.variable, "candidates": list(s.candidates)}
                for s in self.substitutions
            ],
            "free_variables": sorted(self.free_variables),
            "adjuncts": list(self.adjuncts),
        }


@lru_cache(maxsize=16)
def _edge_phrases(lexicon: tuple[str, ...] | None) -> tuple[tuple[str, int], ...]:
    """``(lowered phrase, length of the phrase)``, longest first (a stable sort);
    ``None``: bundled. Lowering can change a length (``"İ".lower()`` is two code
    points), so the text is sliced by the phrase's own length."""
    phrases = sorted(default_adjuncts() if lexicon is None else lexicon, key=len, reverse=True)
    return tuple((p.lower(), len(p)) for p in phrases)


def strip_adjuncts(
    raw: str, lexicon: tuple[str, ...] | None = None
) -> tuple[str, list[str]]:
    """Remove leading/trailing descriptor phrases from a material expression.

    Matching is case-insensitive, longest phrase first, and respects word
    boundaries; the removed surface strings are returned in removal order
    (prefixes left to right, then suffixes right to left). A phrase that is
    all the text left is kept as the core, so ``"BULK"`` (the rendering of
    ``B U L K``) stays a formula.

    Args:
        raw: material expression, e.g. ``"hole-doped La 2-x Sr x CuO 4"``.
        lexicon: descriptor phrases; ``None`` means the bundled list, and
            an empty lexicon strips nothing.

    Returns:
        ``(core, adjuncts)`` — the trimmed expression and removed phrases.

    Raises:
        EmptyInputError: if ``raw`` is whitespace-only.
    """
    text = raw.strip()
    if not text:
        raise EmptyInputError("material expression is empty")
    phrases = _edge_phrases(None if lexicon is None else tuple(lexicon))
    adjuncts: list[str] = []

    def _strip_edge(s: str, suffix: bool) -> tuple[str, str | None]:
        for p, n in phrases:
            if suffix:
                if len(s) > n and s[-n - 1].isspace() and s[len(s) - n:].lower() == p:
                    return s[:-n].strip(), s[len(s) - n:]
            else:
                if len(s) > n and s[n].isspace() and s[:n].lower() == p:
                    return s[n:].strip(), s[:n]
        return s, None

    while text:
        text, removed = _strip_edge(text, suffix=False)
        if removed is None:
            break
        adjuncts.append(removed)
    while text:
        text, removed = _strip_edge(text, suffix=True)
        if removed is None:
            break
        adjuncts.append(removed)
    return text, adjuncts


def canonicalize_amount(text: str) -> str:
    """Canonicalize a symbolic amount: drop whitespace, lowercase the variable.

    Accepts ``v`` or ``c±v`` where ``c`` is a decimal and ``v`` a letter
    (``x``, ``δ``, ...): the amount grammar the parser reads. Idempotent.
    Raises UnparseableMaterialError for anything richer.
    """
    amount = _parse_amount_text(text)
    if isinstance(amount, float):
        raise UnparseableMaterialError(f"unsupported amount expression: {text!r}")
    return amount


def _parse_amount_text(text: str) -> Amount:
    """A whole amount (``c``, ``c±v`` or ``v``); whitespace is ignored."""
    squeezed = re.sub(r"\s+", "", text).lower()
    read = _read_amount(squeezed, 0)
    if read is None or read[1] != len(squeezed):
        raise UnparseableMaterialError(f"unsupported amount expression: {text!r}")
    return read[0]


def _variable(ch: str) -> str | None:
    """The canonical (lowercase) variable a character names, or None."""
    low = ch.lower()
    return low if len(low) == 1 and low.islower() else None


def _finite(value: float) -> float:
    """``value`` if finite: a decimal of 309+ digits reads as ``inf``, and
    ``inf - inf`` is NaN, which no tolerance comparison can judge."""
    if not math.isfinite(value):
        raise UnparseableMaterialError(f"amount out of range: {value}")
    return value


def _read_amount(text: str, i: int) -> tuple[Amount, int] | None:
    """Read the one amount grammar at ``text[i:]``: ``c``, ``c±v`` or ``v``.

    ``c`` is a decimal and ``v`` any cased letter; a bare ``v`` must be
    lowercase, since an uppercase letter starts the next element symbol.
    Returns the amount (float or canonical string) and the end index.
    """
    m = _NUMBER_RE.match(text, i)
    if m is None:
        if i < len(text) and _variable(text[i]) == text[i]:
            return text[i], i + 1
        return None
    j = m.end()
    value = _finite(float(m.group(0)))
    var = _variable(text[j + 1]) if j + 1 < len(text) and text[j] in "+-" else None
    if var:
        return f"{m.group(0)}{text[j]}{var}", j + 2
    return value, j


def _is_placeholder(letter: str) -> bool:
    return len(letter) == 1 and letter.isupper() and not is_element(letter)


def _join_spaced_sign(m: re.Match) -> str:
    """``7 - δ`` -> ``7-δ`` when the letter is a lowercase variable."""
    return "".join(m.groups()) if _variable(m.group(3)) == m.group(3) else m.group(0)


def _scan_amount(token: str, i: int) -> tuple[Amount | None, int]:
    """Read an optional amount fused after an element inside ``token``."""
    if i < len(token) and token[i] == "(":
        j = token.find(")", i)
        if j == -1:
            raise UnparseableMaterialError(f"unbalanced parenthesis in {token!r}")
        return _parse_amount_text(token[i + 1: j]), j + 1
    read = _read_amount(token, i)
    if read is None:
        return None, i
    amount, j = read
    if isinstance(amount, str) and j < len(token):
        if len(amount) > 1 and token[j].islower():
            raise UnparseableMaterialError(f"ambiguous variable in amount: {token!r}")
        if len(amount) == 1 and not (token[j].isupper() or token[j] == "("):
            raise UnparseableMaterialError(f"cannot read amount in {token!r}")
    return amount, j


def _parse_fragment(token: str) -> list[tuple[str, Amount | None]]:
    """Parse a fused fragment like ``CuO``, ``La2O3`` or ``Cu1-xNixO2``."""
    pairs: list[tuple[str, Amount | None]] = []
    i = 0
    while i < len(token):
        ch = token[i]
        if not ch.isupper():
            raise UnparseableMaterialError(
                f"expected element symbol at {token[i:]!r}"
            )
        symbol = None
        two = token[i: i + 2]
        if len(two) == 2 and two[1].islower() and is_element(two):
            symbol, i = two, i + 2
        elif is_element(ch) or _is_placeholder(ch):
            symbol, i = ch, i + 1
        else:
            raise UnparseableMaterialError(f"unknown element symbol at {token[i:]!r}")
        amount, i = _scan_amount(token, i)
        pairs.append((symbol, amount))
    return pairs


def _split_candidates(body: str) -> list[str]:
    return [p for p in re.split(r"\s*,\s*|\s+and\s+", body.strip()) if p]


def _parse_clause(variable: str, body: str) -> list[SubstitutionSet]:
    """Turn a clause body like ``"Sb, Pb and Sn"`` or ``"Ni and x = 0.2"``
    into substitution sets. A ``name = value`` token starts a new set."""
    groups: list[tuple[str, list[str]]] = [(variable, [])]
    for part in _split_candidates(body):
        m = re.fullmatch(r"([A-Za-z])\s*=\s*(.+)", part)
        if m:
            groups.append((m.group(1), [m.group(2).strip()]))
        else:
            groups[-1][1].append(part)
    sets = []
    for var, cands in groups:
        if not cands:
            continue
        if all(_NUMBER_RE.fullmatch(c) for c in cands):
            values: list[Amount] = [_finite(float(c)) for c in cands]
            var = var.lower()
        elif all(is_element(c) for c in cands):
            values = list(cands)
            var = var.upper()
        else:
            raise UnparseableMaterialError(
                f"substitution candidates are neither all numeric nor all "
                f"elements: {cands!r}"
            )
        deduped = list(dict.fromkeys(values))
        sets.append(SubstitutionSet(variable=var, candidates=tuple(deduped)))
    return sets


def parse_material(
    raw: str, lexicon: tuple[str, ...] | None = None
) -> ParsedMaterial:
    """Parse a material expression into a :class:`ParsedMaterial`.

    Handles spaced and fused stoichiometry, doping variables, trailing
    substitution clauses, and descriptor stripping. Percent dopings are
    recorded as adjunct annotations, not folded into amounts.

    Raises:
        EmptyInputError: whitespace-only input.
        MixtureNotSupportedError: multi-compound separators present.
        UnparseableMaterialError: no valid element token, or grammar exceeded.
    """
    core, adjuncts = strip_adjuncts(raw, lexicon)
    # a slash at a token edge separates formula units; one buried inside a
    # token (e.g. "1-x/2") is rejected later as an unsupported amount
    slash_separated = any(
        t == "/" or t.startswith("/") or t.endswith("/") for t in core.split()
    )
    if slash_separated or "in molar ratio" in core.lower():
        raise MixtureNotSupportedError(f"mixture expression rejected: {raw!r}")

    substitutions: list[SubstitutionSet] = []
    while True:
        m = _PAREN_CLAUSE_RE.search(core)
        if not m:
            break
        substitutions = _parse_clause(m.group(1), m.group(2)) + substitutions
        core = core[: m.start()].strip()
    m = _TEXT_CLAUSE_RE.search(core)
    if m:
        noun, var, body = m.groups()
        substitutions = substitutions + _parse_clause(var, body)
        if noun:
            adjuncts.append(noun)
        core = core[: m.start()].strip()

    pairs: list[tuple[str, Amount | None]] = []
    for token in _SPACED_SIGN_RE.sub(_join_spaced_sign, core).split():
        if _PERCENT_TOKEN_RE.fullmatch(token):
            adjuncts.append(token)
            continue
        read = _read_amount(token, 0)
        if read is not None and read[1] == len(token):
            if not pairs or pairs[-1][1] is not None:
                raise UnparseableMaterialError(
                    f"amount {token!r} has no element to attach to in {raw!r}"
                )
            pairs[-1] = (pairs[-1][0], read[0])
            continue
        pairs.extend(_parse_fragment(token))

    composition: Composition = {}
    for symbol, amount in pairs:
        value: Amount = 1.0 if amount is None else amount
        if symbol in composition:
            prev = composition[symbol]
            if isinstance(prev, float) and isinstance(value, float):
                composition[symbol] = _finite(prev + value)
            else:
                raise UnparseableMaterialError(
                    f"repeated element {symbol!r} with symbolic amounts in {raw!r}"
                )
        else:
            composition[symbol] = value
    if not any(is_element(sym) for sym in composition):
        raise UnparseableMaterialError(f"no valid element token in {raw!r}")

    amount_vars = {
        v[-1] for v in composition.values() if isinstance(v, str)
    }
    numeric_bound = {s.variable for s in substitutions if s.is_numeric}
    free_variables = amount_vars - numeric_bound

    return ParsedMaterial(
        source=raw,
        core_text=core,
        composition=composition,
        substitutions=substitutions,
        free_variables=free_variables,
        adjuncts=adjuncts,
    )


def _substitute_element(
    composition: Composition, variable: str, element: str
) -> Composition:
    if variable not in composition:
        return dict(composition)
    out: Composition = {}
    for key, amount in composition.items():
        key = element if key == variable else key
        if key in out:
            if isinstance(out[key], float) and isinstance(amount, float):
                out[key] = _finite(out[key] + amount)  # type: ignore[operator]
            else:
                raise UnparseableMaterialError(
                    f"substituting {variable}->{element} collides with a "
                    f"symbolic amount"
                )
        else:
            out[key] = amount
    return out


def _substitute_numeric(
    composition: Composition, variable: str, value: float
) -> Composition:
    out: Composition = {}
    for key, amount in composition.items():
        if isinstance(amount, str) and amount[-1] == variable:
            if len(amount) == 1:
                resolved = value
            else:
                coeff = float(amount[:-2])
                resolved = _finite(coeff + value if amount[-2] == "+" else coeff - value)
            if resolved > DEFAULT_TOL:
                out[key] = resolved
            # amounts evaluating to zero vacate the site entirely
        else:
            out[key] = amount
    return out


def expand_substitutions(
    pm: ParsedMaterial, cap: int = EXPANSION_CAP
) -> list[ParsedMaterial]:
    """Expand all substitution sets into concrete material variants.

    Returns the Cartesian expansion (one variant per candidate combination,
    in clause order); a material without substitutions expands to itself.

    Raises:
        ExpansionLimitError: if the product of candidate counts exceeds ``cap``.
    """
    if not pm.substitutions:
        return [pm]
    total = 1
    for s in pm.substitutions:
        total *= len(s.candidates)
    if total > cap:
        raise ExpansionLimitError(
            f"{total} variants exceed the expansion cap of {cap}"
        )
    variants = []
    for combo in itertools.product(*(s.candidates for s in pm.substitutions)):
        comp = dict(pm.composition)
        for sub, candidate in zip(pm.substitutions, combo):
            if sub.is_numeric:
                comp = _substitute_numeric(comp, sub.variable, candidate)  # type: ignore[arg-type]
            else:
                comp = _substitute_element(comp, sub.variable, candidate)  # type: ignore[arg-type]
        variants.append(
            replace(
                pm,
                composition=comp,
                substitutions=[],
                free_variables=set(pm.free_variables),
            )
        )
    return variants


def _norm_amount(value) -> Amount:
    if isinstance(value, bool):
        raise TypeError("amounts are numbers or symbolic strings")
    if isinstance(value, (int, float)):
        return float(value)
    return canonicalize_amount(str(value))


def compositions_equal(
    a: Composition, b: Composition, tol: float = DEFAULT_TOL
) -> bool:
    """Element-by-element comparison of two compositions.

    Numeric amounts must agree within ``tol``; symbolic amounts must have
    identical canonical text after one consistent variable renaming applied
    across the whole composition. Compositions over different element sets
    are never equal. Total and symmetric; never raises.
    """
    try:
        na = {k: _norm_amount(v) for k, v in a.items()}
        nb = {k: _norm_amount(v) for k, v in b.items()}
    except (UnparseableMaterialError, TypeError, ValueError):
        return False
    if set(na) != set(nb):
        return False
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}
    for key, va in na.items():
        vb = nb[key]
        if isinstance(va, float) and isinstance(vb, float):
            if not abs(va - vb) <= tol:  # a NaN difference is never equal
                return False
        elif isinstance(va, str) and isinstance(vb, str):
            if va[:-1] != vb[:-1]:
                return False
            xa, xb = va[-1], vb[-1]
            if forward.setdefault(xa, xb) != xb or backward.setdefault(xb, xa) != xa:
                return False
        else:
            return False
    return True


def format_composition(composition: Composition) -> str:
    """Render a composition back to fused-formula text, e.g. ``La2-xSrxCuO4``.

    Amount 1 is omitted, matching standard chemical notation; a bare
    variable that would fuse with its symbol into another element (``S`` +
    ``n``) is parenthesized. The result of a substitution-free composition
    reparses to an equal composition.
    """
    parts = []
    for symbol, amount in composition.items():
        amount = _norm_amount(amount)
        if isinstance(amount, str):
            fused = is_element(symbol + amount)  # only a bare variable can fuse
            parts.append(f"{symbol}({amount})" if fused else f"{symbol}{amount}")
        elif abs(amount - 1.0) <= 1e-12:
            parts.append(symbol)
        elif abs(amount - round(amount)) <= 1e-9:
            parts.append(f"{symbol}{int(round(amount))}")
        else:
            parts.append(f"{symbol}{format(amount, '.10f').rstrip('0')}")
    return "".join(parts)
