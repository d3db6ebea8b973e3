"""Parse free-text material expressions into normalized chemical compositions.

A composition maps element symbols (or single-letter placeholders such as
``X``, ``A``, ``R``) to amounts. An amount is either a positive ``float`` or a
:class:`Linear` form ``const + coef·var`` over one variable (``x``, ``1-x``,
``2+y``), read once from the text; ``str()`` of a ``Linear`` is its canonical text.
Substitution clauses such as ``(X = Sb, Pb, Sn)`` or ``with x = 0.35, 0.45
and 0.5`` are captured separately and can be expanded into concrete variants.

The text left splits at whitespace into words, after a sign spaced between a
decimal and a lowercase letter is joined (``O 7 - δ``), and each word into
tokens: a decimal (of any Unicode decimal digits) or one other character. One
amount grammar, ``c``, ``c±v`` or ``v`` (a decimal ``c``, a cased letter
``v``, lowercase when bare), reads all three places an amount stands: a
spaced amount, which is a whole word and belongs to the symbol before it; an
amount fused to its symbol; and a parenthesised amount, or an amount given as
text, whose whitespace is dropped but never joins a decimal. A word of a
decimal and ``%`` is an adjunct. Any other word is a run of units: a symbol
(two letters when they name an element, else one uppercase character, a
placeholder when it names no element), then a parenthesised amount, a fused
amount or none. So spaced (``La 2-x Sr x CuO 4``) and fused
(``La2-xSrxCuO4``) renderings parse to identical compositions. Mixtures
(``A/B in molar ratio``) are rejected rather than mis-parsed. The periodic
table and the default adjunct lexicon are constants of this module.
"""

import itertools
import math
import re
import sys
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    ConfigError,
    EmptyInputError,
    ExpansionLimitError,
    MixtureNotSupportedError,
    UnparseableMaterialError,
    read_json_file,
)


class Linear(NamedTuple):
    """The amount ``const + coef·var`` (``coef`` = ±1); ``str()`` gives its canonical text."""

    const: float
    coef: float
    var: str  # a lowercase letter

    def __str__(self) -> str:
        if self.const == 0 and self.coef == 1:
            return self.var
        return f"{_number_text(self.const)}{'+' if self.coef > 0 else '-'}{self.var}"


Amount = float | Linear
Composition = dict[str, Amount]

EXPANSION_CAP = 256
DEFAULT_TOL = 1e-6

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
# a token: a whitespace run, a decimal (of any Unicode digits) or one other character
_TOKEN_RE = re.compile(r"\s+|\d+(?:\.\d+)?|.", re.DOTALL)
# a sign spaced between a decimal and a lone letter, as in "O 7 - δ"
_SPACED_SIGN_RE = re.compile(r"(\d)\s*([+-])\s*([^\W\d_])(?![^\W\d_])")
# trailing "(X = Sb, Pb and Sn)" style clause
_PAREN_CLAUSE_RE = re.compile(r"\(\s*([^\W\d_])\s*=\s*([^()]*)\)\s*$")
# trailing "samples with x = 0.35, 0.45 and 0.5" / "where R = Zn and Ni" clause
_TEXT_CLAUSE_RE = re.compile(
    r"(?:\b(samples?|compounds?|crystals?)\s+)?\b(?:where|with|for)\s+"
    r"([^\W\d_])\s*=\s*(.+)$",
    re.IGNORECASE,
)


# the 118 element symbols, in atomic-number order
ELEMENTS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn Ga Ge"
    " As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La Ce Pr Nd Pm"
    " Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th"
    " Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og".split()
)

# descriptor phrases stripped from material expressions before parsing
DEFAULT_ADJUNCTS = (
    "hole-doped", "electron-doped", "doped", "infinite-layer", "superconductor",
    "superconductors", "single crystal", "thin film", "polycrystalline", "samples",
    "sample", "bulk",
)


def load_adjuncts(path: str) -> tuple[str, ...]:
    """Load a replacement adjunct lexicon from a JSON file.

    Accepts either ``{"adjuncts": [...]}``, with no other key, or a bare JSON
    list of non-empty strings; anything else raises ConfigError naming the file.
    """
    payload = read_json_file(path, ConfigError)
    if isinstance(payload, dict) and payload.keys() == {"adjuncts"}:
        payload = payload["adjuncts"]
    if not isinstance(payload, list) or not all(isinstance(w, str) and w.strip() for w in payload):
        raise ConfigError(f'{path}: expected {{"adjuncts": [...]}} or a list of non-empty strings')
    return tuple(payload)


def is_element(symbol: str) -> bool:
    """True for a valid periodic-table symbol (case-sensitive: 'Ca', not 'CA')."""
    return symbol in ELEMENTS


class SubstitutionSet(NamedTuple):
    """Binds one placeholder variable to its candidate values.

    Candidates are homogeneous: either all element symbols (replacing a
    placeholder element) or all numeric doping values (substituted into
    linear amounts).
    """

    variable: str
    candidates: tuple[float, ...] | tuple[str, ...]

    @property
    def is_numeric(self) -> bool:
        return bool(self.candidates) and isinstance(self.candidates[0], float)


class ParsedMaterial(NamedTuple):
    """Structured form of a material expression."""

    source: str
    core_text: str
    composition: Composition
    substitutions: list[SubstitutionSet]
    free_variables: set[str]
    adjuncts: list[str]

    def to_dict(self) -> dict:
        comp = {k: str(v) if isinstance(v, Linear) else v for k, v in self.composition.items()}
        return {**self._asdict(), "composition": comp,
                "substitutions": [s._asdict() for s in self.substitutions],
                "free_variables": sorted(self.free_variables)}


@lru_cache(maxsize=16)
def _edge_phrases(lexicon: tuple[str, ...] | None) -> tuple[tuple[int, frozenset[str]], ...]:
    """``(length, the lowered phrases of that length)``, longest first; ``None``:
    ``DEFAULT_ADJUNCTS``. The text is cut at a phrase's own length, then
    lowered: lowering can change a length (``"İ".lower()`` is two code points)."""
    lowered: dict[int, set[str]] = {}
    for p in DEFAULT_ADJUNCTS if lexicon is None else lexicon:
        lowered.setdefault(len(p), set()).add(p.lower())
    return tuple(sorted(((n, frozenset(ps)) for n, ps in lowered.items()), reverse=True))


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
        lexicon: descriptor phrases; ``None`` means ``DEFAULT_ADJUNCTS``, and
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
    # phrases of one length cut the same text: the longest length that matches decides
    while True:
        for n, lowered in phrases:
            if len(text) > n and text[n].isspace() and text[:n].lower() in lowered:
                adjuncts.append(text[:n])
                text = text[n:].strip()
                break
        else:
            break
    while True:
        for n, lowered in phrases:
            cut = len(text) - n
            if cut > 0 and text[cut - 1].isspace() and text[cut:].lower() in lowered:
                adjuncts.append(text[cut:])
                text = text[:cut].strip()
                break
        else:
            break
    return text, adjuncts


def _parse_amount_text(text: str) -> Amount:
    """A whole amount read from the lowered text's tokens, whitespace dropped:
    ``" 1 - X "`` is ``1-x``, and ``"1 2"`` is refused, not read as ``12``."""
    tokens = [t for t in _TOKEN_RE.findall(text.lower()) if not t.isspace()]
    read = _read_amount(tokens, 0)
    if read is None or read[1] != len(tokens):
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


def _read_amount(tokens: list[str], k: int) -> tuple[Amount, int] | None:
    """Read the one amount grammar at ``tokens[k:]``: ``c``, ``c±v`` or ``v``,
    where a bare ``v`` is lowercase, since an uppercase letter starts the next
    symbol. Returns the amount and the index after it, or None."""
    if k >= len(tokens):
        return None
    token = tokens[k]
    if not token[0].isdecimal():  # the tokenizer's \d: a decimal token
        return (Linear(0.0, 1.0, token), k + 1) if _variable(token) == token else None
    value = _finite(float(token))
    sign = tokens[k + 1] if k + 2 < len(tokens) else None
    var = _variable(tokens[k + 2]) if sign in ("+", "-") else None
    if var:
        return Linear(value, -1.0 if sign == "-" else 1.0, var), k + 3
    return value, k + 1


def _join_spaced_sign(m: re.Match) -> str:
    """``7 - δ`` -> ``7-δ`` when the letter is a lowercase variable."""
    return "".join(m.groups()) if _variable(m.group(3)) == m.group(3) else m.group(0)


def _read_word(tokens: list[str], pairs: list[tuple[str, Amount | None]]) -> None:
    """Append the ``(symbol, amount or None)`` units of a word such as ``CuO``,
    ``La2O3`` or ``Cu1-xNixO2`` to ``pairs``."""
    word, k, n = "".join(tokens), 0, len(tokens)
    while k < n:
        symbol = tokens[k]
        if k + 1 < n and symbol + tokens[k + 1] in ELEMENTS:
            symbol, k = symbol + tokens[k + 1], k + 2
        elif symbol.isupper():
            k += 1
        else:
            raise UnparseableMaterialError(f"expected element symbol at {''.join(tokens[k:])!r}")
        symbol, amount = sys.intern(symbol), None  # every key shares one copy
        if k < n and tokens[k] == "(":
            if ")" not in tokens[k:]:
                raise UnparseableMaterialError(f"unbalanced parenthesis in {word!r}")
            close = tokens.index(")", k)
            amount, k = _parse_amount_text("".join(tokens[k + 1:close])), close + 1
        elif read := _read_amount(tokens, k):
            amount, end = read
            if isinstance(amount, Linear) and end < n:
                if end - k > 1 and tokens[end].islower():  # c±v
                    raise UnparseableMaterialError(f"ambiguous variable in amount: {word!r}")
                if end - k == 1 and not (tokens[end].isupper() or tokens[end] == "("):  # v
                    raise UnparseableMaterialError(f"cannot read amount in {word!r}")
            k = end
        pairs.append((symbol, amount))


def _split_candidates(body: str) -> list[str]:
    return [p for p in re.split(r"\s*,\s*|\s+and\s+", body.strip()) if p]


def _parse_clause(variable: str, body: str) -> list[SubstitutionSet]:
    """Turn a clause body like ``"Sb, Pb and Sn"`` or ``"Ni and x = 0.2"``
    into substitution sets. A ``name = value`` token starts a new set."""
    groups: list[tuple[str, list[str]]] = [(variable, [])]
    for part in _split_candidates(body):
        m = re.fullmatch(r"([^\W\d_])\s*=\s*(.+)", part)
        if m and _variable(m.group(1)):
            groups.append((m.group(1), [m.group(2).strip()]))
        else:
            groups[-1][1].append(part)
    sets = []
    for var, cands in groups:
        if not cands:
            continue
        if all(_NUMBER_RE.fullmatch(c) for c in cands):
            values: list[float | str] = [_finite(float(c)) for c in cands]
            var = var.lower()
        elif all(is_element(c) for c in cands):
            values = list(map(sys.intern, cands))
            var = var.upper()
        else:
            raise UnparseableMaterialError(
                f"substitution candidates are neither all numeric nor all "
                f"elements: {cands!r}"
            )
        deduped = list(dict.fromkeys(values))
        sets.append(SubstitutionSet(variable=var, candidates=tuple(deduped)))
    return sets


def _add_amount(composition: Composition, symbol: str, amount: Amount) -> bool:
    """Merge ``amount`` into ``symbol``'s: numeric amounts sum. False, leaving
    ``composition`` as it was, when a linear amount meets any other."""
    if symbol in composition:
        prev = composition[symbol]
        if not (isinstance(prev, float) and isinstance(amount, float)):
            return False
        amount = _finite(prev + amount)
    composition[symbol] = amount
    return True


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
    slash_separated = "/" in core and any(
        t.startswith("/") or t.endswith("/") for t in core.split()
    )
    if slash_separated or "in molar ratio" in core.lower():
        raise MixtureNotSupportedError(f"mixture expression rejected: {raw!r}")

    substitutions: list[SubstitutionSet] = []
    while True:
        m = _PAREN_CLAUSE_RE.search(core)
        if not m or not _variable(m.group(1)):
            break
        substitutions = _parse_clause(m.group(1), m.group(2)) + substitutions
        core = core[: m.start()].strip()
    m = _TEXT_CLAUSE_RE.search(core)
    if m and _variable(m.group(2)):
        noun, var, body = m.groups()
        substitutions = substitutions + _parse_clause(var, body)
        if noun:
            adjuncts.append(noun)
        core = core[: m.start()].strip()

    pairs: list[tuple[str, Amount | None]] = []
    for word in _SPACED_SIGN_RE.sub(_join_spaced_sign, core).split():
        tokens = _TOKEN_RE.findall(word)
        if len(tokens) == 2 and tokens[1] == "%" and tokens[0][0].isdecimal():
            adjuncts.append(word)
            continue
        read = None if word[0].isupper() else _read_amount(tokens, 0)  # a symbol starts no amount
        if read is not None and read[1] == len(tokens):  # a spaced amount is a whole word
            if not pairs or pairs[-1][1] is not None:
                raise UnparseableMaterialError(
                    f"amount {word!r} has no element to attach to in {raw!r}"
                )
            pairs[-1] = (pairs[-1][0], read[0])
            continue
        _read_word(tokens, pairs)

    composition: Composition = {}
    for symbol, amount in pairs:
        if not _add_amount(composition, symbol, 1.0 if amount is None else amount):
            raise UnparseableMaterialError(
                f"repeated element {symbol!r} with symbolic amounts in {raw!r}"
            )
    if ELEMENTS.isdisjoint(composition):
        raise UnparseableMaterialError(f"no valid element token in {raw!r}")

    amount_vars = {v.var for v in composition.values() if isinstance(v, Linear)}
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
        if not _add_amount(out, element if key == variable else key, amount):
            raise UnparseableMaterialError(
                f"substituting {variable}->{element} collides with a symbolic amount"
            )
    return out


def _substitute_numeric(
    composition: Composition, variable: str, value: float
) -> Composition:
    out: Composition = {}
    for key, amount in composition.items():
        if isinstance(amount, Linear) and amount.var == variable:
            resolved = _finite(amount.const + amount.coef * value)
            if resolved < -DEFAULT_TOL:
                raise UnparseableMaterialError(
                    f"{variable} = {value} makes the amount of {key} negative: {resolved}")
            if resolved > DEFAULT_TOL:
                out[key] = resolved
            # amounts within tol of zero vacate the site entirely
        else:
            out[key] = amount
    return out


def expand_compositions(pm: ParsedMaterial, cap: int = EXPANSION_CAP) -> Iterator[Composition]:
    """Yield the composition of each candidate combination, in clause order;
    a material without substitutions yields its own composition.

    Raises:
        ExpansionLimitError: if the product of candidate counts exceeds ``cap``.
    """
    total = math.prod(len(s.candidates) for s in pm.substitutions)
    if pm.substitutions and total > cap:
        raise ExpansionLimitError(f"{total} variants exceed the expansion cap of {cap}")
    for combo in itertools.product(*(s.candidates for s in pm.substitutions)):
        comp = pm.composition  # each substitution returns a new dict
        for sub, candidate in zip(pm.substitutions, combo):
            substitute = _substitute_numeric if sub.is_numeric else _substitute_element
            comp = substitute(comp, sub.variable, candidate)  # type: ignore[arg-type]
        yield comp


def expand_substitutions(
    pm: ParsedMaterial, cap: int = EXPANSION_CAP
) -> list[ParsedMaterial]:
    """Expand all substitution sets into concrete material variants.

    Returns the Cartesian expansion (one variant per candidate combination,
    in clause order, as :func:`expand_compositions` yields them); a material
    without substitutions expands to itself.

    Raises:
        ExpansionLimitError: if the product of candidate counts exceeds ``cap``.
    """
    if not pm.substitutions:
        return [pm]
    return [pm._replace(composition=c, substitutions=[], free_variables=set(pm.free_variables))
            for c in expand_compositions(pm, cap)]


def _norm_amount(value) -> Amount:
    if isinstance(value, bool):
        raise TypeError("amounts are numbers, linear forms or amount text")
    if isinstance(value, (int, float)):
        return float(value)
    return value if isinstance(value, Linear) else _parse_amount_text(str(value))


def compositions_equal(
    a: Composition, b: Composition, tol: float = DEFAULT_TOL
) -> bool:
    """Element-by-element comparison of two compositions.

    Numbers and the constants of linear amounts agree within ``tol``;
    coefficients are equal, and variables correspond under one renaming
    across the whole composition. Text amounts are read by the amount
    grammar. Different element sets never compare equal. Total, symmetric.
    """
    try:
        na = {k: _norm_amount(v) for k, v in a.items()}
        nb = {k: _norm_amount(v) for k, v in b.items()}
        if set(na) != set(nb):
            return False
        forward: dict[str, str] = {}
        backward: dict[str, str] = {}
        for key, va in na.items():
            vb = nb[key]
            if isinstance(va, float) and isinstance(vb, float):
                if not abs(va - vb) <= tol:  # a NaN difference is never equal
                    return False
            elif isinstance(va, Linear) and isinstance(vb, Linear):
                if not abs(va.const - vb.const) <= tol or va.coef != vb.coef:
                    return False
                xa, xb = va.var, vb.var
                if forward.setdefault(xa, xb) != xb or backward.setdefault(xb, xa) != xa:
                    return False
            else:
                return False
    except (UnparseableMaterialError, TypeError, ValueError):  # a caller's malformed amount
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
        if isinstance(amount, Linear):
            text = str(amount)
            fused = is_element(symbol + text)  # only a bare variable can fuse
            parts.append(f"{symbol}({text})" if fused else f"{symbol}{text}")
        elif abs(amount - 1.0) <= 1e-12:
            parts.append(symbol)
        else:
            parts.append(f"{symbol}{_number_text(amount)}")
    return "".join(parts)


def _number_text(amount: float) -> str:
    """A number as formulas write it: ``2``, ``0.5`` (at most ten decimals)."""
    near = round(amount)
    return str(near) if abs(amount - near) <= 1e-9 else format(amount, ".10f").rstrip("0")
