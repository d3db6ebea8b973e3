"""String matchers used to compare predicted entities against gold ones.

Four tiers: strict (exact after whitespace normalization), soft
(Ratcliff/Obershelp similarity with a threshold), semantic (external
cross-encoder service behind :class:`SimilarityProvider`), and formula
matching (normalize both sides to chemical compositions and compare
element by element, expanding substitution clauses).

Evaluations score through :class:`Tier` objects: a per-string ``key``,
computed once per distinct string, and an exact pairwise ``verify`` whose
filters are necessary conditions of a match, so verdicts (and reports)
equal the public predicates'. Strict keys are normalized texts and match
on equality, so counting reduces to a multiset intersection. Soft rejects
a pair when ``2.0*bound/length`` misses the threshold, where ``bound`` is
the shorter length or the character-multiset intersection size: both are
at least difflib's match count, so the same expression bounds ``ratio()``
from above, bit for bit. Formula buckets each string's variants by element
set, which :func:`~mateval.materials.compositions_equal` requires to be
equal, and compares only variants in the same bucket.
"""

import functools
import operator
import re
from collections import Counter
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import NamedTuple

import requests

from .errors import MatEvalError, ProviderUnavailableError
from .materials import (
    DEFAULT_TOL,
    Composition,
    compositions_equal,
    expand_substitutions,
    format_composition,
    parse_material,
)

DEFAULT_THRESHOLD = 0.9

_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class MatchOutcome:
    """Verdict of a matcher, with the tier that decided it.

    ``tier`` is one of ``strict``, ``soft``, ``semantic``, ``formula`` or
    ``none`` (always ``none`` when ``matched`` is false). ``similarity`` is
    populated by the soft and semantic tiers.
    """

    matched: bool
    tier: str = "none"
    similarity: float | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        return {
            "matched": self.matched,
            "tier": self.tier,
            "similarity": self.similarity,
            "detail": self.detail,
        }


def normalize_whitespace(text: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return _WS_RE.sub(" ", text.strip())


def strict_match(a: str, b: str) -> bool:
    """Exact comparison after whitespace normalization."""
    return normalize_whitespace(a) == normalize_whitespace(b)


def ratcliff_obershelp(a: str, b: str) -> float:
    """Ratcliff/Obershelp similarity: 2*K/(len(a)+len(b)).

    K is the character total matched by recursive longest-common-substring
    decomposition with the leftmost-in-``a`` tie-break (the stdlib
    SequenceMatcher algorithm; junk heuristics disabled so the value is
    exact for any input). Returns 1.0 when both strings are empty.
    """
    return SequenceMatcher(None, a, b, autojunk=False).ratio()


def soft_match(a: str, b: str, threshold: float = DEFAULT_THRESHOLD) -> MatchOutcome:
    """Match when the Ratcliff/Obershelp similarity reaches ``threshold``.

    Both sides are whitespace-normalized first, so anything strict matching
    accepts scores 1.0 here, whatever the threshold.
    """
    similarity = ratcliff_obershelp(normalize_whitespace(a), normalize_whitespace(b))
    if similarity >= threshold:
        return MatchOutcome(True, "soft", similarity)
    return MatchOutcome(False, "none", similarity)


class SimilarityProvider:
    """Scorer contract for semantic matching: ``score(a, b) -> [0, 1]``.

    Conforming providers must return 1.0 for identical inputs. The bundled
    implementation calls an external HTTP service; tests may substitute any
    object with a compatible ``score``.
    """

    def score(self, a: str, b: str) -> float:
        raise NotImplementedError


class HttpSimilarityProvider(SimilarityProvider):
    """Client for the similarity service wire contract.

    Request body ``{"text_a": ..., "text_b": ...}``, response
    ``{"score": <decimal>}``. A shared instance is safe to use from
    multiple threads; each call enforces ``timeout``.
    """

    def __init__(self, endpoint: str, timeout: float = 10.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def score(self, a: str, b: str) -> float:
        try:
            response = requests.post(
                self.endpoint,
                json={"text_a": a, "text_b": b},
                timeout=self.timeout,
            )
            response.raise_for_status()
            return float(response.json()["score"])
        except (requests.RequestException, ValueError, KeyError) as exc:
            raise ProviderUnavailableError(
                f"similarity service at {self.endpoint} failed: {exc}"
            ) from exc


def semantic_match(
    a: str,
    b: str,
    threshold: float = DEFAULT_THRESHOLD,
    provider: SimilarityProvider | None = None,
) -> MatchOutcome:
    """Match when the provider's semantic similarity reaches ``threshold``.

    Raises:
        ProviderUnavailableError: no provider, transport failure, or timeout.
            Callers running evaluations must report the matcher as skipped,
            never silently score zero.
    """
    if provider is None:
        raise ProviderUnavailableError("no similarity provider configured")
    similarity = provider.score(a, b)
    if similarity >= threshold:
        return MatchOutcome(True, "semantic", similarity)
    return MatchOutcome(False, "none", similarity)


def material_variants(
    text: str, lexicon: tuple[str, ...] | None = None
) -> list[Composition]:
    """Candidate compositions of a material expression, in expansion order.

    The per-string half of formula matching: parses the expression and
    expands its substitution sets, raising MatEvalError on either failure.
    """
    return [v.composition for v in expand_substitutions(parse_material(text, lexicon))]


def formula_match(
    a: str,
    b: str,
    tol: float = DEFAULT_TOL,
    lexicon: tuple[str, ...] | None = None,
) -> MatchOutcome:
    """Compare two material expressions by normalized chemical composition.

    Extends strict matching: identical strings match at tier ``strict``.
    Otherwise both sides are parsed (descriptors from ``lexicon`` stripped
    first) and every pair drawn from the two substitution expansions is
    compared with :func:`compositions_equal`. Parse or expansion failures on
    either side fold into a non-match with the failure recorded in
    ``detail``.
    """
    return FormulaTier(lexicon=lexicon, tol=tol).outcome(a, b)


class Tier:
    """A matcher tier: a per-string ``key`` and an exact pairwise ``verify``.

    ``verify(key(a), key(b)) == outcome(a, b).matched`` for every pair.
    Keys are cached per tier object (build one per evaluation);
    ``closed_form`` tiers match on key equality.
    """

    closed_form = False

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        provider: SimilarityProvider | None = None,
        lexicon: tuple[str, ...] | None = None,
        tol: float = DEFAULT_TOL,
    ):
        self.threshold, self.provider, self.lexicon, self.tol = threshold, provider, lexicon, tol
        self._keys: dict = {}

    def key(self, text: str):
        found = self._keys.get(text)
        if found is None:
            found = self._keys[text] = self.make_key(text)
        return found


class StrictTier(Tier):
    closed_form = True
    make_key = staticmethod(normalize_whitespace)
    verify = staticmethod(operator.eq)

    def outcome(self, a: str, b: str) -> MatchOutcome:
        return MatchOutcome(True, "strict") if strict_match(a, b) else MatchOutcome(False)


class SoftTier(Tier):
    @staticmethod
    def make_key(text: str) -> tuple[str, int, Counter]:
        norm = normalize_whitespace(text)
        return norm, len(norm), Counter(norm)

    def verify(self, ka: tuple, kb: tuple) -> bool:
        (a, la, ca), (b, lb, cb) = ka, kb
        length, t = la + lb, self.threshold
        if a == b:  # ratio() of equal strings is exactly 1.0
            return 1.0 >= t
        if 2.0 * min(la, lb) / length < t or 2.0 * sum((ca & cb).values()) / length < t:
            return False
        return soft_match(a, b, t).matched

    def outcome(self, a: str, b: str) -> MatchOutcome:
        return soft_match(a, b, self.threshold)


class SemanticTier(Tier):
    """Raw-text keys; the provider is asked once per distinct pair."""

    make_key = staticmethod(str)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.verify = functools.cache(lambda a, b: self.outcome(a, b).matched)

    def outcome(self, a: str, b: str) -> MatchOutcome:
        return semantic_match(a, b, self.threshold, self.provider)


class FormulaKey(NamedTuple):
    text: str  # whitespace-normalized, for the strict fast path
    variants: list  # (element set, composition), in expansion order
    buckets: dict  # element set -> compositions, in expansion order
    error: str | None  # why the text has no variants


class FormulaTier(Tier):
    def make_key(self, text: str) -> FormulaKey:
        try:
            compositions, error = material_variants(text, self.lexicon), None
        except MatEvalError as exc:  # keep the message, not the traceback
            compositions, error = [], str(exc)
        variants = [(frozenset(c), c) for c in compositions]
        buckets: dict = {}
        for elements, composition in variants:
            buckets.setdefault(elements, []).append(composition)
        return FormulaKey(normalize_whitespace(text), variants, buckets, error)

    def witness(self, ka: FormulaKey, kb: FormulaKey) -> tuple[dict, dict] | None:
        """The first variant pair, in expansion order, with equal compositions."""
        for elements, va in ka.variants:
            for vb in kb.buckets.get(elements, ()):
                if compositions_equal(va, vb, self.tol):
                    return va, vb
        return None

    def verify(self, ka: FormulaKey, kb: FormulaKey) -> bool:
        return ka.text == kb.text or self.witness(ka, kb) is not None

    def outcome(self, a: str, b: str) -> MatchOutcome:
        ka, kb = self.key(a), self.key(b)
        if ka.text == kb.text:
            return MatchOutcome(True, "strict")
        for side, k in (("left", ka), ("right", kb)):
            if k.error is not None:
                return MatchOutcome(False, "none", detail=f"{side} side unparseable: {k.error}")
        pair = self.witness(ka, kb)
        if pair is None:
            return MatchOutcome(False, "none", detail="no composition variant pair matched")
        return MatchOutcome(True, "formula", detail=" ~ ".join(map(format_composition, pair)))


TIERS = {"strict": StrictTier, "soft": SoftTier, "semantic": SemanticTier, "formula": FormulaTier}
