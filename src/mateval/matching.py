"""String matchers used to compare predicted entities against gold ones.

Four tiers: strict (exact after whitespace normalization), soft
(Ratcliff/Obershelp similarity with a threshold), semantic (external
cross-encoder service behind :class:`SimilarityProvider`), and formula
matching (normalize both sides to chemical compositions and compare
element by element, expanding substitution clauses).

Evaluations score through :class:`Tier` objects: a per-string ``key``,
computed once per distinct string, an exact pairwise ``verify``, and
``scan_orders``, each expected key's candidates among the predicted keys, in
the order :func:`~mateval.scoring.count_matches` verifies them as its search
reaches them. An order leaves out only pairs failing a necessary condition
of a match (blocking), and no order changes a maximum matching's size, so
reports equal the public predicates'. Strict keys match on equality, so
counting reduces to a multiset intersection. Soft bounds ``ratio()`` from
above, bit for bit, by ``2.0*bound/length``, ``bound`` being the shorter
length (its order is the length window that passes) or the character-multiset
intersection size (:func:`overlap_bound`, which ranks semantic rows). Formula
scans the keys sharing the normalized text or a sorted element tuple:
:func:`~mateval.materials.compositions_equal` requires equal element sets. The CLI
binds :mod:`~mateval.materials` unrun, and only the formula tier runs it.
"""

import operator
import threading
from bisect import bisect_left
from collections import Counter
from difflib import SequenceMatcher
from typing import NamedTuple

from . import materials
from .errors import ConfigError, MatEvalError, ProviderUnavailableError, read_json
from .transport import NO_REPLY, RateLimiter, post_json

DEFAULT_THRESHOLD = 0.9


def check_threshold(threshold: float) -> None:
    """Refuse a threshold outside (0, 1], NaN included (a tier itself takes any)."""
    if not 0 < threshold <= 1:
        raise ConfigError("threshold must be in (0, 1]")


class MatchOutcome(NamedTuple):
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
        return self._asdict()


def normalize_whitespace(text: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces; ``text``
    itself when it is normalized already, so keys share the caller's string."""
    norm = " ".join(text.split())
    return text if norm == text else norm


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


def overlap_bound(ka: tuple, kb: tuple) -> float:
    """``2*|ms(a) & ms(b)|/(len a + len b)`` of two :class:`SoftTier` keys: the
    character-multiset overlap, at least ``ratio()`` bit for bit (1.0 if both are empty)."""
    (_, la, ca), (_, lb, cb) = ka, kb
    if len(ca) > len(cb):
        ca, cb = cb, ca
    count = cb.get  # the multiset intersection size, summed over the smaller side
    common = sum([n if n < (m := count(c, 0)) else m for c, n in ca.items()])
    return 2.0 * common / (la + lb) if la + lb else 1.0


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

    Conforming providers must return 1.0 for identical inputs, and
    :func:`semantic_match` asks them no raw-identical pair. A provider may
    also offer ``map(fn, items) -> [fn(item) for item in items]``, in order,
    run concurrently, raising the first failing item's failure; evaluations
    count documents through it, largest first, each ``fn`` calling ``score``
    as its matching search needs. Without it, documents are counted one at a
    time. The bundled implementation calls an external HTTP service; tests
    may substitute any object with a compatible ``score``.
    """

    def score(self, a: str, b: str) -> float:
        raise NotImplementedError


class HttpSimilarityProvider(SimilarityProvider):
    """Client for the similarity service wire contract.

    Request body ``{"text_a": ..., "text_b": ...}``, response
    ``{"score": <decimal>}``. No reply, a non-2xx reply, a body that is not
    strict JSON, or a score that is not a number in ``[0, 1]`` raises
    ProviderUnavailableError, so the matcher is reported as skipped. A shared instance is safe to use from
    multiple threads; each call enforces ``timeout`` and takes a slot of the
    instance's :class:`~mateval.transport.RateLimiter`, so at most
    ``max_concurrency`` requests are in flight, their starts at least
    ``min_interval`` seconds apart. ``map`` runs work that calls ``score``
    on up to ``max_concurrency`` threads.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 10.0,
        *,
        max_concurrency: int = 4,
        min_interval: float = 0.0,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.limiter = RateLimiter(max_concurrency, min_interval)

    def score(self, a: str, b: str) -> float:
        self.limiter.acquire()
        try:
            status, _, body = post_json(self.endpoint, {"text_a": a, "text_b": b}, self.timeout)
            if not 200 <= status < 300:
                raise ProviderUnavailableError(f"HTTP {status}")
            score = read_json(body)["score"]
            if isinstance(score, bool) or not isinstance(score, (int, float)):
                raise ProviderUnavailableError(f"score {score!r} is not a JSON number")
            if not 0.0 <= score <= 1.0:
                raise ProviderUnavailableError(f"score {score} is not in [0, 1]")
            return float(score)
        except (*NO_REPLY, MatEvalError, KeyError, TypeError) as exc:
            raise ProviderUnavailableError(
                f"similarity service at {self.endpoint} failed: {exc}"
            ) from exc
        finally:
            self.limiter.release()

    def map(self, fn, items) -> list:
        return self.limiter.map(fn, items)


def semantic_match(
    a: str,
    b: str,
    threshold: float = DEFAULT_THRESHOLD,
    provider: SimilarityProvider | None = None,
) -> MatchOutcome:
    """Match when the provider's semantic similarity reaches ``threshold``.

    A raw-identical pair scores 1.0 without a call (a provider scoring it
    otherwise breaks the contract), and is still compared with ``threshold``.

    Raises:
        ProviderUnavailableError: no provider, transport failure, or timeout.
            Callers running evaluations must report the matcher as skipped,
            never silently score zero.
    """
    if provider is None:
        raise ProviderUnavailableError("no similarity provider configured")
    similarity = 1.0 if a == b else provider.score(a, b)
    if similarity >= threshold:
        return MatchOutcome(True, "semantic", similarity)
    return MatchOutcome(False, "none", similarity)


def material_variants(
    text: str, lexicon: tuple[str, ...] | None = None
) -> "list[materials.Composition]":
    """Candidate compositions of a material expression, in expansion order.

    The per-string half of formula matching: parses the expression and
    expands its substitution sets, raising MatEvalError on either failure.
    """
    return list(materials.expand_compositions(materials.parse_material(text, lexicon)))


def formula_match(
    a: str,
    b: str,
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
    return FormulaTier(lexicon=lexicon).outcome(a, b)


class Tier:
    """A matcher tier: a per-string ``key``, exact ``verify`` and candidate ``scan_orders``.

    ``verify(key(a), key(b)) == outcome(a, b).matched`` for every pair, and
    ``scan_orders`` leaves out only predicted keys ``verify`` rejects. Keys
    are cached per tier object (build one per evaluation); ``closed_form``
    tiers match on key equality.
    """

    closed_form = False
    reads: frozenset[str] = frozenset()  # the constructor settings it reads; it ignores the rest

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        provider: SimilarityProvider | None = None,
        lexicon: tuple[str, ...] | None = None,
    ):
        self.threshold, self.provider, self.lexicon = threshold, provider, lexicon
        self._keys: dict = {}

    def key(self, text: str):
        found = self._keys.get(text)
        if found is None:
            found = self._keys[text] = self.make_key(text)
        return found

    def scan_orders(self, expected: list, predicted: list) -> list:
        """Per expected key, the predicted indices its row verifies, in order."""
        return [range(len(predicted))] * len(expected)


class StrictTier(Tier):
    closed_form = True
    make_key = staticmethod(normalize_whitespace)
    verify = staticmethod(operator.eq)

    def outcome(self, a: str, b: str) -> MatchOutcome:
        return MatchOutcome(True, "strict") if strict_match(a, b) else MatchOutcome(False)


class SoftTier(Tier):
    reads = frozenset({"threshold"})

    @staticmethod
    def make_key(text: str) -> tuple[str, int, Counter]:
        norm = normalize_whitespace(text)
        return norm, len(norm), Counter(norm)

    def verify(self, ka: tuple, kb: tuple) -> bool:
        if ka[0] == kb[0]:  # ratio() of equal strings is exactly 1.0
            return 1.0 >= self.threshold
        if overlap_bound(ka, kb) < self.threshold:
            return False
        return soft_match(ka[0], kb[0], self.threshold).matched

    def scan_orders(self, expected: list, predicted: list) -> list[list[int]]:
        """The predicted keys in each expected key's length window, ascending:
        ``2*min(la, lb)/(la + lb)`` rises with ``lb`` up to ``la`` and falls
        after it, so two bisections with the bound's own float test find the
        run of lengths it passes, at any threshold."""
        order = sorted(range(len(predicted)), key=lambda j: predicted[j][1])
        lengths, t, orders = [predicted[j][1] for j in order], self.threshold, []
        for ka in expected:
            la = ka[1]
            mid = bisect_left(lengths, la)
            lo = bisect_left(lengths, True, 0, mid, key=lambda b: not 2.0 * b / (la + b) < t)
            hi = bisect_left(lengths, True, mid, key=lambda b: b > la and 2.0 * la / (la + b) < t)
            orders.append(sorted(order[lo:hi]))
        return orders

    def outcome(self, a: str, b: str) -> MatchOutcome:
        return soft_match(a, b, self.threshold)


class _Score:
    """A pair's similarity, or the exception asking for it raised; ``ready``
    is set once either is in."""

    def __init__(self):
        self.ready, self.value = threading.Event(), None


class SemanticTier(Tier):
    """Raw-text keys; the provider is asked once per distinct pair.

    ``verify`` is safe to call from several threads: a pair another thread
    is scoring is waited on, and a failure is raised in every thread that
    asked for the pair.
    """

    reads = frozenset({"threshold", "provider"})
    make_key = staticmethod(str)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scores: dict[tuple[str, str], _Score] = {}
        self._lock = threading.Lock()

    def scan_orders(self, expected: list, predicted: list) -> list:
        """Likeliest first: descending :func:`overlap_bound`, ties in ascending index."""
        keys = [SoftTier.make_key(b) for b in predicted]
        return [sorted(range(len(keys)), key=[-overlap_bound(ka, kb) for kb in keys].__getitem__)
                for ka in map(SoftTier.make_key, expected)]

    def verify(self, a: str, b: str) -> bool:
        with self._lock:
            score = self._scores.get((a, b))
            asked = score is not None
            if not asked:
                score = self._scores[a, b] = _Score()
        if asked:
            score.ready.wait()
        else:
            try:
                score.value = self.outcome(a, b).similarity
            except BaseException as exc:
                score.value = exc
                raise
            finally:
                score.ready.set()
        if isinstance(score.value, BaseException):
            raise score.value
        return score.value >= self.threshold

    def outcome(self, a: str, b: str) -> MatchOutcome:
        return semantic_match(a, b, self.threshold, self.provider)


class FormulaKey(NamedTuple):
    """All ``verify`` reads of a string; its text and element symbols are shared, not copied."""

    text: str  # whitespace-normalized, for the strict fast path
    variants: tuple  # (sorted element tuple, composition), in expansion order
    error: str | None  # why the text has no variants


class FormulaTier(Tier):
    reads = frozenset({"lexicon"})

    def make_key(self, text: str) -> FormulaKey:
        try:
            compositions, error = material_variants(text, self.lexicon), None
        except MatEvalError as exc:  # keep the message, not the traceback
            compositions, error = (), str(exc)
        variants = tuple((tuple(sorted(c)), c) for c in compositions)
        return FormulaKey(normalize_whitespace(text), variants, error)

    def witness(self, ka: FormulaKey, kb: FormulaKey) -> tuple[dict, dict] | None:
        """The first variant pair, in expansion order, with equal compositions;
        only pairs over equal element tuples are compared."""
        for elements, va in ka.variants:
            for other, vb in kb.variants:
                if elements == other and materials.compositions_equal(va, vb):
                    return va, vb
        return None

    def verify(self, ka: FormulaKey, kb: FormulaKey) -> bool:
        return ka.text == kb.text or self.witness(ka, kb) is not None

    def scan_orders(self, expected: list, predicted: list) -> list[list[int]]:
        """The predicted keys that share the expected key's text or one of its
        element tuples, ascending: ``verify`` needs one or the other."""
        index: dict = {}  # text or element tuple -> predicted indices
        for j, kb in enumerate(predicted):
            for token in {kb.text, *[e for e, _ in kb.variants]}:
                index.setdefault(token, []).append(j)
        return [sorted({j for token in (ka.text, *[e for e, _ in ka.variants])
                        for j in index.get(token, ())}) for ka in expected]

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
        detail = " ~ ".join(map(materials.format_composition, pair))
        return MatchOutcome(True, "formula", detail=detail)


TIERS = {"strict": StrictTier, "soft": SoftTier, "semantic": SemanticTier, "formula": FormulaTier}


def settings_read(matchers) -> set[str]:
    """The settings (:attr:`Tier.reads`) that the named matchers read between them."""
    return {setting for name in matchers for setting in TIERS[name].reads}
