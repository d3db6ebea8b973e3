"""Bundled periodic table and adjunct lexicon, both overridable from JSON files."""

import json
from functools import lru_cache
from importlib import resources

from .errors import ConfigError


@lru_cache(maxsize=1)
def periodic_table() -> frozenset[str]:
    """Return the 118 element symbols bundled with the package."""
    payload = json.loads(
        resources.files("mateval.resources").joinpath("periodic_table.json").read_text()
    )
    return frozenset(payload["symbols"])


@lru_cache(maxsize=1)
def default_adjuncts() -> tuple[str, ...]:
    """Descriptor words stripped from material expressions before parsing."""
    payload = json.loads(
        resources.files("mateval.resources").joinpath("adjunct_lexicon.json").read_text()
    )
    return tuple(payload["adjuncts"])


def load_adjuncts(path: str) -> tuple[str, ...]:
    """Load a replacement adjunct lexicon from a JSON file.

    Accepts either ``{"adjuncts": [...]}`` or a bare JSON list of non-empty
    strings; anything else raises ConfigError naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise ConfigError(f"{path}: not UTF-8 JSON: {exc}") from exc
    words = payload.get("adjuncts") if isinstance(payload, dict) else payload
    if not isinstance(words, list) or not all(isinstance(w, str) and w.strip() for w in words):
        raise ConfigError(f'{path}: expected {{"adjuncts": [...]}} or a list of non-empty strings')
    return tuple(words)


def is_element(symbol: str) -> bool:
    """True for a valid periodic-table symbol (case-sensitive: 'Ca', not 'CA')."""
    return symbol in periodic_table()
