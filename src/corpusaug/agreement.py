"""Syntactic replaceability checks from type-level POS/morphology annotations.

An annotation lexicon maps each token string to one POS tag and a set of
morphological key=value features, as produced offline by a tagger and a
morphological analyzer. Tags and feature keys are opaque strings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional

from .corpus_io import CorpusFormatError, iter_lines

log = logging.getLogger(__name__)

MODE_OFF = "off"
MODE_POS = "pos"
MODE_POS_MORPH = "pos_morph"
MODES = (MODE_OFF, MODE_POS, MODE_POS_MORPH)

ROLE_MORPH_RICH = "morph_rich"
ROLE_NUMBER_ONLY = "number_only"
ROLES = (ROLE_MORPH_RICH, ROLE_NUMBER_ONLY)


@dataclass(frozen=True)
class TokenAnnotation:
    pos: str
    morph: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.pos:
            raise ValueError("POS tag must be non-empty")


class AnnotatedLexicon:
    """Immutable token -> annotation map."""

    def __init__(self, entries: Mapping[str, TokenAnnotation]):
        self._entries: Dict[str, TokenAnnotation] = dict(entries)

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, token: str) -> Optional[TokenAnnotation]:
        return self._entries.get(token)


def parse_morph(spec: str) -> Dict[str, str]:
    """Parse a ``key=value|key=value`` feature list; ``_`` means empty."""
    if spec == "_" or spec == "":
        return {}
    features: Dict[str, str] = {}
    for item in spec.split("|"):
        if "=" not in item:
            log.warning("morph feature without '=': %r; item skipped", item)
            continue
        key, value = item.split("=", 1)
        features.setdefault(key, value)
    return features


def load_annotations(path: str | Path) -> AnnotatedLexicon:
    """Load a token/pos/morph TSV into an annotation lexicon.

    Rows with fewer than two columns are skipped with a warning; for
    duplicate tokens the first row wins.
    """
    p = Path(path)
    entries: Dict[str, TokenAnnotation] = {}
    for lineno, line in enumerate(iter_lines(p, CorpusFormatError), start=1):
        if not line:
            continue
        columns = line.split("\t")
        if len(columns) < 2:
            log.warning("%s:%d: expected token/pos[/morph]; row skipped", p, lineno)
            continue
        token, pos = columns[0], columns[1]
        if not token or not pos:
            log.warning("%s:%d: empty token or pos; row skipped", p, lineno)
            continue
        morph = parse_morph(columns[2]) if len(columns) > 2 else {}
        if token in entries:
            log.warning("%s:%d: duplicate annotation for %r; first kept", p, lineno, token)
            continue
        entries[token] = TokenAnnotation(pos, morph)
    return AnnotatedLexicon(entries)


def pos_agree(a: TokenAnnotation, b: TokenAnnotation) -> bool:
    """Exact, case-sensitive POS tag equality."""
    return a.pos == b.pos


def morph_agree(a: TokenAnnotation, b: TokenAnnotation) -> bool:
    """True unless a feature key present on both sides has differing values.

    Keys present on only one side never block: analyzer coverage is partial,
    so only explicit conflicts count.
    """
    for key, value in a.morph.items():
        if key in b.morph and b.morph[key] != value:
            return False
    return True


def number_agree(a: TokenAnnotation, b: TokenAnnotation) -> bool:
    """Morph agreement restricted to the single feature key ``Number``."""
    if "Number" in a.morph and "Number" in b.morph:
        return a.morph["Number"] == b.morph["Number"]
    return True


def syntactic_ok(lang_role: str, a: TokenAnnotation, b: TokenAnnotation, mode: str) -> bool:
    """Decide replaceability of two annotated tokens under the given mode.

    ``morph_rich`` roles check the full feature set; ``number_only`` roles
    consult just the Number feature. Both annotations must be present;
    callers treat a missing annotation as a failure before getting here.
    """
    if mode not in MODES:
        raise ValueError(f"unknown agreement mode: {mode!r}")
    if lang_role not in ROLES:
        raise ValueError(f"unknown language role: {lang_role!r}")
    if mode == MODE_OFF:
        return True
    if not pos_agree(a, b):
        return False
    if mode == MODE_POS:
        return True
    if lang_role == ROLE_MORPH_RICH:
        return morph_agree(a, b)
    return number_agree(a, b)
