"""Thesaurus loading and maximum forward matching by hash lookup.

The thesaurus is a 3-column TSV (surface, concept id, semicolon-joined
semantic types). Surfaces are case-folded at load time; matching is
case-insensitive and only starts/ends at word boundaries. At each
boundary position the longest dictionary surface wins and scanning
resumes after it (maximum forward matching). The candidate spans at a
start are the word-boundary ends within the longest surface length; they
are tried longest first against the folded-surface dict, so no automaton
is built.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import EmptyDictionary, FileUnreadable, FormatError, UnknownRelationType

logger = logging.getLogger(__name__)

MIN_SURFACE_LEN = 3


def fold(text: str) -> str:
    """Length-preserving lowercase, so character offsets into the result
    are offsets into `text`. Each character is lowered on its own and kept
    as it is where lowering would lengthen it (U+0130 İ). `str.lower`
    gives the same result unless it lengthens a character (then the
    length differs) or lowers a capital sigma by its context (final ς)."""
    low = text.lower()
    if len(low) == len(text) and "\u03a3" not in text:
        return low
    out = []
    for ch in text:
        low = ch.lower()
        out.append(low if len(low) == 1 else ch)
    return "".join(out)


class TermEntry(NamedTuple):
    surface: str
    concept_id: str
    semantic_types: frozenset[str]


@dataclass
class Thesaurus:
    index: dict[str, TermEntry] = field(default_factory=dict)
    skipped_rows: int = 0
    skipped_short: int = 0
    concept_conflicts: int = 0

    def __len__(self) -> int:
        return len(self.index)

    def add(self, surface: str, concept_id: str, types: Iterable[str]) -> None:
        folded = fold(surface.strip())
        existing = self.index.get(folded)
        if existing is None:
            self.index[folded] = TermEntry(folded, concept_id, frozenset(types))
            return
        if existing.concept_id != concept_id:
            # one sense per surface: first concept wins
            self.concept_conflicts += 1
            logger.debug("concept conflict for %r: %s vs %s",
                         folded, existing.concept_id, concept_id)
            concept_id = existing.concept_id
        self.index[folded] = TermEntry(
            folded, concept_id, existing.semantic_types | frozenset(types)
        )


def load_thesaurus(path: str | Path) -> Thesaurus:
    """Parse the TSV leniently: malformed or short rows are skipped, not fatal.
    Rows with the same types field share one frozenset."""
    thesaurus = Thesaurus()
    type_sets: dict[str, frozenset[str]] = {}
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise FileUnreadable(str(exc)) from exc
    with fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != 3:
                    raise FormatError(line_no, f"expected 3 columns, got {len(cols)}")
                surface, concept_id, types_field = [c.strip() for c in cols]
                if not surface or not concept_id or not types_field:
                    thesaurus.skipped_rows += 1
                    continue
                if len(surface) < MIN_SURFACE_LEN and not (
                    surface.isupper() and any(c.isalpha() for c in surface)
                ):
                    thesaurus.skipped_short += 1
                    continue
                types = type_sets.get(types_field)
                if types is None:
                    types = type_sets[types_field] = frozenset(
                        t.strip() for t in types_field.split(";") if t.strip()
                    )
                if not types:
                    thesaurus.skipped_rows += 1
                    continue
                thesaurus.add(surface, concept_id, types)
        except UnicodeDecodeError as exc:
            raise FileUnreadable(f"not UTF-8 text: {exc}") from None
    return thesaurus


@dataclass(frozen=True)
class TermMatch:
    surface: str
    concept_id: str
    semantic_types: frozenset[str]
    span: tuple[int, int]  # [start, end) character offsets into source text


class MatcherAutomaton:
    """The folded thesaurus surfaces, indexed for longest-first lookup.

    Safe to share across threads: all state is read-only after build.
    """

    def __init__(self, thesaurus: Thesaurus):
        if not thesaurus.index:
            raise EmptyDictionary("cannot build a matcher from an empty thesaurus")
        self.index = thesaurus.index  # shared: a loaded thesaurus is not changed
        self.lengths = frozenset(len(surface) for surface in self.index)
        self.max_len = max(self.lengths)


def match_terms(automaton: MatcherAutomaton, text: str) -> list[TermMatch]:
    """Left-to-right, non-overlapping maximum forward matching."""
    folded = fold(text)
    n = len(folded)
    # a surface ends where the next character is not alphanumeric
    ends = [i for i, ch in enumerate(folded) if not ch.isalnum()]
    ends.append(n)
    index, lengths, max_len = automaton.index, automaton.lengths, automaton.max_len
    matches = []
    p = 0
    while p < n:
        if p and folded[p - 1].isalnum():
            # not a word start: move just past the next boundary
            p = ends[bisect_left(ends, p)] + 1
            continue
        lo = bisect_right(ends, p)
        hi = bisect_right(ends, p + max_len, lo)
        for k in range(hi - 1, lo - 1, -1):
            end = ends[k]
            if end - p not in lengths:
                continue
            surface = folded[p:end]
            entry = index.get(surface)
            if entry is not None:
                matches.append(
                    TermMatch(
                        surface=surface,
                        concept_id=entry.concept_id,
                        semantic_types=entry.semantic_types,
                        span=(p, end),
                    )
                )
                p = end
                break
        else:
            p += 1
    return matches


def semantic_filter(matches, relation) -> list[TermMatch]:
    """Keep matches whose semantic types intersect the relation's allowed set."""
    allowed = getattr(relation, "allowed_semantic_types", None)
    if not allowed:
        raise UnknownRelationType(f"relation {relation!r} has no semantic types")
    allowed = frozenset(allowed)
    return [m for m in matches if m.semantic_types & allowed]
