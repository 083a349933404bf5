"""Thesaurus loading and maximum forward matching by first-token lookup.

The thesaurus is a 3-column TSV (surface, concept id, semicolon-joined
semantic types). Surfaces are case-folded at load time; matching is
case-insensitive and only starts/ends at word boundaries. At each word
start the longest dictionary surface wins and scanning resumes after it
(maximum forward matching). The surfaces are indexed by their first token
(the leading alphanumeric run, or the first character when that is not
alphanumeric), each with its surface lengths, longest first. `match_terms`
walks the tokens of the folded text and, for a token that starts some
surface, tries only that token's lengths against the folded-surface dict;
most tokens cost one dict miss. Building the table is one pass over the
surfaces, about 0.3 µs each (6 ms for 20k surfaces on Python 3.11).

One surface has one sense: the first row's concept keeps it, a later row
of the same concept adds its semantic types, and a row of another concept
is only counted as a conflict.

A surface can match only where a text token equals its first token, so
`load_thesaurus` given the tokens of a corpus (`corpus_tokens`) indexes
only the rows that start with one of them; the matches do not change.
Every row is still read and checked, about 0.6 µs a row when it is left
out (11 ms for 20k rows).
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, NamedTuple

from .config import RelationType
from .errors import ConfigError

MIN_SURFACE_LEN = 3

# A token is an alphanumeric run or one other non-space character;
# `[^\W_]` is `str.isalnum`, so a surface matches only where the text's
# token equals the surface's first token.
TOKEN = re.compile(r"[^\W_]+|\S")


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


def first_token(surface: str) -> str | None:
    """The text token at which a match of the folded `surface` starts: its
    leading alphanumeric run, or its first character when that is not
    alphanumeric. None for an empty surface, which never matches."""
    first = surface.partition(" ")[0]
    if first.isalnum():
        return first
    token = TOKEN.match(surface)
    return None if token is None else token.group()


def corpus_tokens(texts: Iterable[str]) -> set[str]:
    """The tokens of the folded texts: the only first tokens at which
    `match_terms` can start a match in them."""
    tokens: set[str] = set()
    for text in texts:
        tokens.update(TOKEN.findall(fold(text)))
    return tokens


class TermEntry(NamedTuple):
    surface: str
    concept_id: str
    semantic_types: frozenset[str]


@dataclass
class Thesaurus:
    index: dict[str, TermEntry] = field(default_factory=dict)
    skipped_rows: int = 0
    skipped_short: int = 0
    # usable rows not indexed: no text to match holds their first token
    unreachable: int = 0
    concept_conflicts: int = 0

    def __len__(self) -> int:
        return len(self.index)

    def add(self, surface: str, concept_id: str, types: Iterable[str]) -> None:
        self.add_folded(fold(surface.strip()), concept_id, types)

    def add_folded(self, folded: str, concept_id: str, types: Iterable[str]) -> None:
        """Index `folded` under `concept_id`. A repeat of the indexed concept
        adds its types. A row of another concept is only counted: the first
        concept keeps the surface and its own types."""
        existing = self.index.get(folded)
        if existing is None:
            self.index[folded] = TermEntry(folded, concept_id, frozenset(types))
        elif existing.concept_id != concept_id:
            self.concept_conflicts += 1
        else:
            self.index[folded] = TermEntry(
                folded, concept_id, existing.semantic_types | frozenset(types))


def load_thesaurus(path: str | Path, tokens: Collection[str] | None = None) -> Thesaurus:
    """Parse the TSV leniently: incomplete or short rows are skipped, not
    fatal. Rows with the same types field share one frozenset. Given
    `tokens`, a usable row is indexed only if its first token is one of
    them, and counted as unreachable otherwise. A file that cannot be read
    or is not UTF-8, a row without 3 columns, and a file without a usable
    row raise ConfigError naming the file. A surface that a later row
    gives another concept keeps the first concept and its types.

    The file is streamed a line at a time. A line is split on tabs as it is
    read, the strip of its last column drops the newline, and a line that
    is only a newline is skipped."""
    thesaurus = Thesaurus()
    add_folded = thesaurus.add_folded
    type_sets: dict[str, frozenset[str]] = {}
    skipped_rows = skipped_short = unreachable = 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                cols = line.split("\t")
                if len(cols) != 3:
                    if line == "\n":
                        continue
                    raise ConfigError(f"thesaurus {path}: line {line_no}: "
                                      f"expected 3 columns, got {len(cols)}")
                surface, concept_id, types_field = cols
                surface = surface.strip()
                concept_id = concept_id.strip()
                types_field = types_field.strip()
                if not surface or not concept_id or not types_field:
                    skipped_rows += 1
                    continue
                if len(surface) < MIN_SURFACE_LEN and not (
                    surface.isupper() and any(c.isalpha() for c in surface)
                ):
                    skipped_short += 1
                    continue
                types = type_sets.get(types_field)
                if types is None:
                    types = type_sets[types_field] = frozenset(
                        t.strip() for t in types_field.split(";") if t.strip()
                    )
                if not types:
                    skipped_rows += 1
                    continue
                folded = fold(surface)
                if tokens is not None and first_token(folded) not in tokens:
                    unreachable += 1
                    continue
                add_folded(folded, concept_id, types)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"thesaurus {path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"thesaurus {path}: {exc}") from None
    thesaurus.skipped_rows = skipped_rows
    thesaurus.skipped_short = skipped_short
    thesaurus.unreachable = unreachable
    if not thesaurus.index and not unreachable:
        raise ConfigError(f"thesaurus {path}: cannot build a matcher from an empty thesaurus")
    return thesaurus


@dataclass(frozen=True)
class TermMatch:
    surface: str
    concept_id: str
    semantic_types: frozenset[str]
    span: tuple[int, int]  # [start, end) character offsets into source text


class MatcherAutomaton:
    """The folded thesaurus surfaces, and their lengths by first token.

    Safe to share across threads: all state is read-only after build.
    """

    def __init__(self, thesaurus: Thesaurus):
        self.index = thesaurus.index  # shared: a loaded thesaurus is not changed
        lengths: defaultdict[str, set[int]] = defaultdict(set)
        for surface in self.index:
            first = first_token(surface)
            if first is not None:
                lengths[first].add(len(surface))
        # lengths of the surfaces each first token starts, longest first
        self.first_tokens = {first: sorted(found, reverse=True)
                             for first, found in lengths.items()}


def match_terms(automaton: MatcherAutomaton, text: str) -> list[TermMatch]:
    """Left-to-right, non-overlapping maximum forward matching."""
    folded = fold(text)
    n = len(folded)
    index, first_tokens = automaton.index, automaton.first_tokens
    matches = []
    resume = 0  # the end of the last match
    for token in TOKEN.finditer(folded):
        lengths = first_tokens.get(token.group())
        if lengths is None:
            continue
        p = token.start()
        if p < resume or (p and folded[p - 1].isalnum()):
            continue  # inside the last match, or not a word start
        for length in lengths:
            end = p + length
            # a surface ends at the text's end or before a non-alphanumeric
            if end > n or (end < n and folded[end].isalnum()):
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
                resume = end
                break
    return matches


def semantic_filter(matches: list[TermMatch], relation: RelationType) -> list[TermMatch]:
    """Keep matches whose semantic types intersect the relation's allowed set."""
    return [m for m in matches if m.semantic_types & relation.allowed_semantic_types]
