"""Candidates: the questions `match` writes and `extract` asks.

A candidate is one (head concept, relation, page), anchored at the first
mention of the head on the page. It points at its section by the index of
the section in the page's `walk_sections()` order and at the match by its
word index in that section's flattened text, so `extract` reads the
context from documents.jsonl. `match` and `extract` both import this
module; neither the HTML parser, the matcher nor the HTTP client comes
with it: `enumerate_candidates` imports the matcher when `match` calls it.
`docmodel` encodes and decodes candidates.jsonl's lines.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .config import RelationType
from .docmodel import WebDocument, read_jsonl, record, write_jsonl

if TYPE_CHECKING:
    from .matcher import MatcherAutomaton


@dataclass(frozen=True)
class CandidatePair:
    """One question for the chat model. The context comes from the section
    at `section_index` in the page's `walk_sections()` order; the match is
    word `match_word_index` of that section's flattened text."""

    candidate_id: str
    site_id: str
    page_url: str
    relation: str
    head_surface: str
    head_concept_id: str
    tail_title: str
    section_path: str
    section_index: int
    match_word_index: int


def candidate_id(site_id: str, page_url: str, relation: str, concept_id: str) -> str:
    key = f"{site_id}\x00{page_url}\x00{relation}\x00{concept_id}"
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


_TOKEN = re.compile(r"\S+")


def token_starts(text: str) -> list[int]:
    """Offsets at which the whitespace-separated tokens of `text` begin."""
    return [m.start() for m in _TOKEN.finditer(text)]


def word_index(text: str, starts: list[int], offset: int) -> int:
    """Index of the whitespace token of `text` that contains `offset`, given
    `token_starts(text)`: `len(text[:offset].split())`, less one when the
    offset falls inside a token."""
    index = bisect_left(starts, offset)
    if offset > 0 and not text[offset - 1].isspace():
        index -= 1
    return index


def enumerate_candidates(
    docs: Iterable[WebDocument],
    automaton: MatcherAutomaton,
    relations: Sequence[RelationType],
) -> list[CandidatePair]:
    """One candidate per (head concept, relation, page), anchored at the
    first mention on the page."""
    from .matcher import match_terms, semantic_filter  # only match matches

    candidates = []
    seen: set[tuple[str, str, str]] = set()
    for doc in docs:
        for section_index, (section, path) in enumerate(doc.walk_sections()):
            if not section.text:
                continue
            matches = match_terms(automaton, section.text)
            if not matches:
                continue
            starts = token_starts(section.text)
            for relation in relations:
                for match in semantic_filter(matches, relation):
                    key = (doc.page_url, relation.id, match.concept_id)
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(
                        CandidatePair(
                            candidate_id=candidate_id(
                                doc.site_id, doc.page_url, relation.id, match.concept_id
                            ),
                            site_id=doc.site_id,
                            page_url=doc.page_url,
                            relation=relation.id,
                            head_surface=match.surface,
                            head_concept_id=match.concept_id,
                            tail_title=doc.main_title,
                            section_path=path,
                            section_index=section_index,
                            # the flattened section text begins with the
                            # section's own text, so indexes carry over
                            match_word_index=word_index(
                                section.text, starts, match.span[0]
                            ),
                        )
                    )
    return candidates


write_candidates = write_jsonl  # the name match writes candidates.jsonl by


def read_candidates(path: str | Path) -> list[CandidatePair]:
    """The candidates `write_candidates` wrote, each decoded by `record`,
    so a key it does not read is ignored; see `read_jsonl` for errors."""
    return read_jsonl(path, partial(record, CandidatePair), "a current candidate record",
                      "rerun match")
