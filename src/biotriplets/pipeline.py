"""End-to-end orchestration: candidates, classification by section, triplets.

Candidates are one per (head concept, relation, page) and point at their
section in documents.jsonl. The pending section is the unit of work: a
worker chunks its candidates, embeds their distinct texts in one call, then
classifies the candidates in turn, so concurrency comes from distinct
sections. A section of at most `anchor_min_words` words gives each
candidate one chunk, the one retrieved whatever the vectors, so it is
neither embedded nor ranked. Classification progress is journaled to an
append-only JSONL file keyed by candidate id, so an interrupted run
resumes without re-querying finished candidates.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .classifier import CandidatePair, ChatEndpoint, ExemplarSet, Judgment, classify
from .docmodel import Section, WebDocument, flatten_section_text, read_jsonl, section_path
from .errors import MatchOutOfRange, StaleCandidates
from .matcher import MatcherAutomaton, match_terms, semantic_filter
from .retrieval import (
    Chunk,
    EmbeddingEndpoint,
    RetrievalConfig,
    build_query,
    chunk_for_candidate,
    retrieve_top_k,
    unit_rows,
)

logger = logging.getLogger(__name__)

DEFAULT_SEMANTIC_TYPES = {
    "manifestation": {"Sign, Symptom, or Finding"},
    "diagnosis": {"Diagnostic Procedure", "Laboratory Procedure"},
    "treatment": {"Therapeutic or Preventive Procedure", "Chemical or Drug"},
}


@dataclass(frozen=True)
class RelationType:
    id: str
    phrase: str
    allowed_semantic_types: frozenset[str]


def default_relations() -> list[RelationType]:
    from .retrieval import RELATION_PHRASES

    return [
        RelationType(rid, RELATION_PHRASES[rid], frozenset(types))
        for rid, types in DEFAULT_SEMANTIC_TYPES.items()
    ]


@dataclass(frozen=True)
class RelationTriplet:
    head_concept_id: str
    head_surface: str
    relation: str
    tail_title: str
    site_id: str
    page_url: str
    section_path: str
    reason: str
    model_id: str

    def to_dict(self) -> dict:
        return dict(self.__dict__)


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
    relations: list[RelationType],
) -> list[CandidatePair]:
    """One candidate per (head concept, relation, page), anchored at the
    first mention on the page."""
    candidates = []
    seen: set[tuple[str, str, str]] = set()
    for doc in docs:
        for section_index, section in enumerate(doc.walk_sections()):
            if not section.text:
                continue
            path = section_path(doc, section)
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
                            head_semantic_types=match.semantic_types,
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


def write_candidates(candidates: Iterable[CandidatePair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in candidates:
            fh.write(json.dumps(c.to_dict(), ensure_ascii=False) + "\n")


def read_candidates(path: str | Path) -> list[CandidatePair]:
    return read_jsonl(path, CandidatePair.from_dict, "a current candidate record",
                      "rerun match", StaleCandidates)


# --------------------------------------------------------------------------
# Extraction run with append-only journal.


@dataclass
class CellCounts:
    candidates: int = 0
    positives: int = 0
    negatives: int = 0
    malformed: int = 0

    @property
    def positive_rate(self) -> float:
        return self.positives / self.candidates if self.candidates else 0.0


@dataclass
class ExtractionReport:
    relations: list[str]
    cells: dict[tuple[str, str], CellCounts] = field(default_factory=dict)
    pages: dict[str, int] = field(default_factory=dict)

    def cell(self, site_id: str, relation: str) -> CellCounts:
        return self.cells.setdefault((site_id, relation), CellCounts())

    @property
    def totals(self) -> CellCounts:
        total = CellCounts()
        for c in self.cells.values():
            total.candidates += c.candidates
            total.positives += c.positives
            total.negatives += c.negatives
            total.malformed += c.malformed
        return total


@dataclass
class ExtractionResult:
    triplets: list[RelationTriplet]
    report: ExtractionReport
    malformed: list[dict]
    classified: int  # candidates classified by this run


class Journal:
    """Append-only JSONL of finished candidates, the resume checkpoint."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._tail_checked = False

    def load(self) -> dict[str, dict]:
        done = {}
        if self.path.exists():
            with open(self.path, "rb") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except ValueError:
                        continue  # torn tail line from a killed run
                    done[rec["candidate_id"]] = rec
        return done

    def append(self, record: dict) -> None:
        data = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            with open(self.path, "a+b") as fh:
                if not self._tail_checked:
                    self._tail_checked = True
                    _end_torn_line(fh)
                fh.write(data)
                fh.flush()


def _end_torn_line(fh) -> None:
    """A killed run can leave a last line without its newline. End it, so
    the next record starts a line of its own: a torn record then fails to
    parse alone, and a record that lost only its newline still loads."""
    size = fh.seek(0, os.SEEK_END)
    if size:
        fh.seek(size - 1)
        if fh.read(1) != b"\n":
            fh.write(b"\n")


def pending_sections(
    pending: list[CandidatePair], documents: Iterable[WebDocument]
) -> list[tuple[Section, list[CandidatePair]]]:
    """Group pending candidates by the section they point at, in first-seen
    order.

    Raises StaleCandidates when a section is missing from the documents or
    sits at another path than the candidate recorded.
    """
    groups: dict[tuple[str, str, int], list[CandidatePair]] = {}
    for c in pending:
        groups.setdefault((c.site_id, c.page_url, c.section_index), []).append(c)
    pages = {key[:2] for key in groups}
    docs: dict[tuple[str, str], tuple[WebDocument, list[Section]]] = {}
    for doc in documents:
        key = (doc.site_id, doc.page_url)
        if key in pages and key not in docs:
            docs[key] = (doc, list(doc.walk_sections()))

    out = []
    for key, members in groups.items():
        doc, sections = docs.get(key[:2], (None, []))
        index = key[2]
        path = section_path(doc, sections[index]) if 0 <= index < len(sections) else None
        for c in members:
            if c.section_path != path:
                raise StaleCandidates(
                    f"candidate {c.candidate_id} points at section {index} "
                    f"({c.section_path!r}) of {c.page_url}, which documents.jsonl "
                    f"does not have; rerun match"
                )
        out.append((sections[index], members))
    return out


def _section_vectors(
    section: Section,
    candidates: list[CandidatePair],
    embedder: EmbeddingEndpoint,
    cfg: RetrievalConfig,
) -> tuple[list[list[Chunk]], dict[str, np.ndarray]]:
    """Each candidate's chunks, and the unit vectors of the distinct query
    and chunk texts of those with more than one chunk, embedded in one
    `embed` call (none when there are no such texts)."""
    flat = flatten_section_text(section)
    chunks: list[list[Chunk]] = []
    texts: dict[str, None] = {}
    for c in candidates:
        try:
            chunks.append(chunk_for_candidate(flat, c.match_word_index, cfg))
        except MatchOutOfRange as exc:
            raise StaleCandidates(
                f"candidate {c.candidate_id}: {exc} in {c.section_path!r}; rerun match"
            ) from None
        if len(chunks[-1]) > 1:
            texts[build_query(c.head_surface, c.relation, c.tail_title)] = None
            texts.update(dict.fromkeys(chunk.text for chunk in chunks[-1]))
    if not texts:
        return chunks, {}
    return chunks, dict(zip(texts, unit_rows(embedder.embed(list(texts)))))


def _process_candidate(
    candidate: CandidatePair,
    chunks: list[Chunk],
    vectors: dict[str, np.ndarray],
    chat: ChatEndpoint,
    retrieval_cfg: RetrievalConfig,
    exemplars: ExemplarSet,
) -> Judgment:
    """Classify one candidate; a candidate with one chunk is not ranked."""
    if len(chunks) > 1:
        query = build_query(candidate.head_surface, candidate.relation, candidate.tail_title)
        chunks = retrieve_top_k(
            vectors[query], [(chunk, vectors[chunk.text]) for chunk in chunks], retrieval_cfg
        )
    return classify(candidate, chunks, chat, exemplars)


def run_extraction(
    candidates: list[CandidatePair],
    documents: Iterable[WebDocument],
    chat: ChatEndpoint,
    embedder: EmbeddingEndpoint,
    retrieval_cfg: RetrievalConfig,
    exemplars: ExemplarSet,
    journal_path: str | Path,
    relations: Optional[list[str]] = None,
    workers: int = 4,
    limit: Optional[int] = None,
    deterministic: bool = False,
) -> ExtractionResult:
    """Classify every candidate not already journaled, then aggregate.

    `documents` holds the sections the candidates point at; only those of
    pending candidates are read. `limit` caps how many pending candidates
    this run processes; the rest stay pending for a later resume. Each
    worker takes one pending section at a time: it embeds the section, then
    classifies and journals its candidates in turn. Endpoint failure aborts
    with the journal intact: once a candidate has failed, no worker starts
    another.
    """
    journal = Journal(journal_path)
    done = journal.load()
    pending = [c for c in candidates if c.candidate_id not in done]
    if limit is not None:
        pending = pending[:limit]
    sections = pending_sections(pending, documents)
    failed = threading.Event()

    def work(section: Section, members: list[CandidatePair]) -> int:
        """Classify the section's candidates in turn; returns how many."""
        if failed.is_set():
            return 0  # the run is stopping: send no new request
        try:
            chunks, vectors = _section_vectors(section, members, embedder, retrieval_cfg)
            for count, (candidate, its_chunks) in enumerate(zip(members, chunks)):
                if failed.is_set():
                    return count
                judgment = _process_candidate(
                    candidate, its_chunks, vectors, chat, retrieval_cfg, exemplars
                )
                record = {
                    "candidate_id": candidate.candidate_id,
                    "answer": judgment.answer,
                    "reason": judgment.reason,
                    "model_id": judgment.model_id,
                }
                if not deterministic:
                    record["latency_ms"] = judgment.latency_ms
                journal.append(record)
        except BaseException:
            failed.set()
            raise
        return len(members)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, section, members) for section, members in sections]
    classified = sum(f.result() for f in futures)

    done = journal.load()
    relation_ids = relations or sorted({c.relation for c in candidates})
    report = ExtractionReport(relations=list(relation_ids))
    triplets: list[RelationTriplet] = []
    malformed: list[dict] = []
    pages: dict[str, set[str]] = {}

    for candidate in candidates:
        pages.setdefault(candidate.site_id, set()).add(candidate.page_url)
        rec = done.get(candidate.candidate_id)
        if rec is None:
            continue  # still pending (limited run)
        cell = report.cell(candidate.site_id, candidate.relation)
        cell.candidates += 1
        answer = rec["answer"]
        if answer == "Yes":
            cell.positives += 1
            triplets.append(
                RelationTriplet(
                    head_concept_id=candidate.head_concept_id,
                    head_surface=candidate.head_surface,
                    relation=candidate.relation,
                    tail_title=candidate.tail_title,
                    site_id=candidate.site_id,
                    page_url=candidate.page_url,
                    section_path=candidate.section_path,
                    reason=rec["reason"],
                    model_id=rec["model_id"],
                )
            )
        elif answer == "No":
            cell.negatives += 1
        else:
            cell.malformed += 1
            malformed.append({"candidate_id": candidate.candidate_id, **rec})
    report.pages = {site: len(urls) for site, urls in pages.items()}
    return ExtractionResult(triplets, report, malformed, classified)


# --------------------------------------------------------------------------
# Dedup and reporting.


def dedupe_triplets(
    triplets: list[RelationTriplet],
    site_priority: Optional[list[str]] = None,
) -> tuple[list[RelationTriplet], int]:
    """One triplet per (head concept, relation, case-folded tail title).

    Provenance comes from the earliest site in the priority order;
    returns (deduped triplets, duplicate count).
    """
    priority = {site: i for i, site in enumerate(site_priority or [])}
    best: dict[tuple[str, str, str], tuple[int, int, RelationTriplet]] = {}
    duplicates = 0
    for order, t in enumerate(triplets):
        key = (t.head_concept_id, t.relation, t.tail_title.casefold())
        rank = (priority.get(t.site_id, len(priority)), order)
        if key in best:
            duplicates += 1
            if rank < best[key][:2]:
                best[key] = (*rank, t)
        else:
            best[key] = (*rank, t)
    deduped = [entry[2] for entry in sorted(best.values(), key=lambda e: e[1])]
    return deduped, duplicates


def render_report(report: ExtractionReport) -> tuple[str, dict]:
    """Text table plus machine-readable dict; cells as "count(rate%)"."""

    def cell_text(counts: CellCounts) -> str:
        return f"{counts.positives}({counts.positive_rate * 100:.1f}%)"

    sites = sorted({site for site, _ in report.cells} | set(report.pages))
    empty = CellCounts()
    cells = {
        (site, relation): report.cells.get((site, relation), empty)
        for site in sites
        for relation in report.relations
    }
    headers = ["Site", "Pages"] + [r.capitalize() for r in report.relations]
    rows = []
    for site in sites:
        row = [site, str(report.pages.get(site, 0))]
        for relation in report.relations:
            row.append(cell_text(cells[site, relation]))
        rows.append(row)

    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)

    def cell_dict(counts: CellCounts) -> dict:
        return {
            "candidates": counts.candidates,
            "positives": counts.positives,
            "negatives": counts.negatives,
            "malformed": counts.malformed,
            "positive_rate": counts.positive_rate,
            "display": cell_text(counts),
        }

    totals = report.totals
    as_dict = {
        "relations": report.relations,
        "sites": {
            site: {
                "pages": report.pages.get(site, 0),
                "cells": {
                    relation: cell_dict(cells[site, relation])
                    for relation in report.relations
                },
            }
            for site in sites
        },
        "totals": {
            "candidates": totals.candidates,
            "positives": totals.positives,
            "negatives": totals.negatives,
            "malformed": totals.malformed,
        },
    }
    return text, as_dict


def write_triplets(triplets: Iterable[RelationTriplet], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triplets:
            fh.write(json.dumps(t.to_dict(), ensure_ascii=False) + "\n")
