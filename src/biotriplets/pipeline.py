"""Extraction: classification by section, then triplets.

Candidates (see `candidates`) point at their section in documents.jsonl.
The pending section is the unit of planning:
one worker sends a section's chats in turn, so concurrency comes from
distinct sections. One planner yields the embedding requests, each of texts
that no earlier run or request embedded, filled to `batch_limit` across
section boundaries so each text is embedded once per run, and each section
after the requests it needs. The workers share one `_Extraction`, and each
runs its `work`: send the deferred requests that are due, take the
planner's next item, then send the batch or classify the section. A request
that meets a transport error, 5xx or 429 waits for its retry on one heap
of deferred requests, not on a worker, which goes on sending.
A section of at most `anchor_min_words` words gives each candidate one
chunk, the one retrieved whatever the vectors, so it is neither embedded nor
ranked. Classification progress is journaled to an append-only JSONL file
keyed by candidate id, and every embedding to a checkpoint beside it, so
an interrupted run resumes without re-querying finished candidates or
re-embedding a text.

`run_extraction` only classifies. `summarize` then derives the triplets,
the report and the malformed records from the journal in one pass over the
candidates, so every count and every triplet is a journaled verdict.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import json
import math
import os
import struct
import threading
import time
from dataclasses import dataclass
from functools import partial
from itertools import count, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .candidates import CandidatePair
from .classifier import Exemplar, Judgment, classify
from .config import DEFAULT_RELATIONS, RelationType, RetrievalConfig
from .docmodel import Section, WebDocument, flatten_section_text, json_line, record
from .endpoint import ChatEndpoint, EmbeddingEndpoint, Endpoint, RetryLater
from .errors import ConfigError
from .retrieval import Chunk, chunk_for_candidate, retrieve_top_k, unit_rows

# Only the benchmark's workload generator (perfbench/workloads.py) reads this.
DEFAULT_SEMANTIC_TYPES = {r.id: r.allowed_semantic_types for r in DEFAULT_RELATIONS}


# --------------------------------------------------------------------------
# Extraction run with append-only journal.


@dataclass(frozen=True)
class Verdict:
    """A journal record: the chat model's answer to one candidate. A timed
    run's line also holds `latency_ms`, which no loader reads."""

    candidate_id: str
    answer: str
    reason: str
    model_id: str


class AppendLog:
    """An append-only JSONL file whose last line a killed run may have torn."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._tail_checked = False

    def _append(self, lines: list[bytes]) -> int:
        """Append whole lines in one write; returns the offset of the first.

        A killed run can leave a last line without its newline. The first
        append ends it, so the next record starts a line of its own: a torn
        record then fails to parse alone, and a record that lost only its
        newline still loads."""
        with self._lock, open(self.path, "a+b") as fh:
            offset = fh.seek(0, os.SEEK_END)
            if not self._tail_checked:
                self._tail_checked = True
                fh.seek(max(offset - 1, 0))
                if offset and fh.read(1) != b"\n":
                    offset += fh.write(b"\n")
            fh.write(b"".join(lines))
            fh.flush()
        return offset

    def _lines(self, hint: str) -> Iterator[bytes]:
        """The file's lines, none if it does not exist. A file that cannot
        be read (a directory, say) raises ConfigError naming it and `hint`."""
        try:
            with open(self.path, "rb") as fh:
                yield from fh
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ConfigError(f"cannot read {self.path}: {exc.strerror or exc}; {hint}") from None


class Journal(AppendLog):
    """Append-only JSONL of finished candidates, the resume checkpoint."""

    def load(self) -> dict[str, Verdict]:
        """Verdicts by candidate id, each line decoded by `record`, so a key
        it does not read (`latency_ms`) is ignored. A missing journal is
        empty. A line that is not JSON is skipped; a JSON line that is not a
        verdict record raises ConfigError naming the file, the line and what
        is wrong with it."""
        done = {}
        lines = self._lines("deleting it costs asking its candidates again")
        for line_no, line in enumerate(lines, 1):
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError):
                continue  # a blank line, or a torn tail line from a killed run
            try:
                verdict = record(Verdict, rec)
            except (KeyError, TypeError) as exc:
                problem = f"lacks {exc}" if isinstance(exc, KeyError) else exc
                raise ConfigError(
                    f"{self.path} line {line_no} is not a verdict record ({problem}); "
                    "delete that line so its candidate is asked again") from None
            done[verdict.candidate_id] = verdict
        return done

    def append(self, verdict: Verdict, latency_ms: Optional[int] = None) -> None:
        row = verdict if latency_ms is None else {**vars(verdict), "latency_ms": latency_ms}
        self._append([json_line(row).encode("utf-8")])


def _pack(vector: list[float]) -> str:
    """base64 of the vector as little-endian float64."""
    return base64.b64encode(struct.pack(f"<{len(vector)}d", *vector)).decode("ascii")


def _unpack(text: str) -> list[float]:
    """The vector `_pack` wrote; ValueError unless `text` is base64 of a
    whole number of float64s."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) % 8:
        raise ValueError("not a vector of float64")
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


class EmbeddingCheckpoint(AppendLog):
    """Append-only JSONL of every embedding an extract run paid for, one
    line per text: {"key": sha1 of (model, text), "vector": `_pack` of the
    raw reply vector}, so a reload is bit-identical. `plan_extraction`
    decides which texts go in which request, and `run_extraction` appends
    each reply here. A resume after an abort or a kill finds its texts here
    and embeds none of them again. Lines that are torn or unusable (not a
    non-zero finite vector) are skipped: that text is embedded again.

    Only each key's digest and line offset are held in memory; `vectors`
    reads the lines back, so a vector is held only while its section is
    worked on."""

    def __init__(self, path: str | Path, model: str):
        super().__init__(path)
        self._model = model
        self.offsets: dict[bytes, int] = {}
        offset = 0
        for line in self._lines("deleting it costs only embedding its texts again"):
            try:
                rec = json.loads(line)
                vector = _unpack(rec["vector"])
                if vector and 0 < math.hypot(*vector) < math.inf:
                    self.offsets[bytes.fromhex(rec["key"])] = offset
            except (ValueError, LookupError, TypeError, RecursionError):
                pass  # torn by a kill, or damaged: embedded again
            offset += len(line)

    def key(self, text: str) -> bytes:
        return hashlib.sha1(f"{self._model}\x00{text}".encode("utf-8")).digest()

    def add(self, keys: list[bytes], vectors: list[list[float]]) -> None:
        # hex and base64 need no JSON escapes
        lines = [f'{{"key": "{key.hex()}", "vector": "{_pack(vector)}"}}\n'.encode()
                 for key, vector in zip(keys, vectors)]
        offset = self._append(lines)
        for key, line in zip(keys, lines):
            self.offsets[key] = offset
            offset += len(line)

    def vectors(self, keys: list[bytes]) -> list[list[float]]:
        """The stored vectors of `keys`, each of which `offsets` holds."""
        with open(self.path, "rb") as fh:
            out = []
            for key in keys:
                fh.seek(self.offsets[key])
                out.append(_unpack(json.loads(fh.readline())["vector"]))
        return out


def pending_sections(
    pending: list[CandidatePair], documents: Iterable[WebDocument]
) -> list[tuple[Section, list[CandidatePair]]]:
    """Group pending candidates by the section they point at, in first-seen
    order.

    Raises ConfigError when a section is missing from the documents, sits
    at another path than the candidate recorded, or has no word at the
    candidate's `match_word_index`.
    """
    groups: dict[tuple[str, str, int], list[CandidatePair]] = {}
    for c in pending:
        groups.setdefault((c.site_id, c.page_url, c.section_index), []).append(c)
    pages = {key[:2] for key in groups}
    sections: dict[tuple[str, str], list[tuple[Section, str]]] = {}
    for doc in documents:
        key = (doc.site_id, doc.page_url)
        if key in pages and key not in sections:
            sections[key] = list(doc.walk_sections())

    out = []
    for (site_id, page_url, index), members in groups.items():
        walk = sections.get((site_id, page_url), [])
        section, path = walk[index] if 0 <= index < len(walk) else (None, None)
        n = len(flatten_section_text(section).split()) if section else 0
        for c in members:
            if c.section_path != path:
                raise ConfigError(
                    f"candidate {c.candidate_id} points at section {index} "
                    f"({c.section_path!r}) of {c.page_url}, which documents.jsonl "
                    f"does not have; rerun match"
                )
            if not 0 <= c.match_word_index < n:
                raise ConfigError(
                    f"candidate {c.candidate_id}: word index {c.match_word_index} "
                    f"outside [0, {n}) in {c.section_path!r}; rerun match"
                )
        out.append((section, members))
    return out


def _section_plan(
    section: Section,
    candidates: list[CandidatePair],
    questions: list[str],
    cfg: RetrievalConfig,
) -> tuple[list[list[Chunk]], list[str]]:
    """Each candidate's chunks, and the distinct texts to embed: the
    question and chunks of each candidate with more than one chunk. Sends
    no request.

    The section's flattened text is split into words once; its candidates
    share the chunks of one word span, each joined once; `pending_sections`
    has checked that each candidate's match lies inside the text.
    """
    words = flatten_section_text(section).split()
    built: dict[tuple[int, int, bool], Chunk] = {}  # the section's chunks by span
    chunks: list[list[Chunk]] = []
    texts: dict[str, None] = {}
    for c, question in zip(candidates, questions):
        its = chunk_for_candidate(words, c.match_word_index, cfg, built)
        chunks.append(its)
        if len(its) > 1:
            texts[question] = None
            texts.update(dict.fromkeys(chunk.text for chunk in its))
    return chunks, list(texts)


def _process_candidate(
    candidate: CandidatePair,
    question: str,
    chunks: list[Chunk],
    vectors: dict[str, list[float]],
    chat: ChatEndpoint,
    retrieval_cfg: RetrievalConfig,
    exemplars: dict[str, list[Exemplar]],
) -> Judgment:
    """Classify one candidate; a candidate with one chunk is not ranked."""
    if len(chunks) > 1:
        chunks = retrieve_top_k(vectors[question],
                                [(k, vectors[k.text]) for k in chunks], retrieval_cfg)
    return classify(candidate, question, chunks, chat, exemplars)


def plan_extraction(
    sections: Iterable[tuple[Section, list[CandidatePair]]],
    relations: Sequence[RelationType],
    cfg: RetrievalConfig,
    checkpoint,
    batch_limit: int,
) -> Iterator[dict[bytes, str] | tuple]:
    """The work of an extract run, in the order it is to be taken. Sends no
    request, starts no thread, and reads the next section only when nothing
    planned is ready.

    Each text of a section's plan that no earlier batch holds and
    `checkpoint` lacks (by its `key`, among its `offsets`) is queued. Each
    `batch_limit` queued texts are yielded as a batch, a dict of texts by
    key; the rest are the last batch. A section's plan (candidates,
    questions, chunks, texts, keys) follows once none of its texts is queued.
    """
    by_id = {r.id: r for r in relations}
    batched: set[bytes] = set()  # the keys of the batches yielded
    queued: dict[bytes, str] = {}  # key -> text of no batch yet, in plan order
    held: list[tuple] = []  # planned sections not yet yielded
    for section, members in sections:
        questions = [by_id[c.relation].question(c.head_surface, c.tail_title)
                     for c in members]
        chunks, texts = _section_plan(section, members, questions, cfg)
        keys = [checkpoint.key(text) for text in texts]
        for key, text in zip(keys, texts):
            if key not in batched and key not in checkpoint.offsets:
                queued.setdefault(key, text)
        held.append((members, questions, chunks, texts, keys))
        while len(queued) >= batch_limit:
            batch = dict(islice(queued.items(), batch_limit))
            for key in batch:
                del queued[key]
            batched.update(batch)
            yield batch
        waiting = []
        for plan in held:
            if any(key in queued for key in plan[-1]):
                waiting.append(plan)
            else:
                yield plan
        held = waiting
    if queued:
        yield queued
    yield from held


class _Extraction:
    """The state the workers of one `run_extraction` share, and their `work`."""

    def __init__(self, plan: Iterator, journal: Journal, checkpoint, chat: ChatEndpoint,
                 embedder: EmbeddingEndpoint, retrieval_cfg: RetrievalConfig,
                 exemplars: dict[str, list[Exemplar]], deterministic: bool):
        self.plan = plan
        self.taking = threading.Lock()  # the planner runs on one thread at a time
        # the checkpoint gained keys, a request was deferred, or the run failed
        self.changed = threading.Condition()
        self.failed = threading.Event()
        self.deferred: list[tuple] = []  # heap of (due, order, send, endpoint, failures)
        self.order = count()
        self.journal, self.checkpoint = journal, checkpoint
        self.chat, self.embedder = chat, embedder
        self.retrieval_cfg, self.exemplars = retrieval_cfg, exemplars
        self.deterministic = deterministic
        self.classified = 0  # the candidates journaled, counted under `changed`

    def stop(self) -> None:
        self.failed.set()
        with self.changed:  # after the flag, so no waiter misses it
            self.changed.notify_all()

    def send_batch(self, batch: dict[bytes, str]) -> None:
        self.checkpoint.add(list(batch), self.embedder.embed(list(batch.values())))
        with self.changed:
            self.changed.notify_all()

    def send_chat(self, candidate: CandidatePair, question: str, chunks: list[Chunk],
                  vectors: dict[str, list[float]], first: float) -> None:
        """Classify and journal `candidate`; `first` is when its first
        attempt began."""
        judgment = _process_candidate(candidate, question, chunks, vectors, self.chat,
                                      self.retrieval_cfg, self.exemplars)
        verdict = Verdict(candidate.candidate_id, judgment.answer, judgment.reason,
                          self.chat.model)
        latency_ms = None if self.deterministic else int((time.monotonic() - first) * 1000)
        self.journal.append(verdict, latency_ms)
        with self.changed:
            self.classified += 1

    def attempt(self, send: Callable[[], None], endpoint: Endpoint, failures: int = 0) -> None:
        """Send once; a retryable failure defers the request."""
        try:
            send()
        except RetryLater as exc:
            failures += 1
            due = time.monotonic() + endpoint.retry_delay(exc, failures)
            with self.changed:
                heapq.heappush(self.deferred, (due, next(self.order), send, endpoint, failures))
                self.changed.notify_all()  # it may be due before what the others wait for

    def wait(self, ready: Callable[[], bool] = lambda: True) -> bool:
        """Send each deferred request that is due, until `ready()`; returns
        False, sending no more, once the run fails."""
        while True:
            with self.changed:
                while not self.failed.is_set():
                    timeout = self.deferred[0][0] - time.monotonic() if self.deferred else None
                    if timeout is not None and timeout <= 0:
                        retry = heapq.heappop(self.deferred)
                        break
                    if ready():
                        return True
                    self.changed.wait(timeout)
                else:
                    return False
            self.attempt(*retry[2:])

    def classify_section(self, members: list[CandidatePair], questions: list[str],
                         chunks: list[list[Chunk]], texts: list[str],
                         keys: list[bytes]) -> None:
        """Once the checkpoint holds the section's texts, send its chats in
        turn, each after the deferred requests that are due."""
        if not self.wait(lambda: all(key in self.checkpoint.offsets for key in keys)):
            return
        # only this section's chats keep its vectors
        vectors = dict(zip(texts, unit_rows(self.checkpoint.vectors(keys)))) if texts else {}
        for candidate, question, its in zip(members, questions, chunks):
            if not self.wait():
                return
            self.attempt(partial(self.send_chat, candidate, question, its, vectors,
                                 time.monotonic()), self.chat)

    def work(self) -> None:
        """Send requests until none is left or the run fails: the deferred
        requests that are due, then the planner's next item, a batch to send
        or a section to classify. Once the planner is spent, stay while a
        request is deferred."""
        try:
            while self.wait():
                with self.taking:
                    item = next(self.plan, None)
                if item is None:
                    self.wait(lambda: not self.deferred)
                    return
                if isinstance(item, dict):  # an embedding batch
                    self.attempt(partial(self.send_batch, item), self.embedder)
                else:
                    self.classify_section(*item)
        except BaseException:
            self.stop()
            raise


def run_extraction(
    candidates: list[CandidatePair],
    documents: Iterable[WebDocument],
    chat: ChatEndpoint,
    embedder: EmbeddingEndpoint,
    retrieval_cfg: RetrievalConfig,
    exemplars: dict[str, list[Exemplar]],
    relations: Sequence[RelationType],
    journal_path: str | Path,
    workers: int = 4,
    limit: Optional[int] = None,
    deterministic: bool = False,
) -> int:
    """Classify every candidate not already journaled; returns how many
    this run classified.

    `documents` holds the sections the candidates point at; only those of
    pending candidates are read. `relations` must hold every candidate's
    relation. `limit` caps how many pending candidates this run processes;
    the rest stay pending for a later resume.

    One `_Extraction.work` per pending section, up to `workers` and this
    thread among them, sends one request at a time, so at most `workers`
    are in flight. A worker first sends the deferred requests that are due
    (`wait`), then takes the next item `plan_extraction` yields: a batch,
    which it sends (`send_batch`) and appends to `embeddings.jsonl` beside
    the journal, or a section (`classify_section`). A section waits until
    that checkpoint holds its texts, then sends its chats in turn
    (`send_chat`), each after the deferred requests that are due. A waiting
    worker sleeps until a deferred request is due, a batch's reply arrives
    or the run fails.

    A chat or batch that meets `endpoint.RetryLater` is deferred (`attempt`):
    it goes onto one heap, due at the time its endpoint's `retry_delay`
    gives, and its worker moves on. Past `max_retries` the endpoint raises
    EndpointUnavailable. The checkpoint is deleted once no candidate is left
    pending. A failure or an interrupt aborts the run with the journal and
    the checkpoint intact: no worker starts another request, the deferred
    requests are dropped, and the run returns once every worker has
    stopped; a reply that arrives after the failure is still journaled.
    """
    from concurrent.futures import ThreadPoolExecutor

    journal = Journal(journal_path)
    done = journal.load()
    pending = [c for c in candidates if c.candidate_id not in done]
    finishes = limit is None or limit >= len(pending)
    sections = pending_sections(pending[:limit], documents)
    checkpoint = EmbeddingCheckpoint(Path(journal_path).with_name("embeddings.jsonl"),
                                     embedder.model)
    plan = plan_extraction(sections, relations, retrieval_cfg, checkpoint,
                           embedder.batch_limit)
    run = _Extraction(plan, journal, checkpoint, chat, embedder, retrieval_cfg, exemplars,
                      deterministic)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            others = [pool.submit(run.work) for _ in range(min(workers, len(sections)) - 1)]
            run.work()  # here too, so an interrupt is a failure of the run
            # futures, not Thread.join: Ctrl-C can end a join before its thread
            for other in others:
                other.result()  # raises a worker's failure
        except BaseException:
            run.stop()
            raise  # once the pool's exit has joined the workers
    if finishes:  # no candidate is left pending: nothing will read the vectors
        checkpoint.path.unlink(missing_ok=True)
    return run.classified


# --------------------------------------------------------------------------
# Summary of the journal, dedup and reporting.

_COUNTS = ("candidates", "positives", "negatives", "malformed")


def summarize(
    candidates: list[CandidatePair],
    records: dict[str, Verdict],
    relations: list[str],
    site_priority: Sequence[str],
) -> tuple[list[dict], int, dict, list[Verdict]]:
    """The triplets, duplicate count, report and malformed verdicts of the
    candidates that have a verdict in `records`.

    A Yes verdict is a triplet. One is kept per (head concept, relation,
    case-folded tail title): the one from the earliest site in
    `site_priority` (unlisted sites last), then the first candidate. Every
    other Yes of a key is a duplicate. The kept triplets are in the order
    of their candidates, as are the malformed verdicts.

    The report is what report.json holds. For each site, in sorted order,
    it gives the site's number of pages and, for each of `relations`, a
    cell: the site's journaled candidates of that relation counted by
    answer, their positive rate and its "count(rate%)" display. The totals
    count every journaled candidate. A candidate without a record is
    pending: it counts only toward its site's pages.
    """
    priority = {site: i for i, site in enumerate(site_priority)}
    best: dict[tuple[str, str, str], tuple[tuple[int, int], CandidatePair, Verdict]] = {}
    duplicates = 0
    malformed: list[Verdict] = []
    pages: dict[str, set[str]] = {}
    cells: dict[tuple[str, str], dict[str, int]] = {}
    totals = dict.fromkeys(_COUNTS, 0)
    for order, c in enumerate(candidates):
        pages.setdefault(c.site_id, set()).add(c.page_url)
        rec = records.get(c.candidate_id)
        if rec is None:
            continue
        if rec.answer == "Yes":
            kind = "positives"
            key = (c.head_concept_id, c.relation, c.tail_title.casefold())
            rank = (priority.get(c.site_id, len(priority)), order)
            duplicates += key in best
            if key not in best or rank < best[key][0]:
                best[key] = (rank, c, rec)
        elif rec.answer == "No":
            kind = "negatives"
        else:
            kind = "malformed"
            malformed.append(rec)
        cell = cells.setdefault((c.site_id, c.relation), dict.fromkeys(_COUNTS, 0))
        for counts in (cell, totals):
            counts["candidates"] += 1
            counts[kind] += 1

    def cell_dict(site: str, relation: str) -> dict:
        counts = cells.get((site, relation), dict.fromkeys(_COUNTS, 0))
        rate = counts["positives"] / counts["candidates"] if counts["candidates"] else 0.0
        return {**counts, "positive_rate": rate,
                "display": f"{counts['positives']}({rate * 100:.1f}%)"}

    report = {
        "relations": relations,
        "sites": {
            site: {"pages": len(urls), "cells": {r: cell_dict(site, r) for r in relations}}
            for site, urls in sorted(pages.items())
        },
        "totals": totals,
    }
    triplets = [
        {
            "head_concept_id": c.head_concept_id,
            "head_surface": c.head_surface,
            "relation": c.relation,
            "tail_title": c.tail_title,
            "site_id": c.site_id,
            "page_url": c.page_url,
            "section_path": c.section_path,
            "reason": rec.reason,
            "model_id": rec.model_id,
        }
        for _, c, rec in sorted(best.values(), key=lambda kept: kept[0][1])
    ]
    return triplets, duplicates, report, malformed


def report_table(report: dict) -> str:
    """report.txt from a `summarize` report: a row per site with its pages
    and the display of each relation's cell, columns padded to their widest
    entry."""
    relations = report["relations"]
    rows = [["Site", "Pages"] + [r.capitalize() for r in relations]]
    rows += [[site, str(s["pages"])] + [s["cells"][r]["display"] for r in relations]
             for site, s in report["sites"].items()]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
