"""Chunking and top-K retrieval of a section's text.

Long section text is split into an anchor chunk of exactly
`anchor_min_words` (512) words, guaranteed to contain the matched term,
plus 128-word windows with a 32-word overlap over the rest. A section is
split into words once, and its candidates share the chunk of each word
span. A section of at most `anchor_min_words` words is one chunk, which is
retrieved whatever its vectors are, so it is not embedded. The chunks of a
longer section are embedded through the embedding endpoint
(`endpoint.EmbeddingEndpoint`) and ranked by cosine similarity against the
yes/no question: the dot product of the unit chunk and query vectors, lists
of floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .config import DEFAULT_RELATIONS, RetrievalConfig
from .endpoint import EmbeddingEndpoint  # the benchmark traces embed under this name
from .errors import EndpointRejected


@dataclass(frozen=True)
class Chunk:
    text: str
    word_span: tuple[int, int]
    is_anchor: bool = False


def chunk_for_candidate(
    words: list[str],
    match_word_index: int,
    cfg: RetrievalConfig,
    built: dict[tuple[int, int, bool], Chunk],
) -> list[Chunk]:
    """Anchor chunk around the match plus overlapping windows over the rest
    of a section's `words`.

    Every word lands in at least one chunk; exactly one chunk is the anchor.
    `built` holds the chunks of the section's earlier candidates by (start,
    end, is_anchor): a span found there is that chunk, and a new one is
    joined and added, so each span of a section is joined once. A match
    outside the words raises ValueError.
    """
    n = len(words)
    if not 0 <= match_word_index < n:
        raise ValueError(f"word index {match_word_index} outside [0, {n})")

    def chunk(start: int, end: int, is_anchor: bool = False) -> Chunk:
        key = (start, end, is_anchor)
        found = built.get(key)
        if found is None:
            found = built[key] = Chunk(" ".join(words[start:end]), (start, end), is_anchor)
        return found

    if n <= cfg.anchor_min_words:
        return [chunk(0, n, True)]

    size = cfg.anchor_min_words
    start = match_word_index - size // 2
    start = max(0, min(start, n - size))
    step = cfg.chunk_words - cfg.overlap_words

    def windows(lo: int, hi: int) -> list[Chunk]:
        out = []
        pos = lo
        while pos < hi:
            end = min(pos + cfg.chunk_words, hi)
            out.append(chunk(pos, end))
            if end >= hi:
                break
            pos += step
        return out

    return windows(0, start) + [chunk(start, start + size, True)] + windows(start + size, n)


def build_query(head: str, relation_id: str, tail: str) -> str:
    """The question of the default relation `relation_id`. Only the
    benchmark's workload generator (perfbench/workloads.py) calls this."""
    return {r.id: r for r in DEFAULT_RELATIONS}[relation_id].question(head, tail)


def unit_rows(vectors: list[list[float]]) -> list[list[float]]:
    """The vectors, each scaled to unit length."""
    norms = [math.hypot(*v) for v in vectors]
    return [[x / norm for x in v] for v, norm in zip(vectors, norms)]


def retrieve_top_k(
    query_vec: list[float],
    chunks: list[tuple[Chunk, list[float]]],
    cfg: RetrievalConfig,
) -> list[Chunk]:
    """Up to top_k chunks by descending similarity; the anchor always makes it.

    The vectors are of unit length (`unit_rows`), so a chunk's cosine
    similarity is its dot product with the query. An exactly rounded sum
    gives equal vectors equal scores; ties break toward the earlier word span.
    Vectors of another length than the query's raise EndpointRejected: a
    truncated dot product is no score.
    """
    dims = {len(query_vec), *(len(vec) for _, vec in chunks)}
    if len(dims) > 1:
        raise EndpointRejected(f"embeddings of mixed dimensions {sorted(dims)} "
                               "in one ranking")
    scores = [math.fsum(map(operator.mul, vec, query_vec)) for _, vec in chunks]
    top = sorted(range(len(chunks)),
                 key=lambda i: (-scores[i], chunks[i][0].word_span[0]))[: cfg.top_k]
    anchor = next((i for i, (chunk, _) in enumerate(chunks) if chunk.is_anchor), None)
    if anchor is not None and anchor not in top:
        # it ranks below every chunk kept, so the order holds
        top[-1] = anchor
    return [chunks[i][0] for i in top]
