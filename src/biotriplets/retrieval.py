"""Relations and their questions; chunking, embedding and top-K retrieval.

Long section text is split into an anchor chunk of exactly
`anchor_min_words` (512) words, guaranteed to contain the matched term,
plus 128-word windows with a 32-word overlap over the rest. A section is
split into words once, and its candidates share the chunk of each word
span. A section of at most `anchor_min_words` words is one chunk, which is
retrieved whatever its vectors are, so it is not embedded. The chunks of a
longer section are embedded through an external endpoint and ranked by
cosine similarity against the yes/no question: the dot product of the unit
chunk and query vectors, lists of floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .endpoint import Endpoint
from .errors import ConfigError, EndpointRejected


@dataclass(frozen=True)
class RelationType:
    """A relation: its id, its question's phrase, and its heads' semantic types."""

    id: str
    phrase: str
    allowed_semantic_types: frozenset[str]

    def question(self, head: str, tail: str) -> str:
        """The yes/no question; used both for retrieval and as the final prompt."""
        return f"Is {head} {self.phrase} {tail}?"


DEFAULT_RELATIONS = (
    RelationType("manifestation", "an informative manifestation of",
                 frozenset({"Sign, Symptom, or Finding"})),
    RelationType("diagnosis", "an informative diagnostic procedure for",
                 frozenset({"Diagnostic Procedure", "Laboratory Procedure"})),
    RelationType("treatment", "an informative therapeutic procedure or drug for",
                 frozenset({"Therapeutic or Preventive Procedure", "Chemical or Drug"})),
)


@dataclass(frozen=True)
class RetrievalConfig:
    anchor_min_words: int = 512
    chunk_words: int = 128
    overlap_words: int = 32
    top_k: int = 10

    def __post_init__(self):
        if self.chunk_words < 1:
            raise ValueError("chunk_words must be >= 1")
        if self.overlap_words < 0:
            raise ValueError("overlap_words must be >= 0")
        if self.overlap_words >= self.chunk_words:
            raise ValueError("overlap_words must be < chunk_words")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.anchor_min_words < self.chunk_words:
            raise ValueError("anchor_min_words must be >= chunk_words")


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


def _reply_vectors(body: dict, n: int) -> list[list[float]]:
    """The reply's embeddings in input order; its indices must be 0..n-1, and
    its vectors flat lists of numbers, of one length, with a positive finite norm."""
    data = sorted(body["data"], key=lambda d: d["index"])
    if [d["index"] for d in data] != list(range(n)):
        raise ValueError(f"reply indices do not match the {n} inputs sent")
    vectors = [d["embedding"] for d in data]
    # bool is a subclass of int, so compare exact types
    if not all(isinstance(v, list) and set(map(type, v)) <= {int, float} for v in vectors):
        raise TypeError("an embedding is not a flat list of numbers")
    dims = sorted({len(v) for v in vectors})
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions {dims}")
    try:
        norms = [math.hypot(*v) for v in vectors]
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(str(exc)) from None
    if not all(0 < norm < math.inf for norm in norms):
        raise ValueError("an all-zero or non-finite embedding")
    return vectors


@dataclass
class EmbeddingEndpoint(Endpoint):
    batch_limit: int = 128

    def __post_init__(self):
        super().__post_init__()
        if self.batch_limit < 1:
            raise ConfigError(f"endpoint batch_limit must be at least 1, "
                              f"not {self.batch_limit}")

    def embed(self, texts: list[str]) -> list[list[float]]:
        """Embed texts in input order, in one attempt of one request: the
        caller keeps to `batch_limit`. A retryable failure raises
        `endpoint.RetryLater`."""
        return self.post("/v1/embeddings", {"model": self.model, "input": texts},
                         lambda body: _reply_vectors(body, len(texts)))
