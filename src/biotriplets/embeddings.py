"""Embedding each text of an extract run once: the checkpoint of every
vector paid for, and the cursor that fills requests across sections.

Only `extract` imports this module (`cli.cmd_extract` and
`pipeline.run_extraction`), so `preprocess` and `match` do not load it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
import threading
from itertools import islice
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .pipeline import AppendLog
from .retrieval import EmbeddingEndpoint, unit_rows


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
    """Append-only JSONL of every embedding paid for, one line per text:
    {"key": sha1 of (model, text), "vector": `_pack` of the raw reply
    vector}, so a reload is bit-identical. A resume after an abort or a
    kill finds its texts here and embeds none of them again. Lines that
    are torn or unusable (not a non-zero finite vector) are skipped: that
    text is embedded again.

    Only each key's digest and line offset are held in memory; `vectors`
    reads the lines back, so a vector is held only while its section is
    worked on."""

    def __init__(self, path: str | Path, model: str):
        super().__init__(path)
        self._model = model
        self.offsets: dict[bytes, int] = {}
        if not self.path.exists():
            return
        offset = 0
        try:
            with open(self.path, "rb") as fh:
                for line in fh:
                    try:
                        rec = json.loads(line)
                        vector = _unpack(rec["vector"])
                        if vector and 0 < math.hypot(*vector) < math.inf:
                            self.offsets[bytes.fromhex(rec["key"])] = offset
                    except (ValueError, LookupError, TypeError, RecursionError):
                        pass  # torn by a kill, or damaged: embedded again
                    offset += len(line)
        except OSError as exc:
            raise ConfigError(f"cannot read {self.path}: {exc.strerror or exc}; "
                              "deleting it costs only embedding its texts again") from None

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


class EmbeddingCursor:
    """Plans the pending sections in order and embeds their texts for all
    workers.

    A text the checkpoint holds is not sent again. The others are queued in
    plan order and sent in requests of up to `batch_limit` inputs, filled
    across section boundaries by planning the sections ahead. The worker
    that needs a queued text sends the next request itself, so no worker
    holds more than one request; otherwise it waits, and only for requests
    that hold its own section's texts. A reply is appended to the
    checkpoint before any worker uses it. Once the run is failing no
    request starts, and a failed request wakes every worker waiting.
    """

    def __init__(self, sections, plan, embedder: EmbeddingEndpoint,
                 checkpoint: EmbeddingCheckpoint, failed: threading.Event):
        self._sections = sections
        self._plan = plan
        self._embedder = embedder
        self._checkpoint = checkpoint
        self._failed = failed
        self._planned: dict[int, tuple] = {}
        self._next = 0
        self._queued: dict[bytes, str] = {}  # key -> text, in plan order
        self._sending: set[bytes] = set()  # keys of the requests in flight
        self._cond = threading.Condition()

    def section(self, index: int):
        """Section `index`'s questions, chunks and the unit vectors of its
        texts by text; None for the vectors once the run is failing."""
        with self._cond:
            while self._next <= index:
                self._plan_next()
            questions, chunks, texts, keys = self._planned.pop(index)
        if not texts:
            return questions, chunks, {}
        while (batch := self._claim(keys)) is not None:
            self._send(batch)
        if self._failed.is_set():
            return questions, chunks, None
        return questions, chunks, dict(zip(texts, unit_rows(self._checkpoint.vectors(keys))))

    def _plan_next(self) -> None:
        section, members = self._sections[self._next]
        questions, (chunks, texts) = self._plan(section, members)
        keys = [self._checkpoint.key(text) for text in texts]
        for key, text in zip(keys, texts):
            if key not in self._checkpoint.offsets and key not in self._sending:
                self._queued.setdefault(key, text)
        self._planned[self._next] = (questions, chunks, texts, keys)
        self._next += 1

    def _claim(self, keys: list[bytes]) -> Optional[list[tuple[bytes, str]]]:
        """The next request to send while one of `keys` is queued; None once
        every key is stored or the run is failing. Waits while the keys
        missing are all in other workers' requests."""
        with self._cond:
            while not self._failed.is_set():
                missing = [k for k in keys if k not in self._checkpoint.offsets]
                if not missing:
                    return None
                if any(k in self._queued for k in missing):
                    limit = self._embedder.batch_limit
                    while len(self._queued) < limit and self._next < len(self._sections):
                        self._plan_next()
                    batch = list(islice(self._queued.items(), limit))
                    for key, _ in batch:
                        del self._queued[key]
                        self._sending.add(key)
                    return batch
                self._cond.wait()
            return None

    def _send(self, batch: list[tuple[bytes, str]]) -> None:
        keys, texts = zip(*batch)
        try:
            self._checkpoint.add(list(keys), self._embedder.embed(list(texts)))
        except BaseException:
            self._failed.set()
            raise
        finally:
            with self._cond:
                self._sending.difference_update(keys)
                self._cond.notify_all()
