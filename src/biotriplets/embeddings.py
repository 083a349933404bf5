"""The checkpoint of every embedding an extract run paid for, so that a
resume embeds no text again. `pipeline.plan_extraction` decides which
texts go in which request; `pipeline.run_extraction` appends each reply here.

Only `extract` imports this module (`cli.cmd_extract` and
`pipeline.run_extraction`), so `preprocess` and `match` do not load it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
from pathlib import Path

from .pipeline import AppendLog


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
