"""Deterministic mock chat and embedding servers for tests and desk runs.

The chat side answers from a script file: rules match on a substring of
the final user message and yield a canned verdict, raw (possibly
malformed) text, or an HTTP failure sequence. The embedding side returns
a hash-bucketed bag-of-words projection, so identical text always embeds
identically. Every request is appended to a JSONL log for assertions.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

MOCK_EMBED_DIM = 32


def mock_embedding(text: str, dim: int = MOCK_EMBED_DIM) -> list[float]:
    """Deterministic bag-of-words projection into `dim` buckets."""
    vec = [0.0] * dim
    for token in text.lower().split():
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % dim
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        vec[bucket] += sign
    if not any(vec):
        vec[0] = 1.0
    norm = math.sqrt(math.fsum(x * x for x in vec))
    return [x / norm for x in vec]


class MockScript:
    """Parsed script with per-rule failure sequences and a default reply."""

    def __init__(self, data: Optional[dict] = None):
        data = data or {}
        self.default = data.get("default", {"answer": "No", "reason": "mock default"})
        self.rules = [dict(rule) for rule in data.get("rules", [])]
        # consumed in turn by every chat and every embedding request
        self.statuses = list(data.get("statuses", []))
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "MockScript":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def next_status(self, rule: Optional[dict]) -> int:
        with self._lock:
            if self.statuses:
                return self.statuses.pop(0)
            if rule is not None and rule.get("statuses"):
                return rule["statuses"].pop(0)
        return 200

    def reply_for(self, prompt: str) -> tuple[int, str]:
        rule = None
        for candidate in self.rules:
            if candidate.get("contains", "") in prompt:
                rule = candidate
                break
        status = self.next_status(rule)
        if status != 200:
            return status, ""
        spec = rule if rule is not None else self.default
        if "raw" in spec:
            return 200, spec["raw"]
        return 200, json.dumps(
            {"answer": spec.get("answer", "No"), "reason": spec.get("reason", "")},
            ensure_ascii=False,
        )


class RequestLog:
    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path else None
        self.entries: list[dict] = []
        self._lock = threading.Lock()

    def record(self, entry: dict) -> None:
        with self._lock:
            self.entries.append(entry)
            if self.path:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
                    fh.flush()


def _make_handler(script: MockScript, log: RequestLog):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # silence default stderr chatter
            pass

        def _send_json(self, status: int, body: dict) -> None:
            payload = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length) or b"{}")
            if self.path == "/v1/chat/completions":
                user_messages = [
                    m["content"] for m in request.get("messages", [])
                    if m.get("role") == "user"
                ]
                prompt = user_messages[-1] if user_messages else ""
                status, content = script.reply_for(prompt)
                log.record({
                    "kind": "chat",
                    "model": request.get("model", ""),
                    "status": status,
                    "prompt_tail": prompt[-120:],
                })
                if status != 200:
                    self._send_json(status, {"error": f"scripted {status}"})
                    return
                self._send_json(200, {"choices": [{"message": {"content": content}}]})
            elif self.path == "/v1/embeddings":
                inputs = request.get("input", [])
                status = script.next_status(None)
                log.record({
                    "kind": "embed",
                    "model": request.get("model", ""),
                    "status": status,
                    "n_inputs": len(inputs),
                    "inputs": inputs,
                })
                if status != 200:
                    self._send_json(status, {"error": f"scripted {status}"})
                    return
                data = [
                    {"index": i, "embedding": mock_embedding(text)}
                    for i, text in enumerate(inputs)
                ]
                self._send_json(200, {"data": data})
            else:
                self._send_json(404, {"error": f"no handler for {self.path}"})

    return Handler


class MockServer:
    """In-process threaded server; port 0 picks a free port."""

    def __init__(
        self,
        script: Optional[MockScript] = None,
        log_path: Optional[str | Path] = None,
        port: int = 0,
    ):
        self.script = script or MockScript()
        self.log = RequestLog(log_path)
        handler = _make_handler(self.script, self.log)
        self.httpd = ThreadingHTTPServer(("127.0.0.1", port), handler)
        # a short poll keeps stop() quick; the default waits up to 0.5 s
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockServer":
        self.thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()

    def __enter__(self) -> "MockServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
