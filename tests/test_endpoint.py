"""The shared endpoint client against a server whose replies each test sets.

The handler here is local to these tests: it replies with exact statuses,
headers and bodies, including ones the mock server never sends.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from biotriplets import errors
from biotriplets.classifier import ChatEndpoint
from biotriplets.config import load_config
from biotriplets.retrieval import EmbeddingEndpoint

MESSAGES = [{"role": "system", "content": "s"}, {"role": "user", "content": "q"}]
CHAT_OK = {"choices": [{"message": {"content": "reply"}}]}


class Scripted:
    """A local server answering each POST with the next queued reply and
    recording the path, headers, raw body and arrival time of each."""

    def __init__(self):
        self.replies: list[tuple[int, dict, bytes]] = []
        self.requests: list[dict] = []
        scripted = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                scripted.requests.append({
                    "path": self.path, "headers": dict(self.headers),
                    "body": body, "at": time.monotonic(),
                })
                status, headers, payload = scripted.replies.pop(0)
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.base_url = f"http://{host}:{port}"

    def reply(self, status: int, body, headers=None) -> None:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.replies.append((status, headers or {}, payload))

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)


@pytest.fixture
def server():
    scripted = Scripted()
    yield scripted
    scripted.stop()


def chat(server, **kw):
    return ChatEndpoint(base_url=server.base_url, model="chat-m", retry_backoff=0.0, **kw)


def embedder(server, **kw):
    return EmbeddingEndpoint(base_url=server.base_url, model="embed-m",
                             retry_backoff=0.0, **kw)


def test_request_bodies_and_authorization(server):
    server.reply(200, CHAT_OK)
    server.reply(200, {"data": [{"index": 1, "embedding": [0.0, 1.0]},
                                {"index": 0, "embedding": [1.0, 0.0]}]})
    server.reply(200, CHAT_OK)
    assert chat(server, api_key="chat-key").complete(MESSAGES)[0] == "reply"
    vectors = embedder(server, api_key="embed-key").embed(["a", "b"])
    assert [v.tolist() for v in vectors] == [[1.0, 0.0], [0.0, 1.0]]
    chat(server).complete(MESSAGES)

    chat_req, embed_req, keyless = server.requests
    assert chat_req["path"] == "/v1/chat/completions"
    assert chat_req["body"] == json.dumps({
        "model": "chat-m", "messages": MESSAGES, "temperature": 0.0, "max_tokens": 512,
    }).encode()
    assert chat_req["headers"]["Authorization"] == "Bearer chat-key"
    assert embed_req["path"] == "/v1/embeddings"
    assert embed_req["body"] == json.dumps({"model": "embed-m", "input": ["a", "b"]}).encode()
    assert embed_req["headers"]["Authorization"] == "Bearer embed-key"
    assert keyless["body"] == chat_req["body"]
    assert "Authorization" not in keyless["headers"]


def call(kind, server):
    if kind == "chat":
        return chat(server).complete(MESSAGES)
    return embedder(server).embed(["a", "b"])


@pytest.mark.parametrize("kind", ["chat", "embed"])
@pytest.mark.parametrize("status", [400, 404])
def test_client_error_rejected_after_one_request(server, kind, status):
    server.reply(status, b"prompt\ntoo long")
    with pytest.raises(errors.EndpointRejected, match=f"HTTP {status}: .*prompt too long"):
        call(kind, server)
    assert len(server.requests) == 1


@pytest.mark.parametrize("kind,body", [
    ("chat", {"choices": [{"message": {"content": None}}]}),
    ("chat", {}),
    ("chat", {"choices": []}),
    ("chat", b"<html>not json</html>"),
    ("embed", {"data": [{"embedding": [1.0]}, {"embedding": [2.0]}]}),
    ("embed", {"data": [{"index": 0, "embedding": [1.0]}]}),
    ("embed", {"data": [{"index": 0, "embedding": [1.0]}, {"index": 2, "embedding": [2.0]}]}),
    ("embed", {"data": [{"index": 0, "embedding": None}, {"index": 1, "embedding": None}]}),
], ids=["null-content", "no-choices", "empty-choices", "not-json",
        "no-index", "short-index", "wrong-index", "null-embedding"])
def test_unreadable_reply_rejected_without_retry(server, kind, body):
    server.reply(200, body)
    with pytest.raises(errors.EndpointRejected, match="unreadable reply"):
        call(kind, server)
    assert len(server.requests) == 1


def test_retry_after_honoured_without_backoff(server):
    server.reply(429, {}, {"Retry-After": "1"})
    server.reply(200, CHAT_OK)
    assert chat(server).complete(MESSAGES)[0] == "reply"
    first, second = server.requests
    assert second["at"] - first["at"] >= 1.0


def test_retry_after_capped(server, monkeypatch):
    from biotriplets import endpoint

    monkeypatch.setattr(endpoint, "MAX_RETRY_AFTER_S", 0.3)
    server.reply(503, {}, {"Retry-After": "3600"})
    server.reply(200, CHAT_OK)
    started = time.monotonic()
    assert chat(server).complete(MESSAGES)[0] == "reply"
    assert 0.3 <= time.monotonic() - started < 5


def test_config_reads_endpoint_keys_and_ignores_retired_ones(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text("""
[chat]
base_url = "http://chat"
max_retries = 5
max_concurrency = 8
requests_per_minute = 60

[embedding]
base_url = "http://embed"
model = "e"
timeout = 7.5
batch_limit = 16

[sites.s]
list_marker_style = "numbered"
subpage_kinds = ["overview"]
""", encoding="utf-8")
    cfg = load_config(path)
    c = cfg.chat_endpoint()
    assert (c.base_url, c.model, c.max_retries, c.timeout) == ("http://chat", "default", 5, 120.0)
    e = cfg.embedding_endpoint()
    assert (e.base_url, e.model, e.max_retries, e.timeout, e.batch_limit) == (
        "http://embed", "e", 2, 7.5, 16)
    assert cfg.site_profile("s").list_marker_style == "numbered"
