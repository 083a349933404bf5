"""The shared endpoint client against a server whose replies each test sets.

The handler here is local to these tests: it replies with exact statuses,
headers and bodies, including ones the mock server never sends.
"""

import base64
import datetime
import ipaddress
import itertools
import json
import select
import socket
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from biotriplets import endpoint, errors
from biotriplets.classifier import ChatEndpoint, load_exemplars
from biotriplets.config import DEFAULT_RELATIONS, RetrievalConfig, load_config
from biotriplets.pipeline import run_extraction
from biotriplets.retrieval import EmbeddingEndpoint
from test_pipeline import make_candidates, make_documents

pytestmark = pytest.mark.usefixtures("no_backoff")

MESSAGES = [{"role": "system", "content": "s"}, {"role": "user", "content": "q"}]
CHAT_OK = {"choices": [{"message": {"content": "reply"}}]}


class Scripted:
    """A local server answering each POST with the next queued reply and
    recording the path, headers, raw body, arrival time and TCP connection
    (numbered from 1 in the order accepted) of each.

    `protocol` "HTTP/1.1" keeps connections open between requests;
    `close_after` then closes each one after its reply anyway, as a server
    does when an idle connection times out. `tls` serves HTTPS."""

    def __init__(self, protocol="HTTP/1.0", close_after=False, tls=None):
        self.replies: list[tuple[int, dict, bytes, float]] = []
        self.requests: list[dict] = []
        numbers = itertools.count(1)
        scripted = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = protocol

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                self.connection_number = next(numbers)

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                scripted.requests.append({
                    "path": self.path, "headers": dict(self.headers),
                    "body": body, "at": time.monotonic(),
                    "connection": self.connection_number,
                })
                status, headers, payload, delay = scripted.replies.pop(0)
                time.sleep(delay)
                try:
                    self.send_response(status)
                    for name, value in headers.items():
                        self.send_header(name, value)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except ConnectionError:  # a client that timed out has gone
                    self.close_connection = True
                self.close_connection = self.close_connection or close_after

        self.httpd, self.thread, self.base_url = serve(Handler, tls)

    def reply(self, status: int, body, headers=None, delay=0.0) -> None:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.replies.append((status, headers or {}, payload, delay))

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)


def serve(handler, tls=None):
    """`handler` served on a free local port by a background thread."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls is not None:
        httpd.socket = tls.wrap_socket(httpd.socket, server_side=True)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    host, port = httpd.server_address[:2]
    return httpd, thread, f"{'https' if tls else 'http'}://{host}:{port}"


@pytest.fixture
def server():
    scripted = Scripted()
    yield scripted
    scripted.stop()


def chat(server, **kw):
    return ChatEndpoint(base_url=server.base_url, model="chat-m", **kw)


def embedder(server, **kw):
    return EmbeddingEndpoint(base_url=server.base_url, model="embed-m", **kw)


def test_request_bodies_and_authorization(server):
    server.reply(200, CHAT_OK)
    server.reply(200, {"data": [{"index": 1, "embedding": [0.0, 1.0]},
                                {"index": 0, "embedding": [1.0, 0.0]}]})
    server.reply(200, CHAT_OK)
    assert chat(server, api_key="chat-key").complete(MESSAGES) == "reply"
    vectors = embedder(server, api_key="embed-key").embed(["a", "b"])
    assert vectors == [[1.0, 0.0], [0.0, 1.0]]
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


def test_repr_hides_api_key(server):
    server.reply(200, CHAT_OK)
    server.reply(200, {"data": [{"index": 0, "embedding": [1.0, 0.0]}]})
    chat_client = chat(server, api_key="sk-chat-secret")
    embed_client = embedder(server, api_key="sk-embed-secret")
    assert "sk-chat-secret" not in repr(chat_client)
    assert "sk-embed-secret" not in repr(embed_client)
    assert "chat-m" in repr(chat_client) and "embed-m" in repr(embed_client)
    chat_client.complete(MESSAGES)
    embed_client.embed(["a"])
    assert [r["headers"]["Authorization"] for r in server.requests] == [
        "Bearer sk-chat-secret", "Bearer sk-embed-secret"]


def extract(client, tmp_path):
    """The reply texts of a `run_extraction` of one one-chunk candidate
    through the chat endpoint `client`, whose retries wait on the run's heap."""
    replies = []
    complete = client.complete

    def recorded(messages):
        replies.append(complete(messages))
        return replies[-1]

    client.complete = recorded
    embed = EmbeddingEndpoint(base_url=client.base_url, model="embed-m")  # sends nothing
    run_extraction(make_candidates(1), make_documents(1), client, embed, RetrievalConfig(),
                   load_exemplars(), DEFAULT_RELATIONS, journal_path=tmp_path / "j.jsonl",
                   workers=1)
    return replies


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
    ("embed", {"data": [{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [1.0, 0.0]}]}),
    ("embed", {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [0.0, 0.0]}]}),
    ("embed", {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": []}]}),
    ("embed", b'{"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [NaN, 1.0]}]}'),
    ("embed", b'{"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [-Infinity, 1.0]}]}'),
    ("embed", {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [True, False]}]}),
    ("embed", {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [10 ** 400, 1]}]}),
    ("embed", {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [1.7e308, 1.7e308]}]}),
    ("chat", b"[" * 200_000),
], ids=["null-content", "no-choices", "empty-choices", "not-json",
        "no-index", "short-index", "wrong-index", "null-embedding",
        "mixed-dimensions", "zero-vector", "empty-vector",
        "nan", "infinity", "bool", "huge-int", "norm-overflow", "nested-past-recursion-limit"])
def test_unreadable_reply_rejected_without_retry(server, kind, body):
    server.reply(200, body)
    with pytest.raises(errors.EndpointRejected, match="unreadable reply"):
        call(kind, server)
    assert len(server.requests) == 1


def test_retry_after_honoured_without_backoff(server, tmp_path):
    # one attempt reports the wait; the run sends the request again after it
    server.reply(429, {}, {"Retry-After": "1"})
    client = chat(server)
    with pytest.raises(endpoint.RetryLater, match="HTTP 429") as info:
        client.complete(MESSAGES)
    assert client.retry_delay(info.value, 1) == 1.0
    server.reply(429, {}, {"Retry-After": "1"})
    server.reply(200, CHAT_OK)
    assert extract(client, tmp_path) == ["reply"]
    _, first, second = server.requests
    assert second["at"] - first["at"] >= 1.0


def test_retry_after_capped(server, tmp_path, monkeypatch):
    monkeypatch.setattr(endpoint, "MAX_RETRY_AFTER_S", 0.3)
    server.reply(503, {}, {"Retry-After": "3600"})
    client = chat(server)
    with pytest.raises(endpoint.RetryLater) as info:
        client.complete(MESSAGES)
    assert info.value.retry_after == 0.3
    server.reply(503, {}, {"Retry-After": "3600"})
    server.reply(200, CHAT_OK)
    started = time.monotonic()
    assert extract(client, tmp_path) == ["reply"]
    assert 0.3 <= time.monotonic() - started < 5


def test_retry_after_of_non_ascii_digit_waits_the_backoff(server, tmp_path, monkeypatch):
    # "\xb2" goes out as the latin-1 byte 0xB2 and comes back as "²", for
    # which str.isdigit holds but float() fails
    for _ in range(2):
        server.reply(503, {}, {"Retry-After": "\xb2"})
    monkeypatch.setattr(endpoint, "RETRY_BACKOFF_S", 0.3)
    client = ChatEndpoint(base_url=server.base_url, model="chat-m", max_retries=1)
    with pytest.raises(errors.EndpointUnavailable, match="HTTP 503"):
        extract(client, tmp_path)
    first, second = server.requests
    assert 0.3 <= second["at"] - first["at"] < 5


def test_retry_delay_doubles_the_backoff_until_max_retries(monkeypatch):
    monkeypatch.setattr(endpoint, "RETRY_BACKOFF_S", 0.25)
    client = ChatEndpoint(base_url="http://127.0.0.1:9", model="m", max_retries=3)
    failure = endpoint.RetryLater("POST http://127.0.0.1:9/v1/chat/completions: HTTP 503")
    assert [client.retry_delay(failure, k) for k in (1, 2, 3)] == [0.25, 0.5, 1.0]
    with pytest.raises(errors.EndpointUnavailable, match="^POST .*: HTTP 503$") as info:
        client.retry_delay(failure, 4)
    assert not isinstance(info.value, endpoint.RetryLater)
    with pytest.raises(errors.EndpointUnavailable):
        ChatEndpoint(base_url="http://127.0.0.1:9", model="m",
                     max_retries=0).retry_delay(failure, 1)


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


@pytest.fixture
def keep_alive():
    scripted = Scripted(protocol="HTTP/1.1")
    yield scripted
    scripted.stop()


def test_sequential_posts_share_one_connection(keep_alive):
    client = chat(keep_alive)
    for _ in range(5):
        keep_alive.reply(200, CHAT_OK)
        assert client.complete(MESSAGES) == "reply"
    client.close()
    assert [r["connection"] for r in keep_alive.requests] == [1] * 5


def test_each_thread_keeps_its_own_connection(keep_alive):
    posts, threads = 5, 4
    for _ in range(posts * threads):
        keep_alive.reply(200, CHAT_OK)
    client = chat(keep_alive)

    def work(name):
        for _ in range(posts):
            client.complete([{"role": "user", "content": name}])

    workers = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    client.close()
    by_thread = {}
    for r in keep_alive.requests:
        name = json.loads(r["body"])["messages"][0]["content"]
        by_thread.setdefault(name, []).append(r["connection"])
    assert sorted(by_thread) == [f"t{i}" for i in range(threads)]
    assert all(len(set(c)) == 1 and len(c) == posts for c in by_thread.values())
    assert len({c[0] for c in by_thread.values()}) == threads


def test_connection_closed_by_server_is_reopened_without_retry(monkeypatch):
    monkeypatch.setattr(endpoint, "RETRY_BACKOFF_S", 30.0)
    closing = Scripted(protocol="HTTP/1.1", close_after=True)
    try:
        client = ChatEndpoint(base_url=closing.base_url, model="m")
        started = time.monotonic()
        for _ in range(3):
            closing.reply(200, CHAT_OK)
            assert client.complete(MESSAGES) == "reply"
            time.sleep(0.1)  # the server's close reaches the idle socket
        assert time.monotonic() - started < 5, "a retry waited out the backoff"
        client.close()
    finally:
        closing.stop()
    assert [r["connection"] for r in closing.requests] == [1, 2, 3]


def test_timed_out_connection_is_closed_and_retried(keep_alive, tmp_path):
    keep_alive.reply(200, CHAT_OK, delay=1.0)
    keep_alive.reply(200, CHAT_OK)
    client = chat(keep_alive, timeout=0.3)
    assert extract(client, tmp_path) == ["reply"]
    client.close()
    assert [r["connection"] for r in keep_alive.requests] == [1, 2]


def test_http10_server_gets_a_connection_per_request(server):
    client = chat(server)
    for _ in range(3):
        server.reply(200, CHAT_OK)
        client.complete(MESSAGES)
    assert [r["connection"] for r in server.requests] == [1, 2, 3]


def test_connection_refused_retried_then_unavailable(monkeypatch, tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    attempts = []
    connect = socket.create_connection

    def counted(*args, **kw):
        attempts.append(args[0])
        return connect(*args, **kw)

    monkeypatch.setattr(socket, "create_connection", counted)
    client = ChatEndpoint(base_url=f"http://127.0.0.1:{port}", model="m", max_retries=2)
    with pytest.raises(endpoint.RetryLater, match="ConnectionRefusedError") as info:
        client.complete(MESSAGES)
    assert info.value.retry_after is None
    assert client.retry_delay(info.value, 1) == 0.0
    with pytest.raises(errors.EndpointUnavailable, match="ConnectionRefusedError") as info:
        extract(client, tmp_path)
    assert not isinstance(info.value, errors.EndpointRejected)
    assert attempts == [("127.0.0.1", port)] * 4


def test_base_url_must_be_http():
    for url in ("localhost:8099", "ftp://host/x", "http://"):
        with pytest.raises(errors.ConfigError, match="base_url"):
            ChatEndpoint(base_url=url, model="m")


@pytest.fixture
def proxy_env(monkeypatch):
    """Sets proxy variables after clearing every spelling of them."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch.setenv


def test_proxy_must_be_http(proxy_env):
    proxy_env("HTTP_PROXY", "socks5://127.0.0.1:1080")
    with pytest.raises(errors.ConfigError, match="proxy 'socks5://127.0.0.1:1080' for "
                                                 "http://api.invalid is not an http:// URL"):
        ChatEndpoint(base_url="http://api.invalid", model="m")


@pytest.mark.parametrize("credentials,authorization", [
    ("user:p%40ss@", "Basic " + base64.b64encode(b"user:p@ss").decode()),
    ("", None),
], ids=["credentials", "anonymous"])
def test_http_proxy_gets_absolute_form(server, proxy_env, credentials, authorization):
    proxy_env("HTTP_PROXY", server.base_url.replace("http://", f"http://{credentials}"))
    server.reply(200, CHAT_OK)
    ChatEndpoint(base_url="http://api.invalid:8080/base/", model="m").complete(MESSAGES)
    (request,) = server.requests
    assert request["path"] == "http://api.invalid:8080/base/v1/chat/completions"
    assert request["headers"]["Host"] == "api.invalid:8080"
    assert request["headers"].get("Proxy-Authorization") == authorization


def test_no_proxy_bypasses_proxy(server, proxy_env):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()[1]
    proxy_env("HTTP_PROXY", f"http://127.0.0.1:{dead}")
    proxy_env("NO_PROXY", "localhost,127.0.0.1")
    server.reply(200, CHAT_OK)
    chat(server, max_retries=0).complete(MESSAGES)
    (request,) = server.requests
    assert request["path"] == "/v1/chat/completions"
    assert "Proxy-Authorization" not in request["headers"]


def self_signed(tmp_path):
    """A certificate for 127.0.0.1 signed by its own key: (cert, key) paths."""
    pytest.importorskip("cryptography")
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    ski = x509.SubjectKeyIdentifier.from_public_key(key.public_key())
    cert = (
        x509.CertificateBuilder()
        .subject_name(name).issuer_name(name).public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName(
            [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .add_extension(ski, critical=False)
        .add_extension(
            x509.AuthorityKeyIdentifier.from_issuer_subject_key_identifier(ski),
            critical=False)
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption()))
    return cert_path, key_path


@pytest.fixture
def tls_server(tmp_path):
    """An HTTP/1.1 HTTPS server with a self-signed certificate, and its path."""
    cert, key = self_signed(tmp_path)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    scripted = Scripted(protocol="HTTP/1.1", tls=context)
    yield scripted, cert
    scripted.stop()


def test_tls_refuses_untrusted_certificate(tls_server, proxy_env):
    server, _ = tls_server
    with pytest.raises(errors.EndpointUnavailable, match="CERTIFICATE_VERIFY_FAILED"):
        chat(server, max_retries=1).complete(MESSAGES)
    assert not server.requests


class Tunnel(BaseHTTPRequestHandler):
    """A CONNECT proxy: records each CONNECT, then relays bytes both ways."""

    connects: list[dict] = []

    def log_message(self, *args):
        pass

    def do_CONNECT(self):
        self.connects.append({"target": self.path, "headers": dict(self.headers)})
        host, port = self.path.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as upstream:
            self.send_response(200)
            self.end_headers()
            ends = {self.connection: upstream, upstream: self.connection}
            while True:
                readable, _, _ = select.select(list(ends), [], [], 5)
                chunks = [(s, s.recv(65536)) for s in readable]
                if not readable or not all(data for _, data in chunks):
                    break
                for s, data in chunks:
                    ends[s].sendall(data)
        self.close_connection = True


def test_https_proxy_tunnels_with_connect(tls_server, proxy_env):
    server, cert = tls_server
    Tunnel.connects = []
    httpd, thread, proxy_url = serve(Tunnel)
    try:
        proxy_env("HTTPS_PROXY", proxy_url.replace("http://", "http://user:pw@"))
        proxy_env("SSL_CERT_FILE", str(cert))
        client = chat(server)
        for _ in range(2):
            server.reply(200, CHAT_OK)
            assert client.complete(MESSAGES) == "reply"
        client.close()
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    port = server.base_url.rsplit(":", 1)[1]
    (connect,) = Tunnel.connects
    assert connect["target"] == f"127.0.0.1:{port}"
    assert connect["headers"]["Proxy-Authorization"] == (
        "Basic " + base64.b64encode(b"user:pw").decode())
    assert [r["path"] for r in server.requests] == ["/v1/chat/completions"] * 2
    assert [r["connection"] for r in server.requests] == [1, 1]
    assert "Proxy-Authorization" not in server.requests[0]["headers"]


def test_user_agent_and_content_type(server):
    server.reply(200, CHAT_OK)
    chat(server).complete(MESSAGES)
    headers = server.requests[0]["headers"]
    assert headers["User-Agent"] == endpoint.USER_AGENT
    assert endpoint.USER_AGENT.startswith("biotriplets/")
    assert headers["Content-Type"] == "application/json"
