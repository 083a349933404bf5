"""The chat and embedding endpoints, and the HTTP client they share.

Both endpoints take a JSON body by POST and answer with JSON. `post` sends
one attempt and sorts its reply into one of three kinds: a transport error,
5xx or 429 raises RetryLater, with the reply's Retry-After; any other 4xx,
or a success reply whose body the caller cannot read, is rejected; anything
else is returned parsed. `Endpoint.retry_delay` says when a request that
met RetryLater may be sent again, or that its retries are used up. The
caller keeps the request until then (`pipeline.run_extraction` holds it on
a heap), so no thread sleeps out a backoff. Each pipeline worker sends at
most one request at a time, so the worker count bounds concurrency.

Each worker thread keeps one HTTP/1.1 connection per endpoint and reuses it
while the server keeps it open. Proxies come from HTTP(S)_PROXY/NO_PROXY,
read once per endpoint; TLS is verified against the default trust store.
Only `extract` loads this module: `config` imports it when it builds an
endpoint. The HTTP, TLS and proxy modules are imported by the methods that
use them, so a stage that sends no request does not load them either.
"""

from __future__ import annotations

import base64
import json
import math
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from . import __version__
from .errors import ConfigError, EndpointRejected, EndpointUnavailable

if TYPE_CHECKING:
    import http.client

T = TypeVar("T")

# Longest Retry-After honoured; a larger value waits this long.
MAX_RETRY_AFTER_S = 60.0

# Longest socket timeout accepted: a day.
MAX_TIMEOUT_S = 86400.0

# Some hosted gateways refuse a request without a User-Agent.
USER_AGENT = f"biotriplets/{__version__}"

# Sampling settings sent with every chat request.
TEMPERATURE = 0.0
MAX_TOKENS = 512


def _retry_after(value: str) -> float | None:
    """A Retry-After header's delta-seconds, capped; None for an absent
    header or one in HTTP-date form. Only ASCII digits count: `str.isdigit`
    also holds for the latin-1 header byte 0xB2 (²), which float() rejects."""
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), MAX_RETRY_AFTER_S)


class RetryLater(EndpointUnavailable):
    """One attempt met a transport error, 5xx or 429: the same request may
    succeed later. `retry_after` is the reply's Retry-After in seconds,
    capped, or None."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


def _dropped(conn: http.client.HTTPConnection) -> bool:
    """True when an idle connection's socket is readable: the server has
    closed it (or sent bytes no request asked for), so it cannot be reused."""
    import select

    return bool(select.select([conn.sock], [], [], 0)[0])


@dataclass
class Endpoint:
    base_url: str
    model: str
    max_retries: int = 2
    timeout: float = 60.0
    api_key: str = field(default="", repr=False)
    retry_backoff: float = 0.2

    def __post_init__(self):
        import ssl
        import urllib.request

        try:
            url = urllib.parse.urlsplit(self.base_url.rstrip("/"))
            port = url.port  # raises ValueError, as urlsplit does for a bad IPv6 host
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError("no http or https scheme and host")
        except ValueError as exc:
            raise ConfigError(f"endpoint base_url must be an http:// or https:// URL, "
                              f"not {self.base_url!r} ({exc})") from None
        if self.max_retries < 0:
            raise ConfigError(f"endpoint max_retries must be at least 0, "
                              f"not {self.max_retries}")
        if not 0 < self.timeout <= MAX_TIMEOUT_S:
            raise ConfigError(f"endpoint timeout must be in (0, {MAX_TIMEOUT_S:g}] "
                              f"seconds, not {self.timeout!r}")
        self._https = url.scheme == "https"
        self._context = ssl.create_default_context() if self._https else None
        self._server = (url.hostname, port or (443 if self._https else 80))
        self._prefix = url.path
        self._headers = {"Content-Type": "application/json", "User-Agent": USER_AGENT}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        self._proxy, self._proxy_headers = None, {}
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            self._use_proxy(proxy)
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _use_proxy(self, proxy: str) -> None:
        """Send through the HTTP proxy at `proxy`: an http endpoint gets
        absolute-form targets, an https one a CONNECT tunnel. Credentials in
        the proxy URL become Proxy-Authorization: Basic."""
        parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if parts.scheme != "http" or not parts.hostname:
            raise ConfigError(f"proxy {proxy!r} for {self.base_url} is not an http:// URL")
        self._proxy = (parts.hostname, parts.port or 80)
        if parts.username is not None:
            user = urllib.parse.unquote(parts.username)
            password = urllib.parse.unquote(parts.password or "")
            token = base64.b64encode(f"{user}:{password}".encode()).decode()
            self._proxy_headers = {"Proxy-Authorization": f"Basic {token}"}
        if not self._https:
            self._prefix = self.base_url.rstrip("/")
            self._headers.update(self._proxy_headers)

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection; one the server has closed is closed
        here too, so the request reconnects instead of failing."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._open()
        elif conn.sock is not None and _dropped(conn):
            conn.close()
        return conn

    def _open(self) -> http.client.HTTPConnection:
        import http.client

        host, port = self._proxy or self._server
        if self._https:
            conn = http.client.HTTPSConnection(
                host, port, timeout=self.timeout, context=self._context)
            if self._proxy:
                conn.set_tunnel(*self._server, headers=self._proxy_headers)
        else:
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout)
        with self._lock:
            self._opened.append(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connection; a later post reconnects."""
        with self._lock:
            for conn in self._opened:
                conn.close()

    def retry_delay(self, exc: RetryLater, failures: int) -> float:
        """Seconds until a request whose attempts have failed `failures`
        times, the last with `exc`, may be sent again: the reply's
        Retry-After, else `retry_backoff` doubled per earlier failure. Once
        the failures exceed `max_retries`, raises EndpointUnavailable with
        the failure's text."""
        if failures > self.max_retries:
            raise EndpointUnavailable(str(exc))
        if exc.retry_after is not None:
            return exc.retry_after
        return self.retry_backoff * 2 ** (failures - 1)

    def post(self, path: str, payload: dict, parse: Callable[[Any], T]) -> T:
        """POST `payload` as JSON to `path` once; returns `parse` of the
        reply body.

        A transport error, 5xx or 429 raises RetryLater. Any other 4xx, and
        a body that is not JSON (or nests past the recursion limit) or that
        `parse` rejects with ValueError, LookupError or TypeError, raise
        EndpointRejected: sending it again would not help.
        """
        import http.client

        url = f"{self.base_url.rstrip('/')}{path}"
        body = json.dumps(payload, allow_nan=False).encode()
        conn = self._connection()
        try:
            conn.request("POST", self._prefix + path, body, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise RetryLater(f"POST {url}: {type(exc).__name__}: {exc}") from None
        if resp.status >= 500 or resp.status == 429:
            raise RetryLater(f"POST {url}: HTTP {resp.status}",
                             _retry_after(resp.getheader("Retry-After", "")))
        if resp.status >= 400:
            text = " ".join(data.decode("utf-8", "replace").split())[:200]
            raise EndpointRejected(f"POST {url}: HTTP {resp.status}: {text}")
        try:
            return parse(json.loads(data))
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise EndpointRejected(f"POST {url}: unreadable reply: {exc!r}") from None


def _reply_content(body: dict) -> str:
    content = body["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise TypeError(f"message content is {type(content).__name__}, not str")
    return content


@dataclass
class ChatEndpoint(Endpoint):
    timeout: float = 120.0

    def complete(self, messages: list[dict]) -> str:
        """Returns the reply text of one attempt; a retryable failure raises
        `RetryLater`. It keeps no clock: `pipeline.run_extraction` times
        each verdict from its first attempt."""
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        return self.post("/v1/chat/completions", payload, _reply_content)


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
        `RetryLater`."""
        return self.post("/v1/embeddings", {"model": self.model, "input": texts},
                         lambda body: _reply_vectors(body, len(texts)))
