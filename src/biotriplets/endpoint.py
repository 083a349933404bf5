"""The HTTP client shared by the chat and embedding endpoints.

Both endpoints take a JSON body by POST and answer with JSON. `post` sorts
every reply into one of three kinds: a transport error, 5xx or 429 is
retried; any other 4xx, or a success reply whose body the caller cannot
read, is rejected at once; anything else is returned parsed. Each pipeline
worker holds at most one request, so the worker count bounds concurrency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

import requests

from .errors import EndpointRejected, EndpointUnavailable

T = TypeVar("T")

# Longest Retry-After honoured; a larger value waits this long.
MAX_RETRY_AFTER_S = 60.0


def _retry_after(resp: requests.Response) -> Optional[float]:
    """The reply's Retry-After delta-seconds, capped; None for an absent
    header or one in HTTP-date form."""
    value = resp.headers.get("Retry-After", "").strip()
    return min(float(value), MAX_RETRY_AFTER_S) if value.isdigit() else None


@dataclass
class Endpoint:
    base_url: str
    model: str
    max_retries: int = 2
    timeout: float = 60.0
    api_key: str = ""
    retry_backoff: float = 0.2

    def __post_init__(self):
        self._session = requests.Session()

    def post(self, path: str, payload: dict, parse: Callable[[Any], T]) -> T:
        """POST `payload` as JSON to `path`; returns `parse` of the reply body.

        A transport error, 5xx or 429 is retried up to `max_retries` times,
        after the reply's Retry-After or else `retry_backoff` doubled per
        retry; then EndpointUnavailable is raised. Any other 4xx, and a body
        that is not JSON or that `parse` rejects with ValueError, LookupError
        or TypeError, raise EndpointRejected without a retry.
        """
        url = f"{self.base_url.rstrip('/')}{path}"
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        delay, failure = 0.0, "no request sent"
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(delay)
            delay = self.retry_backoff * 2 ** attempt
            try:
                resp = self._session.post(
                    url, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                failure = str(exc)
                continue
            if resp.status_code >= 500 or resp.status_code == 429:
                failure = f"HTTP {resp.status_code}"
                wait = _retry_after(resp)
                delay = delay if wait is None else wait
                continue
            if resp.status_code >= 400:
                body = " ".join(resp.text.split())[:200]
                raise EndpointRejected(f"POST {url}: HTTP {resp.status_code}: {body}")
            try:
                return parse(resp.json())
            except (ValueError, LookupError, TypeError) as exc:
                raise EndpointRejected(f"POST {url}: unreadable reply: {exc!r}") from None
        raise EndpointUnavailable(f"POST {url}: {failure}")
