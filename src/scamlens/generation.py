"""Prompt construction and explanation generation.

Builds prompts for the four experimental conditions and obtains explanations
either from an OpenAI-compatible chat-completions endpoint or from a
deterministic in-process mock. The generator never classifies: it explains a
message that upstream stages already judged to be a scam.

The module also holds the one request path of both remote clients, this one
and the entailment scorer: `post_json_with_retry` over `http.client`, and
`run_batch`, which keeps up to MAX_IN_FLIGHT requests in flight; it sets the
`_worker` state by which each worker keeps its connections for the batch.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
import urllib.request
from base64 import b64encode
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from . import persona
from .attribution import EvidenceSet
from .corpus import FormattedText


class Condition(Enum):
    """The experimental conditions, in report order: each decides its evidence and persona."""

    PURE_LLM = "pure_llm"
    XAI_ONLY = "xai_only"
    XAI_HIGH_VULNERABILITY = "xai_high_vulnerability"
    XAI_LOW_VULNERABILITY = "xai_low_vulnerability"

    @property
    def wants_evidence(self) -> bool:
        return self is not Condition.PURE_LLM

    @property
    def persona(self) -> persona.VulnerabilityLevel | None:
        return _PERSONAS.get(self)


_PERSONAS = {
    Condition.XAI_HIGH_VULNERABILITY: persona.VulnerabilityLevel.HIGH_VULNERABILITY,
    Condition.XAI_LOW_VULNERABILITY: persona.VulnerabilityLevel.LOW_VULNERABILITY,
}


class GeneratorKind(Enum):
    REMOTE = "remote"
    MOCK = "mock"


class GenerationError(Exception):
    """A generation-stage failure."""


class TransportError(GenerationError):
    """A failed request of the shared request path, naming its URL."""


@dataclass(frozen=True)
class Prompt:
    system_text: str
    user_text: str
    condition: Condition
    message_id: str
    evidence: EvidenceSet | None


@dataclass(frozen=True)
class Explanation:
    message_id: str
    condition: Condition
    text: str
    generator: GeneratorKind
    model_name: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("explanation text must be non-empty")


def explanation_to_record(explanation: Explanation) -> dict[str, object]:
    return {
        "message_id": explanation.message_id,
        "condition": explanation.condition.value,
        "text": explanation.text,
        "generator": explanation.generator.value,
        "model_name": explanation.model_name,
    }


def explanation_from_record(record: Mapping[str, Any]) -> Explanation:
    return Explanation(
        message_id=str(record["message_id"]),
        condition=Condition(record["condition"]),
        text=str(record["text"]),
        generator=GeneratorKind(record["generator"]),
        model_name=str(record["model_name"]),
    )


@dataclass(frozen=True)
class EndpointConfig:
    """A remote model endpoint. With `api_key_env_var` set, its variable must
    hold the bearer token; with None, no Authorization header is sent."""

    base_url: str
    api_key_env_var: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if urlsplit(self.base_url).scheme not in ("http", "https"):
            raise ValueError(f"base_url must be an http or https URL, got {self.base_url!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True, kw_only=True)
class LlmClientConfig(EndpointConfig):
    """A chat-completions endpoint; keyword-only, because `model_name` has no
    default and follows fields that have one."""

    model_name: str
    api_key_env_var: str | None = "SCAMLENS_LLM_API_KEY"
    temperature: float = 0.2
    max_tokens: int = 400


EVIDENCE_HEADER = "Detector evidence terms (most important first):"
STYLE_PREFIX = "Style instructions:"

_SYSTEM_BASE = (
    "You explain risky messages for a general audience. The message you are given "
    "was already classified as a scam by a separate detector; do not re-classify it, "
    "explain why it is dangerous."
)
_SYSTEM_EVIDENCE = (
    " Ground the explanation in the detector-derived evidence terms provided and "
    "reference them explicitly."
)


def build_prompt(
    condition: Condition,
    message: FormattedText,
    evidence: EvidenceSet | None = None,
    *,
    message_id: str,
) -> Prompt:
    """Deterministic template fill for one condition.

    Evidence phrases are listed verbatim and in order; the evidence set is
    never mutated or reformatted, and the prompt carries it.
    """
    if condition.wants_evidence and evidence is None:
        raise GenerationError(f"{condition.value} requires an evidence set")
    if not condition.wants_evidence and evidence is not None:
        raise GenerationError(f"{condition.value} must not receive evidence")

    system_text = _SYSTEM_BASE + (_SYSTEM_EVIDENCE if evidence is not None else "")
    parts = [f"Message:\n{message.text}\n"]
    if evidence is not None:
        lines = "\n".join(f"- {word}" for word, _ in evidence.phrases)
        parts.append(f"{EVIDENCE_HEADER}\n{lines}\n")
    if condition.persona is not None:
        parts.append(f"{STYLE_PREFIX} {persona.build_instruction(condition.persona)}\n")
    parts.append("Explain why this message was flagged as a scam.")
    return Prompt(
        system_text=system_text,
        user_text="\n".join(parts),
        condition=condition,
        message_id=message_id,
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Remote client
# ---------------------------------------------------------------------------

# Concurrent requests per batch. Generation and NLI scoring each run one
# batch, so each endpoint sees at most this many at once.
MAX_IN_FLIGHT = 16

# Of those, the most that may run at once on connections that have not yet
# carried an answer. A server that closes every connection thus sees no more
# connects at once than this; one that keeps them alive gets MAX_IN_FLIGHT.
OPENING_GATE = 4

# Read once per process, at import, as urllib.request reads them.
_PROXIES = urllib.request.getproxies()

# Linux only: ack the answer's first segment at once. A server that writes
# headers and body apart with Nagle's algorithm on holds the body until that
# ack, which a delayed ack would put off by up to 40 ms per request.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}

# `batch` is the _Batch a run_batch pool worker serves and `index` the input
# index of the call it runs, both set by run_batch's `guarded` before each call.
_worker = threading.local()


_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def auth_headers(config: EndpointConfig) -> dict[str, str]:
    """The endpoint's one auth rule: a bearer token from the variable named by
    `api_key_env_var`, or no header when that is None. An unset or empty
    variable raises TransportError naming the endpoint and the variable."""
    if config.api_key_env_var is None:
        return {}
    key = os.environ.get(config.api_key_env_var, "")
    if not key:
        raise TransportError(
            f"{config.base_url}: environment variable {config.api_key_env_var} is not set"
        )
    return {"Authorization": f"Bearer {key}"}


@dataclass(frozen=True)
class _Route:
    """A connection to one origin, the request target to send on it, and the
    headers the proxy on the way needs."""

    conn: http.client.HTTPConnection
    target: str
    headers: Mapping[str, str]

    @classmethod
    def open(cls, url: SplitResult, timeout: float) -> _Route:
        """A new route to `url`'s origin, by urllib.request's proxy rules: no
        proxy where NO_PROXY names the host (read at each call), an http URL
        in absolute form to the proxy, an https one through a CONNECT tunnel.
        Nothing is sent before the first request."""
        target = urlunsplit(("", "", url.path or "/", url.query, ""))
        proxy = _PROXIES.get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.netloc):
            return cls(_CONNECTIONS[url.scheme](url.netloc, timeout=timeout), target, {})
        proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        auth = {}
        if proxy_url.username and proxy_url.password:
            credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password)}"
            auth["Proxy-Authorization"] = "Basic " + b64encode(credentials.encode()).decode("ascii")
        proxy_host = proxy_url.netloc.rpartition("@")[2]
        if url.scheme == "https":
            conn = http.client.HTTPSConnection(proxy_host, timeout=timeout)
            conn.set_tunnel(url.netloc, headers=auth)
            return cls(conn, target, {})
        conn = _CONNECTIONS.get(proxy_url.scheme, http.client.HTTPConnection)(
            proxy_host, timeout=timeout
        )
        return cls(conn, urlunsplit(url._replace(fragment="")), auth)


class _Batch:
    """The connections and failures of one run_batch. Each worker keeps one
    connection per origin, under `kept[(thread id, scheme, netloc)]`, while
    it is idle; a worker touches only its own keys. `gate` holds
    OPENING_GATE permits. `failed` lists the input indices of the calls that
    have failed, and -1 once the batch ends."""

    def __init__(self) -> None:
        self.kept: dict[tuple[int, str, str], _Route] = {}
        self.gate = threading.Semaphore(OPENING_GATE)
        self.failed: list[int] = []

    def check(self, index: int) -> None:
        """Stop the call at `index` if a call before it has failed: its result
        is never read."""
        if self.failed and min(self.failed) < index:
            raise CancelledError("an earlier call of the batch failed")


def _exchange(
    route: _Route,
    body: bytes,
    headers: Mapping[str, str],
    keep: Callable[[_Route], None] | None,
    reused: bool = False,
) -> tuple[int, http.client.HTTPMessage, bytes] | None:
    """POST `body` on `route` and drain the whole answer: status, headers and body.
    The connection then goes to `keep`, or is closed when there is no `keep`,
    when the server closes it, or on any failure. None, for a `reused` route
    found closed or reset before it answers."""
    answered = False
    try:
        route.conn.request("POST", route.target, body, {**headers, **route.headers})
        if _QUICKACK is not None:
            route.conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        response = route.conn.getresponse()
        answered = True
        raw = response.read()
    except BaseException as exc:
        route.conn.close()
        if reused and not answered and isinstance(exc, ConnectionError):
            return None
        raise
    if keep is None or response.will_close:
        route.conn.close()
    else:
        keep(route)
    return response.status, response.msg, raw


def _post(
    url: str, body: bytes, headers: Mapping[str, str], timeout: float
) -> tuple[int, http.client.HTTPMessage, bytes]:
    """One POST and its whole answer.

    Outside a batch, a new connection carries the one request and is closed.
    A batch worker sends on the connection it kept for the URL's origin, if
    any, and keeps it again. One found closed or reset before it answers was
    dropped by the server while idle: the request goes out again at once on
    a new connection. A request on a new connection holds a permit of the
    batch's gate until its answer is read; one that gets a permit after an
    earlier call of the batch failed is not sent."""
    split = urlsplit(url)
    batch: _Batch | None = getattr(_worker, "batch", None)
    if batch is None:
        return _exchange(_Route.open(split, timeout), body, headers, None)
    key = (threading.get_ident(), split.scheme, split.netloc)
    keep = partial(batch.kept.__setitem__, key)
    route = batch.kept.pop(key, None)
    if route is not None:
        route.conn.sock.settimeout(timeout)
        answer = _exchange(route, body, headers, keep, reused=True)
        if answer is not None:
            return answer
    with batch.gate:
        batch.check(_worker.index)
        return _exchange(_Route.open(split, timeout), body, headers, keep)


def post_json_with_retry(
    config: EndpointConfig, path: str, payload: dict[str, Any]
) -> tuple[str, Any]:
    """POST `payload` to `path` under the endpoint; returns the URL and the
    decoded JSON body. The one request path of both remote clients, over
    `http.client` (see `_post` for which connection carries a request).

    Timeouts, connection errors, 429 and 5xx are retried with exponential
    backoff; a 429 or 503 whose Retry-After header gives delta-seconds waits
    that long instead (an HTTP-date keeps the backoff). Any other non-2xx
    status raises at once, naming the status, redirects included; no
    redirect is followed. Every failure is a TransportError that names the
    URL.
    """
    url = config.base_url.rstrip("/") + path
    headers = {**auth_headers(config), "Content-Type": "application/json"}
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    attempts = config.max_retries + 1
    last_failure: TransportError | None = None
    for attempt in range(attempts):
        delay = config.backoff_base * (2**attempt)
        try:
            status, answer_headers, raw = _post(url, data, headers, config.timeout)
        except (OSError, http.client.HTTPException) as exc:
            if isinstance(exc, TimeoutError):
                last_failure = TransportError(f"{url}: timed out after {config.timeout}s")
            else:
                last_failure = TransportError(f"{url}: connection failed ({exc})")
            last_failure.__cause__ = exc
        else:
            if 200 <= status < 300:
                try:
                    return url, json.loads(raw)
                except ValueError as exc:
                    raise TransportError(f"{url}: response body is not JSON ({exc})") from None
            if status in (401, 403):
                raise TransportError(f"{url}: authentication rejected ({status})")
            retry_after = answer_headers.get("Retry-After", "").strip()
            if status in (429, 503) and retry_after.isdecimal():
                delay = int(retry_after)
            if status == 429:
                last_failure = TransportError(f"{url}: rate limited (429)")
            elif status >= 500:
                last_failure = TransportError(f"{url}: server error ({status})")
            else:
                raise TransportError(f"{url}: request failed ({status})")
        if attempt < attempts - 1:
            time.sleep(delay)
    assert last_failure is not None
    raise last_failure


def run_batch(
    call: Callable[[Any, _Item], _Result], config: EndpointConfig, items: Iterable[_Item]
) -> Iterator[_Result]:
    """Yield `call(config, item)` for every item, in input order, never in
    completion order.

    Items are read lazily, so `items` may itself be the stream of another
    batch: after the first 2 * MAX_IN_FLIGHT, one item is read for each
    result yielded, and at most MAX_IN_FLIGHT calls run at once on the
    batch's own pool. Each worker of the pool keeps one connection per origin
    for the batch (see `_post`), and every one is closed when the batch ends.
    The first failure, of a call in any position or of `items`, stops the
    batch: no further item is read, and no later call that has not started,
    or that waits at the opening gate (see `_post`), sends anything. The
    earliest failure in input order is raised once the running calls
    finish, and `items` is then closed, which stops an upstream batch the
    same way. Closing the stream early does the same without raising.
    """
    source = iter(items)
    batch = _Batch()
    pool = ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT)

    def guarded(index: int, item: _Item) -> _Result:
        batch.check(index)
        _worker.batch, _worker.index = batch, index
        try:
            return call(config, item)
        except BaseException:
            batch.failed.append(index)
            raise

    # Up to MAX_IN_FLIGHT calls wait queued behind the running ones, so a
    # worker that finishes starts the next call at once while the batch still
    # waits for an older, slower result (a retried one, say).
    pending: deque[Future] = deque()
    try:
        for index, item in enumerate(source):
            pending.append(pool.submit(guarded, index, item))
            if len(pending) == 2 * MAX_IN_FLIGHT:
                yield pending.popleft().result()
            if batch.failed:
                break
        while pending:
            yield pending.popleft().result()
    finally:
        batch.failed.append(-1)  # no result is read any more: a waiting call sends nothing
        pool.shutdown(wait=True, cancel_futures=True)
        for route in batch.kept.values():  # no worker runs any more
            route.conn.close()
        close = getattr(source, "close", None)
        if close is not None:
            close()


def generate(config: LlmClientConfig, prompt: Prompt) -> Explanation:
    """One chat-completion request for one prompt."""
    payload = {
        "model": config.model_name,
        "messages": [
            {"role": "system", "content": prompt.system_text},
            {"role": "user", "content": prompt.user_text},
        ],
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }
    url, body = post_json_with_retry(config, "/chat/completions", payload)
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"{url}: malformed completion response ({exc})") from None
    if not isinstance(text, str) or not text.strip():
        raise GenerationError(f"{url}: endpoint returned an empty completion")
    return Explanation(
        message_id=prompt.message_id,
        condition=prompt.condition,
        text=text,
        generator=GeneratorKind.REMOTE,
        model_name=config.model_name,
    )


def generate_many(config: LlmClientConfig, prompts: Iterable[Prompt]) -> Iterator[Explanation]:
    """The stream of explanations for `prompts`, in prompt order (see
    `run_batch`). No request is sent before the stream is read."""
    return run_batch(generate, config, prompts)


# ---------------------------------------------------------------------------
# Deterministic mock
# ---------------------------------------------------------------------------


MOCK_MODEL_NAME = "mock-explainer-v1"

# Evidence-echoing templates by the condition's persona. Cue slots are joined
# with spaced commas so every evidence phrase survives whitespace tokenization
# verbatim.
_ECHO = {
    persona.VulnerabilityLevel.HIGH_VULNERABILITY: (
        "Take a breath. You are safe right now. We checked this note for you. It is a scam. "
        "The top signs we found are : {cues} . Do not tap the link. Do not send money. "
        "Do not share your details. You can just delete it. If you feel unsure , talk to a "
        "friend first."
    ),
    None: (
        "This message was flagged as a scam by the detector. The strongest cues were : {cues} . "
        "Together these cues match known scam patterns , so do not click , reply , or pay."
    ),
    persona.VulnerabilityLevel.LOW_VULNERABILITY: (
        "Systematic inspection of this communication surfaces indicators characteristic of "
        "fraudulent solicitation , specifically : {cues} . The joint occurrence of these "
        "indicators materially elevates the probability of deceptive intent , warranting "
        "categorical avoidance of any interaction , including clicking , replying , or "
        "transferring money."
    ),
}
_BLIND = (
    "Caution is advised here. A careful independent look suggests this was composed to "
    "mislead whoever reads it. The safest option is to disregard it entirely. When in "
    "doubt , ask a person you know offline."
)


def mock_generate(prompt: Prompt) -> Explanation:
    """Deterministic test double for the remote generator.

    A prompt without evidence gets a fixed generic warning that shares no
    content with the evidence. Every other prompt echoes each phrase of the
    evidence it carries verbatim, in the sentence shape of its persona.
    """
    if prompt.evidence is None:
        text = _BLIND
    else:
        phrases = prompt.evidence.words()
        cues = " , ".join(phrases) if phrases else "the overall wording"
        text = _ECHO[prompt.condition.persona].format(cues=cues)
    return Explanation(
        message_id=prompt.message_id,
        condition=prompt.condition,
        text=text,
        generator=GeneratorKind.MOCK,
        model_name=MOCK_MODEL_NAME,
    )
