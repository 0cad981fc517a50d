from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import scamlens
from scamlens import corpus, detector
from scamlens.detector import SPECIAL_PIECES, DetectorModel, Vocab


def subprocess_env(**extra: str) -> dict[str, str]:
    """The environment for a child Python that imports this `scamlens`: its
    `src` directory first on PYTHONPATH, plus the `extra` variables. A child
    sees only PYTHONPATH, not the paths pytest adds to `sys.path`."""
    src = str(Path(scamlens.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def make_vocab(*extra: str) -> Vocab:
    chars = sorted({ch for piece in extra for ch in piece} | set("abcdefghijklmnopqrstuvwxyz"))
    return Vocab.from_pieces(SPECIAL_PIECES + tuple(chars) + tuple(extra))


def make_model(
    rng: np.random.Generator,
    vocab: Vocab | None = None,
    d: int = 6,
    h: int = 4,
    scale: float = 0.5,
    activation: str = "tanh",
) -> DetectorModel:
    vocab = vocab or make_vocab()
    return DetectorModel(
        vocab=vocab,
        embedding=rng.uniform(-scale, scale, size=(len(vocab), d)),
        hidden_w=rng.uniform(-scale, scale, size=(d, h)),
        hidden_b=rng.uniform(-scale, scale, size=h),
        out_w=rng.uniform(-scale, scale, size=h),
        out_b=float(rng.uniform(-scale, scale)),
        activation=activation,
    )


def zero_model(vocab: Vocab | None = None, d: int = 4, h: int = 3) -> DetectorModel:
    vocab = vocab or make_vocab()
    return DetectorModel(
        vocab=vocab,
        embedding=np.zeros((len(vocab), d)),
        hidden_w=np.zeros((d, h)),
        hidden_b=np.zeros(h),
        out_w=np.zeros(h),
        out_b=0.0,
    )


def logit_from_embeddings(model: DetectorModel, piece_embeddings: np.ndarray) -> float:
    """Scam logit for an explicit (n, d) embedding matrix: the oracle the
    gradient tests difference."""
    pooled = piece_embeddings.mean(axis=0)
    return float(detector.logits_from_pooled(model, pooled[None, :])[0])


def grad_wrt_embeddings(model: DetectorModel, piece_embeddings: np.ndarray) -> np.ndarray:
    """Exact gradient of the scam logit w.r.t. each piece embedding coordinate.

    Mean pooling spreads the pooled gradient uniformly: every row of the
    result equals grad_wrt_pooled(mean) / n.
    """
    n = piece_embeddings.shape[0]
    pooled = piece_embeddings.mean(axis=0)
    g = detector.grad_wrt_pooled(model, pooled[None, :])[0] / n
    return np.tile(g, (n, 1))


def gradient_shap_reference(
    model: DetectorModel, tokenized: detector.TokenizedInput, config
) -> tuple[float, ...]:
    """`attribution.gradient_shap` drawing from a fresh `default_rng(seed)` on
    every call, with `Generator.normal` for the noise: the per-message-RNG
    oracle that the shared draws must match bitwise."""
    x = detector.embed(model, tokenized)
    n, d = x.shape
    baseline_row = model.embedding[detector.PAD_ID]
    rng = np.random.default_rng(config.seed)
    alphas = rng.uniform(0.0, 1.0, size=config.n_samples)
    noise = rng.normal(0.0, config.noise_std / np.sqrt(n), size=(config.n_samples, d))
    pooled = baseline_row + alphas[:, None] * (x.mean(axis=0) - baseline_row) + noise
    mean_grad = detector.grad_wrt_pooled(model, pooled).mean(axis=0)
    attribution = (x - baseline_row) * (mean_grad / n)
    return tuple(float(s) for s in attribution.sum(axis=1))


@pytest.fixture(scope="session")
def small_corpus() -> corpus.MessageSet:
    return corpus.synth_corpus(seed=7, per_channel_per_label=30)


@pytest.fixture(scope="session")
def trained_model(small_corpus) -> detector.DetectorModel:
    return detector.train(small_corpus, detector.TrainConfig(seed=7))


@pytest.fixture(scope="session")
def frozen_model(trained_model) -> detector.DetectorModel:
    return trained_model


class ScriptedServer:
    """Local HTTP server that answers POSTs from a scripted response list.

    Each script entry is a dict with optional keys: status (default 200, or
    callable(path) -> int), body (dict or callable(path, request_body) ->
    dict), raw (bytes sent as the body in place of `body`), headers (extra
    response headers), delay (seconds), close (True: close the connection
    after the answer without saying so, as a server drops an idle one),
    hold ({path: n}: a request of that path, on a connection that has already
    carried an answer, waits until n requests of its path have been open at
    once; after the first wait that times out, at HOLD_TIMEOUT, none waits).
    The last entry repeats once the script is exhausted. Every request is
    recorded as (path, headers, parsed body). `events` lists ("request", path)
    when a request arrives and ("answer", path) just before its answer is
    sent, in that order; `peak_in_flight` counts the most requests open at once per path.
    A CONNECT is recorded as ("CONNECT host:port", headers, {}) and refused
    with 503, so the server can stand in for a proxy that opens no tunnel.

    By default the server speaks HTTP/1.0 and closes each connection after
    its answer. With `protocol_version="HTTP/1.1"` it keeps connections
    alive, and answers in two writes (headers, then body) with Nagle's
    algorithm on. `connections` counts the connections accepted, and
    `eofs` those the client closed.
    """

    HOLD_TIMEOUT = 2.0

    def __init__(self, protocol_version: str = "HTTP/1.0") -> None:
        self.connections = 0
        self.eofs = 0
        self.script: list[dict] = []
        self.requests: list[tuple[str, dict, dict]] = []
        self.events: list[tuple[str, str]] = []
        self.peak_in_flight: Counter[str] = Counter()
        self._in_flight: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._opened = threading.Condition(self._lock)
        self._holding = True
        self._cursor = 0

        server = self

        class Handler(BaseHTTPRequestHandler):
            def handle(self) -> None:
                # A connection's first request is not held: the client may
                # hold a permit of its opening gate until that one's answer.
                self.answered = False
                with server._lock:
                    server.connections += 1
                super().handle()
                # An empty request line is the client's EOF.
                if getattr(self, "raw_requestline", None) == b"":
                    with server._lock:
                        server.eofs += 1

            def do_CONNECT(self) -> None:  # noqa: N802 (http.server API)
                with server._lock:
                    server.requests.append((f"CONNECT {self.path}", dict(self.headers), {}))
                self.send_error(503)

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                body = json.loads(raw or b"{}")
                with server._lock:
                    entry = server.script[min(server._cursor, len(server.script) - 1)]
                    server._cursor += 1
                    server.requests.append((self.path, dict(self.headers), body))
                    server.events.append(("request", self.path))
                    server._in_flight[self.path] += 1
                    server.peak_in_flight[self.path] = max(
                        server.peak_in_flight[self.path], server._in_flight[self.path]
                    )
                    server._opened.notify_all()
                    hold = entry.get("hold", {}).get(self.path)
                    if hold and self.answered and server._holding:
                        server._holding = server._opened.wait_for(
                            lambda: server.peak_in_flight[self.path] >= hold, server.HOLD_TIMEOUT
                        )
                if entry.get("delay"):
                    time.sleep(entry["delay"])
                status = entry.get("status", 200)
                if callable(status):
                    status = status(self.path)
                payload = entry.get("body", {})
                if callable(payload):
                    payload = payload(self.path, body)
                data = entry["raw"] if "raw" in entry else json.dumps(payload).encode("utf-8")
                with server._lock:
                    server._in_flight[self.path] -= 1
                    server.events.append(("answer", self.path))
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    for name, value in entry.get("headers", {}).items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    pass
                self.answered = True
                if entry.get("close"):
                    self.close_connection = True

            def log_message(self, *args) -> None:
                pass

        Handler.protocol_version = protocol_version
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        # A short poll, so that close() does not wait out the default 0.5 s.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def wait_for_eofs(self, timeout: float = 5.0) -> None:
        """Wait until the client has closed every connection, or `timeout` passes."""
        deadline = time.monotonic() + timeout
        while self.eofs < self.connections and time.monotonic() < deadline:
            time.sleep(0.005)

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def stub_server():
    server = ScriptedServer()
    yield server
    server.close()


@pytest.fixture
def keep_alive_server():
    server = ScriptedServer("HTTP/1.1")
    yield server
    server.close()
