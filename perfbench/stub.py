"""Deterministic stand-in for the chat-completions and entailment endpoints.

Run as its own process: `python3 perfbench/stub.py`. It binds 127.0.0.1 on
a free port, prints `READY <port>` and serves until SIGTERM. Every POST
waits LATENCY_S; every FAIL_EVERY-th POST attempt (counted across both
endpoints) is answered 503 so the client's retry path runs. Answers depend
only on the request body, so which request draws the 503 never changes the
pipeline's output.

`GET /stats` returns the counters the benchmark reads: POST attempts, 503s
sent, 200s sent and connections that carried at least one POST (HTTP/1.1,
so a client that keeps connections alive is visible as several requests per
connection).
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.020
FAIL_EVERY = 25
NLI_SCORES = {"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}
COMPLETION_TEMPLATE = (
    "This message carries the marks of a scam : {cues} . Do not click , reply , or pay ."
)


def completion_text(body: dict) -> str:
    """Echo the prompt's evidence lines ("- word") in a fixed template."""
    user = next((m["content"] for m in body["messages"] if m["role"] == "user"), "")
    cues = [line[2:] for line in user.splitlines() if line.startswith("- ")]
    return COMPLETION_TEMPLATE.format(cues=" , ".join(cues) if cues else "the overall wording")


class Stub(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.lock = threading.Lock()
        self.stats = {"attempts": 0, "rejected": 0, "ok": 0, "connections": 0}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: Stub

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        with self.server.lock:
            stats = dict(self.server.stats)
        self._send(200 if self.path == "/stats" else 404, stats)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        stub = self.server
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))) or b"{}")
        with stub.lock:
            stub.stats["attempts"] += 1
            reject = stub.stats["attempts"] % FAIL_EVERY == 0
            if not self.counted:
                stub.stats["connections"] += 1
                self.counted = True
        time.sleep(LATENCY_S)
        if not self.headers.get("Authorization", "").removeprefix("Bearer ").strip():
            self._send(401, {"error": "missing bearer token"})
            return
        if reject:
            with stub.lock:
                stub.stats["rejected"] += 1
            self._send(503, {"error": "injected failure"})
            return
        if self.path.endswith("/chat/completions"):
            payload = {"choices": [{"message": {"role": "assistant", "content": completion_text(body)}}]}
        elif self.path.endswith("/nli"):
            payload = dict(NLI_SCORES)
        else:
            self._send(404, {"error": f"no route {self.path}"})
            return
        with stub.lock:
            stub.stats["ok"] += 1
        self._send(200, payload)

    def log_message(self, *args: object) -> None:
        pass


def main() -> None:
    stub = Stub()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    server = threading.Thread(target=stub.serve_forever, daemon=True)
    server.start()
    print(f"READY {stub.server_address[1]}", flush=True)
    while not stop.wait(0.5):
        pass
    stub.shutdown()
    stub.server_close()
    server.join()


if __name__ == "__main__":
    main()
