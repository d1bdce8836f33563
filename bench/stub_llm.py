"""Stub chat-completions server for the multistep_http workload.

Standard library only; runs in its own process on 127.0.0.1. It speaks
HTTP/1.1 with keep-alive and answers ``POST /v1/chat/completions`` after a
fixed latency of ``LATENCY_MS``, with the reply that the index file holds for
the SHA-256 of the prompt. An unknown prompt gets HTTP 404 and is counted as a
miss, so a run is deterministic or fails visibly.

It counts requests, connections, misses and the time spent waiting, and for
each dialogue the time from its first slot request's arrival to its last
reply sent. Counts are kept per phase; ``GET /control/phase/<name>`` starts a
new phase, ``GET /control/stats`` returns all phases as JSON and
``GET /control/shutdown`` stops the server. Control requests are not counted.

Usage: python3 bench/stub_llm.py --index stub_index.json
The chosen port is printed as the first line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# At 40 ms the wait is most of a multistep_http round, so the cross-process
# wake-ups of this VM do not set the round's wall time (10 ms spread 0.26).
LATENCY_MS = 40.0


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.phase = "default"
        self.phases: dict[str, dict] = {}
        self.open: dict[str, float] = {}  # dialogue -> first slot arrival

    def current(self) -> dict:
        return self.phases.setdefault(
            self.phase,
            {"requests": 0, "connections": 0, "misses": 0, "wait_s": 0.0, "dialogue_ms": []},
        )

    def add(self, field: str, amount=1) -> None:
        with self.lock:
            self.current()[field] += amount

    def dialogue_start(self, dialogue: str, arrival: float) -> None:
        with self.lock:
            self.open[dialogue] = arrival

    def dialogue_end(self, dialogue: str, sent: float) -> None:
        with self.lock:
            start = self.open.pop(dialogue, None)
            if start is not None:
                self.current()["dialogue_ms"].append((sent - start) * 1000.0)

    def set_phase(self, name: str) -> None:
        with self.lock:
            self.phase = name
            self.open.clear()
            self.current()

    def snapshot(self) -> dict:
        with self.lock:
            return json.loads(json.dumps(self.phases))


def make_handler(index: dict, stats: Stats, server_ref: list):
    latency = LATENCY_MS / 1000.0

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self._counted = False

        def log_message(self, format, *args):  # keep stderr quiet
            pass

        def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()

        def _count_connection(self) -> None:
            if not self._counted:
                self._counted = True
                stats.add("connections")

        def do_GET(self):
            parts = self.path.strip("/").split("/")
            if parts[:2] == ["control", "phase"] and len(parts) == 3:
                stats.set_phase(parts[2])
                self._send(200, b"{}")
            elif parts == ["control", "stats"]:
                self._send(200, json.dumps(stats.snapshot()).encode("utf-8"))
            elif parts == ["control", "shutdown"]:
                self._send(200, b"{}")
                threading.Thread(target=server_ref[0].shutdown, daemon=True).start()
            else:
                self._send(404, b"{}")

        def do_POST(self):
            arrival = time.perf_counter()
            self._count_connection()
            stats.add("requests")
            length = int(self.headers.get("Content-Length", "0"))
            try:
                payload = json.loads(self.rfile.read(length))
                prompt = payload["messages"][0]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                self._send(400, b'{"error": "bad request"}')
                return
            entry = index.get(hashlib.sha256(prompt.encode("utf-8")).hexdigest())
            if self.path.rstrip("/") != "/v1/chat/completions" or entry is None:
                stats.add("misses")
                self._send(404, b'{"error": "unknown prompt"}')
                return
            if entry["first"]:
                stats.dialogue_start(entry["dialogue"], arrival)
            time.sleep(latency)
            stats.add("wait_s", latency)
            body = {
                "object": "chat.completion",
                "model": payload.get("model", ""),
                "choices": [
                    {"index": 0, "message": {"role": "assistant", "content": entry["reply"]},
                     "finish_reason": "stop"}
                ],
            }
            self._send(200, json.dumps(body).encode("utf-8"))
            if entry["last"]:
                stats.dialogue_end(entry["dialogue"], time.perf_counter())

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index", required=True)
    args = parser.parse_args(argv)
    with open(args.index, encoding="utf-8") as handle:
        index = json.load(handle)
    stats = Stats()
    server_ref: list = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(index, stats, server_ref))
    server.daemon_threads = True
    server_ref.append(server)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
