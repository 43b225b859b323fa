"""``serve_point``'s two ends: the server subprocess and a socket client.

The client is written here against the JSON-lines wire format
(``docs/serving.md``) and not taken from ``repro.serve``: a change to
the product's own client must not change what is measured.  Request
lines are encoded before the clock starts; a reply is timed when its
line has been read and decoded, as any client must do to use it.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

import spec
from measure import Tally, clock, reference, slowdown

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
SOCKET_TIMEOUT_S = 30.0


class Server:
    """``python -m repro serve <store> --port 0`` with the default
    admission policy (8192 keys / 2 ms), as users start it."""

    def __init__(self, store_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(spec.ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        started = clock()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", store_path,
             "--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise
        self.start_ms = (clock() - started) * 1e3

    def _await_port(self) -> int:
        watchdog = threading.Timer(START_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                if line.startswith("serving "):
                    return int(line.split(" on ", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
        finally:
            watchdog.cancel()
        raise RuntimeError("the server exited before it was serving")

    def stop(self) -> None:
        """SIGTERM drains gracefully; wait until the process has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def encode_requests(pool: np.ndarray, tenant: str,
                    deadline_ms: Optional[float] = None) -> List[bytes]:
    """Everything of each request line after the id.  Each phase has its
    own tenant, so the ``stats`` verb's per-tenant latency is that
    phase's alone."""
    extra = "" if deadline_ms is None else f', "deadline_ms": {deadline_ms}'
    return [(', "op": "lookup", "tenant": "%s", "keys": {"key": %s}%s}\n'
             % (tenant, json.dumps(row.tolist()), extra)).encode()
            for row in pool]


class Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def send(self, request_id: int, body: bytes) -> None:
        self.file.write(b'{"id": %d' % request_id + body)
        self.file.flush()

    def receive(self) -> Dict:
        line = self.file.readline()
        if not line:
            raise ConnectionError("the server closed the connection")
        return json.loads(line)

    def stats(self) -> Dict:
        self.send(-1, b', "op": "stats"}\n')
        return self.receive()["stats"]

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()


def closed_loop(connection: Connection, bodies: List[bytes], seconds: float,
                depth: int, first: int = 0, step: int = 1,
                check_all: bool = False, limit: Optional[int] = None):
    """Keep ``depth`` requests outstanding on one connection for
    ``seconds`` (or until ``limit`` requests were sent); a new request
    leaves only when a reply has come back.  Request ``n`` carries pool
    entry ``n``; this caller sends ``first, first + step, ...``.

    The reference kernel runs on this thread once per ``depth`` replies
    (so once per request when one is outstanding).  Returns the
    round-trip seconds at the reference speed, and the replies to check
    once the clock has stopped: one in ``CHECK_EVERY``, and every
    refusal."""
    sent_at: Dict[int, float] = {}
    to_check: List[Tuple[int, Dict]] = []
    round_trips: List[float] = []
    references: List[float] = []
    deadline = clock() + seconds
    next_id = first
    sent = 0

    def send_next() -> None:
        nonlocal next_id, sent
        if clock() >= deadline or (limit is not None and sent >= limit):
            return
        sent_at[next_id] = clock()
        connection.send(next_id, bodies[next_id % len(bodies)])
        next_id += step
        sent += 1

    for _ in range(depth):
        send_next()
    while sent_at:
        reply = connection.receive()
        now = clock()
        request_id = reply.get("id")
        round_trips.append(now - sent_at.pop(request_id))
        if "error" in reply or check_all \
                or (request_id // step) % spec.CHECK_EVERY == 0:
            to_check.append((request_id, reply))
        send_next()
        if len(round_trips) % depth == 0:
            references.append(reference())
    factor = slowdown(references) if references else 1.0
    return [t / factor for t in round_trips], to_check, factor


def fan_in(connections: List[Connection], bodies, seconds: float,
           check_all: bool = False, limit: Optional[int] = None):
    """One thread per connection, ``FANIN_PIPELINE`` requests outstanding
    on each.  Returns the round trips, the replies to check, and the
    seconds from first send to last reply (all at the reference speed)."""
    results: List[Optional[tuple]] = [None] * len(connections)
    errors: List[BaseException] = []

    def run(slot: int) -> None:
        try:
            results[slot] = closed_loop(
                connections[slot], bodies, seconds, spec.FANIN_PIPELINE,
                first=slot, step=len(connections), check_all=check_all,
                limit=limit)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(len(connections))]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock() - started
    if errors:
        raise errors[0]
    round_trips = [t for part in results for t in part[0]]
    to_check = [item for part in results for item in part[1]]
    factor = sum(part[2] for part in results) / len(results)
    return round_trips, to_check, wall / factor, factor


def check_replies(truth, pool: np.ndarray, replies, n_sent: int,
                  tally: Tally) -> None:
    """Count a phase's requests and check its sampled replies against
    the source table (on the calling thread, clock stopped)."""
    tally.attempted += n_sent
    for index, reply in replies:
        if "error" in reply:
            tally.fail(f"request refused: {reply['error']}")
            continue
        keys = pool[index % len(pool)]
        bad = truth.mismatches(keys, reply["found"],
                               reply["values"]["value"])
        if bad:
            tally.fail(f"{bad} wrong answers in request {index}")
