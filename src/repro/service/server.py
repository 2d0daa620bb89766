"""JSON-lines front-ends for :class:`~repro.service.service.InfluenceService`.

One request per line, one response per line — the simplest protocol
that composes with ``nc``, shell pipes, and three-line Python clients.
Two transports share the same request handler:

* **TCP** (:func:`serve_tcp`): a threading socket server; each
  connection streams any number of requests.
* **stdin batch** (:func:`serve_stdin`): requests are read line by line
  from a stream (e.g. a file of queries), responses written to another;
  exits when input ends.  This is the scriptable/CI mode.

Request schema (all keys optional unless noted)::

    {"graph": "<registered name>",        # or:
     "dataset": "WV", "scale": "tiny", "graph_seed": 0,
     "k": 10,                             # required
     "epsilon": 0.2,                      # required
     "model": "IC", "eliminate_sources": false,
     "entropy": 0, "n_jobs": 1, "theta_scale": null,
     "deadline": 5.0}                     # per-query budget, seconds

    {"health": true}                      # readiness snapshot instead

Responses::

    {"ok": true, "seeds": [...], "k": 10, "epsilon": 0.2,
     "theta": 1234, "influence": 56.7, "cache": "cold|prefix|exact",
     "coalesced": false, "degraded": false,
     "sampled_sets": 1234, "seconds": 0.04}
    {"ok": false, "error": "...", "overloaded": true|false,
     "deadline_expired": true|false, "circuit_open": true|false,
     "closed": true|false}

Unknown request fields are rejected (fail-fast beats silently ignoring
a typoed ``epsilon``); an overloaded service answers
``overloaded: true`` so clients know to back off and retry.

Connection-level robustness: a request line longer than
``max_request_bytes`` or an idle read past ``read_timeout`` errors and
closes *that* connection only; malformed JSON errors the one request
and keeps the connection; a client that disconnects mid-request (or
mid-response) just ends its handler thread.  The accept loop outlives
all of it.  ``SIGTERM`` triggers a graceful drain: stop accepting,
finish admitted queries (bounded by ``drain_timeout``), close the
service.
"""

from __future__ import annotations

import json
import signal
import socket
import socketserver
import threading
from typing import Optional

from repro.graphs.datasets import DATASETS, load_dataset
from repro.graphs.weights import assign_ic_weights, assign_lt_weights
from repro.imm.bounds import BoundsConfig
from repro.imm.options import IMMOptions
from repro.service.query import InfluenceQuery
from repro.service.service import InfluenceService
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    ValidationError,
)

_REQUEST_FIELDS = {
    "graph", "dataset", "scale", "graph_seed", "k", "epsilon", "model",
    "eliminate_sources", "entropy", "n_jobs",
    "batch_size", "theta_scale", "data_plane", "visited_mode", "deadline",
}

#: default ceiling on one request line (a JSON query fits in a fraction)
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: graphs loaded on demand for ``dataset`` requests are registered under
#: this name pattern so repeat requests share substrates and caches
_DATASET_NAME = "{code}:{scale}:{seed}:{model}"


def _dataset_graph(service: InfluenceService, request: dict, model: str):
    code = str(request["dataset"]).upper()
    if code not in DATASETS:
        raise ValidationError(
            f"unknown dataset {code!r}; choose from {sorted(DATASETS)}"
        )
    scale = str(request.get("scale", "tiny"))
    seed = int(request.get("graph_seed", 0))
    name = _DATASET_NAME.format(code=code, scale=scale, seed=seed, model=model)
    if name not in service.registered_graphs():
        graph = load_dataset(code, scale=scale, rng=seed)
        assign = assign_ic_weights if model == "IC" else assign_lt_weights
        service.register_graph(name, assign(graph))
    return name


def build_query(service: InfluenceService, request: dict) -> InfluenceQuery:
    """Translate one request dict into an :class:`InfluenceQuery`."""
    if not isinstance(request, dict):
        raise ValidationError("request must be a JSON object")
    unknown = set(request) - _REQUEST_FIELDS
    if unknown:
        raise ValidationError(f"unknown request fields: {sorted(unknown)}")
    for required in ("k", "epsilon"):
        if required not in request:
            raise ValidationError(f"request is missing {required!r}")
    model = str(request.get("model", "IC")).upper()
    if "graph" in request:
        graph_ref = str(request["graph"])
    elif "dataset" in request:
        graph_ref = _dataset_graph(service, request, model)
    else:
        raise ValidationError("request needs 'graph' (registered name) "
                              "or 'dataset' (registry code)")
    theta_scale = request.get("theta_scale")
    bounds = None if theta_scale is None else BoundsConfig(
        theta_scale=float(theta_scale)
    )
    options = IMMOptions(
        model=model,
        eliminate_sources=bool(request.get("eliminate_sources", False)),
        bounds=bounds,
        n_jobs=int(request.get("n_jobs", 1)),
        batch_size=int(request.get("batch_size", 16384)),
        data_plane=request.get("data_plane"),
        visited_mode=request.get("visited_mode"),
    )
    entropy = request.get("entropy", 0)
    if isinstance(entropy, list):
        entropy = tuple(entropy)
    deadline = request.get("deadline")
    return InfluenceQuery(
        graph=graph_ref,
        k=int(request["k"]),
        epsilon=float(request["epsilon"]),
        options=options,
        entropy=entropy,
        deadline=None if deadline is None else float(deadline),
    )


def _error_response(exc: Exception) -> dict:
    response = {"ok": False, "error": str(exc), "overloaded": False}
    if isinstance(exc, ServiceOverloadedError):
        response["overloaded"] = True
    elif isinstance(exc, DeadlineExceededError):
        response["deadline_expired"] = True
    elif isinstance(exc, CircuitOpenError):
        response["circuit_open"] = True
        response["retry_after"] = round(exc.retry_after, 3)
    elif isinstance(exc, ServiceClosedError):
        response["closed"] = True
    return response


def handle_request(service: InfluenceService, request: dict) -> dict:
    """Execute one request dict and return its response dict.

    Never raises: every failure — bad request, overload, an expired
    deadline, an open breaker, a query whose execution died — comes
    back as an ``ok: false`` response, which is what keeps one poisoned
    request from wedging a connection.
    """
    if isinstance(request, dict) and request.get("health"):
        return {"ok": True, "health": service.health()}
    try:
        query = build_query(service, request)
        outcome = service.query(query)
    except (ReproError, ValueError, TypeError, KeyError, MemoryError) as exc:
        return _error_response(exc)
    result = outcome.result
    return {
        "ok": True,
        "seeds": [int(s) for s in result.seeds],
        "k": query.k,
        "epsilon": query.epsilon,
        "model": result.model,
        "theta": int(result.theta),
        "influence": float(result.influence_estimate()),
        "cache": outcome.cache_tier,
        "coalesced": bool(outcome.coalesced),
        "degraded": bool(outcome.degraded),
        "sampled_sets": int(outcome.sampled_sets),
        "seconds": round(outcome.seconds, 6),
    }


def serve_stdin(service: InfluenceService, in_stream, out_stream) -> int:
    """Batch mode: one JSON request per input line, one response out."""
    served = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"bad JSON: {exc}",
                        "overloaded": False}
        else:
            response = handle_request(service, request)
        out_stream.write(json.dumps(response) + "\n")
        out_stream.flush()
        served += 1
    return served


class _LineHandler(socketserver.StreamRequestHandler):
    def setup(self) -> None:  # pragma: no cover - exercised via TCP tests
        # StreamRequestHandler applies self.timeout to the connection
        # socket during setup -> per-connection read timeout
        self.timeout = self.server.read_timeout
        super().setup()

    def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
        limit = self.server.max_request_bytes
        while True:
            try:
                line = self.rfile.readline(limit + 1)
            except (socket.timeout, TimeoutError):
                self._reply({"ok": False, "overloaded": False,
                             "error": "read timeout; closing connection"})
                return
            except (ConnectionError, OSError):
                return  # client vanished mid-request
            if not line:
                return
            if len(line) > limit:
                # the line is mid-frame; we can't resync, so error+close
                self._reply({
                    "ok": False, "overloaded": False,
                    "error": f"request exceeds {limit} bytes; "
                             "closing connection",
                })
                return
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                response = {"ok": False, "error": f"bad JSON: {exc}",
                            "overloaded": False}
            else:
                response = handle_request(self.server.service, request)
            if not self._reply(response):
                return

    def _reply(self, response: dict) -> bool:
        try:
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            return True
        except (ConnectionError, OSError):
            return False  # client vanished mid-response


class InfluenceTCPServer(socketserver.ThreadingTCPServer):
    """Threaded JSON-lines TCP server bound to an `InfluenceService`.

    ``port=0`` binds an ephemeral port (tests); the bound address is on
    ``server_address``.  Client connections each get a thread, but all
    execution funnels through the service's admission-controlled
    scheduler — the socket layer adds no concurrency beyond parsing.
    Per-connection failures (timeouts, oversized frames, disconnects)
    end that handler thread only; the accept loop keeps running.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: InfluenceService, host: str = "127.0.0.1",
                 port: int = 7473, read_timeout: Optional[float] = None,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES):
        self.service = service
        self.read_timeout = read_timeout
        self.max_request_bytes = int(max_request_bytes)
        super().__init__((host, port), _LineHandler)


def serve_tcp(
    service: InfluenceService,
    host: str = "127.0.0.1",
    port: int = 7473,
    ready: Optional[threading.Event] = None,
    read_timeout: Optional[float] = None,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    drain_timeout: float = 30.0,
) -> None:
    """Run a blocking TCP server until interrupted.

    ``SIGTERM`` (when running on the main thread) stops the accept
    loop, drains admitted queries for up to ``drain_timeout`` seconds,
    and closes the service — still-queued work resolves either way, by
    finishing or by :class:`ServiceClosedError`.  Ctrl-C returns
    without draining.
    """
    with InfluenceTCPServer(
        service, host, port,
        read_timeout=read_timeout, max_request_bytes=max_request_bytes,
    ) as server:
        terminated = threading.Event()

        def _on_sigterm(signum, frame):  # pragma: no cover - signal path
            terminated.set()
            # shutdown() must not run on the serve_forever thread
            threading.Thread(target=server.shutdown, daemon=True).start()

        previous = None
        try:
            previous = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:  # not the main thread (embedded/test use)
            pass
        if ready is not None:
            server.ready_address = server.server_address
            ready.set()
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
        if terminated.is_set():  # pragma: no cover - signal path
            service.drain(timeout=drain_timeout)
            service.close()


def request_once(host: str, port: int, request: dict,
                 timeout: float = 30.0) -> dict:
    """One-shot client: send ``request``, return the parsed response."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall((json.dumps(request) + "\n").encode("utf-8"))
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            buffer += chunk
    return json.loads(buffer.decode("utf-8"))
