"""Tests for the JSON-lines service front-ends (stdin batch and TCP)."""

import io
import json
import threading

import pytest

from repro.service import InfluenceService, ServiceOptions
from repro.service.server import (
    InfluenceTCPServer,
    build_query,
    handle_request,
    request_once,
    serve_stdin,
)
from repro.utils.errors import ValidationError

FAST = ServiceOptions(max_inflight=2, chunk_sets=256)


@pytest.fixture
def service(small_ic_graph):
    svc = InfluenceService(FAST)
    svc.register_graph("g", small_ic_graph)
    yield svc
    svc.close()


# -- request translation -----------------------------------------------------


def test_build_query_minimal(service):
    q = build_query(service, {"graph": "g", "k": 5, "epsilon": 0.3})
    assert q.graph == "g" and q.k == 5 and q.epsilon == 0.3
    assert q.options.model == "IC"


def test_build_query_full_options(service):
    q = build_query(service, {
        "graph": "g", "k": 3, "epsilon": 0.4, "model": "lt",
        "eliminate_sources": True, "entropy": [1, 2],
        "batch_size": 512, "theta_scale": 0.5,
    })
    assert q.options.model == "LT"
    assert q.options.eliminate_sources is True
    assert q.options.batch_size == 512
    assert q.options.bounds.theta_scale == 0.5
    assert q.entropy == (1, 2)


@pytest.mark.parametrize("request_dict,match", [
    ({"graph": "g", "k": 5}, "missing 'epsilon'"),
    ({"graph": "g", "epsilon": 0.3}, "missing 'k'"),
    ({"k": 5, "epsilon": 0.3}, "needs 'graph'"),
    ({"graph": "g", "k": 5, "epsilon": 0.3, "epsilonn": 1}, "unknown request"),
    ({"dataset": "NOPE", "k": 5, "epsilon": 0.3}, "unknown dataset"),
])
def test_build_query_rejects_malformed(service, request_dict, match):
    with pytest.raises(ValidationError, match=match):
        build_query(service, request_dict)


def test_handle_request_success_and_failure_shapes(service):
    ok = handle_request(service, {"graph": "g", "k": 5, "epsilon": 0.3})
    assert ok["ok"] is True
    assert len(ok["seeds"]) == 5
    assert ok["cache"] == "cold" and ok["theta"] > 0
    repeat = handle_request(service, {"graph": "g", "k": 5, "epsilon": 0.3})
    assert repeat["cache"] == "exact"
    assert repeat["seeds"] == ok["seeds"]

    bad = handle_request(service, {"graph": "missing", "k": 5, "epsilon": 0.3})
    assert bad["ok"] is False and bad["overloaded"] is False
    assert "unknown graph" in bad["error"]


def test_handle_request_dataset_autoload(service):
    first = handle_request(
        service, {"dataset": "WV", "scale": "tiny", "k": 4, "epsilon": 0.3}
    )
    assert first["ok"] is True
    # the loaded graph is registered: the repeat is an exact cache hit
    again = handle_request(
        service, {"dataset": "WV", "scale": "tiny", "k": 4, "epsilon": 0.3}
    )
    assert again["cache"] == "exact"


# -- stdin batch mode --------------------------------------------------------


def test_serve_stdin_batch(service):
    lines = [
        json.dumps({"graph": "g", "k": 5, "epsilon": 0.3}),
        "",  # blank lines are skipped, not answered
        "this is not json",
        json.dumps({"graph": "g", "k": 5, "epsilon": 0.3}),
    ]
    out = io.StringIO()
    served = serve_stdin(service, io.StringIO("\n".join(lines) + "\n"), out)
    responses = [json.loads(l) for l in out.getvalue().splitlines()]
    assert served == 3 and len(responses) == 3
    assert responses[0]["ok"] is True and responses[0]["cache"] == "cold"
    assert responses[1]["ok"] is False and "bad JSON" in responses[1]["error"]
    assert responses[2]["cache"] == "exact"
    assert responses[2]["seeds"] == responses[0]["seeds"]


# -- TCP mode ----------------------------------------------------------------


def test_tcp_roundtrip_ephemeral_port(service):
    server = InfluenceTCPServer(service, port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        first = request_once(host, port, {"graph": "g", "k": 5, "epsilon": 0.3})
        assert first["ok"] is True and len(first["seeds"]) == 5
        assert first["degraded"] is False
        repeat = request_once(host, port, {"graph": "g", "k": 5, "epsilon": 0.3})
        assert repeat["cache"] == "exact"
        assert repeat["seeds"] == first["seeds"]
        garbage = request_once(host, port, {"graph": "g", "k": 5})
        assert garbage["ok"] is False
    finally:
        server.shutdown()
        server.server_close()


# -- protocol robustness (one bad connection never kills the accept loop) ----


@pytest.fixture
def tcp_server(service):
    server = InfluenceTCPServer(service, port=0, read_timeout=2.0,
                                max_request_bytes=4096)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()


def _connect(address):
    import socket

    return socket.create_connection(address, timeout=10)


def _send_line(conn, payload: bytes):
    conn.sendall(payload + b"\n")


def _read_line(conn) -> bytes:
    buffer = b""
    while not buffer.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            break
        buffer += chunk
    return buffer


def test_malformed_then_valid_on_same_connection(tcp_server):
    with _connect(tcp_server) as conn:
        _send_line(conn, b"{not json at all")
        bad = json.loads(_read_line(conn))
        assert bad["ok"] is False and "bad JSON" in bad["error"]
        # the connection survived the poison line
        _send_line(conn, json.dumps(
            {"graph": "g", "k": 3, "epsilon": 0.3}).encode())
        good = json.loads(_read_line(conn))
        assert good["ok"] is True and len(good["seeds"]) == 3


def test_oversized_request_errors_one_connection_only(tcp_server):
    with _connect(tcp_server) as conn:
        _send_line(conn, b"x" * 10_000)  # over the 4096-byte limit
        response = json.loads(_read_line(conn))
        assert response["ok"] is False and "exceeds" in response["error"]
        assert _read_line(conn) == b""  # server closed this connection
    # the accept loop is alive: a fresh connection still serves
    host, port = tcp_server
    ok = request_once(host, port, {"graph": "g", "k": 3, "epsilon": 0.3})
    assert ok["ok"] is True


def test_client_disconnect_mid_request_keeps_serving(tcp_server):
    with _connect(tcp_server) as conn:
        conn.sendall(b'{"graph": "g", "k": 3')  # no newline: mid-frame
    # abrupt close; the handler thread ends quietly and the accept loop
    # keeps serving new connections
    host, port = tcp_server
    ok = request_once(host, port, {"graph": "g", "k": 3, "epsilon": 0.3})
    assert ok["ok"] is True


def test_read_timeout_closes_idle_connection(service):
    server = InfluenceTCPServer(service, port=0, read_timeout=0.2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with _connect(server.server_address) as conn:
            response = json.loads(_read_line(conn))  # we sent nothing
            assert response["ok"] is False and "timeout" in response["error"]
            assert _read_line(conn) == b""
        host, port = server.server_address
        ok = request_once(host, port, {"graph": "g", "k": 3, "epsilon": 0.3})
        assert ok["ok"] is True
    finally:
        server.shutdown()
        server.server_close()


def test_removed_coverage_scan_field_rejected_over_tcp(tcp_server):
    host, port = tcp_server
    response = request_once(host, port, {
        "graph": "g", "k": 3, "epsilon": 0.3, "coverage_scan": "csr",
    })
    assert response["ok"] is False
    assert "unknown request fields" in response["error"]
    assert "coverage_scan" in response["error"]


def test_health_request_over_tcp(tcp_server):
    host, port = tcp_server
    request_once(host, port, {"graph": "g", "k": 3, "epsilon": 0.3})
    response = request_once(host, port, {"health": True})
    assert response["ok"] is True
    health = response["health"]
    assert health["status"] == "ok"
    assert health["workers_alive"] >= 1
    assert health["counters"]["service.queries"] >= 1


def test_deadline_request_field(service):
    expired = handle_request(
        service,
        {"graph": "g", "k": 5, "epsilon": 0.3, "deadline": 1e-4},
    )
    # so small a budget expires in the queue or at admission
    assert expired["ok"] is False and expired["deadline_expired"] is True
    ok = handle_request(
        service, {"graph": "g", "k": 5, "epsilon": 0.3, "deadline": 60.0}
    )
    assert ok["ok"] is True and len(ok["seeds"]) == 5
