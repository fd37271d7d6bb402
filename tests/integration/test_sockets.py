"""Integration: the sockets-over-RVMA layer (paper §IV-B middleware)."""

import pytest

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.network import NetworkConfig, RoutingMode
from repro.sockets import RvmaListener, SocketError, connect
from repro.sim import spawn


@pytest.fixture(autouse=True)
def _both_fabric_impls(fabric_impl):
    """Every sockets test runs on both the vectorized packet fabric and
    the per-packet reference fabric — the receiver-managed stream
    protocol is sensitive to event order, so it doubles as a fabric
    equivalence check."""


def _cluster(n=2):
    return Cluster.build(
        n_nodes=n, topology="star", nic_type="rvma", fidelity="packet",
        net_config=NetworkConfig(routing=RoutingMode.STATIC),
    )


def _drive(cl, *gens):
    procs = [spawn(cl.sim, g, f"p{i}") for i, g in enumerate(gens)]
    cl.sim.run()
    stuck = [p.name for p in procs if not p.finished]
    assert not stuck, f"deadlocked: {stuck}"
    return [p.result for p in procs]


def test_connect_accept_roundtrip():
    cl = _cluster()
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        listener = yield from RvmaListener(srv_api, port=7, chunk_size=32).listen()
        conn = yield from listener.accept()
        assert conn.peer_node == 1
        data = yield from conn.recv(32)
        yield from conn.send(data[::-1])

    def client():
        yield 1000.0
        conn = yield from connect(cli_api, 0, port=7, chunk_size=32)
        yield from conn.send(b"0123456789abcdef" * 2)
        echo = yield from conn.recv(32)
        return echo

    _, echo = _drive(cl, server(), client())
    assert echo == (b"0123456789abcdef" * 2)[::-1]


def test_closed_connection_nacks_peer_sends():
    cl = _cluster()
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        listener = yield from RvmaListener(srv_api, port=5, chunk_size=32).listen()
        conn = yield from listener.accept()
        yield from conn.close()
        return conn

    def client():
        yield 1000.0
        conn = yield from connect(cli_api, 0, port=5, chunk_size=32)
        yield 20_000.0  # the server has closed its receive window by now
        yield from conn.send(b"x" * 32)

    conn, _ = _drive(cl, server(), client())
    assert conn.closed
    assert cl.node(0).nic.stat("nic.rvma.nacks_closed").value == 1
    assert cl.node(1).nic.stat("nic.rvma.puts_lost").value == 1
    with pytest.raises(SocketError):
        next(conn.recv(1))


def test_closed_listener_nacks_connect_hello():
    cl = _cluster()
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        listener = yield from RvmaListener(srv_api, port=6).listen()
        yield from listener.close()

    def client():
        yield 5000.0
        yield from connect(cli_api, 0, port=6)

    srv = spawn(cl.sim, server(), "srv")
    cli = spawn(cl.sim, client(), "cli")
    cl.sim.run()
    assert srv.finished
    assert not cli.finished  # the refused hello is never accepted
    assert cl.node(0).nic.stat("nic.rvma.nacks_closed").value == 1
    assert cl.node(1).nic.stat("nic.rvma.puts_lost").value == 1


def test_recv_exact_spans_multiple_chunks():
    cl = _cluster()
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    payload = bytes(range(256)) * 2  # 512 B over 64 B chunks

    def server():
        listener = yield from RvmaListener(srv_api, port=9, chunk_size=64).listen()
        conn = yield from listener.accept()
        data = yield from conn.recv(len(payload))
        return data

    def client():
        yield 1000.0
        conn = yield from connect(cli_api, 0, port=9, chunk_size=64)
        # Ragged writes that do not align with chunk boundaries.
        for cut in (0, 13, 100, 101, 399):
            pass
        pieces = [payload[:13], payload[13:100], payload[100:101], payload[101:399],
                  payload[399:]]
        for piece in pieces:
            yield from conn.send(piece)

    data, _ = _drive(cl, server(), client())
    assert data == payload


def test_recv_buffers_excess_for_later_calls():
    cl = _cluster()
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        listener = yield from RvmaListener(srv_api, port=11, chunk_size=16).listen()
        conn = yield from listener.accept()
        first = yield from conn.recv(4)  # chunk is 16: 12 bytes buffered
        second = yield from conn.recv(12)
        return first, second

    def client():
        yield 1000.0
        conn = yield from connect(cli_api, 0, port=11, chunk_size=16)
        yield from conn.send(b"AAAABBBBBBBBBBBB")

    (first, second), _ = _drive(cl, server(), client())
    assert first == b"AAAA"
    assert second == b"B" * 12


def test_flush_peer_tail_pushes_partial_chunk():
    cl = _cluster()
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        listener = yield from RvmaListener(srv_api, port=13, chunk_size=64).listen()
        conn = yield from listener.accept()
        yield 20000.0  # client's short message sits in a partial chunk
        n = yield from conn.flush_peer_tail()
        data = yield from conn.recv(n)
        return data

    def client():
        yield 1000.0
        conn = yield from connect(cli_api, 0, port=13, chunk_size=64)
        yield from conn.send(b"short")

    data, _ = _drive(cl, server(), client())
    assert data == b"short"


def test_multiple_sequential_clients_one_port():
    cl = _cluster(n=4)
    srv_api = RvmaApi(cl.node(0))
    served = []

    def server():
        listener = yield from RvmaListener(srv_api, port=21, chunk_size=32).listen()
        for _ in range(3):
            conn = yield from listener.accept()
            req = yield from conn.recv(32)
            served.append((conn.peer_node, req[:6]))
            yield from conn.send(req)

    def client(node):
        yield 1000.0 * node
        conn = yield from connect(RvmaApi(cl.node(node)), 0, port=21, chunk_size=32)
        yield from conn.send(f"node{node:02d}".encode().ljust(32, b"!"))
        yield from conn.recv(32)

    _drive(cl, server(), client(1), client(2), client(3))
    assert sorted(served) == [
        (1, b"node01"), (2, b"node02"), (3, b"node03")
    ]


def test_send_after_close_raises():
    cl = _cluster()
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        listener = yield from RvmaListener(srv_api, port=31, chunk_size=16).listen()
        conn = yield from listener.accept()
        yield from conn.recv(16)

    def client():
        yield 1000.0
        conn = yield from connect(cli_api, 0, port=31, chunk_size=16)
        yield from conn.send(b"x" * 16)
        conn.closed = True
        with pytest.raises(SocketError):
            next(conn.send(b"y"))

    _drive(cl, server(), client())


def test_bidirectional_full_duplex_streams():
    cl = _cluster()
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        listener = yield from RvmaListener(srv_api, port=41, chunk_size=32).listen()
        conn = yield from listener.accept()
        # Send before receiving: directions are independent windows.
        yield from conn.send(b"S" * 32)
        got = yield from conn.recv(32)
        return got

    def client():
        yield 1000.0
        conn = yield from connect(cli_api, 0, port=41, chunk_size=32)
        yield from conn.send(b"C" * 32)
        got = yield from conn.recv(32)
        return got

    srv_got, cli_got = _drive(cl, server(), client())
    assert srv_got == b"C" * 32
    assert cli_got == b"S" * 32
