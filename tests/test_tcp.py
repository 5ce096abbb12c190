"""Tests for the TCP baseline stack."""

import pytest

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.errors import TcpError
from repro.hw.params import TcpParams
from repro.tcpip.socket import SocketState


def _pair(tcp_params=None, dims=(2,)):
    cluster = build_mesh(dims, wrap=False, stack="tcp",
                         tcp_params=tcp_params)
    return cluster, [node.tcp for node in cluster.nodes]


def _connect(cluster, stacks, a=0, b=1, conn_id=7):
    sim = cluster.sim
    holder = {}

    def passive():
        holder["b"] = yield from stacks[b].listen(conn_id)

    def active():
        holder["a"] = yield from stacks[a].connect(b, conn_id)

    p1 = sim.spawn(passive())
    p2 = sim.spawn(active())
    sim.run_until_complete(p1)
    sim.run_until_complete(p2)
    return holder["a"], holder["b"]


def test_handshake_establishes_both_ends():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    assert sock_a.state is SocketState.ESTABLISHED
    assert sock_b.state is SocketState.ESTABLISHED
    assert sock_a.peer_node == 1
    assert sock_b.peer_node == 0


def test_connect_before_listen_works():
    cluster, stacks = _pair()
    sim = cluster.sim
    holder = {}

    def active():
        holder["a"] = yield from stacks[0].connect(1, 9)

    def passive():
        yield sim.timeout(100)  # SYN arrives before the listen
        holder["b"] = yield from stacks[1].listen(9)

    p1 = sim.spawn(active())
    p2 = sim.spawn(passive())
    sim.run_until_complete(p1)
    sim.run_until_complete(p2)
    assert holder["a"].state is SocketState.ESTABLISHED


def test_duplicate_conn_id_rejected():
    cluster, stacks = _pair()
    _connect(cluster, stacks)

    def again():
        yield from stacks[0].connect(1, 7)

    with pytest.raises(TcpError):
        cluster.sim.run_until_complete(cluster.sim.spawn(again()))


def test_send_recv_roundtrip_with_payload():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim
    result = {}

    def sender():
        yield from sock_a.send(5000, payload={"msg": 1})

    def receiver():
        result["payloads"] = yield from sock_b.recv(5000)

    sim.spawn(sender())
    process = sim.spawn(receiver())
    sim.run_until_complete(process)
    assert result["payloads"] == [{"msg": 1}]


def test_stream_semantics_concatenate():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim
    result = {}

    def sender():
        yield from sock_a.send(1000, payload="first")
        yield from sock_a.send(1000, payload="second")

    def receiver():
        # One recv spanning both messages returns both payloads.
        result["payloads"] = yield from sock_b.recv(2000)

    sim.spawn(sender())
    process = sim.spawn(receiver())
    sim.run_until_complete(process)
    assert result["payloads"] == ["first", "second"]


def test_segmentation_counts():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim
    mss = stacks[0].mss

    def sender():
        yield from sock_a.send(3 * mss + 1)

    def receiver():
        yield from sock_b.recv(3 * mss + 1)

    sim.spawn(sender())
    process = sim.spawn(receiver())
    sim.run_until_complete(process)
    assert stacks[1].stats["segments_in"] == 4


def test_acks_flow_back():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim

    def sender():
        yield from sock_a.send(100_000)

    def receiver():
        yield from sock_b.recv(100_000)

    sim.spawn(sender())
    process = sim.spawn(receiver())
    sim.run_until_complete(process)
    sim.run(until=sim.now + 10_000)
    assert stacks[0].stats["acks"] > 0
    assert sock_a.in_flight == 0


def test_window_blocks_sender():
    params = TcpParams(window_bytes=8192)
    cluster, stacks = _pair(params)
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim
    progress = {}

    def sender():
        yield from sock_a.send(500_000)
        progress["send_done"] = sim.now

    def receiver():
        yield from sock_b.recv(500_000)
        progress["recv_done"] = sim.now

    sim.spawn(sender())
    process = sim.spawn(receiver())
    sim.run_until_complete(process)
    # With an 8KB window the transfer is ack-clocked: the sender
    # cannot finish much before the receiver.
    assert progress["send_done"] > 0
    assert sock_a.in_flight <= params.window_bytes


def test_send_on_closed_socket_rejected():
    cluster, stacks = _pair()
    sim = cluster.sim
    from repro.tcpip.socket import TcpSocket

    sock = TcpSocket(stacks[0], 99)

    def bad():
        yield from sock.send(10)

    with pytest.raises(TcpError):
        sim.run_until_complete(sim.spawn(bad()))


def test_ip_forwarding_multi_hop():
    cluster, stacks = _pair(dims=(3,))
    sock_a, sock_c = _connect(cluster, stacks, a=0, b=2)
    sim = cluster.sim
    result = {}

    def sender():
        yield from sock_a.send(10_000, payload="via-middle")

    def receiver():
        result["payloads"] = yield from sock_c.recv(10_000)

    sim.spawn(sender())
    process = sim.spawn(receiver())
    sim.run_until_complete(process)
    assert result["payloads"] == ["via-middle"]
    assert stacks[1].stats["forwarded"] > 0


def test_latency_at_least_30_percent_above_via():
    from repro.bench.microbench import tcp_latency, via_latency

    tcp = tcp_latency(4, repeats=5)
    via = via_latency(4, repeats=5)
    assert tcp >= 1.3 * via


def test_close_tears_down_both_ends():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim

    def closer():
        yield from sock_a.close()

    process = sim.spawn(closer())
    sim.run_until_complete(process)
    sim.run(until=sim.now + 1000)
    assert sock_a.state is SocketState.CLOSED
    assert sock_b.state is SocketState.CLOSED


def test_close_fails_blocked_receiver():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim
    outcome = {}

    def receiver():
        try:
            yield from sock_b.recv(1000)
        except TcpError:
            outcome["error"] = True

    def closer():
        yield sim.timeout(50)
        yield from sock_a.close()

    process = sim.spawn(receiver())
    sim.spawn(closer())
    sim.run_until_complete(process)
    assert outcome.get("error")


def test_send_after_close_rejected():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim

    def run():
        yield from sock_a.close()
        with pytest.raises(TcpError):
            yield from sock_a.send(10)

    sim.run_until_complete(sim.spawn(run()))


def _exchange_log(fast):
    """A forwarded 3-node exchange, both directions, closed at the end:
    the instant every step finished, and the events processed."""
    with fastpath.force(fast):
        cluster, stacks = _pair(dims=(3,))
        sock_a, sock_c = _connect(cluster, stacks, a=0, b=2)
        sim = cluster.sim
        log = []

        def side(name, mine, sizes):
            for nbytes in sizes:
                yield from mine.send(nbytes, payload=(name, nbytes))
                got = yield from mine.recv(nbytes)
                log.append((name, nbytes, got, sim.now))

        def closer():
            yield from sock_a.close()
            log.append(("closed", sim.now))

        sizes = (1, 1460, 20_000, 70_000)
        first = sim.spawn(side("a", sock_a, sizes))
        second = sim.spawn(side("c", sock_c, sizes))
        sim.run_until_complete(first)
        sim.run_until_complete(second)
        sim.run_until_complete(sim.spawn(closer()))
        sim.run()
    return log, sim.events_processed


def test_folded_handlers_keep_the_reference_instants():
    """Every TCP handler folds the interrupt dispatcher's per-frame cost
    into its first wait (fast scheduler): data, ACK, forwarded, SYN,
    SYN-ACK and FIN frames all finish at the reference instants."""
    fast, fast_events = _exchange_log(True)
    reference, reference_events = _exchange_log(False)
    assert repr(fast) == repr(reference)
    assert fast_events < reference_events


def test_blocked_recv_wakes_once_its_bytes_arrive():
    cluster, stacks = _pair()
    sock_a, sock_b = _connect(cluster, stacks)
    sim = cluster.sim
    nbytes = 10 * stacks[0].mss
    made = []
    event = sim.event

    def counting(name=""):
        made.append(name)
        return event(name)

    sim.event = counting

    def sender():
        yield from sock_a.send(nbytes, payload="ten segments")

    def receiver():
        return (yield from sock_b.recv(nbytes))

    sim.spawn(sender())
    process = sim.spawn(receiver())
    assert sim.run_until_complete(process) == ["ten segments"]
    # One wait, woken by the tenth segment (every segment woke it once).
    assert made.count(f"rcv:{sock_b.conn_id}") == 1
