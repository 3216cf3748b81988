"""Unit tests for the deterministic fault plan (repro.net.faults)."""

import pytest

from repro.errors import ChannelClosed, ConnectionRefused, VnfSgxError
from repro.net.address import Address
from repro.net.faults import (
    FAULT_ACCOUNT,
    KIND_DROP,
    KIND_HTTP_ERROR,
    KIND_PARTITION,
    KIND_REFUSAL,
    FaultPlan,
)
from repro.net.framing import send_frame, try_recv_frame
from repro.net.clock import VirtualClock
from repro.net.simnet import Network

SERVER = Address("server", 9000)


def echo_listener(network):
    """A frame-echo server on SERVER."""

    def accept(channel):
        def on_data(ch):
            while True:
                frame = try_recv_frame(ch)
                if frame is None:
                    return
                send_frame(ch, b"echo:" + frame)

        channel.on_receive(on_data)

    network.listen(SERVER, accept)


def test_refuse_connections_count_budget(network):
    echo_listener(network)
    plan = FaultPlan().refuse_connections(SERVER, count=2)
    network.install_faults(plan)
    for _ in range(2):
        with pytest.raises(ConnectionRefused, match="injected fault"):
            network.connect("client", SERVER)
    # Budget spent: the third connect goes through.
    channel = network.connect("client", SERVER)
    send_frame(channel, b"hi")
    assert try_recv_frame(channel) == b"echo:hi"
    assert plan.injected[KIND_REFUSAL] == 2


def test_refuse_connections_time_window(network):
    echo_listener(network)
    plan = FaultPlan().refuse_connections(SERVER, for_seconds=5.0)
    network.install_faults(plan)
    with pytest.raises(ConnectionRefused):
        network.connect("client", SERVER)
    network.clock.advance(4.0, "test")
    with pytest.raises(ConnectionRefused):
        network.connect("client", SERVER)
    network.clock.advance(2.0, "test")  # window closed
    assert network.connect("client", SERVER) is not None


def test_connect_and_send_delays_charged_to_fault_account(network):
    echo_listener(network)
    plan = (FaultPlan()
            .delay_connect(SERVER, 0.25, count=1)
            .delay_send(SERVER, 0.5, count=1))
    network.install_faults(plan)
    network.clock.reset_charges()
    channel = network.connect("client", SERVER)
    send_frame(channel, b"hi")
    assert try_recv_frame(channel) == b"echo:hi"
    charged = network.clock.charges().get(FAULT_ACCOUNT, 0.0)
    assert charged == pytest.approx(0.75)


def test_drop_after_sends_tears_down_mid_stream(network):
    echo_listener(network)
    # The send budget covers *both* directions of the connection: one
    # request/response exchange is two sends, so sends=3 drops the
    # connection on the second client request.
    plan = FaultPlan().drop_after_sends(SERVER, sends=3, connections=1)
    network.install_faults(plan)
    channel = network.connect("client", SERVER)
    send_frame(channel, b"one")
    assert try_recv_frame(channel) == b"echo:one"
    with pytest.raises(ChannelClosed, match="injected fault"):
        send_frame(channel, b"two")
    assert channel.closed
    assert plan.injected[KIND_DROP] == 1
    # Only one connection was budgeted; a reconnect works end to end.
    channel = network.connect("client", SERVER)
    send_frame(channel, b"three")
    assert try_recv_frame(channel) == b"echo:three"


def test_drop_send_probability_is_deterministic(network):
    def run(seed):
        net = Network(VirtualClock())
        echo_listener(net)
        plan = FaultPlan(seed=seed).drop_send_probability(SERVER, 0.5)
        net.install_faults(plan)
        outcomes = []
        for _ in range(16):
            try:
                channel = net.connect("client", SERVER)
                send_frame(channel, b"x")
                try_recv_frame(channel)
                outcomes.append("ok")
            except ChannelClosed:
                outcomes.append("drop")
        return outcomes

    first = run(b"seed-A")
    assert first == run(b"seed-A")  # same seed, same trace
    assert "drop" in first and "ok" in first
    assert first != run(b"seed-B")  # different seed, different trace


def test_http_error_bursts_drain_in_order():
    plan = (FaultPlan()
            .http_error(SERVER, 503, count=2)
            .http_error(SERVER, 429, count=1))
    assert plan.next_http_error(SERVER) == 503
    assert plan.next_http_error(SERVER) == 503
    assert plan.next_http_error(SERVER) == 429
    assert plan.next_http_error(SERVER) is None
    assert plan.injected[KIND_HTTP_ERROR] == 3


def test_clear_removes_faults(network):
    echo_listener(network)
    plan = FaultPlan().refuse_connections(SERVER)
    network.install_faults(plan)
    with pytest.raises(ConnectionRefused):
        network.connect("client", SERVER)
    plan.clear(SERVER)
    assert network.connect("client", SERVER) is not None
    network.install_faults(None)  # uninstall entirely
    assert network.faults is None


def test_crash_host_refuses_every_port(network):
    echo_listener(network)
    other_port = Address(SERVER.host, SERVER.port + 1)
    network.listen(other_port, lambda ch: None)
    plan = FaultPlan().crash_host(SERVER.host)
    network.install_faults(plan)
    with pytest.raises(ConnectionRefused, match="host server is down"):
        network.connect("client", SERVER)
    with pytest.raises(ConnectionRefused):
        network.connect("client", other_port)
    assert plan.injected[KIND_REFUSAL] == 2
    # Revival restores every port at once.
    plan.revive_host(SERVER.host)
    channel = network.connect("client", SERVER)
    send_frame(channel, b"up")
    assert try_recv_frame(channel) == b"echo:up"


def test_crash_host_time_window_expires(network):
    echo_listener(network)
    plan = FaultPlan().crash_host(SERVER.host, for_seconds=3.0)
    network.install_faults(plan)
    with pytest.raises(ConnectionRefused):
        network.connect("client", SERVER)
    network.clock.advance(4.0, "test")
    assert network.connect("client", SERVER) is not None


def test_partition_is_pairwise_and_symmetric(network):
    echo_listener(network)
    plan = FaultPlan().partition("client-a", SERVER.host)
    network.install_faults(plan)
    with pytest.raises(ConnectionRefused, match="partitioned"):
        network.connect("client-a", SERVER)
    # Order-insensitive: the reverse direction is the same pair.
    with pytest.raises(ConnectionRefused):
        network.connect("client-a", SERVER)
    assert plan.injected[KIND_PARTITION] == 2
    # A third host is unaffected — the asymmetry that distinguishes a
    # partition from a crash.
    channel = network.connect("client-b", SERVER)
    send_frame(channel, b"ok")
    assert try_recv_frame(channel) == b"echo:ok"
    plan.heal_partition(SERVER.host, "client-a")
    assert network.connect("client-a", SERVER) is not None


def test_address_clear_keeps_host_faults(network):
    echo_listener(network)
    plan = (FaultPlan()
            .refuse_connections(SERVER)
            .crash_host(SERVER.host))
    network.install_faults(plan)
    plan.clear(SERVER)  # clears the port-level refusal only
    with pytest.raises(ConnectionRefused, match="host server is down"):
        network.connect("client", SERVER)
    plan.clear()  # the no-argument form clears host faults too
    assert network.connect("client", SERVER) is not None


def test_invalid_installations_rejected():
    plan = FaultPlan()
    with pytest.raises(VnfSgxError):
        plan.refuse_connections(SERVER, count=0)
    with pytest.raises(VnfSgxError):
        plan.delay_connect(SERVER, -1.0)
    with pytest.raises(VnfSgxError):
        plan.drop_after_sends(SERVER, sends=0)
    with pytest.raises(VnfSgxError):
        plan.drop_send_probability(SERVER, 1.5)
    with pytest.raises(VnfSgxError):
        plan.http_error(SERVER, status=200)
