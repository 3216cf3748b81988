"""Channels: delivery, buffering, close/EOF semantics, lockstep guard."""

import pytest

from repro.errors import ChannelClosed, ConnectionRefused, NetError
from repro.net.address import Address


@pytest.fixture
def pair(network):
    """A connected (client, server) channel pair with a passive server."""
    server_sides = []
    network.listen(Address("srv", 1), server_sides.append)
    client = network.connect("cli", Address("srv", 1))
    return client, server_sides[0]


def test_bytes_flow_both_ways(pair):
    client, server = pair
    client.send(b"ping")
    assert server.recv_available() == b"ping"
    server.send(b"pong")
    assert client.recv_available() == b"pong"


def test_recv_exactly(pair):
    client, server = pair
    client.send(b"abcdef")
    assert server.recv_exactly(3) == b"abc"
    assert server.recv_exactly(3) == b"def"


def test_recv_exactly_underflow_fails_fast(pair):
    client, server = pair
    client.send(b"ab")
    with pytest.raises(NetError):
        server.recv_exactly(3)


def test_recv_line(pair):
    client, server = pair
    client.send(b"GET / HTTP/1.1\r\nHost: x\r\n")
    assert server.recv_line() == b"GET / HTTP/1.1"
    assert server.recv_line() == b"Host: x"


def test_recv_line_incomplete(pair):
    client, server = pair
    client.send(b"partial")
    with pytest.raises(NetError):
        server.recv_line()


def test_close_propagates_eof(pair):
    client, server = pair
    client.send(b"last")
    client.close()
    assert server.recv_available() == b"last"
    assert server.eof
    with pytest.raises(ChannelClosed):
        server.recv_exactly(1)


def test_send_after_close_fails(pair):
    client, server = pair
    client.close()
    with pytest.raises(ChannelClosed):
        client.send(b"x")
    with pytest.raises(ChannelClosed):
        server.send(b"x")


def test_event_driven_handler(pair):
    client, server = pair
    seen = []
    server.on_receive(lambda ch: seen.append(ch.recv_available()))
    client.send(b"one")
    client.send(b"two")
    assert seen == [b"one", b"two"]


def test_handler_registered_after_data_fires_immediately(pair):
    client, server = pair
    client.send(b"early")
    seen = []
    server.on_receive(lambda ch: seen.append(ch.recv_available()))
    assert seen == [b"early"]


def test_a_closed_endpoint_hears_nothing_more(pair):
    """Bytes to a closed endpoint are dropped, and so is the news that
    its peer closed too."""
    client, server = pair
    heard = []
    client.on_receive(heard.append)
    server.on_receive(heard.append)
    client.close()
    assert heard == [server]  # the open end hears the EOF
    server.close()
    assert heard == [server]


def test_connect_refused(network):
    with pytest.raises(ConnectionRefused):
        network.connect("cli", Address("nobody", 1))


def test_bytes_available(pair):
    client, server = pair
    assert server.bytes_available == 0
    client.send(b"1234")
    assert server.bytes_available == 4
