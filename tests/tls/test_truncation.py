"""Truncation-attack detection: transport EOF without close_notify."""

from repro.tls import TlsClient



def test_clean_close_is_not_truncation(world, client_config):
    client = TlsClient(client_config)
    conn = world.connect(client)
    conn.send(b"bye")
    assert conn.recv_available() == b"BYE"
    # Find the server-side connection and close it properly... simplest:
    # close from our side; our own close is not a peer truncation.
    conn.close()
    assert not conn.truncated


def test_abrupt_transport_close_is_truncation(world, client_config):
    client = TlsClient(client_config)
    conn = world.connect(client)
    conn.send(b"hello")
    assert conn.recv_available() == b"HELLO"
    # Attacker (or crash) kills the transport without a close_notify.
    conn._channel.peer.close()
    assert conn.truncated
    assert not conn.eof  # never saw an authenticated end-of-data


def test_close_notify_sets_eof_not_truncated(world, client_config, network,
                                             pki, rng):
    # Build a server whose handler closes the TLS connection cleanly after
    # the first message.
    from repro.net.address import Address
    from repro.tls import TlsConfig, TlsServer

    config = TlsConfig(
        certificate_chain=[pki.server_cert], private_key=pki.server_key,
        rng=rng,
    )
    server = TlsServer(config)

    def on_data(conn):
        if conn.recv_available():
            conn.close()  # sends close_notify

    address = Address("closer", 443)
    network.listen(address, lambda ch: server.accept(ch, on_data=on_data))
    client = TlsClient(client_config)
    conn = client.connect(network.connect("client-host", address),
                          server_name="closer")
    conn.send(b"trigger")
    assert conn.eof
    assert not conn.truncated
