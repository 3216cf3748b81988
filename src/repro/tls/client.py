"""The TLS client state machine.

Written in blocking style: because the simulated network delivers
synchronously, every flight the client sends triggers the server's response
inline, so the reply is already buffered when the client reads.  The VNF
credential enclave runs exactly this client *inside* the enclave boundary.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.crypto.constant_time import ct_bytes_eq
from repro.crypto.ecdh import ecdh_shared_secret
from repro.crypto.keys import EcPublicKey, generate_keypair
from repro.errors import HandshakeFailure, TlsError
from repro.net.channel import Channel
from repro.obs.metrics import Telemetry
from repro.pki.certificate import KEY_USAGE_SERVER_AUTH
from repro.pki.chain import validate_chain
from repro.tls import handshake as hs
from repro.tls.ciphersuites import SUPPORTED_SUITES, lookup
from repro.tls.connection import TlsConnection
from repro.tls.constants import (
    CONTENT_CHANGE_CIPHER_SPEC,
    CONTENT_HANDSHAKE,
    HS_CERTIFICATE,
    HS_CERTIFICATE_REQUEST,
    HS_FINISHED,
    HS_SERVER_HELLO,
    HS_SERVER_HELLO_DONE,
    HS_SERVER_KEY_EXCHANGE,
    RANDOM_SIZE,
)
from repro.tls.record import RecordLayer
from repro.tls.session import (
    TlsConfig,
    TlsSession,
    derive_key_block,
    derive_master_secret,
    finished_verify_data,
)


class TlsClient:
    """Opens TLS connections over simulated-network channels.

    Args:
        config: endpoint configuration; the client always authenticates
            the server's chain, so ``truststore`` must be set.
    """

    def __init__(self, config: TlsConfig) -> None:
        if config.truststore is None:
            raise TlsError("TLS client requires a truststore")
        config.validate(server_side=False)
        self._config = config
        self._resumption: Dict[str, TlsSession] = {}

    # ------------------------------------------------------------ public API

    def connect(self, channel: Channel, server_name: str = "") -> TlsConnection:
        """Run the handshake on ``channel``; returns the established
        connection.  ``server_name`` keys the client-side resumption cache.

        A handshake that fails for any reason closes ``channel`` before
        the error propagates, so the server sees EOF and neither end
        outlives the refusal.

        The server's certificate is checked against the time of the
        channel's clock, and the handshake is recorded in that clock's
        telemetry: the deployment that owns the network, even when this
        client lives inside a credential enclave.
        """
        tel = channel.clock.telemetry
        start = tel.now()
        with tel.span("tls-handshake", role="client",
                      server=server_name) as span:
            try:
                connection = self._connect(channel, server_name, tel)
            except BaseException:
                channel.close()
                raise
            span.set_attribute("resumed", connection.resumed)
            span.set_attribute("suite", connection.suite_name)
        tel.observe_handshake("client", connection.resumed,
                              tel.now() - start)
        return connection

    def _connect(self, channel: Channel, server_name: str,
                 tel: Telemetry) -> TlsConnection:
        records = RecordLayer()
        buffer = hs.HandshakeBuffer()
        rng = self._config.rng
        client_random = rng.random_bytes(RANDOM_SIZE)

        offered_session = (self._resumption.get(server_name)
                           if server_name else None)
        offered_suites = (list(self._config.cipher_suites)
                          if self._config.cipher_suites
                          else list(SUPPORTED_SUITES.keys()))
        hello = hs.ClientHello(
            random=client_random,
            session_id=offered_session.session_id if offered_session else b"",
            cipher_suites=offered_suites,
        )
        with tel.span("hello-exchange"):
            channel.send(records.encode(
                CONTENT_HANDSHAKE, buffer.append_sent(hello.encode())
            ))

            # The server's entire flight is now buffered.
            inbound = _InboundFeed(channel, records, buffer)
            msg_type, server_hello = inbound.next_handshake()
            if msg_type != HS_SERVER_HELLO:
                raise HandshakeFailure(
                    f"expected ServerHello, got "
                    f"{hs.HandshakeBuffer.type_name(msg_type)}"
                )
            suite = lookup(server_hello.cipher_suite)
            server_random = server_hello.random

        resumed = (
            offered_session is not None
            and server_hello.session_id == offered_session.session_id
            and len(server_hello.session_id) > 0
        )
        with tel.span("key-exchange", resumed=resumed):
            if resumed:
                connection = self._finish_abbreviated(
                    channel, records, buffer, inbound, offered_session,
                    client_random, server_random, suite,
                )
            else:
                connection = self._finish_full(
                    channel, records, buffer, inbound, server_hello,
                    client_random, server_random, suite, server_name,
                )
        # Hand remaining inbound processing to the connection object.
        channel.on_receive(lambda ch: connection.deliver(ch.recv_available()))
        return connection

    def forget_session(self, server_name: str) -> None:
        """Drop the cached session for ``server_name`` (forces full handshake)."""
        self._resumption.pop(server_name, None)

    # -------------------------------------------------------- full handshake

    def _finish_full(self, channel, records, buffer, inbound, server_hello,
                     client_random, server_random, suite, server_name):
        config = self._config

        msg_type, cert_msg = inbound.next_handshake()
        if msg_type != HS_CERTIFICATE:
            raise HandshakeFailure("expected server Certificate")
        if not cert_msg.chain:
            raise HandshakeFailure("server sent an empty certificate chain")
        server_cert = cert_msg.chain[0]
        validate_chain(
            server_cert, config.truststore, channel.clock.now_seconds(),
            intermediates=cert_msg.chain[1:], crl=config.crl,
            required_usage=KEY_USAGE_SERVER_AUTH,
        )

        msg_type, ske = inbound.next_handshake()
        if msg_type != HS_SERVER_KEY_EXCHANGE:
            raise HandshakeFailure("expected ServerKeyExchange")
        signed = hs.ServerKeyExchange.signed_params(
            client_random, server_random, ske.public_point
        )
        server_cert.public_key.verify(signed, ske.signature)

        certificate_requested = False
        msg_type, msg = inbound.next_handshake()
        if msg_type == HS_CERTIFICATE_REQUEST:
            certificate_requested = True
            msg_type, msg = inbound.next_handshake()
        if msg_type != HS_SERVER_HELLO_DONE:
            raise HandshakeFailure("expected ServerHelloDone")

        flight = bytearray()
        if certificate_requested:
            if not config.certificate_chain or config.private_key is None:
                raise HandshakeFailure(
                    "server requires client authentication but no client "
                    "credentials are configured"
                )
            flight += buffer.append_sent(
                hs.CertificateMsg(config.certificate_chain).encode()
            )

        ecdhe = generate_keypair(config.rng)
        pre_master = ecdh_shared_secret(
            ecdhe.scalar, EcPublicKey.from_bytes(ske.public_point).point
        )
        flight += buffer.append_sent(
            hs.ClientKeyExchange(ecdhe.public.to_bytes()).encode()
        )

        if certificate_requested:
            signature = config.private_key.sign(buffer.transcript_bytes())
            flight += buffer.append_sent(
                hs.CertificateVerify(signature).encode()
            )

        master_secret = derive_master_secret(
            pre_master, client_random, server_random
        )
        keys = derive_key_block(master_secret, client_random, server_random, suite)

        verify_data = finished_verify_data(
            master_secret, buffer.transcript_hash(), from_client=True
        )
        finished = buffer.append_sent(hs.Finished(verify_data).encode())

        wire = records.encode(CONTENT_HANDSHAKE, bytes(flight))
        wire += records.encode(CONTENT_CHANGE_CIPHER_SPEC, b"\x01")
        records.activate_send(suite, keys.client_key, keys.client_iv)
        wire += records.encode(CONTENT_HANDSHAKE, finished)
        channel.send(wire)

        # Server replies with CCS + Finished.
        inbound.expect_change_cipher_spec(suite, keys.server_key, keys.server_iv)
        msg_type, server_finished = inbound.next_handshake()
        if msg_type != HS_FINISHED:
            raise HandshakeFailure("expected server Finished")
        expected_hash, _ = buffer.snapshot_before[HS_FINISHED]
        expected = finished_verify_data(master_secret, expected_hash,
                                        from_client=False)
        if not ct_bytes_eq(expected, server_finished.verify_data):
            raise HandshakeFailure("server Finished verification failed")

        if server_hello.session_id:
            self._resumption[server_name or "default"] = TlsSession(
                session_id=server_hello.session_id,
                master_secret=master_secret,
                suite=suite,
                peer_certificate=server_cert,
            )
        return TlsConnection(
            channel, records, server_cert, server_hello.session_id,
            suite.name, resumed=False,
        )

    # ------------------------------------------------- abbreviated handshake

    def _finish_abbreviated(self, channel, records, buffer, inbound, session,
                            client_random, server_random, suite):
        keys = derive_key_block(
            session.master_secret, client_random, server_random, suite
        )
        inbound.expect_change_cipher_spec(suite, keys.server_key, keys.server_iv)
        msg_type, server_finished = inbound.next_handshake()
        if msg_type != HS_FINISHED:
            raise HandshakeFailure("expected server Finished (resumption)")
        expected_hash, _ = buffer.snapshot_before[HS_FINISHED]
        expected = finished_verify_data(session.master_secret, expected_hash,
                                        from_client=False)
        if not ct_bytes_eq(expected, server_finished.verify_data):
            raise HandshakeFailure("server Finished verification failed")

        verify_data = finished_verify_data(
            session.master_secret, buffer.transcript_hash(), from_client=True
        )
        finished = buffer.append_sent(hs.Finished(verify_data).encode())
        wire = records.encode(CONTENT_CHANGE_CIPHER_SPEC, b"\x01")
        records.activate_send(suite, keys.client_key, keys.client_iv)
        wire += records.encode(CONTENT_HANDSHAKE, finished)
        channel.send(wire)

        return TlsConnection(
            channel, records, session.peer_certificate, session.session_id,
            suite.name, resumed=True,
        )


class _InboundFeed:
    """Pulls handshake messages and CCS records from a channel, in order."""

    def __init__(self, channel: Channel, records: RecordLayer,
                 buffer: hs.HandshakeBuffer) -> None:
        self._channel = channel
        self._records = records
        self._buffer = buffer
        self._messages: List[Tuple[int, object]] = []
        self._pending_ccs = False

    def _pump(self) -> None:
        data = self._channel.recv_available()
        for record in self._records.feed(data):
            if record.content_type == CONTENT_HANDSHAKE:
                self._messages.extend(self._buffer.feed(record.payload))
            elif record.content_type == CONTENT_CHANGE_CIPHER_SPEC:
                self._pending_ccs = True
                # Records after the CCS are encrypted; stop and let the
                # caller activate keys before we feed any more bytes.
                return
            else:
                raise HandshakeFailure(
                    f"unexpected content type {record.content_type} during "
                    "handshake"
                )

    def next_handshake(self) -> Tuple[int, object]:
        """The next handshake message (pumping the channel as needed)."""
        while not self._messages:
            self._pump()
        return self._messages.pop(0)

    def expect_change_cipher_spec(self, suite, key: bytes, iv: bytes) -> None:
        """Consume the peer's CCS and activate inbound protection."""
        while not self._pending_ccs:
            if self._messages:
                msg_type, _ = self._messages[0]
                raise HandshakeFailure(
                    "expected ChangeCipherSpec, got "
                    f"{hs.HandshakeBuffer.type_name(msg_type)}"
                )
            self._pump()
        self._pending_ccs = False
        self._records.activate_recv(suite, key, iv)
