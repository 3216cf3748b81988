"""The TLS server state machine (event-driven).

An acceptor on the simulated network hands each inbound channel to
:meth:`TlsServer.accept`; the handshake then advances inside the channel's
receive handler.  The server implements both controller HTTPS modes: plain
server authentication, and "trusted HTTPS" with mandatory client
certificates validated either against a truststore (the paper's CA model)
or by a pluggable validator (the Floodlight keystore model).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional

from repro.crypto.constant_time import ct_bytes_eq
from repro.crypto.ecdh import ecdh_shared_secret
from repro.crypto.keys import EcPublicKey, generate_keypair
from repro.errors import PkiError, TlsAlert, TlsError
from repro.net.channel import Channel
from repro.pki.certificate import KEY_USAGE_CLIENT_AUTH
from repro.pki.chain import validate_chain
from repro.tls import alerts
from repro.tls import handshake as hs
from repro.tls.ciphersuites import negotiate
from repro.tls.connection import TlsConnection
from repro.tls.constants import (
    CONTENT_ALERT,
    CONTENT_CHANGE_CIPHER_SPEC,
    CONTENT_HANDSHAKE,
    HS_CERTIFICATE,
    HS_CERTIFICATE_VERIFY,
    HS_CLIENT_HELLO,
    HS_CLIENT_KEY_EXCHANGE,
    HS_FINISHED,
    RANDOM_SIZE,
    SESSION_ID_SIZE,
)
from repro.tls.record import RecordLayer
from repro.tls.session import (
    SessionCache,
    TlsConfig,
    TlsSession,
    derive_key_block,
    derive_master_secret,
    finished_verify_data,
)

DataHandler = Callable[[TlsConnection], None]


class TlsServer:
    """Accepts TLS connections on behalf of one configured identity."""

    def __init__(self, config: TlsConfig) -> None:
        config.validate(server_side=True)
        self._config = config
        if self._config.session_cache is None:
            self._config.session_cache = SessionCache()

    def accept(self, channel: Channel,
               on_data: Optional[DataHandler] = None) -> None:
        """Start serving a freshly accepted channel; ``on_data`` is the
        established connection's application-data handler."""
        _ServerHandshake(self._config, channel, on_data)

    @property
    def session_cache(self) -> SessionCache:
        """The server's resumption cache."""
        return self._config.session_cache


class _ServerHandshake:
    """Per-connection handshake driver."""

    def __init__(self, config: TlsConfig, channel: Channel,
                 on_data: Optional[DataHandler]) -> None:
        self._config = config
        self._channel = channel
        self._on_data = on_data
        self._records = RecordLayer()
        self._buffer = hs.HandshakeBuffer()
        self._state = "wait_client_hello"
        self._resumed_session: Optional[TlsSession] = None
        self._suite = None
        self._client_random = b""
        self._server_random = b""
        self._session_id = b""
        self._ecdhe_scalar = 0
        self._master_secret = b""
        self._keys = None
        self._client_certificate = None
        self._client_cert_verified = False
        channel.on_receive(self._handle_bytes)

    # --------------------------------------------------------------- driver

    def _handle_bytes(self, channel: Channel) -> None:
        if self._state == "established":
            return  # the TlsConnection's handler owns the channel now
        if channel.eof:
            channel.close()  # the client left before the handshake ended
            return
        data = channel.recv_available()
        try:
            while True:
                batch = self._records.feed(data)
                data = b""
                if not batch:
                    return
                for record in batch:
                    self._handle_record(record)
                    if self._state == "established":
                        return
        except TlsAlert:
            raise
        except (TlsError, PkiError) as exc:
            self._fail(alerts.HANDSHAKE_FAILURE, str(exc))

    def _handle_record(self, record) -> None:
        if record.content_type == CONTENT_HANDSHAKE:
            for msg_type, message in self._buffer.feed(record.payload):
                self._handle_handshake(msg_type, message)
        elif record.content_type == CONTENT_CHANGE_CIPHER_SPEC:
            if self._keys is None:
                self._fail(alerts.UNEXPECTED_MESSAGE, "CCS before key exchange")
            self._records.activate_recv(
                self._suite, self._keys.client_key, self._keys.client_iv
            )
        elif record.content_type == CONTENT_ALERT:
            level, description = alerts.decode_alert(record.payload)
            raise TlsAlert(description,
                           f"client alert: {alerts.alert_name(description)}")
        else:
            self._fail(alerts.UNEXPECTED_MESSAGE,
                       f"content type {record.content_type} during handshake")

    def _fail(self, description: int, message: str) -> None:
        payload = alerts.encode_alert(alerts.LEVEL_FATAL, description)
        # Best-effort alert delivery: the fatal TlsAlert below is the
        # real signal, so nothing the channel does may mask it.
        with contextlib.suppress(Exception):
            self._channel.send(self._records.encode(CONTENT_ALERT, payload))
            self._channel.close()
        raise TlsAlert(description, message)

    # ------------------------------------------------------------- messages

    def _handle_handshake(self, msg_type: int, message) -> None:
        state = self._state
        if state == "wait_client_hello" and msg_type == HS_CLIENT_HELLO:
            self._on_client_hello(message)
        elif state == "wait_flight2" and msg_type == HS_CERTIFICATE:
            self._on_client_certificate(message)
        elif state == "wait_flight2" and msg_type == HS_CLIENT_KEY_EXCHANGE:
            self._on_client_key_exchange(message)
        elif state == "wait_flight2" and msg_type == HS_CERTIFICATE_VERIFY:
            self._on_certificate_verify(message)
        elif state in ("wait_flight2", "wait_finished") and msg_type == HS_FINISHED:
            self._on_client_finished(message)
        else:
            self._fail(
                alerts.UNEXPECTED_MESSAGE,
                f"{hs.HandshakeBuffer.type_name(msg_type)} in state {state}",
            )

    def _on_client_hello(self, hello: hs.ClientHello) -> None:
        config = self._config
        rng = config.rng
        self._client_random = hello.random
        self._server_random = rng.random_bytes(RANDOM_SIZE)
        self._suite = negotiate(hello.cipher_suites)

        cached = config.session_cache.lookup(hello.session_id)
        if (cached is not None
                and cached.suite.suite_id == self._suite.suite_id
                and self._resumable(cached)):
            self._start_abbreviated(cached)
            return

        self._session_id = rng.random_bytes(SESSION_ID_SIZE)
        flight = bytearray()
        flight += self._buffer.append_sent(hs.ServerHello(
            random=self._server_random,
            session_id=self._session_id,
            cipher_suite=self._suite.suite_id,
        ).encode())
        flight += self._buffer.append_sent(
            hs.CertificateMsg(config.certificate_chain).encode()
        )

        ecdhe = generate_keypair(rng)
        self._ecdhe_scalar = ecdhe.scalar
        point = ecdhe.public.to_bytes()
        signed = hs.ServerKeyExchange.signed_params(
            self._client_random, self._server_random, point
        )
        flight += self._buffer.append_sent(hs.ServerKeyExchange(
            public_point=point,
            signature=config.private_key.sign(signed),
        ).encode())

        if config.require_client_auth:
            authorities = (
                [anchor.subject for anchor in config.truststore.anchors()]
                if config.truststore is not None else []
            )
            flight += self._buffer.append_sent(
                hs.CertificateRequest(authorities).encode()
            )
        flight += self._buffer.append_sent(hs.ServerHelloDone().encode())
        self._channel.send(self._records.encode_fragments(
            CONTENT_HANDSHAKE, bytes(flight)
        ))
        self._state = "wait_flight2"

    def _resumable(self, session: TlsSession) -> bool:
        """May this cached session skip the full handshake?

        Resumption reuses the authentication decision made when the
        session was cached, so everything that decision depended on must
        still hold *now*:

        * client-auth servers refuse sessions cached without a client
          certificate — otherwise resumption silently bypasses
          ``require_client_auth``;
        * the cached peer certificate is rechecked against the CRL and
          the validity window at the channel's clock — a certificate
          revoked or expired after caching must not keep resuming;
        * the application's ``resumption_validator`` (e.g. the RA-TLS
          verifier's revocation denylist) gets the final word.

        A ``False`` answer degrades to a full handshake rather than
        failing the connection: the client re-authenticates from scratch
        and the normal validation path delivers any refusal.  Stale
        entries (revoked/expired certificates) are also evicted so they
        cannot be retried.
        """
        config = self._config
        cert = session.peer_certificate
        if config.require_client_auth and cert is None:
            return False
        if cert is not None:
            stale = (config.crl is not None
                     and config.crl.is_revoked(cert.serial))
            if not stale:
                try:
                    cert.check_validity(self._channel.clock.now_seconds())
                except PkiError:
                    stale = True
            if stale:
                config.session_cache.invalidate(session.session_id)
                return False
        if (config.resumption_validator is not None
                and not config.resumption_validator(session)):
            config.session_cache.invalidate(session.session_id)
            return False
        return True

    def _start_abbreviated(self, session: TlsSession) -> None:
        self._resumed_session = session
        self._session_id = session.session_id
        self._master_secret = session.master_secret
        self._client_certificate = session.peer_certificate
        self._keys = derive_key_block(
            session.master_secret, self._client_random, self._server_random,
            self._suite,
        )
        wire = self._records.encode(CONTENT_HANDSHAKE, self._buffer.append_sent(
            hs.ServerHello(
                random=self._server_random,
                session_id=session.session_id,
                cipher_suite=self._suite.suite_id,
            ).encode()
        ))
        verify_data = finished_verify_data(
            self._master_secret, self._buffer.transcript_hash(),
            from_client=False,
        )
        finished = self._buffer.append_sent(hs.Finished(verify_data).encode())
        wire += self._records.encode(CONTENT_CHANGE_CIPHER_SPEC, b"\x01")
        self._records.activate_send(
            self._suite, self._keys.server_key, self._keys.server_iv
        )
        wire += self._records.encode(CONTENT_HANDSHAKE, finished)
        self._channel.send(wire)
        self._state = "wait_finished"

    def _on_client_certificate(self, message: hs.CertificateMsg) -> None:
        config = self._config
        if not message.chain:
            self._fail(alerts.ACCESS_DENIED, "client sent no certificate")
        leaf = message.chain[0]
        try:
            if config.client_validator is not None:
                config.client_validator(leaf)
            else:
                validate_chain(
                    leaf, config.truststore,
                    self._channel.clock.now_seconds(),
                    intermediates=message.chain[1:], crl=config.crl,
                    required_usage=KEY_USAGE_CLIENT_AUTH,
                )
        except PkiError as exc:
            self._fail(alerts.BAD_CERTIFICATE, f"client certificate: {exc}")
        self._client_certificate = leaf

    def _on_client_key_exchange(self, message: hs.ClientKeyExchange) -> None:
        if self._config.require_client_auth and self._client_certificate is None:
            self._fail(alerts.ACCESS_DENIED,
                       "client authentication required but no certificate sent")
        pre_master = ecdh_shared_secret(
            self._ecdhe_scalar,
            EcPublicKey.from_bytes(message.public_point).point,
        )
        self._master_secret = derive_master_secret(
            pre_master, self._client_random, self._server_random
        )
        self._keys = derive_key_block(
            self._master_secret, self._client_random, self._server_random,
            self._suite,
        )

    def _on_certificate_verify(self, message: hs.CertificateVerify) -> None:
        if self._client_certificate is None:
            self._fail(alerts.UNEXPECTED_MESSAGE,
                       "CertificateVerify without a client certificate")
        _, transcript = self._buffer.snapshot_before[HS_CERTIFICATE_VERIFY]
        try:
            self._client_certificate.public_key.verify(
                transcript, message.signature
            )
        except Exception:  # noqa: BLE001 — any failure is a decrypt_error
            self._fail(alerts.DECRYPT_ERROR,
                       "client proof of possession failed")
        self._client_cert_verified = True

    def _on_client_finished(self, message: hs.Finished) -> None:
        if (self._client_certificate is not None
                and self._resumed_session is None
                and not self._client_cert_verified):
            self._fail(alerts.ACCESS_DENIED,
                       "client certificate without CertificateVerify")
        expected_hash, _ = self._buffer.snapshot_before[HS_FINISHED]
        expected = finished_verify_data(self._master_secret, expected_hash,
                                        from_client=True)
        if not ct_bytes_eq(expected, message.verify_data):
            self._fail(alerts.DECRYPT_ERROR, "client Finished mismatch")

        if self._resumed_session is None:
            # Full handshake: reply with our CCS + Finished and cache the
            # session for later abbreviated handshakes.
            verify_data = finished_verify_data(
                self._master_secret, self._buffer.transcript_hash(),
                from_client=False,
            )
            finished = self._buffer.append_sent(
                hs.Finished(verify_data).encode()
            )
            wire = self._records.encode(CONTENT_CHANGE_CIPHER_SPEC, b"\x01")
            self._records.activate_send(
                self._suite, self._keys.server_key, self._keys.server_iv
            )
            wire += self._records.encode(CONTENT_HANDSHAKE, finished)
            self._channel.send(wire)
            self._config.session_cache.store(TlsSession(
                session_id=self._session_id,
                master_secret=self._master_secret,
                suite=self._suite,
                peer_certificate=self._client_certificate,
            ))
        self._establish()

    def _establish(self) -> None:
        self._state = "established"
        connection = TlsConnection(
            self._channel, self._records, self._client_certificate,
            self._session_id, self._suite.name,
            resumed=self._resumed_session is not None,
        )

        def on_bytes(channel: Channel) -> None:
            connection.deliver(channel.recv_available())
            if channel.eof:
                # The client's transport ended: close the raw channel,
                # sending nothing (not even a close_notify of our own).
                channel.close()

        self._channel.on_receive(on_bytes)
        if self._on_data is not None:
            connection.on_app_data(self._on_data)
