"""The shared endpoint machinery: record processing, alerts, application I/O.

:class:`TlsConnection` is the stream both sides hand to application code
once the handshake completes.  Its stream interface mirrors
:class:`repro.net.channel.Channel` (``send`` / ``recv_available`` /
``close`` / ``closed`` / ``eof``), so the HTTP layer works identically
over plain channels and TLS — which is how the controller's three
security modes share one code path.  Length-prefixed frames never ride
TLS, so it offers no ``recv_exactly``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional

from repro.errors import ChannelClosed, TlsAlert, TlsError
from repro.net.channel import Channel
from repro.pki.certificate import Certificate
from repro.tls import alerts
from repro.tls.constants import (
    CONTENT_ALERT,
    CONTENT_APPLICATION_DATA,
    CONTENT_CHANGE_CIPHER_SPEC,
    CONTENT_HANDSHAKE,
)
from repro.tls.record import Record, RecordLayer


class TlsConnection:
    """An established TLS connection bound to an underlying channel."""

    def __init__(self, channel: Channel, record_layer: RecordLayer,
                 peer_certificate: Optional[Certificate],
                 session_id: bytes, suite_name: str, resumed: bool) -> None:
        self._channel = channel
        self._records = record_layer
        self.peer_certificate = peer_certificate
        self.session_id = session_id
        self.suite_name = suite_name
        self.resumed = resumed
        self._plaintext = bytearray()
        self._closed = False
        self._peer_closed = False
        self._on_app_data: Optional[Callable[["TlsConnection"], None]] = None

    # ------------------------------------------------------------- sending

    def send(self, data: bytes) -> None:
        """Encrypt and send application data."""
        if self._closed:
            raise ChannelClosed("send on closed TLS connection")
        self._channel.send(
            self._records.encode_fragments(CONTENT_APPLICATION_DATA, data)
        )

    # ------------------------------------------------------------ receiving

    def on_app_data(self, handler: Optional[Callable[["TlsConnection"], None]]) -> None:
        """Register an inline handler invoked when plaintext arrives."""
        self._on_app_data = handler
        if handler is not None and self._plaintext:
            handler(self)

    def deliver(self, raw: bytes) -> None:
        """Feed raw channel bytes through record processing.

        Endpoint state machines wire the channel's receive handler to this.
        """
        for record in self._records.feed(raw):
            self._dispatch(record)

    def _dispatch(self, record: Record) -> None:
        if record.content_type == CONTENT_APPLICATION_DATA:
            self._plaintext += record.payload
            if self._on_app_data is not None:
                self._on_app_data(self)
        elif record.content_type == CONTENT_ALERT:
            level, description = alerts.decode_alert(record.payload)
            if description == alerts.CLOSE_NOTIFY:
                self._peer_closed = True
                if self._on_app_data is not None:
                    self._on_app_data(self)
            elif level == alerts.LEVEL_FATAL:
                self._peer_closed = True
                raise TlsAlert(description,
                               f"fatal alert: {alerts.alert_name(description)}")
        elif record.content_type in (CONTENT_HANDSHAKE,
                                     CONTENT_CHANGE_CIPHER_SPEC):
            raise TlsError("renegotiation is not supported")
        else:
            raise TlsError(f"unknown content type {record.content_type}")

    def recv_available(self) -> bytes:
        """Drain all buffered plaintext."""
        data = bytes(self._plaintext)
        self._plaintext.clear()
        return data

    # -------------------------------------------------------------- closing

    def close(self) -> None:
        """Send close_notify and close the channel."""
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(ChannelClosed):
            payload = alerts.encode_alert(alerts.LEVEL_WARNING,
                                          alerts.CLOSE_NOTIFY)
            self._channel.send(self._records.encode(CONTENT_ALERT, payload))
        self._channel.close()

    @property
    def closed(self) -> bool:
        """True after a local close."""
        return self._closed

    @property
    def eof(self) -> bool:
        """True when the peer sent close_notify and the buffer is drained."""
        return self._peer_closed and not self._plaintext

    @property
    def truncated(self) -> bool:
        """True when the transport hit EOF *without* a close_notify alert.

        TLS requires an authenticated end-of-data signal precisely so a
        network attacker cannot silently chop the tail off a response (the
        classic truncation attack).  Applications should treat a truncated
        stream as an error, never as a short-but-valid response.  A
        connection closed locally is never truncated: the peer's EOF is
        then only the answer to our own close.
        """
        return (not self._closed and self._channel.eof
                and not self._peer_closed)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        flavor = "resumed" if self.resumed else "full"
        return f"<TlsConnection {self.suite_name} {flavor} {state}>"
