"""Reliable duplex byte-stream channels.

Delivery is synchronous: ``send`` charges link latency to the virtual clock
and either appends to the peer's receive buffer (for blocking-style readers)
or invokes the peer's registered receive handler inline (for event-driven
servers).  Because a conversation is synchronous, a blocking ``recv`` that
finds an empty buffer is a protocol bug, and the channel says so loudly
instead of deadlocking.

Threading model: a channel *pair* is a lockstep request/response rail —
the server side's handler runs inline in the connecting thread, so one
entire conversation executes on one thread.  Concurrent fleet sessions
each open their own connections; anything that *shares* a connection
across threads (e.g. the pooled IAS client in :mod:`repro.core.fleet`)
must serialize whole request/response exchanges with its own lock.
See ``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ChannelClosed, NetError
from repro.net.clock import VirtualClock


class Channel:
    """One endpoint of a connected duplex byte stream.

    Channels are created in pairs by :class:`repro.net.simnet.Network`;
    user code never constructs them directly.
    """

    def __init__(self, label: str, deliver: Callable[["Channel", bytes], None],
                 notify_close: Callable[["Channel"], None]) -> None:
        self.label = label
        self._deliver = deliver          # pushes bytes toward the peer
        self._notify_close = notify_close
        self._rx = bytearray()
        self._closed = False
        self._peer_closed = False
        self._on_receive: Optional[Callable[["Channel"], None]] = None
        self.peer: Optional["Channel"] = None  # wired by the Network
        #: The network's clock (wired by the Network); a TLS client
        #: records its handshake in this clock's telemetry.
        self.clock: Optional[VirtualClock] = None

    # ------------------------------------------------------------- sending

    def send(self, data: bytes) -> None:
        """Send ``data`` to the peer (synchronous delivery)."""
        if self._closed:
            raise ChannelClosed(f"send on closed channel {self.label}")
        if self._peer_closed:
            raise ChannelClosed(f"peer of {self.label} is closed")
        if data:
            self._deliver(self, bytes(data))

    # ------------------------------------------------------------ receiving

    def _enqueue(self, data: bytes) -> None:
        """Called by the network when bytes arrive from the peer."""
        if self._closed:
            return  # bytes to a closed endpoint are dropped
        self._rx += data
        if self._on_receive is not None:
            self._on_receive(self)

    def on_receive(self, handler: Optional[Callable[["Channel"], None]]) -> None:
        """Register an inline receive handler (event-driven endpoints).

        The handler is invoked after every delivery with this channel as
        argument; it should consume from :meth:`recv_available` /
        :meth:`recv_exactly`.
        """
        self._on_receive = handler
        if handler is not None and self._rx:
            handler(self)

    @property
    def bytes_available(self) -> int:
        """Number of bytes currently readable."""
        return len(self._rx)

    def recv_available(self) -> bytes:
        """Drain and return everything currently buffered."""
        data = bytes(self._rx)
        self._rx.clear()
        return data

    def recv_exactly(self, n: int) -> bytes:
        """Read exactly ``n`` bytes.

        Raises:
            ChannelClosed: peer closed with fewer than ``n`` bytes pending.
            NetError: the buffer is short and the peer is still open — in a
                synchronous simulation that means the protocol above lost
                lockstep, so failing fast beats deadlocking.
        """
        if n < 0:
            raise NetError("negative read size")
        if len(self._rx) < n:
            if self._peer_closed:
                raise ChannelClosed(
                    f"{self.label}: peer closed with {len(self._rx)} of {n} "
                    "bytes pending"
                )
            raise NetError(
                f"{self.label}: blocking read of {n} bytes but only "
                f"{len(self._rx)} buffered (protocol out of lockstep)"
            )
        data = bytes(self._rx[:n])
        del self._rx[:n]
        return data

    def recv_line(self, max_length: int = 16384) -> bytes:
        """Read one CRLF-terminated line (terminator stripped)."""
        idx = self._rx.find(b"\r\n")
        if idx < 0:
            if self._peer_closed:
                raise ChannelClosed(f"{self.label}: peer closed mid-line")
            raise NetError(f"{self.label}: no complete line buffered")
        if idx > max_length:
            raise NetError(f"{self.label}: line exceeds {max_length} bytes")
        line = bytes(self._rx[:idx])
        del self._rx[:idx + 2]
        return line

    # -------------------------------------------------------------- closing

    def close(self) -> None:
        """Close this endpoint; the peer observes EOF."""
        if self._closed:
            return
        self._closed = True
        self._notify_close(self)

    def _peer_did_close(self) -> None:
        self._peer_closed = True
        # Like bytes, the peer's EOF is not delivered to a closed endpoint.
        if self._on_receive is not None and not self._closed:
            self._on_receive(self)

    @property
    def closed(self) -> bool:
        """True once this endpoint has been closed locally."""
        return self._closed

    @property
    def eof(self) -> bool:
        """True when the peer closed and the buffer has been drained."""
        return self._peer_closed and not self._rx

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Channel {self.label} {state} rx={len(self._rx)}>"
