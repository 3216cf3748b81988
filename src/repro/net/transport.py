"""The request/response plumbing every sim-network service and client shares.

Servers listen through :func:`serve_http` (plain HTTP, or HTTP inside a
TLS connection) or :func:`serve_frames` (length-prefixed frames); an
HTTP service that honours the fault plan's injected error bursts asks
:func:`injected_fault` before dispatching.

Clients talk through a :class:`ClientStream`: one stream to one peer,
dialed through a caller-supplied opener on first use and again whenever
the last stream is gone, closed or finished.  A transport fault during
an exchange drops the stream and propagates; whether to retry, replay or
give up stays with the client.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional

from repro.errors import NetError
from repro.net.address import Address
from repro.net.framing import recv_frame, send_frame, try_recv_frame
from repro.net.rest import HttpParser, HttpRequest, HttpResponse
from repro.net.simnet import Network


def serve_http(network: Network, address: Address,
               respond: Callable[[HttpRequest, object], HttpResponse],
               tls=None) -> None:
    """Listen at ``address``; answer every request with
    ``respond(request, stream)``.

    ``stream`` is the server's end of the connection: the plain channel,
    or with ``tls`` (a :class:`~repro.tls.TlsServer`) the established
    TLS connection, whose ``peer_certificate`` names an authenticated
    client.  Requests pipelined on one connection are answered in order.
    """
    def accept(channel) -> None:
        parser = HttpParser(is_server_side=True)

        def on_data(stream) -> None:
            for request in parser.feed(stream.recv_available()):
                stream.send(respond(request, stream).encode())

        if tls is None:
            channel.on_receive(on_data)
        else:
            tls.accept(channel, on_data=on_data)

    network.listen(address, accept)


def serve_frames(network: Network, address: Address,
                 respond: Callable[[bytes], bytes]) -> None:
    """Listen at ``address``; answer every frame with ``respond(frame)``."""
    def on_data(channel) -> None:
        while True:
            frame = try_recv_frame(channel)
            if frame is None:
                return
            send_frame(channel, respond(frame))

    network.listen(address, lambda channel: channel.on_receive(on_data))


def injected_fault(network: Network, address: Address,
                   what: str) -> Optional[HttpResponse]:
    """The error the fault plan injects into the current request to the
    HTTP service at ``address``, or ``None`` to dispatch normally.

    The brown-out is purely at the REST surface: the answer carries the
    scheduled status, ``retry-after: 1`` and the body ``injected fault:
    <what> unavailable``, and the service behind it is never called.
    """
    faults = network.faults
    if faults is None:
        return None
    status = faults.next_http_error(address)
    if status is None:
        return None
    return HttpResponse(status, headers={"retry-after": "1"},
                        body=f"injected fault: {what} unavailable".encode())


class ClientStream:
    """A client's stream to one peer, opened on first use.

    ``opener`` dials the peer and returns the stream: a plain
    :class:`~repro.net.channel.Channel`, or a TLS connection for the
    HTTPS clients.  Each exchange reuses the current stream unless it is
    absent, closed, at EOF or (TLS) truncated — its transport ended
    without a ``close_notify``; then it opens a new one (the old one is
    dropped, not closed, so nothing more goes on the wire).  A transport
    fault (:class:`~repro.errors.NetError`) during an exchange closes
    the stream and propagates, so the next exchange starts fresh.

    A stream is a lockstep request/response rail: a holder shared across
    threads needs its owner's lock around each whole exchange (see
    ``docs/CONCURRENCY.md``).  As a context manager the holder closes
    its stream on exit, for one-exchange clients.
    """

    def __init__(self, opener: Callable[[], object]) -> None:
        self._opener = opener
        self._current = None
        self._parser: Optional[HttpParser] = None

    @property
    def is_open(self) -> bool:
        """True if the next exchange reuses the current stream."""
        stream = self._current
        return (stream is not None and not stream.closed and not stream.eof
                and not getattr(stream, "truncated", False))

    def exchange_http(self, request: HttpRequest) -> Optional[HttpResponse]:
        """Send ``request``; return the response, or ``None`` if the peer
        answered nothing (the caller decides what that means)."""
        stream = self._stream()
        try:
            stream.send(request.encode())
            if self._parser is None:
                self._parser = HttpParser(is_server_side=False)
            responses = self._parser.feed(stream.recv_available())
        except NetError:
            self.close()
            raise
        return responses[0] if responses else None

    def exchange_frame(self, payload: bytes) -> bytes:
        """Send one frame; return the peer's reply frame."""
        stream = self._stream()
        try:
            send_frame(stream, payload)
            return recv_frame(stream)
        except NetError:
            self.close()
            raise

    def _stream(self):
        if not self.is_open:
            self._current = None
            self._current = self._opener()
            self._parser = None
        return self._current

    def close(self) -> None:
        """Close the current stream, if any (idempotent)."""
        stream, self._current = self._current, None
        if stream is not None and not stream.closed:
            # a dropped stream cannot block a local close
            with contextlib.suppress(NetError):
                stream.close()

    def __enter__(self) -> "ClientStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ClientStream", "injected_fault", "serve_frames", "serve_http"]
