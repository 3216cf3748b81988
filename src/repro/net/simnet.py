"""The simulated network fabric.

A :class:`Network` owns the virtual clock, a listener table, and a latency
model.  ``connect`` performs a rendezvous with the destination's acceptor
and returns the client-side channel; every byte sent afterwards charges
latency + serialization time to the clock under the ``"network"`` account.

A :class:`~repro.net.faults.FaultPlan` installed via
:meth:`Network.install_faults` intercepts connects and sends to inject
refusals, latency spikes and mid-stream drops deterministically; see
``docs/FAULTS.md``.

The fabric is **thread-safe**: listener registration, link-profile
lookups and the connection counter are guarded by one internal lock, so
concurrent fleet sessions (:mod:`repro.core.fleet`) can connect without
torn state.  Acceptors still run inline in the connecting thread, and an
individual :class:`~repro.net.channel.Channel` pair remains a lockstep
request/response rail owned by the thread (or pooled client) using it —
see ``docs/CONCURRENCY.md`` for the ownership rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.analysis.sanitizer import make_rlock
from repro.errors import AddressError, ConnectionRefused
from repro.net.address import Address
from repro.net.channel import Channel
from repro.net.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.net.faults import FaultPlan

Acceptor = Callable[[Channel], None]


@dataclass(frozen=True)
class LinkProfile:
    """Latency/bandwidth parameters for a host pair.

    Attributes:
        latency: one-way propagation delay in seconds.
        bytes_per_second: serialization rate; 0 disables the per-byte cost.
    """

    latency: float = 0.0005
    bytes_per_second: float = 1.25e9  # ~10 Gbit/s

    def transfer_time(self, n_bytes: int) -> float:
        """Simulated one-way time to move ``n_bytes``."""
        serialization = (
            n_bytes / self.bytes_per_second if self.bytes_per_second else 0.0
        )
        return self.latency + serialization


LOOPBACK = LinkProfile(latency=0.00002, bytes_per_second=5e9)
DATACENTER = LinkProfile(latency=0.0005, bytes_per_second=1.25e9)
WAN = LinkProfile(latency=0.02, bytes_per_second=1.25e8)


class Network:
    """The fabric connecting hosts in a deployment.

    Args:
        clock: shared virtual clock (created if not supplied).
        default_profile: link profile for host pairs without an override.
    """

    def __init__(self, clock: Optional[VirtualClock] = None,
                 default_profile: LinkProfile = DATACENTER) -> None:
        self.clock = clock or VirtualClock()
        self._default_profile = default_profile
        self._listeners: Dict[Address, Acceptor] = {}
        self._profiles: Dict[Tuple[str, str], LinkProfile] = {}
        self._connection_count = 0
        self._message_count = 0
        self._messages_by_host: Dict[str, int] = {}
        self._faults: Optional["FaultPlan"] = None
        self._lock = make_rlock("simnet")

    # --------------------------------------------------------------- faults

    @property
    def faults(self) -> Optional["FaultPlan"]:
        """The installed fault plan, or ``None``."""
        return self._faults

    def install_faults(self, plan: Optional["FaultPlan"]) -> Optional["FaultPlan"]:
        """Install a :class:`~repro.net.faults.FaultPlan` (or clear it
        with ``None``).  Returns the plan for chaining."""
        self._faults = plan
        return plan

    # ------------------------------------------------------------- topology

    def set_link_profile(self, host_a: str, host_b: str,
                         profile: LinkProfile) -> None:
        """Override the link profile between two hosts (order-insensitive)."""
        with self._lock:
            self._profiles[(host_a, host_b)] = profile
            self._profiles[(host_b, host_a)] = profile

    def profile_between(self, host_a: str, host_b: str) -> LinkProfile:
        """Effective link profile between two hosts."""
        with self._lock:
            if host_a == host_b:
                return self._profiles.get((host_a, host_b), LOOPBACK)
            return self._profiles.get((host_a, host_b), self._default_profile)

    # ------------------------------------------------------------ listeners

    def listen(self, address: Address, acceptor: Acceptor) -> None:
        """Register an acceptor for inbound connections to ``address``."""
        with self._lock:
            if address in self._listeners:
                raise AddressError(f"{address} is already listening")
            self._listeners[address] = acceptor

    def stop_listening(self, address: Address) -> None:
        """Remove a listener."""
        with self._lock:
            self._listeners.pop(address, None)

    def is_listening(self, address: Address) -> bool:
        """True if something accepts connections at ``address``."""
        with self._lock:
            return address in self._listeners

    # ----------------------------------------------------------- connecting

    def connect(self, source_host: str, destination: Address) -> Channel:
        """Open a connection; returns the client-side channel.

        The destination's acceptor runs inline (it typically registers an
        ``on_receive`` handler on the server-side channel).
        """
        with self._lock:
            acceptor = self._listeners.get(destination)
        if acceptor is None:
            raise ConnectionRefused(f"nothing listening at {destination}")
        profile = self.profile_between(source_host, destination.host)
        fault_state = None
        if self._faults is not None:
            # May raise ConnectionRefused (injected) or charge extra
            # connect latency; returns this connection's fault budget.
            fault_state = self._faults.on_connect(destination, self.clock,
                                                  source_host)
        with self._lock:
            self._connection_count += 1
            conn_id = self._connection_count
        # Connection setup costs one round trip (SYN + SYN/ACK equivalent).
        self.clock.advance(2 * profile.latency, "network")

        client_side: Channel
        server_side: Channel

        def make_deliver(direction: str) -> Callable[[Channel, bytes], None]:
            def deliver(sender: Channel, data: bytes) -> None:
                if fault_state is not None and self._faults is not None:
                    from repro.net.faults import FaultPlan

                    if self._faults.on_send(destination, fault_state,
                                            self.clock):
                        # Mid-stream drop: the payload is lost, both
                        # endpoints close, and the send raises.
                        FaultPlan.tear_down(sender)
                self.clock.advance(profile.transfer_time(len(data)), "network")
                with self._lock:
                    self._message_count += 1
                    self._messages_by_host[destination.host] = (
                        self._messages_by_host.get(destination.host, 0) + 1
                    )
                receiver = sender.peer
                if receiver is not None:
                    receiver._enqueue(data)
            return deliver

        def notify_close(closing: Channel) -> None:
            if closing.peer is not None:
                closing.peer._peer_did_close()

        client_side = Channel(
            f"conn{conn_id}:{source_host}->{destination}",
            make_deliver("c2s"), notify_close,
        )
        server_side = Channel(
            f"conn{conn_id}:{destination}<-{source_host}",
            make_deliver("s2c"), notify_close,
        )
        client_side.peer = server_side
        server_side.peer = client_side
        client_side.clock = server_side.clock = self.clock
        acceptor(server_side)
        return client_side

    @property
    def connections_opened(self) -> int:
        """Total connections opened since construction."""
        return self._connection_count

    @property
    def messages_sent(self) -> int:
        """Total channel sends delivered since construction.

        Each send is one one-way message on the fabric, so the delta
        across an operation counts its protocol round trips — the metric
        experiment E14 uses to compare enrollment paths.
        """
        with self._lock:
            return self._message_count

    def messages_to(self, host: str) -> int:
        """Messages carried on connections dialed to ``host``.

        Both directions of a connection are attributed to the host the
        dialer connected to, so the delta across an operation splits its
        round trips by service: experiment E14 separates enrollment
        machinery (agents, Verification Manager, IAS) from the
        controller session both enrollment paths establish identically.
        """
        with self._lock:
            return self._messages_by_host.get(host, 0)
