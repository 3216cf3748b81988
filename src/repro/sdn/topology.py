"""Network topology: switches, inter-switch links, host attachments."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.errors import TopologyError
from repro.sdn.switch import Switch


class Topology:
    """The controller's view of the forwarding plane."""

    def __init__(self) -> None:
        # node -> {neighbour: {node: port}}, nodes and neighbours in
        # insertion order; a node is a switch dpid or a host name, and
        # one ports dict serves both directions of a link.  links() lists
        # each link once, under whichever end was added first, so the
        # northbound links JSON keeps a stable order.
        self._adjacency: Dict[str, Dict[str, Dict[str, int]]] = {}
        self._switches: Dict[str, Switch] = {}
        self._host_attachment: Dict[str, Tuple[str, int]] = {}

    # ------------------------------------------------------------ building

    def add_switch(self, switch: Switch) -> None:
        """Register a switch."""
        if switch.dpid in self._switches:
            raise TopologyError(f"duplicate dpid {switch.dpid}")
        self._switches[switch.dpid] = switch
        self._adjacency.setdefault(switch.dpid, {})

    def add_link(self, dpid_a: str, port_a: int,
                 dpid_b: str, port_b: int) -> None:
        """Connect two switches, wiring both port maps."""
        switch_a = self.switch(dpid_a)
        switch_b = self.switch(dpid_b)
        switch_a.connect_port(port_a, (switch_b, port_b))
        switch_b.connect_port(port_b, (switch_a, port_a))
        self._add_edge(dpid_a, dpid_b, {dpid_a: port_a, dpid_b: port_b})

    def attach_host(self, host: str, dpid: str, port: int) -> None:
        """Attach an end host to a switch port."""
        switch = self.switch(dpid)
        switch.connect_port(port, host)
        self._host_attachment[host] = (dpid, port)
        self._add_edge(host, dpid, {dpid: port})

    def _add_edge(self, a: str, b: str, ports: Dict[str, int]) -> None:
        # Re-wiring an existing edge keeps its place in both orders.
        self._adjacency.setdefault(a, {})[b] = ports
        self._adjacency.setdefault(b, {})[a] = ports

    # ------------------------------------------------------------- queries

    def switch(self, dpid: str) -> Switch:
        """Look up a switch by dpid."""
        try:
            return self._switches[dpid]
        except KeyError as exc:
            raise TopologyError(f"unknown switch {dpid!r}") from exc

    def switches(self) -> List[Switch]:
        """All switches."""
        return list(self._switches.values())

    def attachment_point(self, host: str) -> Tuple[str, int]:
        """Where a host connects: ``(dpid, port)``."""
        try:
            return self._host_attachment[host]
        except KeyError as exc:
            raise TopologyError(f"host {host!r} not attached") from exc

    def hosts(self) -> List[str]:
        """All attached host names."""
        return sorted(self._host_attachment)

    def links(self) -> List[Tuple[str, str, Dict[str, int]]]:
        """Inter-switch links as ``(dpid_a, dpid_b, ports)``."""
        out = []
        seen = set()
        for a, neighbours in self._adjacency.items():
            for b, ports in neighbours.items():
                if (b not in seen and a in self._switches
                        and b in self._switches):
                    out.append((a, b, ports))
            seen.add(a)
        return out

    def shortest_path(self, src_host: str, dst_host: str) -> List[str]:
        """Switch dpids along the shortest path between two hosts."""
        if src_host not in self._adjacency or dst_host not in self._adjacency:
            raise TopologyError("both hosts must be attached")
        previous = {src_host: src_host}
        frontier = deque([src_host])
        while frontier and dst_host not in previous:
            node = frontier.popleft()
            for neighbour in self._adjacency[node]:
                if neighbour not in previous:
                    previous[neighbour] = node
                    frontier.append(neighbour)
        if dst_host not in previous:
            raise TopologyError(f"no path from {src_host} to {dst_host}")
        path = [dst_host]
        while path[-1] != src_host:
            path.append(previous[path[-1]])
        return [node for node in reversed(path) if node in self._switches]

    def port_toward(self, dpid: str, next_hop: str) -> int:
        """The port on ``dpid`` that faces ``next_hop`` (switch or host)."""
        ports = self._adjacency.get(dpid, {}).get(next_hop)
        if ports is None:
            raise TopologyError(f"no link {dpid} <-> {next_hop}")
        return ports[dpid]
