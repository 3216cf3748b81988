"""Flow rules, matches, actions, and packets for the forwarding plane."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import FlowError

MATCH_FIELDS = ("in_port", "eth_src", "eth_dst", "ip_src", "ip_dst",
                "ip_proto", "tcp_dst")

ACTION_DROP = "drop"


class Packet(NamedTuple):
    """A simplified packet header set."""

    eth_src: str
    eth_dst: str
    ip_src: str = ""
    ip_dst: str = ""
    ip_proto: str = "tcp"
    tcp_dst: int = 0
    payload: bytes = b""


def output(port: int) -> str:
    """The output-to-port action string."""
    return f"output:{port}"


@dataclass(frozen=True)
class FlowMatch:
    """A set of exact-match fields (absent fields are wildcards)."""

    fields: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def from_dict(cls, fields: Dict[str, object]) -> "FlowMatch":
        """Build a match, validating field names."""
        for name in fields:
            if name not in MATCH_FIELDS:
                raise FlowError(f"unknown match field {name!r}")
        return cls(tuple(sorted(fields.items())))

    def matches(self, packet: Packet, in_port: int) -> bool:
        """True if every field matches the packet."""
        values = packet._asdict()
        values["in_port"] = in_port
        return all(values.get(name) == expected
                   for name, expected in self.fields)

    def to_dict(self) -> Dict[str, object]:
        """Mapping form (REST serialization)."""
        return dict(self.fields)

    @property
    def specificity(self) -> int:
        """How many fields are pinned (tie-break within a priority)."""
        return len(self.fields)


@dataclass
class FlowRule:
    """One flow-table entry."""

    name: str
    match: FlowMatch
    actions: Tuple[str, ...]
    priority: int = 100
    packets_matched: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise FlowError("flow rule needs a name")
        for action in self.actions:
            if action != ACTION_DROP and not action.startswith("output:"):
                raise FlowError(f"unknown action {action!r}")

    def output_ports(self) -> List[int]:
        """Ports this rule forwards to (empty for drop)."""
        ports = []
        for action in self.actions:
            if action.startswith("output:"):
                ports.append(int(action.split(":", 1)[1]))
        return ports

    @property
    def drops(self) -> bool:
        """True for a drop rule."""
        return ACTION_DROP in self.actions


class FlowTable:
    """Priority-ordered rule set with match statistics."""

    def __init__(self) -> None:
        self._rules: Dict[str, FlowRule] = {}

    def add(self, rule: FlowRule) -> None:
        """Insert or replace a rule by name."""
        self._rules[rule.name] = rule

    def remove(self, name: str) -> None:
        """Delete a rule."""
        if name not in self._rules:
            raise FlowError(f"no flow rule named {name!r}")
        del self._rules[name]

    def lookup(self, packet: Packet, in_port: int) -> Optional[FlowRule]:
        """Highest-priority matching rule (most specific wins ties)."""
        best: Optional[FlowRule] = None
        for rule in self._rules.values():
            if not rule.match.matches(packet, in_port):
                continue
            if best is None or (
                (rule.priority, rule.match.specificity)
                > (best.priority, best.match.specificity)
            ):
                best = rule
        if best is not None:
            best.packets_matched += 1
        return best

    def rules(self) -> List[FlowRule]:
        """All rules, in insertion order."""
        return list(self._rules.values())

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def __len__(self) -> int:
        return len(self._rules)
