"""Switches and topology: wiring, path computation, packet pipeline."""

import random

import pytest

from repro.errors import TopologyError
from repro.sdn.flows import ACTION_DROP, FlowMatch, FlowRule, Packet, output
from repro.sdn.switch import Switch
from repro.sdn.topology import Topology

from tests.conftest import run_fresh_python

PKT = Packet(eth_src="h1", eth_dst="h2")


@pytest.fixture
def linear_topology():
    """h1 -- s1 -- s2 -- s3 -- h2"""
    topo = Topology()
    for dpid in ("s1", "s2", "s3"):
        topo.add_switch(Switch(dpid))
    topo.add_link("s1", 2, "s2", 1)
    topo.add_link("s2", 2, "s3", 1)
    topo.attach_host("h1", "s1", 1)
    topo.attach_host("h2", "s3", 2)
    return topo


def test_shortest_path(linear_topology):
    assert linear_topology.shortest_path("h1", "h2") == ["s1", "s2", "s3"]


def test_port_toward(linear_topology):
    assert linear_topology.port_toward("s1", "s2") == 2
    assert linear_topology.port_toward("s2", "s1") == 1
    assert linear_topology.port_toward("s3", "h2") == 2


def test_no_path_raises():
    topo = Topology()
    topo.add_switch(Switch("s1"))
    topo.add_switch(Switch("s2"))  # not linked
    topo.attach_host("h1", "s1", 1)
    topo.attach_host("h2", "s2", 1)
    with pytest.raises(TopologyError):
        topo.shortest_path("h1", "h2")


def test_duplicate_dpid_rejected():
    topo = Topology()
    topo.add_switch(Switch("s1"))
    with pytest.raises(TopologyError):
        topo.add_switch(Switch("s1"))


def test_port_reuse_rejected(linear_topology):
    with pytest.raises(TopologyError):
        linear_topology.attach_host("h3", "s1", 1)  # port 1 taken


def test_unknown_lookups(linear_topology):
    with pytest.raises(TopologyError):
        linear_topology.switch("ghost")
    with pytest.raises(TopologyError):
        linear_topology.attachment_point("ghost-host")


def test_switch_forwarding_with_rule():
    switch = Switch("s1")
    switch.connect_port(1, "h1")
    switch.connect_port(2, "h2")
    switch.table.add(FlowRule("fwd", FlowMatch.from_dict({"eth_dst": "h2"}),
                              (output(2),)))
    verdict, ports = switch.process(PKT, in_port=1)
    assert (verdict, ports) == ("forwarded", [2])
    assert switch.packets_seen == 1


def test_switch_drop_rule():
    switch = Switch("s1")
    switch.table.add(FlowRule("block", FlowMatch.from_dict({}),
                              (ACTION_DROP,)))
    verdict, _ = switch.process(PKT, in_port=1)
    assert verdict == "dropped"
    assert switch.packets_dropped == 1


def test_switch_miss_without_controller():
    switch = Switch("s1")
    verdict, _ = switch.process(PKT, in_port=1)
    assert verdict == "no_rule"
    assert switch.table_misses == 1


def test_switch_packet_in_path():
    switch = Switch("s1")
    switch.connect_port(7, "h2")
    calls = []

    def controller(sw, in_port, packet):
        calls.append((sw.dpid, in_port, packet.eth_dst))
        return [output(7)]

    switch.set_packet_in_handler(controller)
    verdict, ports = switch.process(PKT, in_port=1)
    assert (verdict, ports) == ("forwarded", [7])
    assert calls == [("s1", 1, "h2")]


def test_links_listing(linear_topology):
    links = linear_topology.links()
    assert len(links) == 2
    pairs = {frozenset((a, b)) for a, b, _ in links}
    assert frozenset(("s1", "s2")) in pairs


# ------------------------------------------------- the graph behind it


def _random_wiring(shape, rng):
    """Operations building a random line or tree of switches with hosts
    attached, switches first, then links and attachments interleaved."""
    count = rng.randint(2, 9)
    dpids = [f"s{number}" for number in range(count)]
    added = dpids[:]
    rng.shuffle(added)
    ops = [("switch", dpid) for dpid in added]
    free_port = dict.fromkeys(dpids, 1)

    def port(dpid):
        free_port[dpid] += 1
        return free_port[dpid] - 1

    wiring = []
    for number in range(1, count):
        other = number - 1 if shape == "line" else rng.randrange(number)
        pair = [dpids[number], dpids[other]]
        rng.shuffle(pair)
        wiring.append(("link", pair[0], pair[1]))
    for number in range(rng.randint(2, 6)):
        wiring.append(("host", f"h{number}", rng.choice(dpids)))
    rng.shuffle(wiring)
    for op in wiring:
        if op[0] == "link":
            ops.append(("link", op[1], port(op[1]), op[2], port(op[2])))
        else:
            ops.append(("host", op[1], op[2], port(op[2])))
    return ops


def _networkx_reference(networkx, ops):
    """The graph the topology kept in networkx, built the same way."""
    graph = networkx.Graph()
    for op in ops:
        if op[0] == "switch":
            graph.add_node(op[1], kind="switch")
        elif op[0] == "link":
            _, a, port_a, b, port_b = op
            graph.add_edge(a, b, ports={a: port_a, b: port_b})
        else:
            _, host, dpid, port = op
            graph.add_node(host, kind="host")
            graph.add_edge(host, dpid, ports={dpid: port})
    return graph


@pytest.mark.parametrize("shape", ["line", "tree"])
def test_links_and_paths_match_networkx(shape):
    networkx = pytest.importorskip("networkx")
    rng = random.Random(f"topology:{shape}")
    for _ in range(40):
        ops = _random_wiring(shape, rng)
        topo = Topology()
        for op in ops:
            if op[0] == "switch":
                topo.add_switch(Switch(op[1]))
            elif op[0] == "link":
                topo.add_link(*op[1:])
            else:
                topo.attach_host(*op[1:])
        graph = _networkx_reference(networkx, ops)

        def is_switch(node):
            return graph.nodes[node]["kind"] == "switch"

        assert topo.links() == [
            (a, b, data["ports"]) for a, b, data in graph.edges(data=True)
            if is_switch(a) and is_switch(b)]
        for src in topo.hosts():
            for dst in topo.hosts():
                expected = networkx.shortest_path(graph, src, dst)
                assert topo.shortest_path(src, dst) == [
                    node for node in expected if is_switch(node)]


def test_importing_the_core_leaves_networkx_unloaded():
    assert run_fresh_python(
        "import sys, repro.core; print('networkx' in sys.modules)"
    ).strip() == "False"
