"""VNF applications: firewall, load balancer, monitor."""

import pytest

from repro.errors import SdnError
from repro.net.address import Address
from repro.sdn.apps import FirewallVnf, LoadBalancerVnf, MonitorVnf
from repro.sdn.controller import FloodlightController
from repro.sdn.flows import Packet
from repro.sdn.northbound import MODE_HTTP, NorthboundEndpoint
from repro.sdn.switch import Switch
from repro.sdn.vnf import VnfRestClient


@pytest.fixture
def world(network, rng):
    ctl = FloodlightController()
    ctl.register_switch(Switch("s1"))
    ctl.topology.attach_host("h1", "s1", 1)
    ctl.topology.attach_host("h2", "s1", 2)
    NorthboundEndpoint(ctl, network, Address("ctl", 8080), MODE_HTTP)
    client = VnfRestClient(network, Address("ctl", 8080), "vnf-host",
                           MODE_HTTP, rng=rng)
    return ctl, client


def test_firewall_blocks_and_unblocks(world):
    ctl, client = world
    firewall = FirewallVnf(client, "s1")
    packet = Packet(eth_src="h1", eth_dst="h2")
    assert ctl.inject_packet("h1", packet) == "delivered"
    name = firewall.block("h1", "h2")
    assert ctl.inject_packet("h1", packet) == "dropped"
    assert firewall.active_blocks == [name]
    firewall.unblock(name)
    assert ctl.inject_packet("h1", packet) == "delivered"
    assert firewall.active_blocks == []


def test_firewall_unblock_unknown(world):
    _, client = world
    with pytest.raises(SdnError):
        FirewallVnf(client, "s1").unblock("ghost")


def test_load_balancer_round_robin(world):
    _, client = world
    lb = LoadBalancerVnf(client, "s1", backend_ports=[5, 6])
    assert lb.assign("client-a") == 5
    assert lb.assign("client-b") == 6
    assert lb.assign("client-c") == 5
    assert lb.assignments["client-b"] == 6


def test_load_balancer_requires_backends(world):
    _, client = world
    with pytest.raises(SdnError):
        LoadBalancerVnf(client, "s1", backend_ports=[])


def test_monitor_polls_and_counts(world):
    ctl, client = world
    monitor = MonitorVnf(client)
    FirewallVnf(client, "s1").block("h1", "h2")
    sample = monitor.poll()
    assert sample["flowsPushed"] == 1
    assert len(monitor.samples) == 1
    assert monitor.flow_count() == 1
