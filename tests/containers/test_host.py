"""The container host: boot measurement, deployment, adversarial API."""

import pytest

from repro.containers.host import ContainerHost
from repro.containers.image import build_image
from repro.containers.registry import Registry
from repro.crypto.sha256 import sha256
from repro.net.clock import VirtualClock


@pytest.fixture
def registry():
    registry = Registry()
    registry.push(build_image("vnf", "1.0", {"/usr/bin/vnf": b"bin"}))
    return registry


@pytest.fixture
def host(rng):
    host = ContainerHost("host-t", VirtualClock(), rng)
    host.boot()
    return host


def test_boot_measures_os_files(host):
    measured = {entry.path for entry in host.ima.iml}
    assert "/usr/bin/dockerd" in measured
    assert "boot_aggregate" in measured
    assert host.booted


def test_boot_is_idempotent(host):
    count = len(host.ima.iml)
    host.boot()
    assert len(host.ima.iml) == count


def test_deploy_measures_container_files(host, registry):
    before = len(host.ima.iml)
    container = host.deploy(registry, "vnf:1.0")
    assert container.running
    assert len(host.ima.iml) > before
    assert host.ima.iml.find(container.root_path + "/usr/bin/vnf") is not None


def test_tamper_file_lands_in_iml(host):
    host.tamper_file("/usr/bin/dockerd", b"evil")
    assert host.ima.iml.find("/usr/bin/dockerd").file_hash == sha256(b"evil")


def test_tamper_without_remeasure_keeps_stale_entry(host):
    original = host.ima.iml.find("/usr/bin/dockerd").file_hash
    host.tamper_file("/usr/bin/dockerd", b"evil", re_measure=False)
    assert host.ima.iml.find("/usr/bin/dockerd").file_hash == original


def test_hide_measurement_restores_consistency(host):
    host.tamper_file("/usr/bin/dockerd", b"evil")
    host.hide_measurement("/usr/bin/dockerd")
    from repro.ima.iml import MeasurementList

    assert host.ima.iml.find("/usr/bin/dockerd") is None
    assert (MeasurementList.compute_aggregate(host.ima.iml.entries)
            == host.ima.iml.aggregate())


def test_tpm_configuration(rng):
    host = ContainerHost("host-tpm", VirtualClock(), rng, with_tpm=True)
    host.boot()
    assert host.tpm is not None
    assert host.tpm.read_pcr(10) == host.ima.iml.aggregate()
    # hide_measurement desynchronizes software log from hardware PCR
    host.tamper_file("/usr/bin/dockerd", b"evil")
    host.hide_measurement("/usr/bin/dockerd")
    assert host.tpm.read_pcr(10) != host.ima.iml.aggregate()


def test_custom_os_files(rng):
    host = ContainerHost("min", VirtualClock(), rng,
                         os_files={"/usr/bin/only": b"one"})
    host.boot()
    assert {e.path for e in host.ima.iml} == {"boot_aggregate",
                                              "/usr/bin/only"}
