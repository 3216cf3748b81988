"""The measurement agent: policy application, change detection, TPM hookup."""

import pytest

from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256 import sha256
from repro.ima.filesystem import SimulatedFilesystem
from repro.ima.measure import IMA_PCR_INDEX, MeasurementAgent
from repro.ima.policy import ImaPolicy
from repro.tpm.tpm import TpmDevice


@pytest.fixture
def fs():
    fs = SimulatedFilesystem()
    fs.write_file("/usr/bin/dockerd", b"docker")
    fs.write_file("/usr/bin/runc", b"runc")
    fs.write_file("/var/log/syslog", b"noise")
    return fs


@pytest.fixture
def agent(fs):
    return MeasurementAgent(fs, ImaPolicy.default_host_policy())


def test_boot_aggregate_created(agent):
    assert len(agent.iml) == 1
    assert agent.iml.entries[0].path == "boot_aggregate"


def test_measure_all_respects_policy(agent):
    agent.measure_all()
    paths = {e.path for e in agent.iml}
    assert "/usr/bin/dockerd" in paths
    assert "/usr/bin/runc" in paths
    assert "/var/log/syslog" not in paths


def test_unchanged_files_not_remeasured(agent):
    agent.measure_all()
    count = len(agent.iml)
    agent.measure_all()
    assert len(agent.iml) == count


def test_changed_file_remeasured(agent, fs):
    agent.measure_all()
    count = len(agent.iml)
    fs.write_file("/usr/bin/dockerd", b"docker-v2")
    agent.on_file_accessed("/usr/bin/dockerd")
    assert len(agent.iml) == count + 1
    assert agent.iml.find("/usr/bin/dockerd").file_hash == sha256(b"docker-v2")


def test_unmeasured_path_returns_none(agent):
    assert agent.on_file_accessed("/var/log/syslog") is None


def test_tpm_extended_in_lockstep(fs):
    tpm = TpmDevice(HmacDrbg(b"ima-lockstep-tpm"))
    agent = MeasurementAgent(fs, ImaPolicy.default_host_policy(), tpm=tpm)
    agent.measure_all()
    assert agent.tpm_anchored
    assert tpm.read_pcr(IMA_PCR_INDEX) == agent.iml.aggregate()


def test_without_tpm_not_anchored(agent):
    assert not agent.tpm_anchored
