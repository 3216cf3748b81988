"""Measurement violations (ToMToU) and their appraisal consequences."""

import pytest

from repro.core.appraisal import AppraisalEngine, ExpectedValues
from repro.ima.filesystem import SimulatedFilesystem
from repro.ima.iml import VIOLATION_HASH
from repro.ima.measure import MeasurementAgent
from repro.ima.policy import ImaPolicy


@pytest.fixture
def agent():
    fs = SimulatedFilesystem()
    fs.write_file("/usr/bin/dockerd", b"docker")
    agent = MeasurementAgent(fs, ImaPolicy.default_host_policy())
    agent.measure_all()
    return agent


def test_violation_entry_has_zero_hash(agent):
    entry = agent.record_violation("/usr/bin/dockerd")
    assert entry.file_hash == VIOLATION_HASH
    assert agent.iml.find("/usr/bin/dockerd").file_hash == VIOLATION_HASH


def test_violation_forces_remeasure(agent):
    agent.record_violation("/usr/bin/dockerd")
    # Next access re-measures even though the generation did not change.
    entry = agent.on_file_accessed("/usr/bin/dockerd")
    assert entry is not None
    assert entry.file_hash != VIOLATION_HASH


def test_violation_extends_aggregate(agent):
    before = agent.iml.aggregate()
    agent.record_violation("/usr/bin/dockerd")
    assert agent.iml.aggregate() != before


def test_appraisal_rejects_violations(agent):
    expected = ExpectedValues()
    expected.allow_content("/usr/bin/dockerd", b"docker")
    agent.record_violation("/usr/bin/dockerd")
    engine = AppraisalEngine(expected)
    result = engine.appraise(agent.iml.to_bytes(), agent.iml.aggregate())
    assert not result.trustworthy
    assert any("violation" in f for f in result.failures)


def test_violation_extends_tpm_too():
    from repro.crypto.rng import HmacDrbg
    from repro.tpm.tpm import TpmDevice

    fs = SimulatedFilesystem()
    fs.write_file("/usr/bin/dockerd", b"docker")
    tpm = TpmDevice(HmacDrbg(b"ima-violation-tpm"))
    agent = MeasurementAgent(fs, ImaPolicy.default_host_policy(), tpm=tpm)
    agent.measure_all()
    agent.record_violation("/usr/bin/dockerd")
    assert tpm.read_pcr(10) == agent.iml.aggregate()
