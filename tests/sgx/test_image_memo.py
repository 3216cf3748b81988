"""Each behavior class's measured code is read once per class object."""

import collections
import importlib.util
import inspect
import os
import sys

import pytest

from repro.core import Deployment
from repro.core import attestation_enclave as ae
from repro.core import credential_enclave as ce
from repro.errors import LaunchError
from repro.sgx.enclave import EnclaveImage
from repro.sgx.sigstruct import sign_image


@pytest.fixture
def getsource_calls(monkeypatch):
    """Count ``inspect.getsource`` calls by the class they read."""
    calls = collections.Counter()
    real = inspect.getsource

    def counting(obj):
        calls[obj.__qualname__] += 1
        return real(obj)

    monkeypatch.setattr(inspect, "getsource", counting)
    return calls


def _mrenclaves(deployment):
    return {label: enclave.mrenclave
            for host in deployment.hosts
            for label, enclave in host.platform.enclaves().items()}


def test_source_is_read_once_per_class(getsource_calls):
    class Probe:
        ECALLS = ("noop",)

        def __init__(self, api):
            self._api = api

        def noop(self):
            return "ok"

    images = [EnclaveImage.from_behavior_class(Probe, f"probe-{n}")
              for n in range(5)]
    assert getsource_calls[Probe.__qualname__] == 1
    assert {image.code for image in images} == {
        inspect.getsource(Probe).encode("utf-8")}


def test_a_second_deployment_reads_no_source(getsource_calls):
    first = Deployment(seed=b"image-memo", vnf_count=8, host_count=2)
    getsource_calls.clear()
    second = Deployment(seed=b"image-memo", vnf_count=8, host_count=2)
    assert sum(getsource_calls.values()) == 0
    for policy in (first.policy, second.policy):
        assert (policy.expected_credential_mrenclave
                == ce.reference_measurement())
        assert (policy.expected_attestation_mrenclave
                == ae.reference_measurement())
    assert _mrenclaves(second) == _mrenclaves(first)
    assert len(_mrenclaves(first)) == 8 + 2 * 2  # VNFs, then AE + QE per host


def test_sourceless_twins_keep_their_own_code():
    """Two classes with one ``__qualname__`` and different methods: the
    memo keys the class object, not its name."""
    def twin(answer):
        return type("Twin", (), {
            "__module__": "repro_sourceless_probe",  # no file: no source
            "ECALLS": ("answer",),
            "__init__": lambda self, api: None,
            "answer": (lambda self: "yes") if answer else (lambda self: 0),
        })

    yes, no = twin(True), twin(False)
    assert yes.__qualname__ == no.__qualname__
    yes_code = EnclaveImage.from_behavior_class(yes, "twin").code
    no_code = EnclaveImage.from_behavior_class(no, "twin").code
    assert yes_code != no_code
    assert EnclaveImage.from_behavior_class(yes, "twin").code == yes_code
    assert EnclaveImage.from_behavior_class(no, "twin").code == no_code


def test_a_tampered_image_of_a_memoized_class_is_refused(platform,
                                                          vendor_key):
    from tests.sgx.conftest import KeeperBehavior

    image = EnclaveImage.from_behavior_class(KeeperBehavior, "keeper")
    sigstruct = sign_image(vendor_key, image.code, "test-vendor")
    again = EnclaveImage.from_behavior_class(KeeperBehavior, "keeper")
    with pytest.raises(LaunchError):
        platform.create_enclave(again.tampered(), sigstruct)
    # The tampered copy left the memo alone.
    assert EnclaveImage.from_behavior_class(
        KeeperBehavior, "keeper").code == image.code
    platform.create_enclave(again, sigstruct)


def test_the_loaded_class_keeps_its_code_when_the_file_changes(
        tmp_path, monkeypatch):
    """What runs is the class as loaded, so an edit on disk after the
    first image must not reach later images of that class."""
    path = tmp_path / "probe_enclave.py"
    path.write_text("class Probe:\n"
                    "    def run(self):\n"
                    "        return 1\n", encoding="utf-8")
    spec = importlib.util.spec_from_file_location("probe_enclave", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "probe_enclave", module)
    spec.loader.exec_module(module)

    first = EnclaveImage.from_behavior_class(module.Probe, "probe").code
    assert b"return 1" in first
    path.write_text("class Probe:\n"
                    "    def run(self):\n"
                    "        return 'edited'\n", encoding="utf-8")
    stat = path.stat()
    os.utime(path, (stat.st_atime + 60, stat.st_mtime + 60))
    assert EnclaveImage.from_behavior_class(module.Probe,
                                            "probe").code == first
