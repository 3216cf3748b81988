"""Each EPID holder builds its member-id sealing AEAD once.

The group manager opens every signature with one ``AesGcm`` built in
``EpidGroup.__init__``, and the quoting enclave seals every quote's
member id with one built when its member key is provisioned.
"""

import pytest

from repro.crypto.gcm import AesGcm
from repro.sgx.epid import EpidGroup
from repro.sgx.report import Report


@pytest.fixture
def sealing_setups(monkeypatch):
    """The keys of every ``AesGcm`` constructed while the test runs."""
    built = []
    init = AesGcm.__init__

    def recorded(self, key):
        built.append(bytes(key))
        init(self, key)

    monkeypatch.setattr(AesGcm, "__init__", recorded)
    return built


def test_quotes_build_the_sealing_aead_once_per_holder(
        platform, keeper, rng, sealing_setups):
    group = EpidGroup(b"g", rng.random_bytes(32))
    platform.provision_epid(group.issue_member(rng), group.sealing_key())
    qe = platform.quoting_enclave
    for i in range(4):
        report = Report.from_bytes(keeper.ecall(
            "get_report", qe.target_info(), bytes([i]) * 64))
        quote = qe.generate(report, b"deployment")
        assert group.verify(quote.signature(), quote.body_bytes())
    # One for the manager, one for the quoting enclave.
    assert sealing_setups.count(group.sealing_key()) == 2
