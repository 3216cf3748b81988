"""Property: IAS verdicts follow the documented check order under any
combination of revocation states.

:meth:`~repro.ias.service.IasService.verify_quote` checks, in order:
group revoked → signature validity → key revocation (PrivRL) →
signature revocation (SigRL) → TCB floor.  The first check that fails
names the verdict, so every combination of states must land on the
highest-precedence one.  ``verify_quotes`` over a mixed batch must sign
exactly the AVR bytes that per-quote calls sign in the same world.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.ias.service import IasService, QuoteStatus
from repro.net.clock import VirtualClock
from repro.sgx.enclave import EnclaveImage
from repro.sgx.platform import SgxPlatform
from repro.sgx.quote import QE_SVN
from repro.sgx.report import Report
from repro.sgx.sigstruct import sign_image

BASENAME = b"deployment"


class _Quotable:
    ECALLS = ("get_report",)

    def __init__(self, api):
        self._api = api

    def get_report(self, target, report_data):
        return self._api.create_report(target, report_data).to_bytes()


def _world(seed, hosts=("host",)):
    """An IAS with one registered platform (and one quote) per host."""
    rng = HmacDrbg(seed)
    clock = VirtualClock()
    ias = IasService(rng=rng, now=clock.now_seconds)
    image = EnclaveImage.from_behavior_class(_Quotable, "quotable")
    quotes = {}
    for host in hosts:
        platform = SgxPlatform(host, clock=clock, rng=rng)
        ias.register_platform(platform)
        enclave = platform.create_enclave(
            image, sign_image(generate_keypair(rng), image.code, "v")
        )
        qe = platform.quoting_enclave
        report = Report.from_bytes(
            enclave.ecall("get_report", qe.target_info(), b"\x01" * 64)
        )
        quotes[host] = qe.generate(report, BASENAME)
    return rng, clock, ias, quotes


def _tampered(quote_bytes):
    raw = bytearray(quote_bytes)
    raw[-1] ^= 1
    return bytes(raw)


def _expected(group_revoked, tampered, key_revoked, signature_revoked,
              tcb_floor):
    if group_revoked:
        return QuoteStatus.GROUP_REVOKED
    if tampered:
        return QuoteStatus.SIGNATURE_INVALID
    if key_revoked:
        return QuoteStatus.KEY_REVOKED
    if signature_revoked:
        return QuoteStatus.SIGNATURE_REVOKED
    if tcb_floor > QE_SVN:
        return QuoteStatus.GROUP_OUT_OF_DATE
    return QuoteStatus.OK


@settings(max_examples=24, deadline=None)
@given(
    nonce=st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                  max_size=16),
    sigrl_size=st.integers(min_value=0, max_value=32),
    group_revoked=st.booleans(),
    tampered=st.booleans(),
    key_revoked=st.booleans(),
    signature_revoked=st.booleans(),
    tcb_floor=st.integers(min_value=0, max_value=QE_SVN + 1),
)
# A staircase: each step clears the highest-precedence condition still
# set, so swapping any two checks changes one of these verdicts.
@example("n", 4, True, True, True, True, QE_SVN + 1)
@example("n", 4, False, True, True, True, QE_SVN + 1)
@example("n", 4, False, False, True, True, QE_SVN + 1)
@example("n", 4, False, False, False, True, QE_SVN + 1)
@example("n", 4, False, False, False, False, QE_SVN + 1)
@example("n", 4, False, False, False, False, QE_SVN)
def test_verdict_follows_documented_precedence(nonce, sigrl_size,
                                               group_revoked, tampered,
                                               key_revoked,
                                               signature_revoked, tcb_floor):
    rng, _, ias, quotes = _world(b"verdict-precedence")
    quote = quotes["host"]
    # Unrelated SigRL entries: the scan must not match on them.
    for _ in range(sigrl_size):
        ias.sig_rl.entries.append((BASENAME, rng.random_bytes(32)))
    if signature_revoked:
        ias.revoke_quote_signature(quote)
    if key_revoked:
        ias.revoke_platform("host")
    if group_revoked:
        ias.revoke_group()
    ias.raise_tcb_floor(tcb_floor)

    quote_bytes = quote.to_bytes()
    avr = ias.verify_quote(_tampered(quote_bytes) if tampered else quote_bytes,
                           nonce=nonce)
    assert avr.quote_status == _expected(group_revoked, tampered, key_revoked,
                                         signature_revoked, tcb_floor)
    avr.verify(ias.report_signing_public_key)
    assert avr.nonce == nonce


def _mixed_batch_world():
    """Same seed every call: four quotes, each meeting a different check."""
    _, clock, ias, quotes = _world(b"verdict-batch",
                                   hosts=("good", "revoked", "linked"))
    ias.revoke_platform("revoked")
    ias.revoke_quote_signature(quotes["linked"])
    clock.advance(3.0)
    batch = [
        (quotes["good"].to_bytes(), "n-ok"),
        (_tampered(quotes["good"].to_bytes()), "n-invalid"),
        (quotes["revoked"].to_bytes(), "n-key"),
        (quotes["linked"].to_bytes(), "n-sig"),
    ]
    return ias, batch


def test_verify_quotes_equals_per_quote_verify():
    batch_ias, batch = _mixed_batch_world()
    batched = batch_ias.verify_quotes(batch)
    single_ias, batch = _mixed_batch_world()
    singles = [single_ias.verify_quote(quote_bytes, nonce)
               for quote_bytes, nonce in batch]

    assert [avr.to_json() for avr in batched] == [
        avr.to_json() for avr in singles]
    assert [avr.quote_status for avr in batched] == [
        QuoteStatus.OK, QuoteStatus.SIGNATURE_INVALID,
        QuoteStatus.KEY_REVOKED, QuoteStatus.SIGNATURE_REVOKED,
    ]
    assert batch_ias.quotes_verified == single_ias.quotes_verified == 4
