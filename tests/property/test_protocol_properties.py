"""Property-based tests on protocol-layer invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha256 import sha256
from repro.ima.iml import ImaEntry, MeasurementList
from repro.sgx.measurement import measure_image
from repro.tls.ciphersuites import DEFAULT_SUITE
from repro.tls.constants import CONTENT_APPLICATION_DATA
from repro.tls.record import RecordLayer


@given(st.lists(st.binary(min_size=1, max_size=2048), min_size=1,
                max_size=6))
@settings(max_examples=30, deadline=None)
def test_record_layer_preserves_stream(payloads):
    sender, receiver = RecordLayer(), RecordLayer()
    key, iv = b"k" * 16, b"i" * 4
    sender.activate_send(DEFAULT_SUITE, key, iv)
    receiver.activate_recv(DEFAULT_SUITE, key, iv)
    wire = b"".join(
        sender.encode_fragments(CONTENT_APPLICATION_DATA, p)
        for p in payloads
    )
    # Deliver in arbitrary-ish chunks (7-byte slices) to exercise buffering.
    received = b""
    for i in range(0, len(wire), 7):
        for record in receiver.feed(wire[i:i + 7]):
            received += record.payload
    assert received == b"".join(payloads)


@given(st.lists(st.tuples(st.text(min_size=1, max_size=20),
                          st.binary(min_size=1, max_size=32)),
                min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_iml_aggregate_reproducible_and_order_sensitive(files):
    iml = MeasurementList()
    iml.boot_aggregate(sha256(b"boot"))
    for name, content in files:
        iml.append(ImaEntry(10, sha256(content), "/f/" + name))
    # Serialization preserves the aggregate.
    restored = MeasurementList.from_bytes(iml.to_bytes())
    assert restored.aggregate() == iml.aggregate()
    # Any reordering of two distinct adjacent entries changes the aggregate.
    entries = iml.entries
    if len(entries) >= 3 and entries[1] != entries[2]:
        swapped = [entries[0], entries[2], entries[1]] + entries[3:]
        assert (MeasurementList.compute_aggregate(swapped)
                != iml.aggregate())


@given(st.binary(min_size=1, max_size=16384))
@settings(max_examples=25, deadline=None)
def test_measurement_second_preimage_smoke(code):
    # Appending a non-zero byte never preserves MRENCLAVE (a zero byte
    # inside the final page coincides with canonical zero-padding).
    assert measure_image(code) != measure_image(code + b"\x01")


@given(st.binary(min_size=1, max_size=128),
       st.sampled_from(["mrenclave", "mrsigner"]))
@settings(max_examples=30, deadline=None)
def test_sealing_roundtrip_property(secret, policy):
    from repro.crypto.rng import HmacDrbg
    from repro.sgx.enclave import EnclaveIdentity
    from repro.sgx.sealing import seal, unseal

    rng = HmacDrbg(b"prop-seal")
    identity = EnclaveIdentity(b"\x01" * 32, b"\x02" * 32, 1, 3)
    blob = seal(b"fuse" * 8, identity, secret, policy, rng=rng)
    assert unseal(b"fuse" * 8, identity, blob) == secret


@given(st.binary(min_size=8, max_size=64))
@settings(max_examples=30, deadline=None)
def test_quote_serialization_total(report_data_seed):
    from repro.sgx.quote import Quote

    quote = Quote(
        mrenclave=sha256(report_data_seed),
        mrsigner=sha256(b"s" + report_data_seed),
        isv_prod_id=7,
        isv_svn=2,
        report_data=sha256(report_data_seed) * 2,
        qe_svn=1,
        basename=report_data_seed[:16],
        epid_signature=report_data_seed,
    )
    assert Quote.from_bytes(quote.to_bytes()) == quote
