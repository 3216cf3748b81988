"""AES-GCM fast paths pinned byte-for-byte to their reference oracles.

* the lane-sliced keystream (``AES.encrypt_blocks``) against one
  ``encrypt_block`` per counter;
* the 32 x 16 nibble-table GHASH against the 16 x 256 byte-table
  ``_Ghash``, below and across ``BYTE_TABLE_BLOCKS``, where a key builds
  byte tables of its own;
* the whole AEAD on short records, and on a key that has built its byte
  tables, against ``_ReferenceAesGcm``, which runs on the references
  only and frames the counters on its own;
* which keys build byte tables on controller traffic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Deployment
from repro.crypto.aes import AES
from repro.crypto.gcm import (
    BYTE_TABLE_BLOCKS,
    NONCE_SIZE,
    TAG_SIZE,
    AesGcm,
    _Ghash,
    _NibbleGhash,
    _ReferenceAesGcm,
)
from repro.crypto.rng import HmacDrbg
from repro.errors import InvalidKey, InvalidTag
from repro.sdn.northbound import FLOW_LIST_PATH

BLOCK_COUNTS = list(range(1, 41)) + [255, 256, 1024]


@pytest.mark.parametrize("key_size", [16, 24, 32])
def test_lane_keystream_equals_per_block(key_size):
    rng = HmacDrbg(seed=b"gcm-fast-keystream-%d" % key_size)
    key = rng.random_bytes(key_size)
    aead, reference = AesGcm(key), _ReferenceAesGcm(key)
    for n_blocks in BLOCK_COUNTS:
        nonce = rng.random_bytes(NONCE_SIZE)
        for start in (1, 2):
            assert (aead._keystream(nonce, n_blocks, start)
                    == reference._keystream_reference(nonce, n_blocks, start)
                    ), (n_blocks, start)


def test_encrypt_blocks_is_ecb_over_encrypt_block(rng):
    cipher = AES(rng.random_bytes(16))
    data = rng.random_bytes(16 * 37)
    expected = b"".join(cipher.encrypt_block(data[i:i + 16])
                        for i in range(0, len(data), 16))
    assert cipher.encrypt_blocks(data) == expected
    assert cipher.encrypt_blocks(b"") == b""
    with pytest.raises(InvalidKey):
        cipher.encrypt_blocks(bytes(17))


def test_nibble_ghash_equals_byte_tables():
    rng = HmacDrbg(seed=b"gcm-fast-ghash")
    subkeys = [bytes(16), b"\xff" * 16, b"\x80" + bytes(15), bytes(15) + b"\x01"]
    subkeys += [rng.random_bytes(16) for _ in range(4)]
    for h in subkeys:
        fast, reference = _NibbleGhash(h), _Ghash(h)
        for n_blocks in range(65):
            data = rng.random_bytes(16 * n_blocks)
            assert fast(data) == reference(data), (h.hex(), n_blocks)


@pytest.mark.parametrize("n_blocks", [BYTE_TABLE_BLOCKS - 1,
                                      BYTE_TABLE_BLOCKS,
                                      BYTE_TABLE_BLOCKS + 1])
def test_tier_threshold_matches_byte_tables(n_blocks):
    rng = HmacDrbg(seed=b"gcm-fast-tier-%d" % n_blocks)
    h = rng.random_bytes(16)
    fast, reference = _NibbleGhash(h), _Ghash(h)
    data = rng.random_bytes(16 * n_blocks)
    assert fast(data) == reference(data)
    assert (fast._byte_tables is not None) == (n_blocks >= BYTE_TABLE_BLOCKS)


def test_tiered_key_keeps_its_tables_across_inputs():
    rng = HmacDrbg(seed=b"gcm-fast-tier-sequence")
    h = rng.random_bytes(16)
    fast, reference = _NibbleGhash(h), _Ghash(h)
    seen = []
    for n_blocks in (3, 0, BYTE_TABLE_BLOCKS + 7, 1, 5, BYTE_TABLE_BLOCKS):
        data = rng.random_bytes(16 * n_blocks)
        assert fast(data) == reference(data), n_blocks
        seen.append(fast._byte_tables)
    # None until the first long input, which builds them once for good.
    assert seen[:2] == [None, None]
    assert seen[2] is not None
    assert all(tables is seen[2] for tables in seen[2:])


def test_byte_tables_equal_the_reference_tables():
    rng = HmacDrbg(seed=b"gcm-fast-byte-tables")
    subkeys = [bytes(16), b"\xff" * 16, b"\x80" + bytes(15)]
    subkeys += [rng.random_bytes(16) for _ in range(3)]
    for h in subkeys:
        fast = _NibbleGhash(h)
        fast(bytes(16 * BYTE_TABLE_BLOCKS))
        assert fast._byte_tables == _Ghash(h)._tables, h.hex()


# Block counts on both sides of the threshold, and far below it.
TIER_BLOCKS = st.one_of(
    st.integers(0, 8),
    st.integers(BYTE_TABLE_BLOCKS - 2, BYTE_TABLE_BLOCKS + 2),
)


@given(st.binary(min_size=16, max_size=16),
       st.lists(TIER_BLOCKS, min_size=1, max_size=5),
       st.binary(min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_tiered_ghash_matches_on_any_size_sequence(h, sizes, seed):
    rng = HmacDrbg(seed=b"gcm-fast-tier-property" + seed)
    fast, reference = _NibbleGhash(h), _Ghash(h)
    for n_blocks in sizes:
        data = rng.random_bytes(16 * n_blocks)
        assert fast(data) == reference(data)
    assert ((fast._byte_tables is not None)
            == (max(sizes) >= BYTE_TABLE_BLOCKS))


# Payloads of 0 to 4 blocks, full and partial: one to five counter
# blocks with the tag mask, the sizes of most handshake records.
SHORT_SIZES = [0, 11, 16, 27, 32, 43, 48, 59, 64]


@pytest.mark.parametrize("size", SHORT_SIZES)
@pytest.mark.parametrize("key_size", [16, 32])
def test_short_records_match_reference_and_reject_tampering(size, key_size):
    rng = HmacDrbg(seed=b"gcm-fast-short-%d-%d" % (size, key_size))
    key = rng.random_bytes(key_size)
    aead, reference = AesGcm(key), _ReferenceAesGcm(key)
    nonce = rng.random_bytes(NONCE_SIZE)
    plaintext = rng.random_bytes(size)
    aad = rng.random_bytes(13)
    sealed = aead.encrypt(nonce, plaintext, aad)
    assert sealed == reference.encrypt(nonce, plaintext, aad)
    assert aead.decrypt(nonce, sealed, aad) == plaintext
    assert reference.decrypt(nonce, sealed, aad) == plaintext
    for index in (0, len(sealed) - TAG_SIZE - 1, len(sealed) - 1):
        tampered = bytearray(sealed)
        tampered[index] ^= 0x80
        with pytest.raises(InvalidTag):
            aead.decrypt(nonce, bytes(tampered), aad)


def test_gcm_never_builds_the_decrypt_schedule(rng):
    aead = AesGcm(rng.random_bytes(16))
    nonce = rng.random_bytes(NONCE_SIZE)
    aead.decrypt(nonce, aead.encrypt(nonce, rng.random_bytes(100)))
    assert aead._aes._dec_round_keys is None


# A payload of BYTE_TABLE_BLOCKS blocks makes a GHASH input of two more
# (the AAD and the length block), so the first record tiers the key; the
# later ones hash on its byte tables.
TIERED_SIZES = [16 * BYTE_TABLE_BLOCKS, 0, 43, 16 * BYTE_TABLE_BLOCKS + 5]


@pytest.mark.parametrize("key_size", [16, 32])
def test_tiered_key_matches_reference_and_rejects_tampering(key_size):
    rng = HmacDrbg(seed=b"gcm-fast-tiered-aead-%d" % key_size)
    key = rng.random_bytes(key_size)
    aead, reference = AesGcm(key), _ReferenceAesGcm(key)
    aad = rng.random_bytes(13)
    for size in TIERED_SIZES:
        nonce = rng.random_bytes(NONCE_SIZE)
        plaintext = rng.random_bytes(size)
        sealed = aead.encrypt(nonce, plaintext, aad)
        assert sealed == reference.encrypt(nonce, plaintext, aad), size
        assert aead.decrypt(nonce, sealed, aad) == plaintext
        assert reference.decrypt(nonce, sealed, aad) == plaintext
        for index in {0, len(sealed) // 2, len(sealed) - TAG_SIZE - 1,
                      len(sealed) - 1}:
            tampered = bytearray(sealed)
            tampered[index] ^= 0x01
            for cipher in (aead, reference):
                with pytest.raises(InvalidTag):
                    cipher.decrypt(nonce, bytes(tampered), aad)
        assert aead._ghash._byte_tables is not None


def test_tier_census_on_controller_traffic(monkeypatch):
    """A resumed reconnect (revoke_churn's op) tiers none of its four
    AEADs; a long ``list_flows`` response (northbound's) tiers exactly
    the two that carry it: the controller's write key and the enclave's
    read key."""
    created, tiered = [], []
    init, build = AesGcm.__init__, _NibbleGhash._build_byte_tables

    def recorded_init(self, key):
        init(self, key)
        created.append(self)

    def recorded_build(self):
        tiered.append(self)
        return build(self)

    monkeypatch.setattr(AesGcm, "__init__", recorded_init)
    monkeypatch.setattr(_NibbleGhash, "_build_byte_tables", recorded_build)

    deployment = Deployment(seed=b"gcm-tier-census", vnf_count=1)
    handshakes = deployment.enable_telemetry().histogram(
        "vnf_sgx_tls_handshake_seconds")
    deployment.enroll("vnf-1")
    enclave = deployment.credential_enclaves["vnf-1"].enclave
    client = deployment.enclave_client("vnf-1")
    for i in range(64):
        client.push_flow(f"00:00:0{1 + i % 2}", f"census-{i}",
                         {"eth_src": f"02:00:00:00:00:{i:02x}",
                          "eth_dst": f"02:00:00:00:01:{i:02x}"},
                         f"output:{1 + i % 3}", 100 + i)
    assert tiered == []

    del created[:]
    resumed = handshakes.labels(role="client", resumed="true")
    resumed_before = resumed.count
    client.close()
    client.summary()
    assert resumed.count == resumed_before + 1
    assert len(created) == 4      # both ends' read and write keys
    assert tiered == []
    assert all(aead._ghash._byte_tables is None for aead in created)

    status, body = enclave.ecall("request", "GET", FLOW_LIST_PATH, b"")
    assert status == 200
    assert len(body) >= 16 * BYTE_TABLE_BLOCKS
    session_keys = {id(aead._ghash) for aead in created}
    assert len({id(ghash) for ghash in tiered}) == 2
    assert {id(ghash) for ghash in tiered} <= session_keys
    # The short requests and responses that follow stay on the same
    # keys: nothing else tiers.
    client.summary()
    assert len(tiered) == 2
