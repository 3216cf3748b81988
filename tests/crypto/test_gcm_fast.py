"""AES-GCM fast paths pinned byte-for-byte to their reference oracles.

* the lane-sliced keystream (``AES.encrypt_blocks``) against one
  ``encrypt_block`` per counter;
* the 32 x 16 nibble-table GHASH against the 16 x 256 byte-table
  ``_Ghash``;
* the whole AEAD on short records against ``_ReferenceAesGcm``, which
  runs on the references only and frames the counters on its own.
"""

import pytest

from repro.crypto.aes import AES
from repro.crypto.gcm import (
    NONCE_SIZE,
    TAG_SIZE,
    AesGcm,
    _Ghash,
    _NibbleGhash,
    _ReferenceAesGcm,
)
from repro.crypto.rng import HmacDrbg
from repro.errors import InvalidKey, InvalidTag

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
