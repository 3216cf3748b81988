"""AES: FIPS 197 known-answer tests, S-box and key schedule sanity."""

import pytest

from repro.crypto.aes import AES, SBOX
from repro.errors import InvalidKey

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

FIPS_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


@pytest.mark.parametrize("key_hex,expected_hex", FIPS_VECTORS)
def test_fips197_encrypt(key_hex, expected_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(FIPS_PLAINTEXT).hex() == expected_hex


def test_sbox_derivation_properties():
    # The derived S-box must be a permutation (so invertible, with no
    # inverse table needed to show it) with the known fixed points.
    assert sorted(SBOX) == list(range(256))
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED


def test_rounds_by_key_size():
    assert AES(bytes(16)).rounds == 10
    assert AES(bytes(24)).rounds == 12
    assert AES(bytes(32)).rounds == 14


def test_invalid_key_sizes_rejected():
    for size in (0, 8, 15, 17, 33, 64):
        with pytest.raises(InvalidKey):
            AES(bytes(size))


def test_invalid_block_sizes_rejected():
    cipher = AES(bytes(16))
    for size in (0, 15, 17, 32):
        with pytest.raises(InvalidKey):
            cipher.encrypt_block(bytes(size))


def test_single_bit_key_change_diffuses(rng):
    key = rng.random_bytes(16)
    flipped = bytes([key[0] ^ 1]) + key[1:]
    block = bytes(16)
    a = AES(key).encrypt_block(block)
    b = AES(flipped).encrypt_block(block)
    differing_bits = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert differing_bits > 30  # avalanche: ~64 expected
