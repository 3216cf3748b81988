"""AES-GCM: NIST GCM spec test cases and AEAD semantics."""

import pytest

from repro.crypto.gcm import AesGcm, NONCE_SIZE, TAG_SIZE
from repro.errors import CryptoError, InvalidTag

# NIST GCM revised spec, test case 3/4 material.
KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV = bytes.fromhex("cafebabefacedbaddecaf888")
PLAINTEXT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
# Test cases 15/16 repeat the 3/4 material with the key doubled (AES-256).
KEY256 = KEY + KEY
CT256 = bytes.fromhex(
    "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
)


def test_nist_case_1_empty_everything():
    aead = AesGcm(bytes(16))
    out = aead.encrypt(bytes(12), b"")
    assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a"


def test_nist_case_2_one_zero_block():
    out = AesGcm(bytes(16)).encrypt(bytes(12), bytes(16))
    assert out[:-TAG_SIZE].hex() == "0388dace60b6a392f328c2b971b2fe78"
    assert out[-TAG_SIZE:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"


def test_nist_case_3_no_aad():
    out = AesGcm(KEY).encrypt(IV, PLAINTEXT)
    assert out[:-TAG_SIZE].hex() == (
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
    )
    assert out[-TAG_SIZE:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"


def test_nist_case_4_with_aad():
    out = AesGcm(KEY).encrypt(IV, PLAINTEXT[:-4], AAD)
    assert out[-TAG_SIZE:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"


def test_nist_case_13_aes256_empty_everything():
    out = AesGcm(bytes(32)).encrypt(bytes(12), b"")
    assert out.hex() == "530f8afbc74536b9a963b4f1c4cb738b"


def test_nist_case_14_aes256_one_zero_block():
    out = AesGcm(bytes(32)).encrypt(bytes(12), bytes(16))
    assert out[:-TAG_SIZE].hex() == "cea7403d4d606b6e074ec5d3baf39d18"
    assert out[-TAG_SIZE:].hex() == "d0d1c8a799996bf0265b98b5d48ab919"


def test_nist_case_15_aes256_no_aad():
    out = AesGcm(KEY256).encrypt(IV, PLAINTEXT)
    assert out[:-TAG_SIZE] == CT256
    assert out[-TAG_SIZE:].hex() == "b094dac5d93471bdec1a502270e3cc6c"
    assert AesGcm(KEY256).decrypt(IV, out) == PLAINTEXT


def test_nist_case_16_aes256_with_aad():
    out = AesGcm(KEY256).encrypt(IV, PLAINTEXT[:-4], AAD)
    assert out[:-TAG_SIZE] == CT256[:-4]
    assert out[-TAG_SIZE:].hex() == "76fc6ece0f4e1768cddf8853bb2d551b"
    assert AesGcm(KEY256).decrypt(IV, out, AAD) == PLAINTEXT[:-4]


def test_roundtrip_various_lengths(rng):
    aead = AesGcm(rng.random_bytes(16))
    for length in (0, 1, 15, 16, 17, 64, 255, 1000):
        nonce = rng.random_bytes(NONCE_SIZE)
        plaintext = rng.random_bytes(length)
        aad = rng.random_bytes(length % 32)
        assert aead.decrypt(nonce, aead.encrypt(nonce, plaintext, aad),
                            aad) == plaintext


def test_tamper_detection(rng):
    aead = AesGcm(rng.random_bytes(16))
    nonce = rng.random_bytes(NONCE_SIZE)
    sealed = bytearray(aead.encrypt(nonce, b"secret payload", b"aad"))
    for index in (0, len(sealed) // 2, len(sealed) - 1):
        tampered = bytearray(sealed)
        tampered[index] ^= 0x01
        with pytest.raises(InvalidTag):
            aead.decrypt(nonce, bytes(tampered), b"aad")


def test_wrong_aad_rejected(rng):
    aead = AesGcm(rng.random_bytes(16))
    nonce = rng.random_bytes(NONCE_SIZE)
    sealed = aead.encrypt(nonce, b"payload", b"right")
    with pytest.raises(InvalidTag):
        aead.decrypt(nonce, sealed, b"wrong")


def test_wrong_nonce_rejected(rng):
    aead = AesGcm(rng.random_bytes(16))
    sealed = aead.encrypt(bytes(12), b"payload")
    with pytest.raises(InvalidTag):
        aead.decrypt(b"\x01" + bytes(11), sealed)


def test_wrong_key_rejected(rng):
    nonce = rng.random_bytes(NONCE_SIZE)
    sealed = AesGcm(rng.random_bytes(16)).encrypt(nonce, b"payload")
    with pytest.raises(InvalidTag):
        AesGcm(rng.random_bytes(16)).decrypt(nonce, sealed)


def test_bad_nonce_size_rejected():
    aead = AesGcm(bytes(16))
    with pytest.raises(CryptoError):
        aead.encrypt(bytes(11), b"x")
    with pytest.raises(CryptoError):
        aead.decrypt(bytes(13), bytes(16))


def test_short_ciphertext_rejected():
    aead = AesGcm(bytes(16))
    with pytest.raises(InvalidTag):
        aead.decrypt(bytes(12), b"short")


def test_aes256_gcm_roundtrip(rng):
    aead = AesGcm(rng.random_bytes(32))
    nonce = rng.random_bytes(NONCE_SIZE)
    assert aead.decrypt(nonce, aead.encrypt(nonce, b"msg")) == b"msg"
