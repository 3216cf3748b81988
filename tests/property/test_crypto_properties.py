"""Property-based tests over the crypto primitives."""

import hashlib
import hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.gcm import AesGcm
from repro.crypto.hkdf import hkdf
from repro.crypto.hmac import hmac_sha256
from repro.crypto.sha256 import sha256

KEY16 = st.binary(min_size=16, max_size=16)
NONCE = st.binary(min_size=12, max_size=12)


@given(st.binary(max_size=512))
@settings(max_examples=50, deadline=None)
def test_pure_sha256_agrees_with_hashlib(data):
    assert sha256(data, backend="pure") == sha256(data, backend="hashlib")


@given(st.binary(max_size=200), st.binary(max_size=300))
@settings(max_examples=60, deadline=None)
def test_hmac_sha256_agrees_with_stdlib(key, data):
    assert hmac_sha256(key, data) == hmac.new(key, data, hashlib.sha256).digest()


@given(KEY16, st.binary(min_size=16, max_size=16))
@settings(max_examples=50, deadline=None)
def test_aes_roundtrip(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(KEY16, NONCE, st.binary(max_size=256), st.binary(max_size=64))
@settings(max_examples=40, deadline=None)
def test_gcm_roundtrip(key, nonce, plaintext, aad):
    aead = AesGcm(key)
    assert aead.decrypt(nonce, aead.encrypt(nonce, plaintext, aad),
                        aad) == plaintext


@given(KEY16, NONCE, st.binary(min_size=1, max_size=128),
       st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_gcm_any_bitflip_detected(key, nonce, plaintext, position):
    import pytest

    from repro.errors import InvalidTag

    aead = AesGcm(key)
    sealed = bytearray(aead.encrypt(nonce, plaintext))
    sealed[position % len(sealed)] ^= 1 + (position // len(sealed)) % 255
    with pytest.raises(InvalidTag):
        aead.decrypt(nonce, bytes(sealed))


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=64),
       st.binary(max_size=32), st.integers(min_value=1, max_value=255))
@settings(max_examples=40, deadline=None)
def test_hkdf_prefix_property(ikm, salt, info, length):
    # HKDF output for length n is a prefix of the output for length n+k.
    short = hkdf(ikm, salt, info, length)
    longer = hkdf(ikm, salt, info, min(255 * 32, length + 17))
    assert longer.startswith(short)


@given(st.binary(max_size=64), st.binary(max_size=128),
       st.binary(max_size=128))
@settings(max_examples=40, deadline=None)
def test_hmac_collision_resistance_smoke(key, m1, m2):
    if m1 != m2:
        assert hmac_sha256(key, m1) != hmac_sha256(key, m2)


@given(st.binary(min_size=1, max_size=48))
@settings(max_examples=20, deadline=None)
def test_ecdsa_sign_verify_property(message):
    from repro.crypto.ecdsa import ecdsa_sign, ecdsa_verify
    from repro.crypto.keys import from_scalar

    key = from_scalar(0xDEADBEEF12345678)
    signature = ecdsa_sign(key.scalar, message)
    ecdsa_verify(key.public.point, message, signature)
