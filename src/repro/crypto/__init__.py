"""From-scratch cryptographic primitives used by every protocol in the library.

The subpackage provides:

- :mod:`repro.crypto.sha256` — SHA-256 (pure-Python implementation, with an
  optional ``hashlib`` fast path selected by default).
- :mod:`repro.crypto.hmac` — HMAC-SHA256.
- :mod:`repro.crypto.hkdf` — HKDF extract/expand (RFC 5869).
- :mod:`repro.crypto.aes` — the AES block cipher (128/192/256-bit keys).
- :mod:`repro.crypto.gcm` — AES-GCM AEAD (NIST SP 800-38D).
- :mod:`repro.crypto.ec` — NIST P-256 group arithmetic.
- :mod:`repro.crypto.ecdsa` — ECDSA with RFC 6979 deterministic nonces.
- :mod:`repro.crypto.ecdh` — ECDH shared-secret derivation.
- :mod:`repro.crypto.rng` — HMAC-DRBG (NIST SP 800-90A), seedable for
  deterministic simulation runs.
- :mod:`repro.crypto.keys` — key-pair objects with serialization.

Nothing here shells out to OpenSSL; ``hashlib`` is used only as an optional
accelerator for the SHA-256 compression function, and the pure implementation
is pinned to the same FIPS 180-4 vectors in the test suite.
"""

from repro.crypto.sha256 import sha256, SHA256
from repro.crypto.hmac import hmac_sha256, HmacSha256
from repro.crypto.hkdf import hkdf, hkdf_extract, hkdf_expand
from repro.crypto.aes import AES
from repro.crypto.gcm import AesGcm
from repro.crypto.ec import EcEngineStats, P256
from repro.crypto.ecdsa import ecdsa_sign, ecdsa_verify, ecdsa_verify_reference
from repro.crypto.ecdh import ecdh_shared_secret
from repro.crypto.rng import HmacDrbg
from repro.crypto.keys import EcPrivateKey, EcPublicKey, generate_keypair

__all__ = [
    "sha256",
    "SHA256",
    "hmac_sha256",
    "HmacSha256",
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "AES",
    "AesGcm",
    "P256",
    "EcEngineStats",
    "ecdsa_sign",
    "ecdsa_verify",
    "ecdsa_verify_reference",
    "ecdh_shared_secret",
    "HmacDrbg",
    "EcPrivateKey",
    "EcPublicKey",
    "generate_keypair",
]
