"""Sealing: policies, cross-identity/platform failure, SVN anti-rollback."""

import dataclasses

import pytest

from repro.errors import SealingError
from repro.sgx.enclave import EnclaveIdentity
from repro.sgx.sealing import (
    POLICY_MRENCLAVE,
    POLICY_MRSIGNER,
    SealedBlob,
    seal,
    unseal,
)

FUSE_A = b"a" * 32
FUSE_B = b"b" * 32


def identity(mrenclave=b"\x11" * 32, mrsigner=b"\x22" * 32, prod=1, svn=2):
    return EnclaveIdentity(mrenclave, mrsigner, prod, svn)


def test_roundtrip_both_policies(rng):
    for policy in (POLICY_MRENCLAVE, POLICY_MRSIGNER):
        blob = seal(FUSE_A, identity(), b"secret", policy, rng=rng)
        assert unseal(FUSE_A, identity(), blob) == b"secret"


def test_serialization_roundtrip(rng):
    blob = seal(FUSE_A, identity(), b"secret", rng=rng)
    restored = SealedBlob.from_bytes(blob.to_bytes())
    assert unseal(FUSE_A, identity(), restored) == b"secret"


def test_wrong_platform_fails(rng):
    blob = seal(FUSE_A, identity(), b"secret", rng=rng)
    with pytest.raises(SealingError):
        unseal(FUSE_B, identity(), blob)


def test_mrenclave_policy_binds_measurement(rng):
    blob = seal(FUSE_A, identity(), b"secret", POLICY_MRENCLAVE, rng=rng)
    other = identity(mrenclave=b"\x99" * 32)
    with pytest.raises(SealingError):
        unseal(FUSE_A, other, blob)


def test_mrsigner_policy_survives_code_update(rng):
    blob = seal(FUSE_A, identity(), b"secret", POLICY_MRSIGNER, rng=rng)
    updated_code = identity(mrenclave=b"\x99" * 32)  # same signer/product
    assert unseal(FUSE_A, updated_code, blob) == b"secret"


def test_mrsigner_policy_binds_signer_and_product(rng):
    blob = seal(FUSE_A, identity(), b"secret", POLICY_MRSIGNER, rng=rng)
    with pytest.raises(SealingError):
        unseal(FUSE_A, identity(mrsigner=b"\x33" * 32), blob)
    with pytest.raises(SealingError):
        unseal(FUSE_A, identity(prod=2), blob)


def test_svn_anti_rollback(rng):
    blob = seal(FUSE_A, identity(svn=5), b"secret", rng=rng)
    # Newer enclave can unseal older blob.
    assert unseal(FUSE_A, identity(svn=6), blob) == b"secret"
    # Downgraded enclave cannot.
    with pytest.raises(SealingError):
        unseal(FUSE_A, identity(svn=4), blob)


def test_tampered_blob_fails(rng):
    blob = seal(FUSE_A, identity(), b"secret", rng=rng)
    import dataclasses

    tampered = dataclasses.replace(
        blob, ciphertext=blob.ciphertext[:-1] + b"\x00"
    )
    with pytest.raises(SealingError):
        unseal(FUSE_A, identity(), tampered)


def test_tampered_nonce_length_raises_sealing_error(rng):
    # Blobs live in untrusted host storage: a nonce cut or padded to the
    # wrong length is tampering, reported like any other.
    blob = seal(FUSE_A, identity(), b"secret", rng=rng)
    for nonce in (blob.nonce[:11], blob.nonce + b"\x00", b""):
        with pytest.raises(SealingError):
            unseal(FUSE_A, identity(), dataclasses.replace(blob, nonce=nonce))


def test_unknown_policy_rejected(rng):
    with pytest.raises(SealingError):
        seal(FUSE_A, identity(), b"s", "mystery", rng=rng)
    blob = seal(FUSE_A, identity(), b"s", rng=rng)
    import dataclasses

    with pytest.raises(SealingError):
        SealedBlob.from_bytes(
            dataclasses.replace(blob, policy="mystery").to_bytes()
        )


def test_fresh_key_ids_give_distinct_blobs(rng):
    a = seal(FUSE_A, identity(), b"same", rng=rng)
    b = seal(FUSE_A, identity(), b"same", rng=rng)
    assert a.ciphertext != b.ciphertext
    assert a.key_id != b.key_id
