"""The encrypted credential-delivery protocol."""

import dataclasses

import pytest

from repro.core.provisioning import (
    CredentialBundle,
    ProvisioningMessage,
    binding_hash,
    decrypt_bundle,
    encrypt_bundle,
)
from repro.crypto.keys import generate_keypair
from repro.errors import ProvisioningError
from repro.pki import der


@pytest.fixture
def bundle(pki):
    return CredentialBundle(
        private_key_bytes=pki.client_key.to_bytes(),
        certificate_chain=(pki.client_cert.to_bytes(),),
        controller_anchors=(pki.ca.certificate.to_bytes(),),
        controller_address="controller:9443",
    )


def test_bundle_roundtrip(bundle):
    restored = CredentialBundle.from_bytes(bundle.to_bytes())
    assert restored == bundle
    assert restored.leaf_certificate().subject.common_name == "client"


def test_empty_bundle_has_no_leaf():
    empty = CredentialBundle(b"", (), (), "x:1")
    with pytest.raises(ProvisioningError):
        empty.leaf_certificate()


def test_encrypt_decrypt(bundle, rng):
    enclave_key = generate_keypair(rng)
    message = encrypt_bundle(enclave_key.public.to_bytes(), bundle, rng)
    recovered = decrypt_bundle(enclave_key.scalar,
                               enclave_key.public.to_bytes(), message)
    assert recovered == bundle


def test_message_serialization(bundle, rng):
    enclave_key = generate_keypair(rng)
    message = encrypt_bundle(enclave_key.public.to_bytes(), bundle, rng)
    restored = ProvisioningMessage.from_bytes(message.to_bytes())
    assert decrypt_bundle(enclave_key.scalar,
                          enclave_key.public.to_bytes(), restored) == bundle


def test_wrong_enclave_key_cannot_decrypt(bundle, rng):
    right = generate_keypair(rng)
    wrong = generate_keypair(rng)
    message = encrypt_bundle(right.public.to_bytes(), bundle, rng)
    with pytest.raises(ProvisioningError):
        decrypt_bundle(wrong.scalar, wrong.public.to_bytes(), message)


def test_tampered_message_rejected(bundle, rng):
    key = generate_keypair(rng)
    message = encrypt_bundle(key.public.to_bytes(), bundle, rng)
    tampered = dataclasses.replace(
        message, ciphertext=message.ciphertext[:-1] + b"\x00"
    )
    with pytest.raises(ProvisioningError):
        decrypt_bundle(key.scalar, key.public.to_bytes(), tampered)


def _flip_last_byte(data):
    return data[:-1] + bytes([data[-1] ^ 1])


# Fields the untrusted host agent can rewrite in transit.
HOST_TAMPERING = {
    "short-nonce": lambda m: dataclasses.replace(m, nonce=m.nonce[:11]),
    "off-curve-vm-public": lambda m: dataclasses.replace(
        m, vm_public=_flip_last_byte(m.vm_public)),
    "truncated-vm-public": lambda m: dataclasses.replace(
        m, vm_public=m.vm_public[:-1]),
}


@pytest.mark.parametrize("tamper", sorted(HOST_TAMPERING))
def test_host_tampered_fields_raise_provisioning_error(bundle, rng, tamper):
    key = generate_keypair(rng)
    message = encrypt_bundle(key.public.to_bytes(), bundle, rng)
    with pytest.raises(ProvisioningError):
        decrypt_bundle(key.scalar, key.public.to_bytes(),
                       HOST_TAMPERING[tamper](message))


def test_malformed_message_bytes_raise_provisioning_error(bundle, rng):
    key = generate_keypair(rng)
    message = encrypt_bundle(key.public.to_bytes(), bundle, rng)
    for data in (
        der.encode([message.vm_public, message.nonce]),
        der.encode([message.vm_public, message.nonce, message.ciphertext,
                    b""]),
        der.encode([message.vm_public, message.nonce, "not bytes"]),
        der.encode(message.ciphertext),
        b"junk",
    ):
        with pytest.raises(ProvisioningError):
            ProvisioningMessage.from_bytes(data)


def test_bundle_confidential_on_the_wire(bundle, rng):
    key = generate_keypair(rng)
    message = encrypt_bundle(key.public.to_bytes(), bundle, rng)
    assert bundle.private_key_bytes not in message.to_bytes()


def test_binding_hash_properties(rng):
    key = generate_keypair(rng)
    pub = key.public.to_bytes()
    assert len(binding_hash(pub, b"nonce")) == 64
    assert binding_hash(pub, b"nonce") == binding_hash(pub, b"nonce")
    assert binding_hash(pub, b"nonce") != binding_hash(pub, b"other")
    other = generate_keypair(rng).public.to_bytes()
    assert binding_hash(pub, b"nonce") != binding_hash(other, b"nonce")
