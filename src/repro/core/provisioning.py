"""Credential provisioning: sealed delivery to an attested enclave.

Step 5 of Figure 1.  The delivery key is bound to attestation using the
standard SGX pattern: the credential enclave generates an ephemeral ECDH
key *inside* the enclave and binds its hash into the quote's report data;
the Verification Manager, having verified the quote, encrypts the bundle
to that key.  Only the attested enclave instance — not the host, not a
look-alike enclave — can decrypt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.crypto.ecdh import ecdh_shared_secret
from repro.crypto.gcm import AesGcm
from repro.crypto.hkdf import hkdf
from repro.crypto.keys import EcPublicKey, generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256 import sha256
from repro.errors import CryptoError, EncodingError, ProvisioningError
from repro.pki import der
from repro.pki.certificate import Certificate

_KDF_INFO = b"vnf-credential-provisioning-v1"


@dataclass(frozen=True)
class CredentialBundle:
    """Everything a VNF needs to authenticate to the controller."""

    private_key_bytes: bytes
    certificate_chain: Tuple[bytes, ...]   # encoded certificates, leaf first
    controller_anchors: Tuple[bytes, ...]  # encoded CA certs for server auth
    controller_address: str

    def to_bytes(self) -> bytes:
        """Serialized bundle (always transported encrypted)."""
        return der.encode([
            self.private_key_bytes,
            list(self.certificate_chain),
            list(self.controller_anchors),
            self.controller_address,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "CredentialBundle":
        """Parse a serialized bundle."""
        key, chain, anchors, address = der.decode(data)
        return cls(
            private_key_bytes=key,
            certificate_chain=tuple(chain),
            controller_anchors=tuple(anchors),
            controller_address=address,
        )

    def leaf_certificate(self) -> Certificate:
        """The client certificate."""
        if not self.certificate_chain:
            raise ProvisioningError("bundle has no certificates")
        return Certificate.from_bytes(self.certificate_chain[0])


@dataclass(frozen=True)
class ProvisioningMessage:
    """The encrypted bundle plus the VM's ephemeral public key."""

    vm_public: bytes   # SEC1 point
    nonce: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        """Serialized message."""
        return der.encode([self.vm_public, self.nonce, self.ciphertext])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProvisioningMessage":
        """Parse a serialized message.

        Raises:
            ProvisioningError: if ``data`` is not a DER list of three byte
                strings (the message crosses the untrusted host agent).
        """
        try:
            fields = der.decode(data)
        except EncodingError as exc:
            raise ProvisioningError("malformed provisioning message") from exc
        if not (isinstance(fields, list) and len(fields) == 3
                and all(isinstance(field, bytes) for field in fields)):
            raise ProvisioningError(
                "provisioning message must be a list of three byte strings"
            )
        return cls(*fields)


def binding_hash(enclave_public_bytes: bytes, vm_nonce: bytes) -> bytes:
    """The 64-byte report-data value binding a delivery key to a quote."""
    return sha256(b"bind" + enclave_public_bytes + vm_nonce) + sha256(
        b"bind2" + enclave_public_bytes + vm_nonce
    )


def _transport_key(shared_secret: bytes, vm_public: bytes,
                   enclave_public: bytes) -> bytes:
    return hkdf(shared_secret, salt=b"", info=_KDF_INFO + vm_public
                + enclave_public, length=16)


def encrypt_bundle(enclave_public_bytes: bytes, bundle: CredentialBundle,
                   rng: HmacDrbg) -> ProvisioningMessage:
    """VM side: encrypt ``bundle`` to the enclave's bound delivery key."""
    enclave_public = EcPublicKey.from_bytes(enclave_public_bytes)
    ephemeral = generate_keypair(rng)
    shared = ecdh_shared_secret(ephemeral.scalar, enclave_public.point)
    key = _transport_key(shared, ephemeral.public.to_bytes(),
                         enclave_public_bytes)
    nonce = rng.random_bytes(12)
    ciphertext = AesGcm(key).encrypt(nonce, bundle.to_bytes(), _KDF_INFO)
    return ProvisioningMessage(
        vm_public=ephemeral.public.to_bytes(),
        nonce=nonce,
        ciphertext=ciphertext,
    )


def decrypt_bundle(enclave_private_scalar: int, enclave_public_bytes: bytes,
                   message: ProvisioningMessage) -> CredentialBundle:
    """Enclave side: recover the bundle (runs inside the enclave).

    Raises:
        ProvisioningError: if the message does not decrypt — the wrong
            enclave key, or a message the host tampered with (ciphertext,
            nonce, or an invalid ``vm_public`` point).
    """
    try:
        vm_public = EcPublicKey.from_bytes(message.vm_public)
        shared = ecdh_shared_secret(enclave_private_scalar, vm_public.point)
        key = _transport_key(shared, message.vm_public, enclave_public_bytes)
        plaintext = AesGcm(key).decrypt(message.nonce, message.ciphertext,
                                        _KDF_INFO)
    except CryptoError as exc:  # InvalidTag, InvalidPoint, a mangled nonce
        raise ProvisioningError(
            "provisioning message does not decrypt: wrong enclave key or "
            "tampered message"
        ) from exc
    return CredentialBundle.from_bytes(plaintext)
