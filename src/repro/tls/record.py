"""The TLS record layer.

Plaintext records before the ChangeCipherSpec, AES-GCM protected records
after, with TLS 1.2's nonce construction (4-byte fixed IV from the key
block, 8-byte explicit nonce carried in the record) and AAD
(``seq || type || version || length``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional

from repro.crypto.gcm import TAG_SIZE
from repro.errors import InvalidTag, RecordError
from repro.tls.alerts import BAD_RECORD_MAC
from repro.tls.ciphersuites import CipherSuite
from repro.tls.constants import (
    CONTENT_CHANGE_CIPHER_SPEC,
    EXPLICIT_NONCE_SIZE,
    MAX_RECORD_PAYLOAD,
    PROTOCOL_VERSION,
)

_HEADER = struct.Struct(">B2sH")


@dataclass
class Record:
    """One record: content type plus (decrypted) payload."""

    content_type: int
    payload: bytes


class _DirectionState:
    """Cipher state for one direction of the connection."""

    def __init__(self) -> None:
        self.aead = None
        self.fixed_iv = b""
        self.sequence = 0

    def activate(self, suite: CipherSuite, key: bytes, fixed_iv: bytes) -> None:
        self.aead = suite.create_aead(key)
        self.fixed_iv = fixed_iv
        self.sequence = 0


class RecordLayer:
    """Encodes outbound and decodes inbound records for one endpoint."""

    def __init__(self) -> None:
        self._send = _DirectionState()
        self._recv = _DirectionState()
        self._inbound = bytearray()

    # ------------------------------------------------------------ key setup

    def activate_send(self, suite: CipherSuite, key: bytes, fixed_iv: bytes) -> None:
        """Switch the outbound direction to encrypted records."""
        self._send.activate(suite, key, fixed_iv)

    def activate_recv(self, suite: CipherSuite, key: bytes, fixed_iv: bytes) -> None:
        """Switch the inbound direction to encrypted records."""
        self._recv.activate(suite, key, fixed_iv)

    # ------------------------------------------------------------- encoding

    def encode(self, content_type: int, payload: bytes) -> bytes:
        """Produce the wire bytes for one record (fragmenting is the caller's
        job; payload must fit one record)."""
        if len(payload) > MAX_RECORD_PAYLOAD:
            raise RecordError(f"payload of {len(payload)} exceeds record limit")
        state = self._send
        if state.aead is None:
            return _HEADER.pack(content_type, PROTOCOL_VERSION, len(payload)) + payload
        explicit = struct.pack(">Q", state.sequence)
        nonce = state.fixed_iv + explicit
        aad = (
            struct.pack(">Q", state.sequence)
            + bytes([content_type])
            + PROTOCOL_VERSION
            + struct.pack(">H", len(payload))
        )
        sealed = state.aead.encrypt(nonce, payload, aad)
        state.sequence += 1
        body = explicit + sealed
        return _HEADER.pack(content_type, PROTOCOL_VERSION, len(body)) + body

    def encode_fragments(self, content_type: int, payload: bytes) -> bytes:
        """Encode ``payload`` across as many records as needed."""
        out = []
        for i in range(0, max(len(payload), 1), MAX_RECORD_PAYLOAD):
            out.append(self.encode(content_type, payload[i:i + MAX_RECORD_PAYLOAD]))
        return b"".join(out)

    # ------------------------------------------------------------- decoding

    def feed(self, data: bytes) -> List[Record]:
        """Absorb wire bytes; return complete records (decrypted).

        Decoding stops after a ChangeCipherSpec record: the bytes that
        follow it are protected under keys the caller has not activated
        yet.  Call ``feed(b"")`` after ``activate_recv`` to continue with
        the buffered remainder.
        """
        self._inbound += data
        records: List[Record] = []
        while True:
            record = self._try_decode_one()
            if record is None:
                return records
            records.append(record)
            if record.content_type == CONTENT_CHANGE_CIPHER_SPEC:
                return records

    def _try_decode_one(self) -> Optional[Record]:
        if len(self._inbound) < _HEADER.size:
            return None
        content_type, version, length = _HEADER.unpack_from(bytes(self._inbound))
        if version != PROTOCOL_VERSION:
            raise RecordError(f"unsupported record version {version.hex()}")
        if length > MAX_RECORD_PAYLOAD + EXPLICIT_NONCE_SIZE + TAG_SIZE:
            raise RecordError(f"record length {length} exceeds limit")
        total = _HEADER.size + length
        if len(self._inbound) < total:
            return None
        body = bytes(self._inbound[_HEADER.size:total])
        del self._inbound[:total]

        state = self._recv
        if state.aead is None:
            return Record(content_type, body)

        if len(body) < EXPLICIT_NONCE_SIZE + TAG_SIZE:
            raise RecordError("encrypted record too short")
        explicit, sealed = body[:EXPLICIT_NONCE_SIZE], body[EXPLICIT_NONCE_SIZE:]
        nonce = state.fixed_iv + explicit
        plaintext_length = len(sealed) - TAG_SIZE
        aad = (
            struct.pack(">Q", state.sequence)
            + bytes([content_type])
            + PROTOCOL_VERSION
            + struct.pack(">H", plaintext_length)
        )
        try:
            plaintext = state.aead.decrypt(nonce, sealed, aad)
        except InvalidTag as exc:
            raise RecordError(
                f"record authentication failed (alert {BAD_RECORD_MAC})"
            ) from exc
        state.sequence += 1
        return Record(content_type, plaintext)
