"""Session state, configuration, and key derivation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.sanitizer import make_rlock, shared_state
from repro.crypto.keys import EcPrivateKey
from repro.crypto.rng import HmacDrbg
from repro.errors import TlsError
from repro.pki.certificate import Certificate
from repro.pki.crl import CertificateRevocationList
from repro.pki.truststore import Truststore
from repro.tls.ciphersuites import CipherSuite
from repro.tls.constants import MASTER_SECRET_SIZE, VERIFY_DATA_SIZE
from repro.tls.prf import prf


@dataclass
class TlsSession:
    """A resumable session: the state the abbreviated handshake reuses."""

    session_id: bytes
    master_secret: bytes
    suite: CipherSuite
    peer_certificate: Optional[Certificate] = None


@shared_state("_sessions")
class SessionCache:
    """Bounded FIFO cache of resumable sessions, keyed by session id.

    Thread-safe: a server shared by concurrent fleet enrollments stores
    and resumes sessions from many worker threads, so the insert+evict
    pair and the predicate sweeps run under an internal lock (see
    ``docs/CONCURRENCY.md``).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise TlsError("session cache capacity must be positive")
        self._capacity = capacity
        self._sessions: Dict[bytes, TlsSession] = {}
        self._lock = make_rlock("cache")

    def store(self, session: TlsSession) -> None:
        """Insert a session, evicting the FIFO-oldest entry when full.

        Overwriting an already-cached session id never evicts: the
        overwrite does not grow the cache, so evicting an unrelated
        session would silently shrink the effective capacity.
        """
        with self._lock:
            if (session.session_id not in self._sessions
                    and len(self._sessions) >= self._capacity):
                oldest = next(iter(self._sessions))
                del self._sessions[oldest]
            self._sessions[session.session_id] = session

    def lookup(self, session_id: bytes) -> Optional[TlsSession]:
        """Find a resumable session, or ``None``."""
        if not session_id:
            return None
        with self._lock:
            return self._sessions.get(session_id)

    def invalidate(self, session_id: bytes) -> None:
        """Drop a session (e.g. after credential revocation)."""
        with self._lock:
            self._sessions.pop(session_id, None)

    def invalidate_where(self, predicate) -> int:
        """Drop every session matching ``predicate``; returns the count.

        Resumption skips certificate validation by design, so revoking a
        certificate must also evict the sessions it authenticated —
        otherwise a revoked client could resume forever.
        """
        with self._lock:
            doomed = [sid for sid, session in self._sessions.items()
                      if predicate(session)]
            for session_id in doomed:
                del self._sessions[session_id]
            return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)


ClientValidator = Callable[[Certificate], None]
ResumptionValidator = Callable[[TlsSession], bool]


@dataclass
class TlsConfig:
    """Everything an endpoint needs to run handshakes.

    Attributes:
        rng: randomness source (handshake randoms, ECDHE keys).
        certificate_chain: this endpoint's certificate chain, leaf first
            (empty for an unauthenticated client).
        private_key: the leaf certificate's private key.
        truststore: anchors used to validate the *peer's* chain.
        require_client_auth: server-side flag — the controller's
            "trusted HTTPS" mode.
        client_validator: server-side override for client-certificate
            validation.  ``None`` means chain validation against
            ``truststore`` (the paper's trusted-CA model); the Floodlight
            keystore model plugs in here for experiment E3, and the
            RA-TLS quote verifier for attested channels.
        resumption_validator: server-side gate consulted before an
            abbreviated handshake; returning ``False`` forces a full
            handshake (the RA-TLS verifier denies resumption for
            revoked attested identities).
        crl: optional revocation list consulted during peer validation.
        session_cache: resumption cache (server side, or shared).
        cipher_suites: client-side offer order (suite ids); ``None``
            offers every supported suite in default order.

    There is no time source here: both endpoints check certificate
    validity against the clock of the channel they handshake on.
    """

    rng: HmacDrbg
    certificate_chain: List[Certificate] = field(default_factory=list)
    private_key: Optional[EcPrivateKey] = None
    truststore: Optional[Truststore] = None
    require_client_auth: bool = False
    client_validator: Optional[ClientValidator] = None
    crl: Optional[CertificateRevocationList] = None
    session_cache: Optional[SessionCache] = None
    cipher_suites: Optional[List[int]] = None  # client offer order
    resumption_validator: Optional[ResumptionValidator] = None

    def validate(self, server_side: bool) -> None:
        """Fail fast on inconsistent configurations."""
        if server_side:
            if not self.certificate_chain or self.private_key is None:
                raise TlsError("server requires a certificate chain and key")
            if (self.require_client_auth and self.truststore is None
                    and self.client_validator is None):
                raise TlsError(
                    "client auth requires a truststore or a client_validator"
                )
        if self.certificate_chain and self.private_key is not None:
            leaf = self.certificate_chain[0]
            if leaf.public_key_bytes != self.private_key.public.to_bytes():
                raise TlsError("private key does not match leaf certificate")


# ----------------------------------------------------------- key derivation


@dataclass(frozen=True)
class KeyBlock:
    """Directional record-protection keys from the TLS 1.2 key expansion."""

    client_key: bytes
    server_key: bytes
    client_iv: bytes
    server_iv: bytes


def derive_master_secret(pre_master: bytes, client_random: bytes,
                         server_random: bytes) -> bytes:
    """``PRF(pre_master, "master secret", client_random + server_random)``."""
    return prf(pre_master, b"master secret", client_random + server_random,
               MASTER_SECRET_SIZE)


def derive_key_block(master_secret: bytes, client_random: bytes,
                     server_random: bytes, suite: CipherSuite) -> KeyBlock:
    """TLS 1.2 key expansion for an AEAD suite (no MAC keys)."""
    needed = 2 * suite.key_length + 2 * suite.fixed_iv_length
    material = prf(master_secret, b"key expansion",
                   server_random + client_random, needed)
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        chunk = material[offset:offset + n]
        offset += n
        return chunk

    return KeyBlock(
        client_key=take(suite.key_length),
        server_key=take(suite.key_length),
        client_iv=take(suite.fixed_iv_length),
        server_iv=take(suite.fixed_iv_length),
    )


def finished_verify_data(master_secret: bytes, transcript_hash: bytes,
                         from_client: bool) -> bytes:
    """The 12-byte Finished payload for one side."""
    label = b"client finished" if from_client else b"server finished"
    return prf(master_secret, label, transcript_hash, VERIFY_DATA_SIZE)
