"""The key-manager service: tenancy + sharded sealed storage + audit.

:class:`KeyManagerService` is the KMS core that the REST endpoint
(:mod:`repro.kms.api`) fronts.  It wires together:

* a :class:`~repro.kms.tenancy.TenantRegistry` rooted in the
  deployment's :class:`~repro.pki.ca.CertificateAuthority` — tokens are
  derived from enrolled VNF credentials, so the CA remains the single
  trust anchor;
* a :class:`~repro.kms.store.ShardedSecretStore` over enclave-sealed
  shards, each with a CA-issued server identity parked in the
  :class:`~repro.pki.keystore.Keystore`;
* one :class:`~repro.core.events.AuditLog` per tenant — every operation,
  including denials, lands in the *target* namespace's trail, so a
  tenant can audit attempts against its data.

Determinism: the service draws all randomness from its own
``HmacDrbg(seed, personalization=b"repro.kms")`` stream and never
touches the deployment RNG, so attaching a KMS leaves the byte-identical
enrollment transcripts of E11/E12 untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.sanitizer import make_lock
from repro.core.events import AuditEvent, AuditLog
from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256 import sha256
from repro.errors import NamespaceError, TenantAuthError, TenantQuotaExceeded
from repro.kms.shard import SecretShard, shard_identity
from repro.kms.store import KmsCostModel, ShardedSecretStore
from repro.kms.tenancy import TenantQuota, TenantRegistry, valid_name
from repro.net.clock import VirtualClock
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import Certificate
from repro.pki.keystore import Keystore
from repro.pki.name import DistinguishedName


class KeyManagerService:
    """Multi-tenant secrets on top of the deployment's CA.

    Args:
        ca: the trust anchor (tenant authorization + shard identities).
        clock: the deployment's virtual clock.
        seed: DRBG seed for the KMS's own randomness stream.
        shard_count: enclave-sealed shards to create.
        cost_model: simulated operation costs (default
            :class:`~repro.kms.store.KmsCostModel`).
        keystore: where shard identities are parked (private by default).
    """

    def __init__(self, ca: CertificateAuthority, clock: VirtualClock,
                 seed: bytes = b"kms-service", shard_count: int = 4,
                 cost_model: Optional[KmsCostModel] = None,
                 keystore: Optional[Keystore] = None) -> None:
        self._ca = ca
        self._clock = clock
        self._rng = HmacDrbg(seed, personalization=b"repro.kms")
        self.keystore = keystore if keystore is not None else Keystore()
        self.registry = TenantRegistry(ca, clock.now, self._rng)
        # One audit trail per tenant; the dict itself is guarded by a
        # plain lock (trail creation only — AuditLog has its own lock).
        self._trails: Dict[str, AuditLog] = {}
        self._trails_lock = make_lock("kms_ns")

        mrsigner = sha256(b"kms-vendor")
        mrenclave = sha256(b"kms-shard-enclave")
        shards: List[SecretShard] = []
        for index in range(shard_count):
            label, identity = shard_identity(index, mrenclave, mrsigner)
            fuse_key = self._rng.random_bytes(16)
            shards.append(SecretShard(label, fuse_key, identity, self._rng))
            self._park_shard_identity(label)
        self.store_backend = ShardedSecretStore(
            shards, clock, cost_model or KmsCostModel())

    def _park_shard_identity(self, label: str) -> None:
        """Give one shard a CA-issued server identity in the keystore."""
        def factory():
            key = generate_keypair(self._rng)
            certificate = self._ca.issue_server_certificate(
                DistinguishedName(f"kms-{label}", "kms"),
                key.public.to_bytes(),
                now=int(self._clock.now()),
            )
            return key, certificate
        self.keystore.get_or_create(f"kms-{label}", factory)

    # ---------------------------------------------------------- telemetry
    #
    # Both mirrors emit into the clock's telemetry, read at each use:
    # per-tenant audit events into ``vnf_sgx_audit_events_total`` and,
    # after every mutation, shard occupancy into ``vnf_sgx_kms_secrets``.

    def _observe_audit(self, event: AuditEvent) -> None:
        self._clock.telemetry.observe_audit(event)

    def _sync_shard_gauge(self) -> None:
        gauge = self._clock.telemetry.kms_secrets
        for label, count in self.store_backend.secret_counts().items():
            gauge.labels(shard=label).set(count)

    # -------------------------------------------------------------- audit

    def _trail(self, tenant: str) -> AuditLog:
        with self._trails_lock:
            trail = self._trails.get(tenant)
            if trail is None:
                trail = AuditLog(now=self._clock.now)
                trail.observer = self._observe_audit
                self._trails[tenant] = trail
            return trail

    def audit_trail(self, tenant: str) -> List[AuditEvent]:
        """Every audited event in ``tenant``'s namespace (including
        denied attempts against it)."""
        return self._trail(tenant).events()

    def _audited(self, tenant: str, kind: str, subject: str,
                 details: str = "") -> None:
        self._trail(tenant).record(kind, subject, details)

    def _authenticate(self, tenant: str, token: Optional[str],
                      op: str, subject: str) -> None:
        """Rate-check and authenticate; denials audit to the target.

        An unknown namespace propagates unrecorded — there is no trail
        to record into, and auditing probes for nonexistent namespaces
        would let an attacker mint unbounded trails.
        """
        try:
            self.registry.authenticate(tenant, token)
            self.registry.check_rate(tenant)
        except TenantAuthError as exc:
            self._audited(tenant, "kms-denied", subject,
                          f"{op}: {type(exc).__name__}")
            raise
        except TenantQuotaExceeded as exc:
            self._audited(tenant, "kms-quota", subject,
                          f"{op}: {type(exc).__name__}")
            raise

    # ------------------------------------------------------------ tenancy

    def create_tenant(self, tenant: str,
                      quota: Optional[TenantQuota] = None) -> None:
        """Create a namespace (see :meth:`TenantRegistry.create_namespace`)."""
        self.registry.create_namespace(tenant, quota)
        self._audited(tenant, "kms-namespace-created", tenant,
                      f"max_secrets={self.registry.quota(tenant).max_secrets}")

    def authorize(self, tenant: str, certificate: Certificate) -> str:
        """Mint a tenant token from an enrolled credential (hex)."""
        token = self.registry.authorize(tenant, certificate)
        self._audited(tenant, "kms-authorized", tenant,
                      f"serial={certificate.serial}")
        return token

    def tenants(self) -> List[str]:
        """All namespace names."""
        return self.registry.tenants()

    def _reserve_audited(self, tenant: str, op: str, subject: str) -> None:
        try:
            self.registry.reserve_secret(tenant)
        except TenantQuotaExceeded as exc:
            self._audited(tenant, "kms-quota", subject,
                          f"{op}: {type(exc).__name__}")
            raise

    def _store_accounted(self, tenant: str, op: str, name: str,
                         value: bytes) -> bool:
        """Write ``value`` with exact count-quota accounting.

        A replacement does not consume a new slot, so the quota is only
        reserved when the key looks new.  The ``created`` flag returned
        by the shard (computed under its lock) reconciles both races:
        a concurrent create turns our reservation into a replacement
        (release it), a concurrent delete turns our replacement into a
        create (inherit the freed slot via ``note_created``).
        """
        replacing = self.store_backend.exists(tenant, name)
        if not replacing:
            self._reserve_audited(tenant, op, name)
        try:
            created = self.store_backend.store(tenant, name, value)
        except Exception:
            if not replacing:
                self.registry.release_secret(tenant)
            raise
        if created and replacing:
            self.registry.note_created(tenant)
        elif not created and not replacing:
            self.registry.release_secret(tenant)
        return created

    # ----------------------------------------------------------- secrets

    def store(self, tenant: str, token: Optional[str], name: str,
              value: bytes) -> None:
        """Store (or replace) secret ``name`` in ``tenant``'s namespace.

        Raises:
            NamespaceError: unknown namespace or invalid secret name.
            TenantAuthError: the token does not authorize ``tenant``.
            TenantQuotaExceeded: rate or count quota exhausted.
        """
        self._authenticate(tenant, token, "store", name)
        if not valid_name(name):
            raise NamespaceError(f"invalid secret name {name!r}")
        created = self._store_accounted(tenant, "store", name, value)
        self._audited(tenant, "kms-store", name,
                      "created" if created else "replaced")
        self._sync_shard_gauge()

    def fetch(self, tenant: str, token: Optional[str], name: str) -> bytes:
        """Fetch secret ``name`` from ``tenant``'s namespace."""
        self._authenticate(tenant, token, "fetch", name)
        value = self.store_backend.fetch(tenant, name)
        self._audited(tenant, "kms-fetch", name)
        return value

    def delete(self, tenant: str, token: Optional[str], name: str) -> None:
        """Delete secret ``name`` from ``tenant``'s namespace."""
        self._authenticate(tenant, token, "delete", name)
        self.store_backend.delete(tenant, name)
        self.registry.release_secret(tenant)
        self._audited(tenant, "kms-delete", name)
        self._sync_shard_gauge()

    def names(self, tenant: str, token: Optional[str]) -> List[str]:
        """List secret names in ``tenant``'s namespace."""
        self._authenticate(tenant, token, "list", "*")
        listed = self.store_backend.names(tenant)
        self._audited(tenant, "kms-list", "*", f"count={len(listed)}")
        return listed

    def generate(self, tenant: str, token: Optional[str], name: str,
                 length: int = 32) -> None:
        """Generate ``length`` deterministic random bytes and store them
        as secret ``name`` (the value never crosses the API)."""
        self._authenticate(tenant, token, "generate", name)
        if not valid_name(name):
            raise NamespaceError(f"invalid secret name {name!r}")
        value = self.registry.generate_secret(tenant, length)
        self._store_accounted(tenant, "generate", name, value)
        self._audited(tenant, "kms-generate", name, f"length={length}")
        self._sync_shard_gauge()

    # --------------------------------------------------------- accounting

    def quiesce(self) -> float:
        """Drain the shard pipelines (advance the clock past all
        outstanding enclave work); returns the new simulated ``now``."""
        return self.store_backend.quiesce()

    def shard_count(self) -> int:
        """Number of shards behind the store."""
        return len(self.store_backend.shards())
