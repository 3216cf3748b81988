"""The sharded secret store: consistent hashing over sealed shards.

The store owns N :class:`~repro.kms.shard.SecretShard` instances and a
:class:`~repro.kms.hashring.HashRing` that maps ``tenant/name`` keys to
shards.  Costs follow the shard-pipeline model: the front end charges
only its serialized per-request dispatch to the global
:class:`~repro.net.clock.VirtualClock`, while seal/unseal work occupies
the owning shard's private timeline (shards run on separate enclave
cores, so their work overlaps).  :meth:`ShardedSecretStore.quiesce`
drains the pipeline by advancing the clock to the latest shard
completion — with N shards the sealing work divides N ways, which is the
scaling experiment E13 measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import KmsError
from repro.kms.hashring import HashRing
from repro.kms.shard import SecretShard
from repro.net.clock import VirtualClock


@dataclass(frozen=True)
class KmsCostModel:
    """Simulated costs of KMS operations.

    ``dispatch_seconds`` is serialized front-end work (routing, auth,
    audit) charged to the global clock per request; the rest is enclave
    work charged to the owning shard's pipeline.
    """

    dispatch_seconds: float = 2e-6
    seal_seconds: float = 800e-6
    unseal_seconds: float = 600e-6
    delete_seconds: float = 50e-6


#: The costs every store charges (``ShardedSecretStore.cost_model``).
COST_MODEL = KmsCostModel()


class ShardedSecretStore:
    """Route ``tenant/name`` keys onto sealed shards.

    Args:
        shards: the shard set (ring membership == shard labels).
        clock: the deployment's virtual clock.
    """

    cost_model = COST_MODEL

    def __init__(self, shards: Sequence[SecretShard],
                 clock: VirtualClock) -> None:
        if not shards:
            raise KmsError("the store needs at least one shard")
        self._shards: Dict[str, SecretShard] = {s.label: s for s in shards}
        if len(self._shards) != len(shards):
            raise KmsError("shard labels must be unique")
        self._ring = HashRing(list(self._shards.keys()))
        self._clock = clock

    # ------------------------------------------------------------- routing

    @staticmethod
    def storage_key(tenant: str, name: str) -> str:
        """The ring key for one tenant secret."""
        return f"{tenant}/{name}"

    def shard_for(self, tenant: str, name: str) -> SecretShard:
        """The shard owning ``tenant``'s secret ``name``."""
        label = self._ring.shard_for(self.storage_key(tenant, name))
        return self._shards[label]

    def ring(self) -> HashRing:
        """The routing ring (read-only use)."""
        return self._ring

    def shards(self) -> List[SecretShard]:
        """The shard set, in label order."""
        return [self._shards[label] for label in sorted(self._shards)]

    # ---------------------------------------------------------- operations

    def _dispatch(self) -> float:
        self._clock.advance(self.cost_model.dispatch_seconds,
                            account="kms-dispatch")
        return self._clock.now()

    def store(self, tenant: str, name: str, value: bytes) -> bool:
        """Seal ``value`` into the owning shard; ``True`` if the key is
        new (replacements return ``False``)."""
        now = self._dispatch()
        shard = self.shard_for(tenant, name)
        return shard.store(self.storage_key(tenant, name), value, now,
                           self.cost_model.seal_seconds)

    def exists(self, tenant: str, name: str) -> bool:
        """True if ``tenant``'s secret ``name`` is stored (metadata
        probe: no unseal, no dispatch charge)."""
        shard = self.shard_for(tenant, name)
        return shard.has(self.storage_key(tenant, name))

    def fetch(self, tenant: str, name: str) -> bytes:
        """Unseal and return ``tenant``'s secret ``name``.

        Raises:
            SecretNotFound: nothing stored under that name.
        """
        now = self._dispatch()
        shard = self.shard_for(tenant, name)
        return shard.fetch(self.storage_key(tenant, name), now,
                           self.cost_model.unseal_seconds)

    def delete(self, tenant: str, name: str) -> None:
        """Remove ``tenant``'s secret ``name``.

        Raises:
            SecretNotFound: nothing stored under that name.
        """
        now = self._dispatch()
        shard = self.shard_for(tenant, name)
        shard.delete(self.storage_key(tenant, name), now,
                     self.cost_model.delete_seconds)

    def names(self, tenant: str) -> List[str]:
        """All secret names in ``tenant``'s namespace, sorted."""
        prefix = f"{tenant}/"
        found: List[str] = []
        for shard in self._shards.values():
            for key in shard.keys(prefix=prefix):
                found.append(key[len(prefix):])
        return sorted(found)

    # ---------------------------------------------------------- accounting

    def quiesce(self) -> float:
        """Advance the clock past every shard's pipeline (the simulated
        completion time of all outstanding enclave work) and return the
        new ``now``."""
        horizon = max(s.busy_until() for s in self._shards.values())
        now = self._clock.now()
        if horizon > now:
            self._clock.advance(horizon - now, account="kms-shards")
        return self._clock.now()

    def secret_counts(self) -> Dict[str, int]:
        """``{shard label: stored secrets}`` — the observed placement."""
        return {label: len(shard)
                for label, shard in sorted(self._shards.items())}
