"""One enclave-sealed KMS shard.

A shard is modelled as an enclave workload (this module sits inside the
analyzer's enclave boundary, like the credential enclave): it holds its
platform fuse key and seals every tenant secret with
:func:`repro.sgx.sealing.seal` before the bytes touch the host-visible
dictionary.  At rest a shard therefore stores only
:class:`~repro.sgx.sealing.SealedBlob` ciphertext; plaintext exists
exactly for the duration of a ``store``/``fetch`` call, inside the
shard.

Each shard also models its own compute timeline: shards run on separate
enclave cores, so their seal/unseal work overlaps.  An operation started
at simulated time ``now`` begins when the shard is free
(``max(now, busy_until)``) and occupies it for the operation's cost; the
front end charges only its serialized dispatch cost and later drains the
pipeline (``ShardedSecretStore.quiesce``) by advancing the clock to the
latest shard completion.  That is what the E13 shard-scaling gate
measures: N shards divide the sealing work N ways.

Concurrency: all mutation runs under the shard's non-reentrant lock — a
leaf in the documented order (``docs/CONCURRENCY.md``); shard code never
calls out to another locked component while holding it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.sanitizer import make_lock, shared_state
from repro.crypto.rng import HmacDrbg
from repro.errors import SecretNotFound
from repro.sgx.enclave import EnclaveIdentity
from repro.sgx.sealing import SealedBlob, seal, unseal


@shared_state("_blobs", "_busy_until")
class SecretShard:
    """Sealed storage for one slice of the KMS keyspace.

    Args:
        label: ring identifier (``"shard-0"``, ...).
        fuse_key: the shard platform's sealing fuse key.
        identity: the shard enclave's identity (seal-key derivation).
        rng: nonce/key-id source for sealing.
    """

    def __init__(self, label: str, fuse_key: bytes,
                 identity: EnclaveIdentity, rng: HmacDrbg) -> None:
        self.label = label
        self.identity = identity
        self._fuse_key = fuse_key
        self._rng = rng
        self._blobs: Dict[str, SealedBlob] = {}
        self._busy_until = 0.0
        self._lock = make_lock("kms_shard")

    # ----------------------------------------------------------- pipeline

    def _occupy(self, now: float, cost: float) -> float:
        """Reserve the shard core for ``cost`` seconds (lock held)."""
        start = now if now > self._busy_until else self._busy_until
        self._busy_until = start + cost
        return self._busy_until

    def busy_until(self) -> float:
        """Simulated time at which the shard's pipeline drains."""
        with self._lock:
            return self._busy_until

    # ------------------------------------------------------------ storage

    def store(self, key: str, tenant_secret: bytes, now: float,
              cost: float) -> bool:
        """Seal and store ``tenant_secret`` under ``key``.

        Returns ``True`` when the key is new (``False`` on replacement),
        so the caller can keep count-quota accounting exact.
        """
        with self._lock:
            blob = seal(self._fuse_key, self.identity, tenant_secret,
                        rng=self._rng)
            created = key not in self._blobs
            self._blobs[key] = blob
            self._occupy(now, cost)
            return created

    def fetch(self, key: str, now: float, cost: float) -> bytes:
        """Unseal and return the secret stored under ``key``.

        Raises:
            SecretNotFound: nothing stored under ``key``.
        """
        with self._lock:
            blob = self._blobs.get(key)
            if blob is None:
                raise SecretNotFound(f"no secret under {key!r}")
            tenant_secret = unseal(self._fuse_key, self.identity, blob)
            self._occupy(now, cost)
            return tenant_secret

    def delete(self, key: str, now: float, cost: float) -> None:
        """Remove the secret stored under ``key``.

        Raises:
            SecretNotFound: nothing stored under ``key``.
        """
        with self._lock:
            if key not in self._blobs:
                raise SecretNotFound(f"no secret under {key!r}")
            del self._blobs[key]
            self._occupy(now, cost)

    # ------------------------------------------------------------ queries

    def has(self, key: str) -> bool:
        """True if a secret is stored under ``key`` (metadata probe —
        no unseal, no pipeline time)."""
        with self._lock:
            return key in self._blobs

    def keys(self, prefix: Optional[str] = None) -> List[str]:
        """Stored keys, optionally filtered to a ``prefix``."""
        with self._lock:
            snapshot = list(self._blobs.keys())
        if prefix is None:
            return snapshot
        return [k for k in snapshot if k.startswith(prefix)]

    def sealed_blob(self, key: str) -> SealedBlob:
        """The at-rest form of one entry (tests assert it is ciphertext).

        Raises:
            SecretNotFound: nothing stored under ``key``.
        """
        with self._lock:
            blob = self._blobs.get(key)
        if blob is None:
            raise SecretNotFound(f"no secret under {key!r}")
        return blob

    def __len__(self) -> int:
        with self._lock:
            return len(self._blobs)

    def __repr__(self) -> str:
        return f"<SecretShard {self.label} secrets={len(self)}>"


def shard_identity(index: int, mrenclave: bytes, mrsigner: bytes,
                   isv_svn: int = 1) -> Tuple[str, EnclaveIdentity]:
    """Label + enclave identity for shard ``index`` (one product line,
    one measurement per shard instance)."""
    return f"shard-{index}", EnclaveIdentity(
        mrenclave=mrenclave, mrsigner=mrsigner,
        isv_prod_id=300 + index, isv_svn=isv_svn,
    )
