"""A Floodlight-style keystore.

Floodlight's trusted-HTTPS mode validates client certificates by looking
them up in its keystore, one entry per client.  The paper points out that
this forces the keystore to be updated every time the Verification Manager
mints a new credential — the operational cost that motivates the trusted-CA
design.  Both models are implemented so experiment E3 can compare them.

The store is thread-safe: the KMS shards (``repro.kms.service``) create
their per-shard identity entries through :meth:`Keystore.get_or_create`
from whatever thread first needs them, and the fleet scheduler updates
trusted entries from its worker pool.  The internal lock guards only the
dictionaries (a leaf in the documented order — see
``docs/CONCURRENCY.md``); ``get_or_create`` runs its factory *outside*
the lock and resolves races first-write-wins, so a factory is free to
call into the CA without inverting the lock order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.analysis.sanitizer import make_lock
from repro.crypto.keys import EcPrivateKey
from repro.errors import KeystoreError
from repro.pki.certificate import Certificate

#: A key-entry factory: builds ``(private key, certificate)`` on demand.
KeyEntryFactory = Callable[[], Tuple[EcPrivateKey, Certificate]]


class Keystore:
    """Alias-indexed store of certificates plus (optionally) a private key.

    Mirrors the Java keystore Floodlight uses: *trusted entries* are bare
    certificates (the per-client validation list); a *key entry* is a
    certificate with its private key (a server identity).
    """

    def __init__(self) -> None:
        self._trusted: Dict[str, Certificate] = {}
        self._key_entries: Dict[str, Tuple[EcPrivateKey, Certificate]] = {}
        self._lock = make_lock("keystore_entries")

    # ----------------------------------------------------- trusted entries

    def add_trusted(self, alias: str, certificate: Certificate) -> None:
        """Add/replace a trusted client certificate under ``alias``."""
        if not alias:
            raise KeystoreError("alias must be non-empty")
        with self._lock:
            self._trusted[alias] = certificate

    def remove_trusted(self, alias: str) -> None:
        """Remove a trusted entry.

        Raises:
            KeystoreError: no trusted entry under ``alias``.
        """
        with self._lock:
            if alias not in self._trusted:
                raise KeystoreError(f"no trusted entry {alias!r}")
            del self._trusted[alias]

    def contains_certificate(self, certificate: Certificate) -> bool:
        """True if an identical certificate is a trusted entry.

        This linear scan *is* the per-client validation model: cost grows
        with the number of enrolled clients.
        """
        fp = certificate.fingerprint()
        with self._lock:
            entries = list(self._trusted.values())
        return any(c.fingerprint() == fp for c in entries)

    def trusted_aliases(self) -> List[str]:
        """All trusted-entry aliases."""
        with self._lock:
            return list(self._trusted.keys())

    # --------------------------------------------------------- key entries

    @staticmethod
    def _check_pair(key: EcPrivateKey, certificate: Certificate) -> None:
        if certificate.public_key_bytes != key.public.to_bytes():
            raise KeystoreError("certificate does not match the private key")

    def set_key_entry(self, alias: str, key: EcPrivateKey,
                      certificate: Certificate) -> None:
        """Store a private key with its certificate (a server identity)."""
        self._check_pair(key, certificate)
        with self._lock:
            self._key_entries[alias] = (key, certificate)

    def get_key_entry(self, alias: str) -> Tuple[EcPrivateKey, Certificate]:
        """Fetch ``(key, certificate)`` for ``alias``.

        Raises:
            KeystoreError: no key entry under ``alias`` (the explicit
                missing-key error; there is no ``None`` return path).
        """
        with self._lock:
            try:
                return self._key_entries[alias]
            except KeyError as exc:
                raise KeystoreError(f"no key entry {alias!r}") from exc

    def get_or_create(self, alias: str, factory: KeyEntryFactory,
                      ) -> Tuple[EcPrivateKey, Certificate]:
        """Atomically fetch the key entry for ``alias``, building it with
        ``factory`` on first use.

        The factory runs *outside* the keystore lock (it typically calls
        into the CA to have the certificate issued, and holding a leaf
        lock across that call would invert the documented order).  When
        two threads race on the same absent alias both factories may run;
        the first insert wins and the loser's entry is discarded — every
        caller observes the same ``(key, certificate)`` pair afterwards.
        """
        if not alias:
            raise KeystoreError("alias must be non-empty")
        with self._lock:
            entry = self._key_entries.get(alias)
        if entry is not None:
            return entry
        key, certificate = factory()
        self._check_pair(key, certificate)
        with self._lock:
            winner = self._key_entries.setdefault(alias, (key, certificate))
        return winner

    # -------------------------------------------------------------- sizing

    def __len__(self) -> int:
        with self._lock:
            return len(self._trusted) + len(self._key_entries)
