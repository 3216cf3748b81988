"""The TPM device: extend-only PCR banks and AIK-signed quotes."""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.keys import EcPrivateKey, EcPublicKey, generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import TpmError
from repro.ima.pcr import Pcr
from repro.tpm.quote import TpmQuote

NUM_PCRS = 24


class TpmDevice:
    """One TPM: 24 SHA-256 PCRs plus an attestation identity key.

    The AIK private key never leaves the device object; callers get the
    public half for verification and signed quotes on demand.  Crucially,
    there is no API to *set* a PCR — only :meth:`extend` — which is the
    entire security argument of experiment E7.
    """

    def __init__(self, rng: HmacDrbg) -> None:
        self._pcrs: List[Pcr] = [Pcr() for _ in range(NUM_PCRS)]
        self._aik: EcPrivateKey = generate_keypair(rng)
        self.quote_count = 0

    # ---------------------------------------------------------------- PCRs

    def extend(self, index: int, digest: bytes) -> bytes:
        """Extend PCR ``index``; returns its new value."""
        self._check_index(index)
        return self._pcrs[index].extend(digest)

    def read_pcr(self, index: int) -> bytes:
        """Read PCR ``index`` (unauthenticated, like ``pcrread``)."""
        self._check_index(index)
        return self._pcrs[index].read()

    def reboot(self) -> None:
        """Reset all PCRs (platform reboot)."""
        for pcr in self._pcrs:
            pcr.reset()

    def _check_index(self, index: int) -> None:
        if not 0 <= index < NUM_PCRS:
            raise TpmError(f"PCR index {index} out of range")

    # --------------------------------------------------------------- quotes

    @property
    def aik_public(self) -> EcPublicKey:
        """The attestation identity public key."""
        return self._aik.public

    def quote(self, pcr_selection: Sequence[int], nonce: bytes) -> TpmQuote:
        """Sign a snapshot of the selected PCRs bound to ``nonce``."""
        if not pcr_selection:
            raise TpmError("empty PCR selection")
        for index in pcr_selection:
            self._check_index(index)
        values = tuple(
            (index, self._pcrs[index].read())
            for index in sorted(set(pcr_selection))
        )
        unsigned = TpmQuote(pcr_values=values, nonce=nonce)
        self.quote_count += 1
        return TpmQuote(
            pcr_values=values,
            nonce=nonce,
            signature=self._aik.sign(unsigned.body_bytes()),
        )
