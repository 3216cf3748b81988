"""The SGX-capable platform (one per container host).

Owns the hardware root secrets (sealing fuse key, report-key secret), the
transition cost accountant, the quoting enclave, and the registry of
launched enclaves.  The Verification Manager never touches these secrets;
it only sees quotes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto.rng import HmacDrbg
from repro.net.clock import VirtualClock
from repro.sgx.ecall import CostModel, TransitionAccountant
from repro.sgx.enclave import Enclave, EnclaveImage
from repro.sgx.epid import EpidMemberKey
from repro.sgx.quote import QuotingEnclave, qe_image
from repro.sgx.sigstruct import SigStruct


class SgxPlatform:
    """One SGX-capable CPU package and its architectural enclaves.

    Args:
        name: platform label (diagnostics and IAS registration).
        clock: virtual clock that transition costs are charged to.
        rng: randomness source (fuse keys, report keys, quote nonces).
        cost_model: the enclave-transition cost parameters.
    """

    def __init__(self, name: str, clock: VirtualClock, rng: HmacDrbg,
                 cost_model: Optional[CostModel] = None) -> None:
        self.name = name
        self.clock = clock
        self._rng = rng
        self.cost_model = cost_model or CostModel()
        self.accountant = TransitionAccountant(self.cost_model, clock,
                                               platform=name)
        # Hardware root secrets: unique per CPU package, never leave it.
        self._fuse_key = self._rng.random_bytes(32)
        self._report_secret = self._rng.random_bytes(32)
        self._enclaves: Dict[str, Enclave] = {}
        self._quoting_enclave: Optional[QuotingEnclave] = None
        self._enclave_counter = 0

    # ------------------------------------------------------------ enclaves

    def create_enclave(self, image: EnclaveImage,
                       sigstruct: SigStruct,
                       label: Optional[str] = None) -> Enclave:
        """ECREATE..EINIT: measure, verify SIGSTRUCT, and launch.

        Raises:
            repro.errors.LaunchError: bad SIGSTRUCT or measurement mismatch.
        """
        self._enclave_counter += 1
        label = label or f"{self.name}/{image.name}#{self._enclave_counter}"
        enclave = Enclave(
            label=label,
            image=image,
            sigstruct=sigstruct,
            accountant=self.accountant,
            report_secret=self._report_secret,
            fuse_key=self._fuse_key,
            rng=self._rng,
        )
        self._enclaves[label] = enclave
        return enclave

    def destroy_enclave(self, enclave: Enclave) -> None:
        """Tear an enclave down and remove it from the registry."""
        enclave.destroy()
        self._enclaves.pop(enclave.label, None)

    def enclaves(self) -> Dict[str, Enclave]:
        """Currently launched enclaves by label."""
        return dict(self._enclaves)

    # -------------------------------------------------------------- quoting

    @property
    def quoting_enclave(self) -> QuotingEnclave:
        """The platform's QE (launched lazily)."""
        if self._quoting_enclave is None:
            image, sigstruct = qe_image()
            enclave = self.create_enclave(image, sigstruct,
                                          label=f"{self.name}/qe")
            self._quoting_enclave = QuotingEnclave(enclave)
        return self._quoting_enclave

    def provision_epid(self, member_key: EpidMemberKey,
                       sealing_key: bytes) -> None:
        """Install the EPID member key into the QE (IAS registration)."""
        self.quoting_enclave.provision(member_key, sealing_key)

    @property
    def epid_provisioned(self) -> bool:
        """True once the QE holds an EPID member key."""
        if self._quoting_enclave is None:
            return False
        memory = self._quoting_enclave.enclave.memory
        # Host-visible metadata only: whether the slot is populated.
        return len(memory) > 0

    # ------------------------------------------------------------- plumbing

    @property
    def rng(self) -> HmacDrbg:
        """The platform's randomness source."""
        return self._rng

    def __repr__(self) -> str:
        return (
            f"<SgxPlatform {self.name} enclaves={len(self._enclaves)} "
            f"epid={'yes' if self.epid_provisioned else 'no'}>"
        )
