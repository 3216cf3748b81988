"""The container host: the machine under attestation.

Composes everything the paper's "Container Host" box in Figure 1 contains:
an OS image on a filesystem, IMA with an administrator policy, a container
runtime, an SGX platform for the enclaves, and (in the future-work
configuration) a TPM anchoring the measurement log.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.containers.container import Container
from repro.containers.registry import Registry
from repro.containers.runtime import ContainerRuntime
from repro.crypto.rng import HmacDrbg
from repro.ima.filesystem import SimulatedFilesystem
from repro.ima.measure import MeasurementAgent
from repro.ima.policy import ImaPolicy
from repro.net.clock import VirtualClock
from repro.sgx.ecall import CostModel
from repro.sgx.platform import SgxPlatform
from repro.tpm.tpm import TpmDevice

DEFAULT_OS_FILES = {
    "/boot/vmlinuz-4.4.0-51-generic": b"linux-kernel-4.4.0-51",
    "/usr/bin/dockerd": b"docker-engine-1.12.2",
    "/usr/bin/docker-containerd": b"containerd-0.2.4",
    "/usr/bin/runc": b"runc-1.0.0-rc2",
    "/usr/sbin/sshd": b"openssh-7.2p2",
    "/usr/lib/libc.so.6": b"glibc-2.23",
    "/usr/lib/libssl.so.1.0.0": b"openssl-1.0.2g",
    "/usr/bin/aesm_service": b"sgx-aesm-1.7",
}


class ContainerHost:
    """One attestable machine running containerized VNFs.

    Args:
        name: host name on the simulated network.
        clock: the deployment's virtual clock.
        rng: randomness source.
        policy: IMA policy (defaults to the library's host policy).
        with_tpm: enable the TPM-anchored IMA configuration (paper §4).
        cost_model: SGX transition cost parameters.
        os_files: initial filesystem content (defaults to an Ubuntu
            16.04 + Docker 1.12-flavoured file set, as in the prototype).
    """

    def __init__(self, name: str, clock: VirtualClock, rng: HmacDrbg,
                 policy: Optional[ImaPolicy] = None,
                 with_tpm: bool = False,
                 cost_model: Optional[CostModel] = None,
                 os_files: Optional[Dict[str, bytes]] = None) -> None:
        self.name = name
        self.clock = clock
        self._rng = rng
        self.filesystem = SimulatedFilesystem()
        self.tpm: Optional[TpmDevice] = TpmDevice(self._rng) if with_tpm else None
        self.ima = MeasurementAgent(
            self.filesystem,
            policy or ImaPolicy.default_host_policy(),
            tpm=self.tpm,
        )
        self.runtime = ContainerRuntime(
            self.filesystem, on_file_written=self.ima.on_file_accessed
        )
        self.platform = SgxPlatform(name, clock, rng, cost_model=cost_model)
        self._booted = False
        self._os_files = dict(DEFAULT_OS_FILES if os_files is None else os_files)

    # ----------------------------------------------------------------- boot

    def boot(self) -> None:
        """Install the OS files and run the boot-time measurement sweep."""
        if self._booted:
            return
        for path, content in sorted(self._os_files.items()):
            self.filesystem.write_file(path, content)
        self.ima.measure_all()
        self._booted = True

    @property
    def booted(self) -> bool:
        """True after :meth:`boot`."""
        return self._booted

    # ----------------------------------------------------------- containers

    def deploy(self, registry: Registry, reference: str,
               expected_digest: Optional[bytes] = None,
               labels: Optional[Dict[str, str]] = None) -> Container:
        """Pull, create and start a container (files get measured)."""
        image = registry.pull(reference, expected_digest)
        container = self.runtime.create(image, labels=labels)
        self.runtime.start(container)
        return container

    # ----------------------------------------------------- adversarial API

    def tamper_file(self, path: str, new_content: bytes,
                    re_measure: bool = True) -> None:
        """Root adversary: replace a file on disk.

        With ``re_measure`` (the realistic case: the file is executed after
        modification) the change lands in the IML as a new entry; without
        it the stale measurement hides the change until next access.
        """
        self.filesystem.write_file(path, new_content)
        if re_measure:
            self.ima.on_file_accessed(path)

    def tamper_iml(self, path: str, fake_hash: bytes,
                   make_consistent: bool = True) -> None:
        """Root adversary: rewrite the measurement log itself (paper §4).

        ``make_consistent`` recomputes the software aggregate so the list
        passes internal-consistency appraisal; only a TPM-anchored
        deployment detects this.
        """
        self.ima.iml.replace_entry(path, fake_hash)
        if make_consistent:
            self.ima.iml.rewrite()

    def hide_measurement(self, path: str) -> None:
        """Root adversary: scrub every IML entry for ``path`` and recompute
        the software aggregate so the log looks internally consistent.

        This is the canonical §4 attack: modify a file, let the kernel
        measure it (hardware PCR extends irreversibly if a TPM exists),
        then sanitize the in-memory log.  Without a TPM the sanitized log
        passes appraisal; with one, the quoted PCR exposes the rewrite.
        """
        self.ima.iml.remove_entry(path)
        self.ima.iml.rewrite()

    def __repr__(self) -> str:
        tpm = "tpm" if self.tpm is not None else "no-tpm"
        return (
            f"<ContainerHost {self.name} booted={self._booted} "
            f"iml={len(self.ima.iml)} {tpm}>"
        )
