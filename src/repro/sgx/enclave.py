"""Enclave lifecycle, the ECALL boundary, and the in-enclave API.

An :class:`EnclaveImage` pairs the measured code bytes with a behavior
factory (the Python class standing in for the compiled enclave binary — by
default the class's own source *is* the measured image, so editing the code
changes MRENCLAVE, just like rebuilding a real enclave).  Launch verifies
the SIGSTRUCT and compares the computed measurement against it; after
initialization the image is immutable, matching the paper's note that
"after [measurement] the enclave becomes immutable".

All interaction goes through :meth:`Enclave.ecall`, which charges the
transition cost model and opens the enclave-memory gate for the duration of
the call.  Enclave code receives an :class:`EnclaveApi` granting access to
private memory, sealing, EREPORT, randomness, and OCALLs — and nothing
else.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.crypto.rng import HmacDrbg
from repro.errors import (
    EcallError,
    EnclaveLifecycleError,
    LaunchError,
)
from repro.sgx.ecall import TransitionAccountant
from repro.sgx.measurement import measure_image
from repro.sgx.memory import EnclaveMemory
from repro.sgx.report import Report, TargetInfo, create_report, verify_report
from repro.sgx.sealing import POLICY_MRENCLAVE, SealedBlob, seal, unseal
from repro.sgx.sigstruct import SigStruct


ATTRIBUTE_DEBUG = 0x02  # the SGX DEBUG attribute bit


@dataclass(frozen=True)
class EnclaveIdentity:
    """The identity tuple attestation and sealing key derivation use."""

    mrenclave: bytes
    mrsigner: bytes
    isv_prod_id: int
    isv_svn: int
    attributes: int = 0

    @property
    def debug(self) -> bool:
        """True for a debug-mode enclave (inspectable by the host —
        production relying parties must reject its quotes)."""
        return bool(self.attributes & ATTRIBUTE_DEBUG)


@dataclass(frozen=True)
class EnclaveImage:
    """A loadable enclave: measured code plus the behavior factory."""

    name: str
    version: str
    code: bytes
    behavior_factory: Callable[["EnclaveApi"], object]

    @classmethod
    def from_behavior_class(cls, behavior_class: type, name: str,
                            version: str = "1.0") -> "EnclaveImage":
        """Build an image whose measured bytes are the class's source code.

        Editing the behavior class (or tampering with the returned image's
        ``code``) changes MRENCLAVE — the property integrity verification
        rests on.  When source is unavailable (REPL-defined classes), the
        image falls back to a deterministic serialization of the class's
        compiled methods.  Either way the bytes are read once per class
        object and reused by every later image of it.
        """
        code = _MEASURED_CODE.get(behavior_class)
        if code is None:
            code = _measured_code(behavior_class)
            _MEASURED_CODE[behavior_class] = code
        return cls(name=name, version=version, code=code,
                   behavior_factory=behavior_class)

    def tampered(self, extra: bytes = b"\x90") -> "EnclaveImage":
        """A copy with modified code — same behavior, different measurement.

        Used by tests and the E2 benchmark to model a compromised image.
        """
        return EnclaveImage(
            name=self.name, version=self.version,
            code=self.code + extra,
            behavior_factory=self.behavior_factory,
        )


#: Each behavior class's measured code, filled on its first image.  The
#: loaded class is what runs and its code cannot change under it (an edit
#: on disk leaves it alone; a redefinition is a new key), so nothing
#: flushes this, and every launch still measures and checks the
#: SIGSTRUCT.  Weak keys never pin a class.  Threads racing on a class's
#: first image store equal bytes.
_MEASURED_CODE: "weakref.WeakKeyDictionary[type, bytes]" = (
    weakref.WeakKeyDictionary()
)


def _measured_code(behavior_class: type) -> bytes:
    """The class's source text, or a serialization of its compiled
    methods when the source cannot be found."""
    try:
        return inspect.getsource(behavior_class).encode("utf-8")
    except (OSError, TypeError):
        parts = [behavior_class.__qualname__.encode("utf-8")]
        for attr_name in sorted(vars(behavior_class)):
            attr = vars(behavior_class)[attr_name]
            func_code = getattr(attr, "__code__", None)
            if func_code is not None:
                parts.append(attr_name.encode("utf-8"))
                parts.append(func_code.co_code)
                parts.append(repr(func_code.co_consts).encode("utf-8"))
        return b"\x00".join(parts)


class EnclaveApi:
    """The surface enclave code can touch (the in-enclave SDK)."""

    def __init__(self, enclave: "Enclave", report_secret: bytes,
                 fuse_key: bytes, rng: HmacDrbg) -> None:
        self._enclave = enclave
        self._report_secret = report_secret
        self._fuse_key = fuse_key
        self.rng = rng

    @property
    def memory(self) -> EnclaveMemory:
        """The enclave's private memory."""
        return self._enclave.memory

    @property
    def identity(self) -> EnclaveIdentity:
        """The enclave's own identity."""
        return self._enclave.identity

    # ------------------------------------------------------------- sealing

    def seal(self, plaintext: bytes,
             policy: str = POLICY_MRENCLAVE) -> SealedBlob:
        """Seal data to this enclave's identity."""
        return seal(self._fuse_key, self.identity, plaintext, policy,
                    rng=self.rng)

    def unseal(self, blob: SealedBlob) -> bytes:
        """Unseal data previously sealed on this platform/identity."""
        return unseal(self._fuse_key, self.identity, blob)

    # ---------------------------------------------------------- attestation

    def create_report(self, target: TargetInfo, report_data: bytes) -> Report:
        """EREPORT: produce a local-attestation report for ``target``."""
        return create_report(self._report_secret, self.identity, target,
                             report_data)

    def verify_report(self, report: Report) -> None:
        """Verify a report targeted at *this* enclave.

        Raises:
            repro.errors.QuoteError: target mismatch or bad MAC.
        """
        from repro.errors import QuoteError

        if report.target.mrenclave != self.identity.mrenclave:
            raise QuoteError("report targeted at a different enclave")
        verify_report(self._report_secret, report)

    # --------------------------------------------------------------- ocalls

    def ocall(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Leave the enclave to run ``fn`` (untrusted), then re-enter.

        While the OCALL runs, enclave memory is inaccessible — untrusted
        code invoked this way cannot read secrets even though it executes
        within the same Python process.
        """
        payload = _estimate_payload(args)
        self._enclave.accountant.charge_ocall(payload)
        self._enclave.memory.exit()
        try:
            return fn(*args)
        finally:
            self._enclave.memory.enter()


class Enclave:
    """A launched enclave instance on one platform."""

    def __init__(self, label: str, image: EnclaveImage, sigstruct: SigStruct,
                 accountant: TransitionAccountant, report_secret: bytes,
                 fuse_key: bytes, rng: HmacDrbg) -> None:
        sigstruct.verify()
        mrenclave = measure_image(image.code, attributes=sigstruct.attributes)
        if mrenclave != sigstruct.enclave_hash:
            raise LaunchError(
                f"measurement mismatch for {label}: image measures "
                f"{mrenclave.hex()[:16]}..., SIGSTRUCT expects "
                f"{sigstruct.enclave_hash.hex()[:16]}..."
            )
        self.label = label
        self.image = image
        self.identity = EnclaveIdentity(
            mrenclave=mrenclave,
            mrsigner=sigstruct.mrsigner,
            isv_prod_id=sigstruct.isv_prod_id,
            isv_svn=sigstruct.isv_svn,
            attributes=sigstruct.attributes,
        )
        self.memory = EnclaveMemory(label)
        self.memory.attach_accountant(accountant)
        self.accountant = accountant
        self._api = EnclaveApi(self, report_secret, fuse_key, rng)
        self._state = "initialized"
        # The behavior object is constructed inside the enclave so its
        # constructor may populate private memory.
        self.memory.enter()
        try:
            self._behavior = image.behavior_factory(self._api)
        finally:
            self.memory.exit()
        self._entrypoints = frozenset(getattr(self._behavior, "ECALLS", ()))

    # ------------------------------------------------------------- queries

    @property
    def mrenclave(self) -> bytes:
        """The enclave's measurement."""
        return self.identity.mrenclave

    def target_info(self) -> TargetInfo:
        """TargetInfo other enclaves use to aim reports at this one."""
        return TargetInfo(self.identity.mrenclave)

    @property
    def entrypoints(self) -> frozenset:
        """The declared ECALL names."""
        return self._entrypoints

    # --------------------------------------------------------------- ecall

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke an enclave entry point across the boundary."""
        if self._state != "initialized":
            raise EnclaveLifecycleError(
                f"ecall on {self.label} in state {self._state}"
            )
        if name not in self._entrypoints:
            raise EcallError(
                f"{self.label} has no ECALL {name!r} "
                f"(declared: {sorted(self._entrypoints)})"
            )
        payload = _estimate_payload(args) + _estimate_payload(
            tuple(kwargs.values())
        )
        self.accountant.charge_ecall(payload)
        self.memory.enter()
        try:
            return getattr(self._behavior, name)(*args, **kwargs)
        finally:
            self.memory.exit()

    # ------------------------------------------------------------- teardown

    def destroy(self) -> None:
        """EREMOVE: wipe private memory and refuse further ECALLs."""
        self.memory.wipe()
        self._state = "destroyed"

    @property
    def destroyed(self) -> bool:
        """True once the enclave has been torn down."""
        return self._state == "destroyed"

    def __repr__(self) -> str:
        return (
            f"<Enclave {self.label} mrenclave={self.mrenclave.hex()[:12]} "
            f"state={self._state}>"
        )


def _estimate_payload(args: tuple) -> int:
    """Rough byte count crossing the boundary, for the cost model."""
    total = 0
    for arg in args:
        if isinstance(arg, (bytes, bytearray, memoryview)):
            total += len(arg)
        elif isinstance(arg, str):
            total += len(arg)
        else:
            total += 64  # envelope for scalars/objects
    return total
