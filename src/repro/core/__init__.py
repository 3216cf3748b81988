"""The paper's contribution: SGX-protected VNF credentials in SDN.

Components, mapping one-to-one onto Figure 1 of the paper:

- :mod:`repro.core.verification_manager` — the Verification Manager:
  attests container hosts (step 1) and VNF enclaves (step 3) with IAS
  verification (steps 2 and 4), appraises IMA measurement lists, acts as
  the deployment CA, and provisions credentials into enclaves (step 5).
- :mod:`repro.core.attestation_enclave` — the host-side Integrity
  Attestation Enclave that ships the IML inside a quote.
- :mod:`repro.core.credential_enclave` — the VNF-side TEE holding
  credentials and terminating TLS to the controller (step 6).
- :mod:`repro.core.provisioning` — the sealed-to-attested-key credential
  delivery protocol.
- :mod:`repro.core.appraisal` — expected-value appraisal of the IML,
  optionally TPM-rooted.
- :mod:`repro.core.enrollment` — the use-case-2 state machine.
- :mod:`repro.core.fleet` — what a concurrent fleet run shares across
  its workers (single-flight host attestation, pooled IAS connection).
- :mod:`repro.core.revocation` — credential/platform revocation.
- :mod:`repro.core.workflow` — the executable Figure 1 deployment and
  its one enrollment driver (serial loop and fleet alike).
- :mod:`repro.core.events` — the audit log.
"""

from repro.core.appraisal import AppraisalEngine, ExpectedValues, AppraisalResult
from repro.core.attestation_enclave import AttestationEnclave
from repro.core.credential_enclave import CredentialEnclave, EnclaveBackedClient
from repro.core.enrollment import EnrollmentSession
from repro.core.events import AuditLog, AuditEvent
from repro.core.fleet import PooledIasClient
from repro.core.host_agent import HostAgent, HostAgentClient
from repro.core.policy import DeploymentPolicy
from repro.core.provisioning import CredentialBundle
from repro.core.verification_manager import VerificationManager
from repro.core.workflow import Deployment, WorkflowTrace

__all__ = [
    "AppraisalEngine",
    "ExpectedValues",
    "AppraisalResult",
    "AttestationEnclave",
    "CredentialEnclave",
    "EnclaveBackedClient",
    "EnrollmentSession",
    "AuditLog",
    "AuditEvent",
    "PooledIasClient",
    "HostAgent",
    "HostAgentClient",
    "DeploymentPolicy",
    "CredentialBundle",
    "VerificationManager",
    "Deployment",
    "WorkflowTrace",
]
