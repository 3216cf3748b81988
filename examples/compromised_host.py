#!/usr/bin/env python
"""Threat scenarios: what attestation catches, and what only a TPM catches.

Four scenarios on the same deployment shape:

1. a pristine host enrols successfully;
2. a host with a tampered container runtime fails appraisal, so its VNFs
   never receive credentials;
3. a root adversary who tampers *and sanitizes the measurement log* evades
   appraisal on a plain-IMA host — the gap the paper's §4 names;
4. the same log-sanitizing adversary is caught when the IML is rooted in a
   TPM (the paper's future-work configuration, implemented here).

Run:  python examples/compromised_host.py
"""

from repro.core import Deployment
from repro.core.enrollment import EnrollmentSession
from repro.errors import AppraisalFailed


def enroll_first_vnf(deployment: Deployment) -> str:
    """Try the full workflow for vnf-1; returns a verdict string."""
    session = EnrollmentSession(
        vm=deployment.vm,
        agent=deployment.agent_client,
        host_name=deployment.host.name,
        vnf_name="vnf-1",
        controller_address=str(deployment.controller_address()),
    )
    try:
        session.attest_host()
    except AppraisalFailed as exc:
        return f"REJECTED at host appraisal: {exc}"
    session.provision()
    session.connect(deployment.enclave_client("vnf-1"))
    return "ENROLLED"


def main() -> None:
    print("scenario 1: pristine host")
    pristine = Deployment(seed=b"scenario-1", vnf_count=1)
    print(f"  -> {enroll_first_vnf(pristine)}\n")

    print("scenario 2: tampered container runtime (measured honestly)")
    tampered = Deployment(seed=b"scenario-2", vnf_count=1)
    tampered.host.tamper_file("/usr/bin/dockerd", b"dockerd-with-rootkit")
    verdict = enroll_first_vnf(tampered)
    print(f"  -> {verdict[:100]}\n")

    print("scenario 3: root adversary sanitizes the IML (plain IMA)")
    stealthy = Deployment(seed=b"scenario-3", vnf_count=1)
    stealthy.host.tamper_file("/usr/bin/dockerd", b"dockerd-with-rootkit")
    stealthy.host.hide_measurement("/usr/bin/dockerd")
    verdict = enroll_first_vnf(stealthy)
    print(f"  -> {verdict}  (the paper's stated gap: root can forge the log)\n")

    print("scenario 4: same adversary, TPM-rooted IML (paper future work)")
    rooted = Deployment(seed=b"scenario-4", vnf_count=1, with_tpm=True)
    rooted.host.tamper_file("/usr/bin/dockerd", b"dockerd-with-rootkit")
    rooted.host.hide_measurement("/usr/bin/dockerd")
    verdict = enroll_first_vnf(rooted)
    print(f"  -> {verdict[:110]}")


if __name__ == "__main__":
    main()
