"""E9 — ablation: VM-generated keys vs. in-enclave CSR provisioning.

The paper's main path has the Verification Manager "generate the
certificate and private key and provision them to the corresponding VNFs
enclaves"; the CSR variant keeps the private key inside the enclave from
birth (the VM only ever sees the public half).  Expected shape: both
variants land within the same cost envelope (the IAS round trip and quote
verification dominate; the extra in-enclave keygen and CSR signature are
microseconds), so the stronger key-custody property is essentially free.
"""

import pytest

from repro.bench.harness import Table, measure
from repro.core import Deployment

TRIALS = 5


def provision_cost(variant: str, trial: int) -> float:
    deployment = Deployment(seed=f"e9-{variant}-{trial}".encode(),
                            vnf_count=1)
    deployment.vm.attest_host(deployment.agent_client, deployment.host.name)
    measurement = measure(deployment.clock, lambda: deployment.vm.enroll_vnf(
        deployment.agent_client, deployment.host.name, "vnf-1",
        str(deployment.controller_address()), csr=variant == "csr",
    ))
    assert deployment.credential_enclaves["vnf-1"].has_credentials()
    # Either way the enrolled VNF must reach the controller.
    assert deployment.enclave_client("vnf-1").summary()
    return measurement.simulated_seconds


@pytest.mark.experiment("E9")
def test_e9_provisioning_variants(benchmark):
    table = Table(
        "E9: provisioning variants (steps 3-5 simulated time)",
        ["variant", "key custody", "sim_ms_mean"],
    )
    means = {}
    for variant, custody in (("vm-generated", "VM sees the private key"),
                             ("csr", "key never leaves the enclave")):
        costs = [provision_cost(variant, trial) for trial in range(TRIALS)]
        means[variant] = sum(costs) / len(costs)
        table.add_row(variant, custody, means[variant] * 1000)
    table.show()

    # Same cost envelope: within 25% of each other.
    ratio = means["csr"] / means["vm-generated"]
    assert 0.75 < ratio < 1.25

    deployment = Deployment(seed=b"e9-bench", vnf_count=1)
    deployment.vm.attest_host(deployment.agent_client, deployment.host.name)
    benchmark.pedantic(
        lambda: deployment.vm.enroll_vnf(
            deployment.agent_client, deployment.host.name, "vnf-1",
            str(deployment.controller_address()), csr=True,
        ),
        rounds=1, iterations=1,
    )
