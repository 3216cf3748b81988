"""E13 — key manager: throughput vs. tenant count and shard count.

The KMS front end serializes only per-request dispatch (routing, auth,
audit) and the REST transport; sealing and unsealing occupy the owning
shard's private enclave timeline (:mod:`repro.kms.store`).  Secrets
spread over the shard set by consistent hashing, so N shards divide the
seal/unseal bill roughly N ways while the front-end bill stays fixed —
the scaling this experiment gates on:

* **shard axis** (fixed tenants): simulated throughput must reach at
  least ``GATE_2X`` of the single-shard baseline at 2 shards and
  ``GATE_4X`` at 4 — near-linear until the serialized front end starts
  to matter;
* **tenant axis** (fixed shards): more tenants on the same shard set
  must not collapse aggregate throughput (quota bookkeeping is O(1));
* **isolation**: in every measured configuration a foreign token is
  denied on the wire — scale never loosens tenancy.

All throughput is *simulated* ops/second measured over the REST surface
(persistent :class:`~repro.kms.api.KmsClient` per tenant on a loopback
link profile) and drained with ``service.quiesce()``, so the numbers are
machine-independent and byte-deterministic per seed.
"""

import pytest

from repro.bench.harness import BenchReport, Table, smoke_mode
from repro.crypto.keys import generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import TenantAuthError
from repro.kms import KeyManagerService, KmsClient, KmsEndpoint
from repro.net.address import Address
from repro.net.clock import VirtualClock
from repro.net.simnet import LOOPBACK, Network
from repro.pki.ca import CertificateAuthority
from repro.pki.name import DistinguishedName

#: Tenant counts for the tenant axis (shards fixed at SHARDS_FOR_TENANTS).
TENANTS = (1, 4) if smoke_mode() else (1, 8, 32)
#: Shard counts for the shard axis (tenants fixed at TENANTS_FOR_SHARDS).
SHARDS = (1, 2, 4) if smoke_mode() else (1, 2, 4, 8)
TENANTS_FOR_SHARDS = max(TENANTS)
SHARDS_FOR_TENANTS = 4
#: Secrets stored (then fetched once) per tenant per run.
SECRETS_PER_TENANT = 8 if smoke_mode() else 32
#: Shard-scaling gates vs. the 1-shard baseline (sim throughput ratio).
#: Smoke mode stores too few keys for consistent hashing to balance
#: well, so it gates leniently (like E12) — full mode holds the real bar.
GATE_2X = 1.2 if smoke_mode() else 1.6
GATE_4X = 1.5 if smoke_mode() else 2.5

ADDRESS = Address("kms.bench", 7100)


def _world(tenant_count, shard_count):
    """A deterministic KMS world: CA, service, endpoint, tenant clients."""
    clock = VirtualClock()
    network = Network(clock, default_profile=LOOPBACK)
    rng = HmacDrbg(b"e13-ca")
    ca = CertificateAuthority(DistinguishedName("E13-CA", "bench"), now=0,
                              rng=rng)
    service = KeyManagerService(ca, clock, seed=b"e13-kms",
                                shard_count=shard_count)
    KmsEndpoint(service, network, ADDRESS)
    clients = []
    tokens = []
    for index in range(tenant_count):
        tenant = f"tenant-{index:02d}"
        service.create_tenant(tenant)
        key = generate_keypair(rng)
        certificate = ca.issue(DistinguishedName(f"vnf-{tenant}", "vnf"),
                               key.public.to_bytes(), now=0)
        token = service.authorize(tenant, certificate)
        tokens.append(token)
        clients.append(KmsClient(network, ADDRESS, tenant, token,
                                 f"client-{index:02d}"))
    return network, service, clients, tokens


def _run(tenant_count, shard_count):
    """One measured configuration → (ops, sim_seconds, throughput)."""
    network, service, clients, tokens = _world(tenant_count, shard_count)
    clock = service.store_backend._clock
    start = clock.now()
    ops = 0
    # Interleave tenants secret-by-secret — the multi-tenant arrival
    # pattern the shard pipeline is meant to absorb.
    for secret_index in range(SECRETS_PER_TENANT):
        for client in clients:
            client.store(f"secret-{secret_index:03d}",
                         f"{client.tenant}:{secret_index}".encode())
            ops += 1
    for client in clients:
        for secret_index in range(SECRETS_PER_TENANT):
            value = client.fetch(f"secret-{secret_index:03d}")
            assert value == f"{client.tenant}:{secret_index}".encode()
            ops += 1
    sim = service.quiesce() - start
    assert sim > 0

    # Isolation at every scale: a foreign token opens nothing over REST.
    if tenant_count > 1:
        intruder = KmsClient(network, ADDRESS, clients[0].tenant,
                             tokens[-1], "intruder")
        with pytest.raises(TenantAuthError):
            intruder.fetch("secret-000")
        intruder.close()
    for client in clients:
        client.close()
    return ops, sim, ops / sim


@pytest.mark.experiment("E13")
def test_e13_kms_throughput():
    report = BenchReport("E13")

    # ----------------------------------------------------- shard axis
    shard_table = Table(
        f"E13: shard scaling (tenants={TENANTS_FOR_SHARDS}, "
        f"{SECRETS_PER_TENANT} secrets/tenant, store+fetch)",
        ["shards", "ops", "sim_ms", "ops_per_sim_s", "speedup"],
    )
    throughput = {}
    for shard_count in SHARDS:
        ops, sim, rate = _run(TENANTS_FOR_SHARDS, shard_count)
        throughput[shard_count] = rate
        speedup = rate / throughput[SHARDS[0]]
        shard_table.add_row(shard_count, ops, sim * 1000, rate, speedup)
        report.add(
            f"shards-{shard_count}", shards=shard_count,
            tenants=TENANTS_FOR_SHARDS, ops=ops,
            sim_seconds=sim, ops_per_sim_second=rate, speedup=speedup,
        )

    # ---------------------------------------------------- tenant axis
    tenant_table = Table(
        f"E13: tenant scaling (shards={SHARDS_FOR_TENANTS}, "
        f"{SECRETS_PER_TENANT} secrets/tenant)",
        ["tenants", "ops", "sim_ms", "ops_per_sim_s"],
    )
    tenant_rates = {}
    for tenant_count in TENANTS:
        ops, sim, rate = _run(tenant_count, SHARDS_FOR_TENANTS)
        tenant_rates[tenant_count] = rate
        tenant_table.add_row(tenant_count, ops, sim * 1000, rate)
        report.add(
            f"tenants-{tenant_count}", tenants=tenant_count,
            shards=SHARDS_FOR_TENANTS, ops=ops,
            sim_seconds=sim, ops_per_sim_second=rate,
        )

    shard_table.show()
    tenant_table.show()
    report.add_table(shard_table)
    report.add_table(tenant_table)
    report.write()

    # Near-linear shard scaling: the seal/unseal bill divides across
    # shards while the front end stays fixed.
    base = throughput[1]
    assert throughput[2] >= GATE_2X * base, (
        f"2 shards: {throughput[2]/base:.2f}x the 1-shard throughput "
        f"(gate: >= {GATE_2X}x)"
    )
    assert throughput[4] >= GATE_4X * base, (
        f"4 shards: {throughput[4]/base:.2f}x the 1-shard throughput "
        f"(gate: >= {GATE_4X}x)"
    )
    # And the trend never inverts: more shards never slows the store.
    rates = [throughput[s] for s in SHARDS]
    assert all(b >= a for a, b in zip(rates, rates[1:])), rates

    # Tenant density: aggregate throughput holds (within 25%) as the
    # same shard set serves more namespaces.
    assert tenant_rates[max(TENANTS)] >= 0.75 * tenant_rates[min(TENANTS)]
