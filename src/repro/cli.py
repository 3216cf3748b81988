"""Command-line interface: drive a deployment from the terminal.

Examples::

    python -m repro demo --vnfs 2 --tpm
    python -m repro attest --tamper /usr/bin/dockerd
    python -m repro enroll --vnfs 3 --csr
    python -m repro fleet --vnfs 16 --workers 8
    python -m repro ratls --vnfs 4 --hosts 2
    python -m repro sdn --replicas 3 --endpoints 64
    python -m repro kms --tenants 4 --shards 4
    python -m repro metrics --vnfs 2
    python -m repro lint --strict
    python -m repro experiments
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import Deployment
from repro.errors import ReproError

EXPERIMENTS = [
    ("E1", "Figure 1 workflow step breakdown", "benchmarks/test_e1_workflow.py"),
    ("E2", "attestation latency vs. IML size", "benchmarks/test_e2_attestation.py"),
    ("E3", "fleet enrolment: keystore vs. trusted CA", "benchmarks/test_e3_enrollment.py"),
    ("E4", "TLS inside vs. outside the enclave", "benchmarks/test_e4_enclave_tls.py"),
    ("E5", "northbound security modes", "benchmarks/test_e5_rest_modes.py"),
    ("E6", "IAS verification vs. SigRL size", "benchmarks/test_e6_ias_revocation.py"),
    ("E7", "TPM-rooted vs. plain-IMA tamper detection", "benchmarks/test_e7_tpm_root_of_trust.py"),
    ("E8", "sealed credential persistence", "benchmarks/test_e8_sealing.py"),
    ("E9", "provisioning variants: VM keys vs. in-enclave CSR",
     "benchmarks/test_e9_provisioning_variants.py"),
    ("E10", "full vs. resumed TLS handshakes",
     "benchmarks/test_e10_session_resumption.py"),
    ("E11", "crypto hot paths: EC and AES-GCM fast paths vs. references",
     "benchmarks/test_e11_crypto_hotpath.py"),
    ("E12", "fleet enrolment: serial loop vs. worker-pool scheduler",
     "benchmarks/test_e12_fleet.py"),
    ("E13", "key manager: throughput vs. tenants and shard count",
     "benchmarks/test_e13_kms.py"),
    ("E14", "RA-TLS attested channels vs. out-of-band enrolment",
     "benchmarks/test_e14_ratls.py"),
    ("E15", "trusted fabric: failover convergence and revocation fan-out",
     "benchmarks/test_e15_fabric.py"),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Safeguarding VNF Credentials with "
                     "Intel SGX' (SIGCOMM'17)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the full Figure 1 workflow")
    _common_flags(demo)

    attest = sub.add_parser("attest",
                            help="attest the container host and print the "
                                 "appraisal verdict")
    _common_flags(attest)
    attest.add_argument("--tamper", metavar="PATH",
                        help="tamper with a host file before attestation")
    attest.add_argument("--hide", action="store_true",
                        help="also sanitize the measurement log "
                             "(the paper's §4 adversary)")

    enroll = sub.add_parser("enroll",
                            help="enrol every VNF and exercise the "
                                 "controller")
    _common_flags(enroll)
    enroll.add_argument("--csr", action="store_true",
                        help="use the CSR variant (keys generated inside "
                             "the enclave)")

    fleet = sub.add_parser(
        "fleet",
        help="enrol every VNF through the worker-pool scheduler "
             "(single-flight host attestation, pooled IAS connection)")
    _common_flags(fleet)
    fleet.add_argument("--workers", type=int, default=4,
                       help="worker-pool width (default 4)")

    metrics = sub.add_parser(
        "metrics",
        help="run the workflow with telemetry enabled and dump the "
             "/metrics scrape text")
    _common_flags(metrics)
    metrics.add_argument("--traces", action="store_true",
                         help="print the trace JSON instead of the "
                              "Prometheus scrape text")

    ratls = sub.add_parser(
        "ratls",
        help="enrol every VNF over RA-TLS attested channels and compare "
             "round trips against the out-of-band protocol")
    _common_flags(ratls)
    ratls.add_argument("--reconnects", type=int, default=5,
                       help="attested-resumption reconnects per VNF "
                            "(default 5)")

    sdn = sub.add_parser(
        "sdn",
        help="build the replicated trusted fabric, crash the leader, and "
             "report failover convergence + revocation fan-out")
    _common_flags(sdn)
    sdn.add_argument("--replicas", type=int, default=3,
                     help="controller replicas (default 3)")
    sdn.add_argument("--endpoints", type=int, default=64,
                     help="endpoint switches homed across the fabric "
                          "(default 64)")

    kms = sub.add_parser(
        "kms",
        help="attach the multi-tenant key manager, enrol a credential per "
             "tenant, and exercise the sharded secret store")
    _common_flags(kms)
    kms.add_argument("--tenants", type=int, default=2,
                     help="tenant namespaces to create (default 2)")
    kms.add_argument("--shards", type=int, default=4,
                     help="enclave-sealed shards (default 4)")
    kms.add_argument("--secrets", type=int, default=8,
                     help="secrets stored per tenant (default 8)")

    lint = sub.add_parser(
        "lint",
        help="run the domain-invariant static analyzers (secret-flow, "
             "lock-order, constant-time, hygiene; see docs/ANALYSIS.md)")
    from repro.analysis.runner import add_lint_arguments
    add_lint_arguments(lint)

    sub.add_parser("experiments",
                   help="list the experiment index (see EXPERIMENTS.md)")
    return parser


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vnfs", type=int, default=2,
                        help="number of VNFs (default 2, as in Figure 1)")
    parser.add_argument("--hosts", type=int, default=1,
                        help="number of container hosts (default 1)")
    parser.add_argument("--tpm", action="store_true",
                        help="enable the TPM-rooted IMA configuration")
    parser.add_argument("--seed", default="cli-deployment",
                        help="determinism seed")


def _build_deployment(args) -> Deployment:
    return Deployment(
        seed=args.seed.encode("utf-8"),
        vnf_count=args.vnfs,
        host_count=args.hosts,
        with_tpm=args.tpm,
    )


def _cmd_demo(args, out) -> int:
    deployment = _build_deployment(args)
    trace = deployment.run_workflow()
    out.write("Figure 1 workflow complete.\n")
    for vnf_name, timings in trace.per_vnf.items():
        out.write(f"  {vnf_name} (on {deployment.vnf_host[vnf_name].name}):\n")
        for timing in timings:
            out.write(
                f"    {timing.step:45s}"
                f" sim={timing.simulated_seconds * 1000:8.3f} ms\n"
            )
    out.write(f"  total simulated: {trace.simulated_seconds * 1000:.3f} ms\n")
    out.write(f"  audit: {deployment.vm.audit.counts()}\n")
    return 0


def _cmd_attest(args, out) -> int:
    deployment = _build_deployment(args)
    if args.tamper:
        deployment.host.tamper_file(args.tamper, b"tampered-by-cli")
        out.write(f"tampered with {args.tamper}\n")
        if args.hide:
            deployment.host.hide_measurement(args.tamper)
            out.write("measurement log sanitized (root adversary)\n")
    result = deployment.vm.attest_host(deployment.agent_client,
                                       deployment.host.name)
    verdict = "TRUSTED" if result.trustworthy else "REJECTED"
    out.write(f"{deployment.host.name}: {verdict} "
              f"({result.entries_checked} IML entries")
    if result.tpm_verified:
        out.write(", TPM-verified")
    out.write(")\n")
    for failure in result.failures:
        out.write(f"  failure: {failure}\n")
    return 0 if result.trustworthy else 1


def _cmd_enroll(args, out) -> int:
    deployment = _build_deployment(args)
    for vnf_name in deployment.vnf_names:
        session = deployment.enroll(vnf_name, csr=args.csr)
        summary = deployment.enclave_client(vnf_name).summary()
        out.write(
            f"{vnf_name}: serial {session.certificate_serial} on "
            f"{session.host_name}; "
            f"controller says {summary['controller']} "
            f"v{summary['version']}\n"
        )
    variant = "CSR (in-enclave keys)" if args.csr else "VM-generated keys"
    out.write(f"enrolled {len(deployment.vnf_names)} VNF(s) via {variant}\n")
    return 0


def _cmd_fleet(args, out) -> int:
    deployment = _build_deployment(args)
    report = deployment.enroll_fleet(workers=args.workers)
    for host_name, (timing,) in report.host_attestations.items():
        out.write(
            f"{host_name}: attested once for the fleet "
            f"(sim={timing.simulated_seconds * 1000:.3f} ms)\n"
        )
    for vnf_name, session in report.results.items():
        if session.succeeded:
            out.write(
                f"{vnf_name}: serial {session.certificate_serial} "
                f"on {session.host_name}\n"
            )
        else:
            out.write(f"{vnf_name}: FAILED — {session.error}\n")
    out.write(
        f"fleet of {len(report.results)} VNF(s), workers={report.workers}, "
        f"IAS connects={report.ias_connects} "
        f"(+{report.ias_reused_exchanges} reused), "
        f"sim={report.simulated_seconds * 1000:.3f} ms\n"
    )
    return 0 if report.fully_succeeded else 1


def _cmd_ratls(args, out) -> int:
    from repro.core.workflow import CONTROLLER_HOST

    def machinery(dep):
        return dep.network.messages_sent - dep.network.messages_to(
            CONTROLLER_HOST
        )

    # Reference: the out-of-band Figure 1 protocol, one VNF at a time.
    std = _build_deployment(args)
    std_start = machinery(std)
    for vnf_name in std.vnf_names:
        std.enroll(vnf_name)
    std_machinery = machinery(std) - std_start

    deployment = _build_deployment(args)
    verifier = deployment.build_ratls()
    ratls_start = machinery(deployment)
    for vnf_name in deployment.vnf_names:
        session = deployment.enroll_ratls(vnf_name)
        out.write(
            f"{vnf_name}: attested in-handshake on "
            f"{deployment.vnf_host[vnf_name].name} "
            f"(sim={session.total_simulated_seconds * 1000:.3f} ms)\n"
        )
    ratls_machinery = machinery(deployment) - ratls_start

    ias_before = deployment.ias.quotes_verified
    for vnf_name in deployment.vnf_names:
        enclave = deployment.credential_enclaves[vnf_name].enclave
        for _ in range(args.reconnects):
            enclave.ecall("disconnect")
            enclave.ecall("request", "GET",
                          "/wm/core/controller/summary/json", b"")
    out.write(
        f"{args.reconnects} reconnect(s) per VNF: "
        f"+{deployment.ias.quotes_verified - ias_before} IAS call(s), "
        f"{verifier.resumption_checks} attested resumption(s)\n"
    )
    count = len(deployment.vnf_names)
    ratio = (std_machinery / ratls_machinery if ratls_machinery else
             float("inf"))
    out.write(
        f"enrollment machinery: standard {std_machinery} msgs "
        f"({std_machinery / count:.1f}/vnf) vs. ra-tls {ratls_machinery} "
        f"msgs ({ratls_machinery / count:.1f}/vnf) — {ratio:.1f}x fewer\n"
    )
    return 0


def _cmd_sdn(args, out) -> int:
    deployment = _build_deployment(args)
    fabric = deployment.build_fabric(replica_count=args.replicas,
                                     endpoint_count=args.endpoints)
    for vnf_name in deployment.vnf_names:
        deployment.enroll_fabric(vnf_name)
    out.write(
        f"fabric: {fabric.replica_count} replica(s), "
        f"{fabric.switch_count()} switch(es), leader rank "
        f"{fabric.leader_rank}, {len(deployment.vnf_names)} credential(s) "
        "replicated\n"
    )

    victim = deployment.vnf_names[0]
    report = fabric.revoke_vnf(victim, "cli-demo")
    out.write(
        f"revoked {victim}: fan-out to {report.switches_reached} switch(es) "
        f"in sim={report.total_seconds * 1000:.3f} ms "
        f"(replication {report.replication_seconds * 1000:.3f} ms)\n"
    )

    crashed = fabric.leader_rank
    fabric.crash_replica(crashed)
    convergence = fabric.converge()
    out.write(
        f"crashed rank {crashed}: converged in "
        f"sim={convergence.seconds * 1000:.3f} ms — new leader rank "
        f"{convergence.new_leader}, {convergence.switches_rehomed} "
        "switch(es) re-homed\n"
    )
    digests = set(fabric.keystore_digests().values())
    out.write(
        f"live replicas {convergence.live_ranks} hold "
        f"{'IDENTICAL' if len(digests) == 1 else 'DIVERGENT'} keystores\n"
    )
    return 0 if len(digests) == 1 else 1


def _cmd_kms(args, out) -> int:
    deployment = _build_deployment(args)
    deployment.run_workflow()  # enrol VNFs: tenant tokens need credentials
    service = deployment.build_kms(shard_count=args.shards)

    vnf_names = deployment.vnf_names
    clients = {}
    for index in range(args.tenants):
        tenant = f"tenant-{index}"
        service.create_tenant(tenant)
        # Each tenant authorizes with an enrolled VNF's credential
        # (round-robin when tenants outnumber VNFs).
        vnf_name = vnf_names[index % len(vnf_names)]
        certificate = deployment.vm.issued_certificate(vnf_name)
        token = service.authorize(tenant, certificate)
        clients[tenant] = deployment.kms_client(tenant, token)
        out.write(f"{tenant}: authorized via {vnf_name} "
                  f"(serial {certificate.serial})\n")

    for tenant, client in clients.items():
        for index in range(args.secrets):
            client.store(f"secret-{index}", f"{tenant}:{index}".encode())
    service.quiesce()

    for tenant, client in clients.items():
        names = client.names()
        trail = service.audit_trail(tenant)
        out.write(f"{tenant}: {len(names)} secret(s), "
                  f"{len(trail)} audit event(s)\n")
        client.close()
    placement = " ".join(
        f"{label}={count}"
        for label, count in service.store_backend.secret_counts().items()
    )
    out.write(f"shard placement: {placement}\n")
    out.write(
        f"{args.tenants} tenant(s) x {args.secrets} secret(s) over "
        f"{service.shard_count()} shard(s), "
        f"sim={deployment.clock.now() * 1000:.3f} ms\n"
    )
    return 0


def _cmd_metrics(args, out) -> int:
    deployment = _build_deployment(args)
    deployment.enable_telemetry()
    deployment.run_workflow()
    if args.traces:
        out.write(deployment.telemetry.tracer.export_json(indent=2))
        out.write("\n")
    else:
        out.write(deployment.scrape_metrics())
    deployment.disable_telemetry()
    return 0


def _cmd_lint(args, out) -> int:
    from repro.analysis.runner import run_lint
    return run_lint(args, out)


def _cmd_experiments(args, out) -> int:
    for exp_id, title, path in EXPERIMENTS:
        out.write(f"{exp_id}  {title:45s} {path}\n")
    out.write("run: pytest benchmarks/ --benchmark-only -s\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "attest": _cmd_attest,
        "enroll": _cmd_enroll,
        "fleet": _cmd_fleet,
        "ratls": _cmd_ratls,
        "sdn": _cmd_sdn,
        "kms": _cmd_kms,
        "metrics": _cmd_metrics,
        "lint": _cmd_lint,
        "experiments": _cmd_experiments,
    }
    try:
        return handlers[args.command](args, out)
    except ReproError as exc:
        out.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
