"""Every client exchange on the simulated network, under transport faults.

Nine client paths carry the system's request/response traffic: the IAS
client (one connection per quote) and its pooled twin, the KMS client,
the baseline northbound client (plain HTTP and HTTPS), the metrics
scrape, the credential enclave's in-enclave controller client, the host
agent stub, and the trusted fabric's two framed exchanges (manager to
leader, leader to follower).  Each meets every fault that applies to it:

- ``refused``: the first connect is refused;
- ``first-send``: the connection drops on its first send;
- ``reused``: the connection drops on the first send of the second
  request, after one healthy exchange on the same stream;
- ``idle-close``: the server closes the stream while it is idle
  between two requests.

The last two need a stream that outlives one exchange, so they apply
only to the persistent clients.  Every case runs with no retry policy;
the clients that take a policy run it again with two attempts.  Each
record holds the outcome (a value, or the exception type and the head
of its message), the faults injected, the simulated-time charges, the
connects and messages on the wire, and the retry counters.

``tests/golden/transport_faults.json`` pins the records.  Regenerate it
with ``PYTHONPATH=src python -m tests.net.test_transport_faults`` and
say in CHANGES.md why an entry moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple

import pytest

from repro.core import Deployment
from repro.core.workflow import IAS_ADDRESS
from repro.errors import ReproError
from repro.kms import KmsClient
from repro.net.address import Address
from repro.net.faults import FaultPlan
from repro.net.retry import NO_RETRY, RetryPolicy
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.exposition import TRACES_PATH, TelemetryEndpoint, scrape
from repro.sdn.northbound import MODE_HTTP, MODE_HTTPS, SUMMARY_PATH

from tests.kms.conftest import KMS_ADDRESS, make_world

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "transport_faults.json"

SEED = b"transport-faults"
RETRY = RetryPolicy(max_attempts=2, base_backoff=0.01, jitter=0.0)
FAULTS = ("refused", "first-send", "reused", "idle-close")
MESSAGE_HEAD = 48


class Subject(NamedTuple):
    """One client path, wired into a fresh world."""

    network: Network
    address: Address          # where the client's stream is dialed
    call: Callable[[], object]  # one request; returns a JSON-able value
    operation: str            # its retry-counter label ("" if none)


class Client(NamedTuple):
    build: Callable[[], Subject]
    persistent: bool          # does one stream outlive an exchange?
    retries: bool = False     # does it take a retry policy?


# ------------------------------------------------------------------ worlds


def _deployment() -> Deployment:
    return Deployment(seed=SEED, vnf_count=1)


def _quote(deployment: Deployment) -> bytes:
    evidence = deployment.attestation_enclave.collect_quoted_evidence(
        b"\x05" * 16, SEED)
    return evidence.quote.to_bytes()


def _ias(pooled: bool) -> Callable[[], Subject]:
    def build() -> Subject:
        deployment = _deployment()
        quote = _quote(deployment)
        client = (deployment.pooled_ias_client() if pooled
                  else deployment.ias_client)
        return Subject(
            deployment.network, IAS_ADDRESS,
            lambda: client.verify_quote(quote, nonce="n").quote_status,
            "ias-verify",
        )
    return build


def _kms() -> Subject:
    world = make_world()
    token = world.tokens["alpha"]
    world.service.store("alpha", token, "db", b"value")
    client = KmsClient(world.network, KMS_ADDRESS, "alpha", token,
                       "client.example.org")
    return Subject(world.network, KMS_ADDRESS,
                   lambda: client.fetch("db").hex(), "")


def _vnf_rest(mode: str) -> Callable[[], Subject]:
    def build() -> Subject:
        deployment = _deployment()
        client = deployment.baseline_client(mode)

        def call():
            response = client.request("GET", SUMMARY_PATH)
            return [response.status, len(response.body)]

        return Subject(deployment.network,
                       deployment.controller_address(mode), call,
                       "northbound")
    return build


def _scrape() -> Subject:
    network = Network(VirtualClock())
    address = Address("verification-manager", 9100)
    TelemetryEndpoint(
        Telemetry(registry=MetricsRegistry(), now=network.clock.now),
        network, address,
    )
    return Subject(
        network, address,
        lambda: scrape(network, address, TRACES_PATH).decode("utf-8"),
        "",
    )


def _enclave() -> Subject:
    deployment = _deployment()
    deployment.enroll("vnf-1")
    client = deployment.enclave_client("vnf-1")
    client.close()  # step 6 left a session open; start from none
    return Subject(deployment.network, deployment.controller_address(),
                   client.summary, "")


def _agent() -> Subject:
    deployment = _deployment()
    client = deployment.agent_client
    return Subject(
        deployment.network, client.address,
        lambda: len(client.attest_host(b"\x01" * 16, SEED).to_bytes()),
        "host-agent",
    )


def _fabric(target_rank: int) -> Callable[[], Subject]:
    """Rank 0 leads; faulting rank 0 hits the manager's exchange with
    the leader, faulting rank 1 the leader's exchange with a follower."""
    def build() -> Subject:
        deployment = _deployment()
        fabric = deployment.build_fabric(replica_count=3)
        anchor = deployment.vm.ca.certificate.to_bytes()

        def call():
            entry = fabric.anchor_ca("extra-anchor", anchor)
            return {"index": entry.index, "leader": fabric.leader_rank,
                    "logs": [r.log.last_index for r in fabric.replicas()]}

        return Subject(deployment.network,
                       fabric.replica(target_rank).address, call, "")
    return build


CLIENTS: Dict[str, Client] = {
    "ias": Client(_ias(pooled=False), persistent=False, retries=True),
    "ias-pooled": Client(_ias(pooled=True), persistent=True, retries=True),
    "kms": Client(_kms, persistent=True),
    "vnf-rest-http": Client(_vnf_rest(MODE_HTTP), persistent=True,
                            retries=True),
    "vnf-rest-https": Client(_vnf_rest(MODE_HTTPS), persistent=True,
                             retries=True),
    "scrape": Client(_scrape, persistent=False),
    "enclave": Client(_enclave, persistent=True),
    "host-agent": Client(_agent, persistent=True, retries=True),
    "fabric-manager": Client(_fabric(0), persistent=False),
    "fabric-replica": Client(_fabric(1), persistent=False),
}


# ------------------------------------------------------------------- cases


def _outcome(call: Callable[[], object]) -> Dict[str, object]:
    try:
        return {"value": call()}
    except ReproError as exc:
        return {"raised": type(exc).__name__,
                "message": str(exc)[:MESSAGE_HEAD]}


def _tracked(network: Network) -> List[tuple]:
    """Record every stream the world dials: ``(destination, channel)``."""
    opened: List[tuple] = []
    dial = network.connect

    def connect(source_host, destination):
        channel = dial(source_host, destination)
        opened.append((destination, channel))
        return channel

    network.connect = connect
    return opened


def _prepared(client: Client, policy: RetryPolicy):
    subject = client.build()
    telemetry = None
    if client.retries:
        clock = subject.network.clock
        clock.retry_policy = policy
        telemetry = Telemetry(registry=MetricsRegistry(), now=clock.now)
        clock.telemetry = telemetry
    return subject, telemetry


def _warm_sends(client: Client, policy: RetryPolicy) -> int:
    """Sends one healthy exchange puts on a fresh stream, both ways."""
    subject, _ = _prepared(client, policy)
    before = subject.network.messages_sent
    subject.call()
    return subject.network.messages_sent - before


def run_case(name: str, fault: str, retry: bool) -> Dict[str, object]:
    client = CLIENTS[name]
    policy = RETRY if retry else NO_RETRY
    drop_at = _warm_sends(client, policy) + 1 if fault == "reused" else None
    subject, telemetry = _prepared(client, policy)
    network, clock = subject.network, subject.network.clock
    opened = _tracked(network)
    clock.reset_charges()
    connects, messages = network.connections_opened, network.messages_sent

    plan = FaultPlan()
    if fault == "refused":
        plan.refuse_connections(subject.address, count=1)
    elif fault == "first-send":
        plan.drop_after_sends(subject.address, sends=1)
    elif fault == "reused":
        plan.drop_after_sends(subject.address, sends=drop_at)
    network.install_faults(plan)
    if fault in ("reused", "idle-close"):
        subject.call()
    if fault == "idle-close":
        idle = [ch for dest, ch in opened if dest == subject.address][-1]
        idle.peer.close()

    record: Dict[str, object] = {"outcome": _outcome(subject.call)}
    if drop_at is not None:
        record["drop_at"] = drop_at
    record["injected"] = dict(sorted(plan.injected.items()))
    record["charges"] = dict(sorted(clock.charges().items()))
    record["connects"] = network.connections_opened - connects
    record["messages"] = network.messages_sent - messages
    if telemetry is not None:
        record["retries"] = {
            "attempts": telemetry.retry_attempts.labels(
                operation=subject.operation).value,
            "giveups": telemetry.retry_giveups.labels(
                operation=subject.operation).value,
        }
    return record


def case_ids() -> List[str]:
    ids = []
    for name, client in CLIENTS.items():
        for fault in FAULTS:
            if fault in ("reused", "idle-close") and not client.persistent:
                continue
            policies = ("none", "retry2") if client.retries else ("none",)
            ids.extend(f"{name}/{fault}/{policy}" for policy in policies)
    return ids


def _run(case_id: str) -> Dict[str, object]:
    name, fault, policy = case_id.split("/")
    return run_case(name, fault, policy == "retry2")


def run_all() -> Dict[str, Dict[str, object]]:
    return {case_id: _run(case_id) for case_id in case_ids()}


def _golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# ------------------------------------------------------------------- tests


def test_golden_covers_every_case():
    assert list(_golden()) == case_ids()


@pytest.mark.parametrize("case_id", case_ids())
def test_case_matches_golden(case_id):
    assert _run(case_id) == _golden()[case_id]


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run_all(), indent=1) + "\n")
