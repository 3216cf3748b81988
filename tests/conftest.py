"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from repro.crypto.keys import EcPrivateKey, generate_keypair
from repro.crypto.rng import HmacDrbg
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import Certificate
from repro.pki.csr import create_csr
from repro.pki.name import DistinguishedName
from repro.pki.truststore import Truststore


def run_fresh_python(source: str) -> str:
    """Run ``source`` in a new interpreter that imports this tree's
    ``repro``; return its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [path for path in [env.get("PYTHONPATH")] if path])
    return subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout


@pytest.fixture
def rng() -> HmacDrbg:
    """A deterministic DRBG; every test starts from the same stream."""
    return HmacDrbg(b"pytest-seed")


@pytest.fixture
def network() -> Network:
    """A fresh simulated network with its own virtual clock."""
    return Network(VirtualClock())


class PkiFixture(NamedTuple):
    """A CA with one server and one client certificate."""

    ca: CertificateAuthority
    truststore: Truststore
    server_key: EcPrivateKey
    server_cert: Certificate
    client_key: EcPrivateKey
    client_cert: Certificate


@pytest.fixture
def pki(rng: HmacDrbg) -> PkiFixture:
    """A small working PKI."""
    ca = CertificateAuthority(DistinguishedName("Test-CA", "test"), now=0,
                              rng=rng)
    server_key = generate_keypair(rng)
    server_cert = ca.issue_server_certificate(
        DistinguishedName("server"), server_key.public.to_bytes(), now=0,
    )
    client_key = generate_keypair(rng)
    client_cert = ca.issue_from_csr(
        create_csr(client_key, DistinguishedName("client")), now=0,
    )
    return PkiFixture(ca, Truststore([ca.certificate]), server_key,
                      server_cert, client_key, client_cert)


@pytest.fixture(scope="session")
def shared_deployment():
    """One fully enrolled deployment shared by read-only tests.

    Tests that mutate trust state (tampering, revocation) must build their
    own deployment instead.
    """
    from repro.core import Deployment

    deployment = Deployment(seed=b"pytest-shared", vnf_count=2)
    deployment.run_workflow()
    return deployment
