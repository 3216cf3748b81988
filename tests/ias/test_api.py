"""The IAS REST/TLS binding."""

import pytest

from repro.errors import IasError
from repro.ias.api import IasClient, IasHttpService
from repro.ias.service import QuoteStatus
from repro.net.address import Address
from repro.net.simnet import Network


@pytest.fixture
def wired(ias, rng, clock):
    network = Network(clock=clock)
    address = Address("ias.example", 443)
    http = IasHttpService(ias, network, address, rng=rng)
    client = IasClient(network, address, http.ias_truststore,
                       ias.report_signing_public_key, rng=rng)
    return network, http, client


def test_verify_over_https(wired, quote):
    _, _, client = wired
    avr = client.verify_quote(quote.to_bytes(), nonce="hello")
    assert avr.ok
    assert avr.nonce == "hello"


def test_verdicts_travel_intact(wired, quote, ias, platform):
    _, _, client = wired
    ias.revoke_platform(platform.name)
    avr = client.verify_quote(quote.to_bytes())
    assert avr.quote_status == QuoteStatus.KEY_REVOKED


def test_nonce_mismatch_detected(wired, quote, ias, monkeypatch):
    network, http, client = wired

    original = ias.verify_quote

    def echo_wrong_nonce(quote_bytes, nonce=""):
        return original(quote_bytes, "stale-nonce")

    monkeypatch.setattr(ias, "verify_quote", echo_wrong_nonce)
    with pytest.raises(IasError):
        client.verify_quote(quote.to_bytes(), nonce="fresh-nonce")


def test_malformed_request_gets_400(wired, quote, rng):
    network, http, _ = wired
    # Hand-roll a bad request over TLS to check the endpoint's hardening.
    from repro.net.rest import HttpParser, HttpRequest
    from repro.tls import TlsClient, TlsConfig

    tls_client = TlsClient(TlsConfig(truststore=http.ias_truststore, rng=rng))
    conn = tls_client.connect(network.connect("vm", http.address))
    conn.send(HttpRequest("POST", "/attestation/v4/report",
                          body=b"not json").encode())
    parser = HttpParser(is_server_side=False)
    [response] = parser.feed(conn.recv_available())
    assert response.status == 400


def test_sigrl_endpoint(wired, ias, quote, rng):
    network, http, _ = wired
    ias.revoke_quote_signature(quote)
    from repro.net.rest import HttpParser, HttpRequest
    from repro.tls import TlsClient, TlsConfig

    tls_client = TlsClient(TlsConfig(truststore=http.ias_truststore, rng=rng))
    conn = tls_client.connect(network.connect("vm", http.address))
    conn.send(HttpRequest("GET", "/attestation/v4/sigrl").encode())
    parser = HttpParser(is_server_side=False)
    [response] = parser.feed(conn.recv_available())
    assert response.status == 200
    from repro.ias.revocation_lists import SigRl

    sigrl = SigRl.from_bytes(bytes.fromhex(response.body.decode()))
    assert len(sigrl) == 1
