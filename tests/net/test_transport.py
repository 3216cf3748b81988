"""The shared listeners, the injected-fault answer and the client stream."""

import pytest

from repro.core import Deployment
from repro.errors import (
    ChannelClosed,
    ConnectionRefused,
    HandshakeFailure,
    TlsAlert,
)
from repro.net.address import Address
from repro.net.faults import FaultPlan
from repro.net.rest import HttpRequest, HttpResponse
from repro.net.transport import (
    ClientStream,
    injected_fault,
    serve_frames,
    serve_http,
)
from repro.sdn.northbound import MODE_HTTP, MODE_HTTPS, MODE_TRUSTED

from tests.net.test_transport_faults import _tracked

HTTP = Address("web", 80)
FRAMES = Address("agent", 7000)


@pytest.fixture
def http_world(network):
    served = []

    def respond(request, stream):
        served.append(request.path)
        return HttpResponse(200, body=request.path.encode())

    serve_http(network, HTTP, respond)
    return network, served


def _opener(network, address=HTTP):
    return lambda: network.connect("client", address)


# ------------------------------------------------------------- listeners


def test_serve_http_answers_pipelined_requests_in_order(http_world):
    network, served = http_world
    channel = network.connect("client", HTTP)
    channel.send(HttpRequest("GET", "/a").encode()
                 + HttpRequest("GET", "/b").encode())
    assert served == ["/a", "/b"]
    wire = channel.recv_available()
    assert wire == (HttpResponse(200, body=b"/a").encode()
                    + HttpResponse(200, body=b"/b").encode())


def test_serve_frames_answers_each_frame(network):
    serve_frames(network, FRAMES, lambda frame: frame[::-1])
    stream = ClientStream(_opener(network, FRAMES))
    assert stream.exchange_frame(b"abc") == b"cba"
    assert stream.exchange_frame(b"") == b""


@pytest.mark.parametrize("what, body", [
    ("service", b"injected fault: service unavailable"),
    ("key manager", b"injected fault: key manager unavailable"),
    ("controller", b"injected fault: controller unavailable"),
])
def test_injected_fault_answers_the_scheduled_status(network, what, body):
    assert injected_fault(network, HTTP, what) is None
    network.install_faults(FaultPlan().http_error(HTTP, status=503))
    assert injected_fault(network, HTTP, what).encode() == (
        b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\n"
        b"content-length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    assert injected_fault(network, HTTP, what) is None


# ---------------------------------------------------------- client stream


def test_stream_opens_on_first_use_and_is_reused(http_world):
    network, _ = http_world
    stream = ClientStream(_opener(network))
    assert not stream.is_open
    assert network.connections_opened == 0
    assert stream.exchange_http(HttpRequest("GET", "/1")).body == b"/1"
    assert stream.exchange_http(HttpRequest("GET", "/2")).body == b"/2"
    assert stream.is_open
    assert network.connections_opened == 1


def test_stream_reopens_after_a_local_close(http_world):
    network, _ = http_world
    stream = ClientStream(_opener(network))
    stream.exchange_http(HttpRequest("GET", "/1"))
    stream.close()
    stream.close()  # idempotent
    assert stream.exchange_http(HttpRequest("GET", "/2")).body == b"/2"
    assert network.connections_opened == 2


def test_stream_reopens_when_the_peer_closed_it(http_world):
    network, _ = http_world
    opened = []

    def opener():
        opened.append(network.connect("client", HTTP))
        return opened[-1]

    stream = ClientStream(opener)
    stream.exchange_http(HttpRequest("GET", "/1"))
    opened[0].peer.close()
    assert not stream.is_open
    messages = network.messages_sent
    assert stream.exchange_http(HttpRequest("GET", "/2")).body == b"/2"
    # Straight to a new stream: no send was wasted on the finished one.
    assert network.messages_sent == messages + 2
    assert len(opened) == 2


def test_a_transport_fault_drops_the_stream(http_world):
    network, _ = http_world
    stream = ClientStream(_opener(network))
    plan = network.install_faults(FaultPlan())
    plan.drop_after_sends(HTTP, sends=3)
    stream.exchange_http(HttpRequest("GET", "/1"))
    with pytest.raises(ChannelClosed):
        stream.exchange_http(HttpRequest("GET", "/2"))
    assert not stream.is_open
    assert stream.exchange_http(HttpRequest("GET", "/3")).body == b"/3"
    assert network.connections_opened == 2


def test_a_refused_open_leaves_no_stream(http_world):
    network, _ = http_world
    network.install_faults(FaultPlan().refuse_connections(HTTP, count=1))
    stream = ClientStream(_opener(network))
    with pytest.raises(ConnectionRefused):
        stream.exchange_http(HttpRequest("GET", "/1"))
    assert not stream.is_open
    assert stream.exchange_http(HttpRequest("GET", "/2")).body == b"/2"


def test_no_response_is_none_and_keeps_the_stream(network):
    silent = []
    network.listen(HTTP, silent.append)
    stream = ClientStream(_opener(network))
    assert stream.exchange_http(HttpRequest("GET", "/1")) is None
    assert stream.is_open


def test_context_manager_closes_the_stream(http_world):
    network, _ = http_world
    opened = []

    def opener():
        opened.append(network.connect("client", HTTP))
        return opened[-1]

    with ClientStream(opener) as stream:
        stream.exchange_http(HttpRequest("GET", "/1"))
    assert opened[0].closed
    assert not stream.is_open


# ------------------------------------------------------ in-enclave client


def test_enclave_client_recovers_from_a_dropped_session():
    """The in-enclave holder drops a faulted session, so the next
    request opens a new one instead of failing on the dead stream."""
    deployment = Deployment(seed=b"enclave-stream", vnf_count=1)
    deployment.enroll("vnf-1")
    client = deployment.enclave_client("vnf-1")
    network = deployment.network
    client.close()
    before = network.messages_sent
    client.summary()  # a resumed handshake and one exchange
    session_sends = network.messages_sent - before
    client.close()

    plan = FaultPlan()
    plan.drop_after_sends(deployment.controller_address(),
                          sends=session_sends + 1)
    deployment.install_faults(plan)
    client.summary()
    with pytest.raises(ChannelClosed):
        client.summary()  # its request drops on the reused session
    assert plan.injected == {"connection-drop": 1}
    connects = network.connections_opened
    assert client.summary()["controller"] == "floodlight"
    assert network.connections_opened == connects + 1


# ----------------------------------------------------- refused handshakes


def test_a_handshake_the_client_refuses_closes_both_ends():
    """Trusted HTTPS asks for a client certificate the baseline client
    lacks: the client gives up mid-handshake and must not strand the
    channel, and the server, seeing EOF, closes its end too."""
    deployment = Deployment(seed=b"refused-handshake", vnf_count=1)
    opened = _tracked(deployment.network)
    client = deployment.baseline_client(MODE_TRUSTED)
    for _ in range(3):
        with pytest.raises(HandshakeFailure):
            client.summary()
    assert len(opened) == 3
    assert [(ch.closed, ch.peer.closed)
            for _, ch in opened] == [(True, True)] * 3


def test_a_handshake_the_server_refuses_closes_both_ends():
    """A revoked VNF's in-enclave client meets the controller's fatal
    alert; the server closes its end and the client closes its own."""
    deployment = Deployment(seed=b"refused-handshake", vnf_count=1)
    deployment.enroll("vnf-1")
    client = deployment.enclave_client("vnf-1")
    client.close()
    deployment.vm.revoke_vnf("vnf-1")
    opened = _tracked(deployment.network)
    with pytest.raises(TlsAlert):
        client.summary()
    [(_, channel)] = opened
    assert (channel.closed, channel.peer.closed) == (True, True)


# ------------------------------------------------- ends of finished streams


def test_a_replaced_stream_is_closed():
    """The controller closes an idle HTTPS connection; the next summary
    reopens, and the client closes its end of the finished stream."""
    deployment = Deployment(seed=b"replaced-stream", vnf_count=1)
    opened = _tracked(deployment.network)
    client = deployment.baseline_client(MODE_HTTPS)
    client.summary()
    [(_, first)] = opened
    first.peer.close()
    client.summary()
    assert len(opened) == 2
    assert first.closed
    assert not opened[1][1].closed


def _summary(mode):
    return lambda deployment: deployment.baseline_client(mode).summary()


def _attest(deployment):
    return deployment.agent_client.attest_host(b"\x01" * 16, b"eof")


@pytest.mark.parametrize("request_once", [
    _summary(MODE_HTTPS), _summary(MODE_HTTP), _attest,
], ids=["tls-http", "http", "frames"])
def test_a_listener_closes_its_end_when_the_client_leaves(request_once):
    """The client's transport ends without a word (no close_notify):
    the listener closes its end too, and sends nothing."""
    deployment = Deployment(seed=b"listener-eof", vnf_count=1)
    opened = _tracked(deployment.network)
    request_once(deployment)
    [(_, channel)] = opened
    assert not channel.peer.closed
    messages = deployment.network.messages_sent
    channel.close()
    assert channel.peer.closed
    assert deployment.network.messages_sent == messages


def test_a_clean_tls_close_is_not_answered():
    """After the client's close_notify the server closes its channel
    without a close_notify of its own."""
    deployment = Deployment(seed=b"listener-eof", vnf_count=1)
    opened = _tracked(deployment.network)
    client = deployment.baseline_client(MODE_HTTPS)
    client.summary()
    [(_, channel)] = opened
    messages = deployment.network.messages_sent
    client.close()
    assert channel.peer.closed
    assert deployment.network.messages_sent == messages + 1
