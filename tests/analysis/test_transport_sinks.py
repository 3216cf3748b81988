"""SEC006 watches the sim-network stream holder's exchanges.

Every client exchange hands its message to ``ClientStream.exchange_http``
or ``ClientStream.exchange_frame`` (``repro.net.transport``), so a
secret passed to either must fire SEC006 as a direct ``send`` would.
"""

from repro.analysis import SecretFlowChecker

from tests.analysis.conftest import analyze_fixture


def _findings():
    return analyze_fixture("secret_flow_transport.py", "core/stub.py",
                           checkers=[SecretFlowChecker()])


def test_secret_handed_to_an_exchange_fires():
    assert {(f.rule_id, f.symbol) for f in _findings()} == {
        ("SEC006", "leak_through_http_exchange"),
        ("SEC006", "leak_through_frame_exchange"),
    }


def test_plain_values_are_silent():
    assert not [f for f in _findings() if f.symbol.startswith("plain_")]
