"""One sim-network transport path.

Services listen through ``serve_http``/``serve_frames``, clients talk
through a ``ClientStream`` and HTTP services ask ``injected_fault`` for
an injected error, all in :mod:`repro.net.transport`.  A direct call
to the primitives below from anywhere else in ``src/repro`` is a second
copy of that plumbing, and fails here.
"""

import ast
from pathlib import Path
from typing import List, Tuple

import repro
from repro.analysis.base import call_func_name

SRC = Path(repro.__file__).resolve().parent

#: The primitives only ``repro.net`` may call.
TRANSPORT_CALLS = frozenset({
    "listen", "HttpParser", "send_frame", "recv_frame", "try_recv_frame",
    "next_http_error",
})


def transport_calls(root: Path) -> List[Tuple[str, int, str]]:
    """``(path relative to root, line, name)`` of every call to a
    transport primitive in the modules under ``root``."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and call_func_name(node) in TRANSPORT_CALLS):
                sites.append((relpath, node.lineno, call_func_name(node)))
    return sites


def test_no_transport_call_outside_the_net_package():
    outside = [site for site in transport_calls(SRC)
               if not site[0].startswith("net/")]
    assert outside == []


def test_the_walk_sees_every_primitive_inside_the_net_package():
    # Guards the guard: a walk that found nothing would pass above.
    inside = {name for relpath, _, name in transport_calls(SRC)
              if relpath.startswith("net/")}
    assert inside == TRANSPORT_CALLS


def test_a_direct_call_elsewhere_is_caught(tmp_path):
    (tmp_path / "sdn").mkdir()
    (tmp_path / "sdn" / "rogue.py").write_text(
        "def serve(network, address, accept):\n"
        "    network.listen(address, accept)\n",
        encoding="utf-8",
    )
    assert transport_calls(tmp_path) == [("sdn/rogue.py", 2, "listen")]
