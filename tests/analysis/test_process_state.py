"""No process-wide DRBG or metrics registry.

Every component takes its DRBG and its metrics registry from its caller,
so equal seeds give equal bytes and two deployments in one process
never share a counter.  A module global holding either is state that
every caller in the process shares, and fails here.
"""

import importlib
import pkgutil
import sys
import types
from typing import Iterable, List

import repro
from repro.crypto.rng import HmacDrbg
from repro.obs.registry import MetricsRegistry


def shared_state(modules: Iterable[types.ModuleType]) -> List[str]:
    """``module.name`` of every module global that is a DRBG or a
    metrics registry."""
    return sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, (HmacDrbg, MetricsRegistry))
    )


def test_shared_state_finds_a_module_global():
    planted = types.ModuleType("planted")
    planted.rng = HmacDrbg(b"planted")
    planted.registry = MetricsRegistry()
    planted.seed = b"planted"
    assert shared_state([planted]) == ["planted.registry", "planted.rng"]


def test_no_module_global_is_a_drbg_or_a_registry():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    modules = [module for name, module in list(sys.modules.items())
               if module is not None
               and (name == "repro" or name.startswith("repro."))]
    assert len(modules) > 100
    assert shared_state(modules) == []
