"""Nothing outside the standard library is imported at run time.

``pyproject.toml`` declares no run-time dependency, and CI's test jobs
install only the ``test`` extra, so a third-party import anywhere in
``repro`` breaks a clean install.  The probe imports every module in a
fresh interpreter and diffs ``sys.modules`` around the imports: site
hooks (``_distutils_hack``, ``certifi`` and the like) load before the
probe runs, so they are not counted.
"""

import sys

import pytest

from tests.conftest import run_fresh_python

PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is new in Python 3.10")
def test_every_module_imports_only_the_standard_library():
    loaded = run_fresh_python(PROBE).split()
    assert "repro.sdn.topology" in loaded
    allowed = sys.stdlib_module_names | {"repro"}
    assert [name for name in loaded
            if name.partition(".")[0] not in allowed] == []
