"""Seeded LOCK006 — analyzed as sdn/fabric.py.

A lock the checker cannot map to a documented domain drops out of every
other LOCK rule, so its construction must name the domain as a literal
from ORDER_CHAINS, LEAF_DOMAINS or OUTER_DOMAINS.
"""

from repro.analysis.sanitizer import make_lock, make_rlock


class Documented:
    def __init__(self):
        self._lock = make_lock("fabric")          # ok: a documented leaf


class Misspelt:
    def __init__(self):
        self._lock = make_lock("fabirc")          # LOCK006: unknown domain


class Computed:
    def __init__(self, domain):
        self._lock = make_rlock(domain)           # LOCK006: not a literal
