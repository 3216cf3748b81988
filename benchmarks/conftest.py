"""Benchmark-suite configuration.

Run with ``pytest benchmarks/ --benchmark-only``.  Every experiment prints
its result table (visible with ``-s``; captured otherwise) and asserts the
*shape* of the result — who wins, what grows linearly, where the crossover
sits — since absolute numbers depend on the host machine.
"""


def pytest_configure(config):
    # The benchmark files live outside the tests/ rootdir default.
    config.addinivalue_line("markers",
                            "experiment(id): maps a benchmark to EXPERIMENTS.md")
