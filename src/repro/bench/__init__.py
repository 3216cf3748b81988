"""Shared benchmark infrastructure: result tables and workload generators."""

from repro.bench.harness import (
    Measurement,
    Summary,
    Table,
    measure,
    summarize,
)
from repro.bench.workloads import (
    deployment_with_iml_size,
    fleet_deployment,
    synthetic_files,
)

__all__ = [
    "Measurement",
    "Summary",
    "Table",
    "measure",
    "summarize",
    "deployment_with_iml_size",
    "fleet_deployment",
    "synthetic_files",
]
