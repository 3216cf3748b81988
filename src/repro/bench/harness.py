"""Benchmark reporting helpers.

Every experiment prints its rows through :class:`Table`, so benchmark
output reads like the tables a paper would carry.  :func:`measure` wraps a
callable and reports both *simulated* time (virtual clock — machine
independent, what the experiment shapes are judged on) and wall time.
:func:`summarize` condenses repeated samples into the min/median/p90/max
row the experiment tables cite.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.clock import VirtualClock

#: Environment variable: directory BENCH_E*.json files are written to.
#: Unset (the default) means no files are written — local runs stay clean.
BENCH_JSON_DIR_ENV = "BENCH_JSON_DIR"

#: Environment variable: non-empty/non-zero shrinks benchmark workloads to
#: CI-smoke size (fewer iterations, same assertions on result *shape*).
BENCH_SMOKE_ENV = "BENCH_SMOKE"


def smoke_mode() -> bool:
    """True when the bench suite should run in CI-smoke size."""
    return os.environ.get(BENCH_SMOKE_ENV, "") not in ("", "0")


@dataclass
class Measurement:
    """One measured operation."""

    result: Any
    simulated_seconds: float
    wall_seconds: float


def measure(clock: VirtualClock, fn: Callable[[], Any]) -> Measurement:
    """Run ``fn`` and capture simulated + wall time around it."""
    sim_start = clock.now()
    wall_start = time.perf_counter()
    result = fn()
    return Measurement(
        result=result,
        simulated_seconds=clock.now() - sim_start,
        wall_seconds=time.perf_counter() - wall_start,
    )


@dataclass(frozen=True)
class Summary:
    """Distribution summary over repeated samples."""

    count: int
    minimum: float
    median: float
    p90: float
    maximum: float

    def row(self, scale: float = 1.0) -> Tuple[float, float, float, float]:
        """``(min, median, p90, max)`` with an optional unit scale
        (e.g. ``1e3`` for milliseconds)."""
        return (self.minimum * scale, self.median * scale,
                self.p90 * scale, self.maximum * scale)


def _nearest_rank(ordered: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile on an already-sorted sequence."""
    if not ordered:
        raise ValueError("cannot take a percentile of zero samples")
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(samples: Sequence[float]) -> Summary:
    """Condense ``samples`` into min/median/p90/max (nearest-rank)."""
    if not samples:
        raise ValueError("summarize() needs at least one sample")
    ordered = sorted(samples)
    return Summary(
        count=len(ordered),
        minimum=ordered[0],
        median=_nearest_rank(ordered, 0.50),
        p90=_nearest_rank(ordered, 0.90),
        maximum=ordered[-1],
    )


class BenchReport:
    """Machine-readable benchmark output: one ``BENCH_<id>.json`` per
    experiment.

    Rows carry named scalar metadata plus optional *simulated* and *wall*
    :class:`Summary` distributions (the same :func:`summarize` output the
    text tables quote), so CI can track the perf trajectory numerically::

        report = BenchReport("E11")
        report.add("ecdsa_verify", wall=summarize(samples),
                   iterations=len(samples), speedup=3.4)
        report.add_table(table)          # mirror a text table verbatim
        report.write()                   # no-op unless BENCH_JSON_DIR set

    Writing is opt-in through the ``BENCH_JSON_DIR`` environment variable
    (the CI bench-smoke job sets it and uploads the directory as an
    artifact); local runs leave no files behind unless asked.
    """

    def __init__(self, experiment: str,
                 directory: Optional[str] = None) -> None:
        self.experiment = experiment
        self._directory = (directory if directory is not None
                           else os.environ.get(BENCH_JSON_DIR_ENV))
        self.rows: List[Dict[str, Any]] = []
        self.tables: List[Dict[str, Any]] = []

    def add(self, name: str, simulated: Optional[Summary] = None,
            wall: Optional[Summary] = None, **meta: Any) -> None:
        """Record one named measurement row."""
        row: Dict[str, Any] = {"name": name}
        if simulated is not None:
            row["simulated"] = asdict(simulated)
        if wall is not None:
            row["wall"] = asdict(wall)
        row.update(meta)
        self.rows.append(row)

    def add_table(self, table: "Table") -> None:
        """Mirror a rendered text table into the JSON payload."""
        self.tables.append({
            "title": table.title,
            "columns": list(table.columns),
            "rows": [list(row) for row in table.rows],
        })

    def payload(self) -> Dict[str, Any]:
        """The full JSON-serialisable document."""
        return {
            "experiment": self.experiment,
            "smoke": smoke_mode(),
            "rows": self.rows,
            "tables": self.tables,
        }

    def write(self) -> Optional[str]:
        """Write ``BENCH_<experiment>.json``; returns the path, or ``None``
        when no output directory is configured."""
        if not self._directory:
            return None
        os.makedirs(self._directory, exist_ok=True)
        path = os.path.join(self._directory,
                            f"BENCH_{self.experiment}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


class Table:
    """A fixed-column text table printed to stdout (and kept for asserts)."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[Tuple] = []

    def add_row(self, *values: Any) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def render(self) -> str:
        """The formatted table."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in cells))
            if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns)
        ))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            ))
        return "\n".join(lines)

    def show(self) -> None:
        """Print the table (pytest -s makes it visible)."""
        print("\n" + self.render())

    def column(self, name: str) -> List[Any]:
        """All values of one column, by name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]
