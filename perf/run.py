"""Outside-in benchmark of the VNF credential system.

Usage (from the repository root)::

    python3 perf/run.py [--workload W] [--seed N] [--seconds S]
                        [--trace 0|1] [--trace-dir DIR] [--out DIR]
                        [--ops-scale X]

Without ``--workload`` all four workloads run, one after another.  Each
set-up runs in a fresh interpreter (``worker.py``): a workload is set up
``SETUPS`` times and ``setup_s`` is the median; the last of those
processes then measures for the ``run_seconds`` of ``BENCHMARK.json``.
The run length belongs to the benchmark, so that two commits always
run equally long: ``--seconds`` may be given, but only with that value.
``--ops-scale X`` replaces the time limit by a fixed operation count
(``X`` times the workload's digest prefix), which makes whole runs
repeat exactly; the benchmark's own tests use it.

``--trace 1`` measures half the window untraced and half with every
layer's entry points wrapped (``layers.py``) and reports the per-layer
metrics instead of the end-to-end ones; with ``--trace-dir DIR`` the
raw spans of the first 500 traced operations are written there.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The process exits 0 when every output check passed, 1 when one failed,
and 2 when it cannot run (no ``src/repro`` next to this directory, or a
``--seconds`` other than ``run_seconds``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("onboard", "northbound", "kms", "revoke_churn")
SETUPS = 3

#: Metrics printed beside the ``BENCHMARK.json`` end-to-end ones:
#: name -> (unit, better, bound).  The simulated-time metrics repeat
#: exactly for a seed; ``revoke_*`` exist only on revoke_churn.
EXTRA_METRICS = {
    "sim_lat_p50_ms": ("sim_ms", "lower", 0.01),
    "sim_ops_per_s": ("op/sim_s", "higher", 0.01),
    "fail_frac": ("fraction", "lower", 0.0),
    "revoke_ca_p50_ms": ("ms", "lower", 0.25),
    "revoke_ratls_p50_ms": ("ms", "lower", 0.25),
    "revoke_sim_ms": ("sim_ms", "lower", 0.01),
}
DETERMINISTIC = ("sim_lat_p50_ms", "sim_ops_per_s", "revoke_sim_ms")

#: Predicted per-layer values a workload exists to isolate; the traced
#: run fails when one does not hold.
PREDICTIONS = {
    "northbound": {"aead.setups_per_op": "zero", "ec.mults_per_op": "zero"},
    "kms": {"aead.setups_per_op": "positive", "ec.mults_per_op": "zero"},
    "revoke_churn": {"aead.setups_per_op": "at_least_one"},
    "onboard": {"aead.setups_per_op": "at_least_one"},
}
KMS_METRICS = ("kms.self_ms_per_op", "kms.auth_ms_per_op",
               "kms.shard_ms_per_op", "kms.calls_per_op")
MAX_UNATTRIBUTED = 0.15


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(benchmark: dict) -> dict:
    """name -> (unit, better, bound) for every end-to-end metric."""
    table = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in benchmark["end_to_end"]}
    table.update(EXTRA_METRICS)
    return table


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.startswith("sim."):
        return "sim_ms/op"
    for suffix, unit in (("ms_per_op", "ms/op"),
                         ("ms_per_revoke", "ms/revoke"),
                         ("bytes_per_op", "B/op"),
                         ("_per_revoke", "1/revoke"),
                         ("_per_kop", "1/kop"),
                         ("_per_op", "1/op"),
                         ("_ratio", "fraction"),
                         ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "1"


def spawn(workload: str, seed: int, mode: str, args) -> dict:
    """Run one ``worker.py`` process; returns its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--mode", mode]
    if args.ops_scale is not None:
        command += ["--ops-scale", str(args.ops_scale)]
    else:
        command += ["--seconds", str(args.seconds)]
    if mode == "trace" and args.trace_dir:
        command += ["--trace-dir", args.trace_dir]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=900, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} worker exited with "
                           f"{completed.returncode}")
    return json.loads(lines[-1])


def discrimination(workload: str, metrics: dict) -> list:
    """Predicted per-layer values that did not hold."""
    failures = []
    expected = dict(PREDICTIONS.get(workload, {}))
    if workload != "kms":
        expected.update({name: "zero" for name in KMS_METRICS})
    for name, rule in expected.items():
        value = metrics[name]
        held = {"zero": value == 0, "positive": value > 0,
                "at_least_one": value >= 1}[rule]
        if not held:
            failures.append(f"{name} = {value:.4g}, predicted {rule}")
    unattributed = metrics["trace.unattributed_frac"]
    if unattributed > MAX_UNATTRIBUTED:
        failures.append(f"trace.unattributed_frac = {unattributed:.3f} "
                        f"> {MAX_UNATTRIBUTED}")
    return failures


def run_workload(workload: str, args, benchmark: dict) -> dict:
    """Set up and measure one workload; returns the run record."""
    if args.trace:
        result = spawn(workload, args.seed, "trace", args)
        setups = [result["setup_s"]]
        layer = result["layers"]
        metrics = dict(layer["metrics"])
        units = {name: layer_unit(name) for name in metrics}
        problems = list(result["problems"])
        problems += discrimination(workload, metrics)
    else:
        setups = [spawn(workload, args.seed, "setup", args)["setup_s"]
                  for _ in range(SETUPS - 1)]
        result = spawn(workload, args.seed, "measure", args)
        setups.append(result["setup_s"])
        metrics = {"setup_s": statistics.median(setups), **result["metrics"]}
        table = metric_table(benchmark)
        units = {name: table[name][0] for name in metrics}
        layer = None
        problems = list(result["problems"])
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "correct": not problems and result["problem_count"] == 0,
        "problems": problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "units": units,
        "samples": result["samples"],
        "setup_runs": setups,
        "cpu_factor": result.get("cpu_factor"),
        "outputs_digest": result["outputs_digest"],
        "digest_ops": result["digest_ops"],
        "layers": layer,
    }


def print_record(record: dict) -> None:
    samples = record["samples"]
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{samples['ops']} ops, {samples['timed']} timed"
          f"{', traced' if record['trace'] else ''}; CPU ran "
          f"{record['cpu_factor']:.3f}x the reference time) ==")
    counts = {"setup_s": len(record["setup_runs"]),
              "revoke_ca_p50_ms": samples.get("revoke-ca", 0),
              "revoke_ratls_p50_ms": samples.get("revoke-ratls", 0)}
    for name in ("sim_lat_p50_ms", "sim_ops_per_s", "peak_rss_mb",
                 "revoke_sim_ms"):
        counts[name] = record["digest_ops"]
    for name, value in record["metrics"].items():
        count = counts.get(name, samples["ops"] if not record["trace"]
                           else record["layers"]["ops"])
        print(f"  {name:32s} {value:14.6g} {record['units'][name]:10s} "
              f"n={count}")
    if record["layers"] is not None:
        layer = record["layers"]
        print(f"  self time by layer (op = {layer['op_ms']:.4g} ms):")
        for name, ms in layer["self_ms_per_op"].items():
            share = ms / layer["op_ms"] if layer["op_ms"] else 0.0
            print(f"    {name:14s} {ms:10.4g} ms/op  {share:6.1%}")
    print(f"  outputs_digest {record['outputs_digest']} "
          f"(first {record['digest_ops']} ops)")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def write_out(directory: Path, record: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"{'-trace' if record['trace'] else ''}")
    index = 0
    while (directory / f"{stem}-{index:03d}.json").exists():
        index += 1
    with open(directory / f"{stem}-{index:03d}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; must equal BENCHMARK.json's "
                        "run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None,
                        help="write the traced run's raw spans here")
    parser.add_argument("--out", default=None,
                        help="write one JSON record per run here")
    parser.add_argument("--ops-scale", type=float, default=None,
                        help="run a fixed op count instead of --seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    run_seconds = benchmark["run_seconds"]
    if args.seconds is not None and args.seconds != run_seconds:
        print(f"error: --seconds must be run_seconds ({run_seconds}) from "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    args.seconds = run_seconds
    wanted = ("per_layer" if args.trace else "end_to_end")
    listed = [m["name"] for m in benchmark[wanted]]

    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = []
    try:
        for workload in workloads:
            record = run_workload(workload, args, benchmark)
            print_record(record)
            if args.out:
                write_out(Path(args.out), record)
            records.append(record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for record in records:
        prefix = "" if args.workload else f"{record['workload']}."
        for name in listed:
            metrics[prefix + name] = {"value": record["metrics"][name],
                                      "unit": record["units"][name]}
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
