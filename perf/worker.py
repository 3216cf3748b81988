"""One benchmark process: set up one workload, then measure it.

``run.py`` starts this script in a fresh interpreter per set-up, so
set-up time and peak RSS belong to one workload.  Modes:

* ``setup``   -- build and warm up, report ``setup_s``;
* ``measure`` -- build, warm up, then run the measured loop untraced;
* ``trace``   -- build, warm up, run half the measured window untraced
  and half under :class:`layers.Tracer`, report the per-layer split.

The last line of standard output is one JSON object for ``run.py``.

Wall times are scaled to a reference CPU speed.  The 2-vCPU virtual
machines this benchmark runs on share their host: a fixed pure-Python
loop runs up to ~2x slower while a neighbour is busy, for seconds at a
time, and that swamps any change worth measuring.  So every ~50 ms the
loop in :func:`calibration_sample` (independent of the repository's
code) is timed between operations, and each operation's time is scaled
by ``REFERENCE_CALIBRATION_S`` over the loop's current time.  A reported
millisecond is therefore a millisecond on a CPU where that loop takes
``REFERENCE_CALIBRATION_S``; ``cpu_factor`` says how much slower the
machine actually ran.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.errors import ReproError  # noqa: E402

from layers import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WINDOWS = 20
CALIBRATE_EVERY_S = 0.05
#: The calibration loop's time on an idle 2.1 GHz vCPU (Python 3.11).
REFERENCE_CALIBRATION_S = 430e-6

_P256 = 2**256 - 2**224 + 2**192 + 2**96 - 1
_TABLE = [(i * 0x9E3779B97F4A7C15F39CC0605CEDC835) & ((1 << 128) - 1)
          for i in range(256)]


def calibration_sample() -> float:
    """Seconds one fixed loop of 256-bit modular squaring and 128-bit
    table lookups (the interpreter work EC and GHASH do) takes now."""
    start = time.perf_counter()
    x = 0x6A09E667F3BCC908BB67AE8584CAA73B3C6EF372FE94F82BA54FF53A5F1D36F1
    acc = 0
    for _ in range(200):
        x = x * x % _P256
        for byte in x.to_bytes(32, "big")[:16]:
            acc = (acc >> 8) ^ _TABLE[byte ^ (acc & 0xFF)]
    return time.perf_counter() - start


def cpu_factor(samples) -> float:
    """How much slower than the reference the CPU ran over ``samples``."""
    return statistics.median(samples) / REFERENCE_CALIBRATION_S


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(fraction * len(sorted_values) - 1e-9)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


class Run:
    """The measured loop over one workload and what it recorded."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.latency = []       # wall seconds per successful op
        self.kinds = []
        self.sim = []           # simulated seconds per successful op
        self.calibration = []   # (ops done, calibration seconds)
        self.payload = 0
        self.attempted = 0
        self.failed = 0
        self.checkpoint = None

    def loop(self, limit, deadline, tracer=None, checkpoint_at=None) -> None:
        """Run ops until ``limit`` ops or the ``deadline`` (whichever is
        set and comes first).

        An op that raises is a failed check: it counts toward
        ``fail_frac`` but not toward the latencies and throughput, so
        ops that fail fast cannot read as a speed-up.
        """
        workload = self.workload
        clock = workload.clock
        perf = time.perf_counter
        next_sample = perf()
        while (limit is None or self.attempted < limit) and (
                deadline is None or perf() < deadline):
            if perf() >= next_sample:
                self.calibration.append((len(self.latency),
                                         calibration_sample()))
                next_sample = perf() + CALIBRATE_EVERY_S
            op = workload.plan()
            sim_start = clock.now()
            start = perf()
            try:
                if tracer is None:
                    result = workload.execute(op)
                else:
                    result = tracer.op(self.attempted,
                                       lambda: workload.execute(op))
            except ReproError as exc:
                result = exc
            elapsed = perf() - start
            sim_elapsed = clock.now() - sim_start
            self.attempted += 1
            if isinstance(result, ReproError):
                self.failed += 1
                workload.problem(f"{op[0]} failed: {type(result).__name__}: "
                                 f"{result}")
            else:
                self.payload += workload.check(op, result)
                self.latency.append(elapsed)
                self.kinds.append(op[0])
                self.sim.append(sim_elapsed)
            if self.attempted == checkpoint_at:
                self.take_checkpoint()

    def take_checkpoint(self) -> None:
        """Freeze the deterministic outputs over the ops run so far."""
        workload = self.workload
        drained = workload.drain()
        ops = len(self.sim)
        workload.digest.update(
            json.dumps(workload.clock.charges(), sort_keys=True).encode())
        timed = sorted(s for s, k in zip(self.sim, self.kinds)
                       if k in workload.timed_kinds)
        self.checkpoint = {
            "outputs_digest": workload.digest.hexdigest(),
            "digest_ops": ops,
            "sim_lat_p50_ms": 1e3 * statistics.median(timed) if timed else 0.0,
            "sim_ops_per_s": ops / (sum(self.sim) + drained),
            "peak_rss_mb": _peak_rss_mb(),
        }
        revokes = [s for s, k in zip(self.sim, self.kinds)
                   if k.startswith("revoke")]
        if revokes:
            self.checkpoint["revoke_sim_ms"] = 1e3 * statistics.median(revokes)

    # ------------------------------------------------------------ scaling

    def scaled_latency(self):
        """Per-op wall seconds at the reference CPU speed.

        An op is scaled by the mean of two CPU factors: that of the last
        calibration sample taken before it and that of the first taken
        after it, each the median of five neighbouring samples.
        """
        samples = [seconds for _, seconds in self.calibration]
        smoothed = [cpu_factor(samples[max(0, j - 2):j + 3])
                    for j in range(len(samples))]
        last = len(samples) - 1
        scaled, j = [], 0
        for index, elapsed in enumerate(self.latency):
            while j < last and self.calibration[j + 1][0] <= index:
                j += 1
            factor = (smoothed[j] + smoothed[min(j + 1, last)]) / 2
            scaled.append(elapsed / factor)
        return scaled

    def throughput(self) -> float:
        """Median over equal-op windows of ops per (scaled) busy second."""
        scaled = self.scaled_latency()
        count = min(WINDOWS, len(scaled))
        size = len(scaled) // count
        return statistics.median(
            size / sum(scaled[i * size:(i + 1) * size]) for i in range(count))

    def metrics(self) -> dict:
        scaled = self.scaled_latency()
        timed = sorted(t for t, k in zip(scaled, self.kinds)
                       if k in self.workload.timed_kinds)
        result = {
            "ops_per_s": self.throughput(),
            "lat_p50_ms": 1e3 * _percentile(timed, 0.50),
            "lat_p95_ms": 1e3 * _percentile(timed, 0.95),
            "bytes_per_s": self.payload / sum(scaled),
            "fail_frac": self.failed / self.attempted,
        }
        result.update({k: v for k, v in self.checkpoint.items()
                       if k not in ("outputs_digest", "digest_ops")})
        # CA-issued revocations re-sign the CRL, RA-TLS ones only evict
        # sessions: one median over both would fall between the modes.
        for path in ("ca", "ratls"):
            wall = [t for t, k in zip(scaled, self.kinds)
                    if k == f"revoke-{path}"]
            if wall:
                result[f"revoke_{path}_p50_ms"] = 1e3 * statistics.median(wall)
        return result

    def samples(self) -> dict:
        """Op count, timed-op count, calibration samples, and the count of
        each op kind the latency percentiles leave out."""
        counts = {"ops": len(self.latency),
                  "timed": sum(1 for k in self.kinds
                               if k in self.workload.timed_kinds),
                  "calibrations": len(self.calibration)}
        for kind in self.kinds:
            if kind not in self.workload.timed_kinds:
                counts[kind] = counts.get(kind, 0) + 1
        return counts


class StepTimer:
    """Wall time of a sequence of steps at the reference CPU speed.

    Each step is scaled by the CPU factor of calibration samples taken
    right before and right after it (the median of three each), so a
    burst of contention during a long set-up is corrected where it
    happened.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._sample = self._calibrate()
        self._start = time.perf_counter()

    @staticmethod
    def _calibrate() -> float:
        return statistics.median(calibration_sample() for _ in range(3))

    def lap(self) -> None:
        """End the current step and start the next."""
        elapsed = time.perf_counter() - self._start
        sample = self._calibrate()
        self.seconds += elapsed / cpu_factor([self._sample, sample])
        self._sample = sample
        self._start = time.perf_counter()


def set_up(workload) -> float:
    """Build and warm up ``workload``; returns scaled set-up seconds:
    the build steps plus the warm-up ops' busy time."""
    timer = StepTimer()
    for _ in workload.setup():
        timer.lap()
    timer.lap()
    warmup = Run(workload)
    warmup.loop(workload.warmup_ops, None)
    return timer.seconds + sum(warmup.scaled_latency())


def layer_report(untraced: Run, traced: Run, tracer: Tracer,
                 charges_before: dict) -> dict:
    """Per-layer metrics of the traced phase plus the sim-time split.

    Wall times are scaled by the phase's median CPU factor, like the
    end-to-end ones.
    """
    factor = cpu_factor([sample for _, sample in traced.calibration])
    revokes = sum(1 for k in traced.kinds if k.startswith("revoke"))
    metrics = {name: value / factor if "ms_per" in name else value
               for name, value in tracer.metrics(revokes).items()}
    metrics["trace.overhead_frac"] = 1.0 - (traced.throughput()
                                            / untraced.throughput())
    ops = max(tracer.ops, 1)
    charges = traced.workload.clock.charges()
    for account in sorted(charges):
        delta = charges[account] - charges_before.get(account, 0.0)
        metrics[f"sim.{account}_ms_per_op"] = 1e3 * delta / ops
    split = tracer.layer_self_ms()
    return {
        "metrics": metrics,
        "self_ms_per_op": {layer: split[layer] / factor for layer in LAYERS},
        "op_ms": 1e3 * tracer.op_wall / ops / factor,
        "ops": tracer.ops,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops-scale", type=float, default=None)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    out = {"workload": workload.name, "seed": args.seed, "mode": args.mode,
           "setup_s": set_up(workload)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.ops_scale is not None:
        limit = max(1, round(workload.prefix_ops * args.ops_scale))
        checkpoint_at = limit
        seconds = None
    else:
        limit = None
        checkpoint_at = workload.prefix_ops
        seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    gc.collect()

    run = Run(workload)
    phase_end = None if seconds is None else time.perf_counter() + seconds
    run.loop(limit, phase_end, checkpoint_at=checkpoint_at)
    if run.checkpoint is None:
        run.take_checkpoint()
    phases = [run]
    if args.mode == "trace":
        traced = Run(workload)
        charges_before = workload.clock.charges()
        tracer = Tracer()
        phase_end = None if seconds is None else time.perf_counter() + seconds
        with tracer:
            traced.loop(limit, phase_end, tracer=tracer)
        out["layers"] = layer_report(run, traced, tracer, charges_before)
        if args.trace_dir:
            directory = Path(args.trace_dir)
            directory.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(
                directory / f"{workload.name}-seed{args.seed}.spans.jsonl")
        phases.append(traced)
    workload.finish()
    out.update({
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "problems": workload.problems[:20],
        "problem_count": len(workload.problems),
        "metrics": run.metrics(),
        "cpu_factor": cpu_factor([s for _, s in run.calibration]),
        "samples": run.samples(),
        "outputs_digest": run.checkpoint["outputs_digest"],
        "digest_ops": run.checkpoint["digest_ops"],
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
