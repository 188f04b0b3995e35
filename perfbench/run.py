"""twistcode benchmark: end-to-end and per-layer metrics of the workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Run from the root of a source checkout; the package is imported from its
src/ directory.  Workloads (see workloads.py for the exact checks):

  sweep-q8     criterion 6: second_weight_check over all 19,173,961
               classes at (q, n, j) = (8, 2, 1), threads = nproc
  verify-q4    criteria 3, 4, 5, 7 and the rank bounds of 12 at (4, 2, 1)
  geometry-q9  criterion 10: find_fpf_collineation on PG(3, 9)
  probe-mix    seeded single-matrix calls at four configurations

BENCHMARK.json lists sweep-q8 and geometry-q9 only; README.md says why
the other two are left out.  Both stay runnable, and every traced run
measures their layers (micro.kernels, micro.probes).

Every run starts fresh interpreters, because the package caches fields,
systems, geometries and lines per process and a command-line user pays
those costs on every call.  With --trace 0 the run starts one interpreter
that sets up and runs jobs: verify-q4 and probe-mix repeat theirs until
--seconds have passed, sweep-q8 runs one, and geometry-q9 runs one per
interpreter, in fresh interpreters until its job time reaches --seconds.
Then interpreters that only set up bring the set-up samples to
SETUP_SAMPLES, and the run prints the end-to-end metrics.  With --trace 1
it runs the workload in one interpreter plainly and in one traced, then
the layer micro-measurements of micro.py, each in its own interpreter,
and prints the per-layer metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is the run record.  A wrong or raising call makes the
exit code 1; a run that cannot be made at all exits 2 without a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("sweep-q8", "verify-q4", "geometry-q9", "probe-mix")
SETUP_SAMPLES = 7
RUN_BUDGET_S = 175      # the whole command must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "classes_per_s": "classes/s",
    "calls_per_s": "calls/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

MODULES = ("gf", "linalg", "projgeom", "gamma", "embedding", "bulk", "code",
           "hyperplanes", "rng", "cli")
KERNEL_QS = ("q4", "q8", "q9")
PROBE_CFGS = ("q4n2", "q9n2", "q4n3", "q8n2")


def _per_layer() -> dict:
    units = {}
    for k in ("theta_batch", "zero_counts_batch", "rank3_batch",
              "pairing_batch"):
        for q in KERNEL_QS:
            units[f"bulk.{k}.ns_per_class.{q}"] = "ns"
    units["bulk.theta_batch.gathers_per_class.q8"] = "count"
    for opt in ("c6", "minimality"):
        for q in KERNEL_QS:
            units[f"bulk.sweep_chunk.ns_per_class.{opt}.{q}"] = "ns"
    for q in KERNEL_QS:
        units[f"projgeom.class_reps_range.ns_per_class.{q}"] = "ns"
    units["bulk.iter_sweep.parallel_eff"] = "ratio"
    for name in ("projgeom.enumerate_lines.s.pg3_9",
                 "gamma.Gamma.lines.s.pg3_9", "gf.make_field.s.q3_8",
                 "gf.make_field.s.q9", "embedding.build_system.s.q9n3",
                 "embedding.build_system.s.q8n2",
                 "embedding.make_system.s.q9n3"):
        units[name] = "s"
    units["gamma.is_geometric_hyperplane.ms_per_call.q4n3"] = "ms"
    units["gamma.is_geometric_hyperplane.ms_per_call.q9n3"] = "ms"
    for name in ("code.theta.ms_per_call", "code.eval_codeword.ms_per_call",
                 "code.line_solution_bound.ms_per_call",
                 "code.subspace_solution_bound.ms_per_call",
                 "code.automorphism_check.ms_per_trial"):
        units[name] = "ms"
    units["linalg.rank.us_per_call"] = "us"
    units["linalg.invert.us_per_call"] = "us"
    for c in PROBE_CFGS:
        units[f"hyperplanes.classify.ms_per_call.{c}"] = "ms"
    units["hyperplanes.find_fpf_collineation.self_s"] = "s"
    for m in MODULES:
        units[f"{m}.self_s"] = "s"
        units[f"{m}.calls"] = "count"
    units["bulk.classes"] = "count"
    units["bulk.chunks"] = "count"
    units["projgeom.lines.count"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer()
MICRO = ("kernels", "builds", "big_field", "lines_pg3_9", "probes")


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker interpreters one at a time within the run's budget."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s

    def spawn(self, spec: dict) -> tuple[float | None, dict]:
        """Run one worker; returns (seconds from spawn to READY, result)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise WorkerError(f"no time left for {spec['mode']}")
        t0 = time.perf_counter()
        # a session of its own, so that a kill also reaches the sweep pool
        argv = [sys.executable, str(WORKER), json.dumps(spec)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT, start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        killer = threading.Timer(left, kill)
        killer.start()
        ready, last = None, None
        try:
            for line in proc.stdout:
                if ready is None and line.strip() == "READY":
                    ready = time.perf_counter() - t0
                elif line.strip():
                    last = line
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or last is None:
            raise WorkerError(f"{spec['mode']} worker exited with "
                              f"{proc.returncode}")
        return ready, json.loads(last)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _percentile(sorted_vals: list[float], p: float) -> float:
    """Percentile of an ascending list, interpolated linearly between the
    closest ranks, so that the p50 of a run of two jobs is their mean."""
    x = p / 100 * (len(sorted_vals) - 1)
    k = math.floor(x)
    if k + 1 >= len(sorted_vals):
        return sorted_vals[-1]
    return sorted_vals[k] + (x - k) * (sorted_vals[k + 1] - sorted_vals[k])


def _calls_summary(results: list[dict]) -> tuple[int, int, list[str]]:
    calls = [c for r in results for c in r["calls"]]
    errors = [f"{c[0]}: {c[3]}" for c in calls if c[3] is not None]
    return len(calls), len(errors), errors


def merged(results: list[dict]) -> dict:
    """One workload result from the results of several interpreters."""
    return {"jobs": [j for r in results for j in r["jobs"]],
            "calls": [c for r in results for c in r["calls"]],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}


def end_to_end(main: dict, setups: list[float]) -> dict:
    busy = sum(main["jobs"])
    calls = main["calls"]
    lat = sorted(c[1] for c in calls)
    return {
        "wall_s": statistics.median(main["jobs"]),
        "setup_s": statistics.median(setups),
        "classes_per_s": sum(c[2] for c in calls) / busy,
        "calls_per_s": len(calls) / busy,
        "call_p50_ms": _percentile(lat, 50) * 1e3,
        "call_p99_ms": _percentile(lat, 99) * 1e3,
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(workload: str, threads: int, plain: dict, traced: dict,
              micro: dict, dropped: dict) -> dict:
    spans = traced["spans"]
    vals: dict[str, float] = dict(micro)
    for m in MODULES:
        recs = [r for n, r in spans.items() if n.startswith(m + ".")]
        vals[f"{m}.self_s"] = sum(r["self_s"] for r in recs)
        vals[f"{m}.calls"] = sum(r["calls"] for r in recs)
    chunk = spans.get("bulk.sweep_chunk", {})
    vals["bulk.classes"] = chunk.get("count", 0)
    vals["bulk.chunks"] = chunk.get("calls", 0)
    vals["projgeom.lines.count"] = spans.get(
        "projgeom.enumerate_lines", {}).get("count", 0)
    vals["hyperplanes.find_fpf_collineation.self_s"] = spans.get(
        "hyperplanes.find_fpf_collineation", {}).get("self_s", 0.0)
    plain_wall = statistics.median(plain["jobs"])
    vals["trace.wall_s"] = statistics.median(traced["jobs"])
    vals["trace.overhead_s"] = vals["trace.wall_s"] - plain_wall
    ns = micro.get("bulk.sweep_chunk.ns_per_class.c6.q8")
    if workload != "sweep-q8":
        dropped["bulk.iter_sweep.parallel_eff"] = \
            "defined for the criterion-6 fork-pool sweep, which only " \
            "sweep-q8 runs"
    elif ns:
        classes = sum(c[2] for c in plain["calls"]) / len(plain["jobs"])
        vals["bulk.iter_sweep.parallel_eff"] = \
            ns * 1e-9 * classes / (threads * plain_wall)
    out = {}
    for name in PER_LAYER:
        v = vals.get(name)
        if v is None:
            dropped.setdefault(name, "measurement did not produce a value")
            v = 0
        out[name] = v
    return out


def run_record(args, threads: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "threads": threads,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "git_sha": _git_sha(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    for need in (ROOT / "src" / "twistcode" / "__init__.py",
                 ROOT / "tests" / "data" / "spectrum_4_2_1.json"):
        if not need.is_file():
            print(f"benchmark: {need.relative_to(ROOT)} is missing; run from "
                  "a full source checkout", file=sys.stderr)
            return 2

    threads = len(os.sched_getaffinity(0))
    record = run_record(args, threads)
    runner = Runner(RUN_BUDGET_S)
    base = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "threads": threads}
    try:
        if args.trace == 0:
            ready, res = runner.spawn({**base, "mode": "run"})
            setups, results = [ready], [res]
            while (res["repeat"] == "fresh" and args.seconds >
                   sum(sum(r["jobs"]) for r in results)):
                ready, more = runner.spawn({**base, "mode": "run"})
                setups.append(ready)
                results.append(more)
            while len(setups) < SETUP_SAMPLES:
                ready, _res = runner.spawn({**base, "mode": "setup"})
                setups.append(ready)
            metrics = end_to_end(merged(results), setups)
            units = END_TO_END
            record["setup_samples_s"] = setups
        else:
            tdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
            _, plain = runner.spawn({**base, "mode": "run"})
            _, traced = runner.spawn({**base, "mode": "run", "trace": True,
                                      "trace_dir": str(tdir / "spans")})
            results = [plain, traced]
            micro, dropped = {}, {}
            for mode in MICRO:
                try:
                    _, res = runner.spawn({"mode": mode,
                                           "trace_dir": str(tdir / mode)})
                    micro.update(res)
                except WorkerError as exc:
                    dropped[mode] = str(exc)
            metrics = per_layer(args.workload, threads, plain, traced, micro,
                                dropped)
            units = PER_LAYER
            record["dropped"] = dropped
            record["trace_dir"] = str(tdir.relative_to(ROOT))
            with open(tdir / "summary.json", "w") as fh:
                json.dump({"spans": traced["spans"], "metrics": metrics,
                           "dropped": dropped}, fh, indent=1)
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    attempted, failed, errors = _calls_summary(results)
    record.update({
        "calls": attempted, "job_s": [r["jobs"] for r in results],
        "failed_frac": failed / attempted, "errors": errors[:20],
        "digest": results[0].get("digest"),
        "loadavg_end": os.getloadavg(),
    })
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
