"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py '<json spec>'

The spec's "mode" is "setup" (set up, say READY, exit), "run" (set up,
say READY, run jobs as the workload's `repeat` says, optionally traced),
or the name of a micro-measurement in micro.py.  The last line of stdout
is the JSON result; run.py reads it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """Import twistcode from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import twistcode
    where = Path(twistcode.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"twistcode imported from {where}, not {SRC}")
    return twistcode


def _peak_rss_mb(threads: int) -> float:
    """This process's peak RSS plus that of its fork-pool workers.

    RUSAGE_CHILDREN reports the largest reaped worker; with `threads`
    workers alive at once the pool's peak is at most threads times that.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (threads * child if child else 0)) / 1024


def run(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer(Path(spec["trace_dir"]))
        tracer.install()
    from workloads import WORKLOADS
    wl = WORKLOADS[spec["workload"]]
    t0 = time.perf_counter()
    st = wl.setup(spec["threads"], spec["seed"])
    setup_s = time.perf_counter() - t0
    print("READY", flush=True)
    if spec["mode"] == "setup":
        return {"setup_s": setup_s}
    if hasattr(wl, "prepare"):
        wl.prepare(st, spec["seed"])

    jobs, calls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls.extend(wl.job(st))
        jobs.append(time.perf_counter() - t0)
        if wl.repeat != "loop":
            break
        if time.perf_counter() - start >= spec["seconds"]:
            break
    out = {
        "setup_s": setup_s,
        "jobs": jobs,
        "calls": [[c.kind, c.seconds, c.classes, c.error] for c in calls],
        "peak_rss_mb": _peak_rss_mb(spec["threads"]),
        "repeat": wl.repeat,
    }
    if hasattr(wl, "digest"):
        out["digest"] = wl.digest(st)
    if tracer is not None:
        from tracer import summarize
        out["spans"] = summarize(tracer.collect())
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    _import_package()
    mode = spec["mode"]
    if mode in ("setup", "run"):
        result = run(spec)
    else:
        import micro
        fn = getattr(micro, mode)
        result = fn(Path(spec["trace_dir"])) if mode == "probes" else fn()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
