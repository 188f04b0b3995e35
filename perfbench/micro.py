"""Layer micro-measurements for the traced run.

Each function here runs in a fresh interpreter of its own (see worker.py),
because make_field, build_system, build_gamma and the line enumeration are
cached per process: a second call in the same interpreter would be free.

Kernel costs are single-threaded and taken on one fixed class slice from
the middle of the class order, so the classes are neither the sparse
leading-zero ones at the start nor config-dependent; each figure is the
median of REPEATS timings.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import twistcode as tc
from twistcode import bulk
from twistcode.projgeom import enumerate_lines

from workloads import AUT_TRIALS, CONFIGS, PROBE_CONFIGS, ProbeMix

REPEATS = 3
KERNEL_CONFIGS = ("q4n2", "q8n2", "q9n2")
SLICE = 1 << 14                # classes per timing, vectorized kernels
SLICE_SLOW = 1 << 11           # zero counts and the minimality chunk


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def theta_gathers_per_class(b) -> int:
    """Table gathers theta_batch makes per class, counted from its loops.

    Per functional xi: one MUL gather per nonzero xi[i] and column, one
    ADD gather per accumulation when p is odd (XOR otherwise), and one MUL
    gather per proportionality test against a nonzero sigma(xi)[c].
    """
    total = 0
    for xi, sxi, j0 in zip(b.funcs, b.sfuncs, b.lead):
        nnz = sum(1 for a in xi if a)
        total += b.m * nnz
        if not b.p2:
            total += b.m * max(nnz - 1, 0)
        total += sum(1 for c in range(b.m) if c != j0 and sxi[c])
    return total


def kernels() -> dict:
    out = {}
    for name in KERNEL_CONFIGS:
        ps = tc.make_system(*CONFIGS[name])
        q, k, cfg = ps.ctx.q, ps.k, ps.cfg
        qs = name[:name.index("n")]
        b = bulk._bundle(cfg)
        start = tc.num_classes(q, k) // 2

        def reps(n):
            return tc.class_reps_range(q, k, start, start + n,
                                       dtype=ps.ctx.dtype)
        R, Rs = reps(SLICE), reps(SLICE_SLOW)
        m1 = tc.m_bound(1, q, ps.n, ps.spec.s)
        c6 = {"kind": "theta", "rank_pairing": True, "m1": m1}
        runs = {
            "projgeom.class_reps_range": (lambda: reps(SLICE), SLICE),
            "bulk.theta_batch": (lambda: bulk.theta_batch(b, R), SLICE),
            "bulk.zero_counts_batch": (lambda: bulk.zero_counts_batch(b, Rs),
                                       SLICE_SLOW),
            "bulk.rank3_batch": (lambda: bulk.rank3_batch(b, R), SLICE),
            "bulk.pairing_batch": (lambda: bulk.pairing_batch(b, R), SLICE),
            "bulk.sweep_chunk.ns_per_class.c6": (
                lambda: bulk.sweep_chunk(cfg, c6, start, start + SLICE),
                SLICE),
            "bulk.sweep_chunk.ns_per_class.minimality": (
                lambda: bulk.sweep_chunk(cfg, {"kind": "minimality"}, start,
                                         start + SLICE_SLOW), SLICE_SLOW),
        }
        for key, (fn, n) in runs.items():
            ns = _median_time(fn) / n * 1e9
            metric = (f"{key}.{qs}" if key.startswith("bulk.sweep_chunk")
                      else f"{key}.ns_per_class.{qs}")
            out[metric] = ns
        if name == "q8n2":
            out["bulk.theta_batch.gathers_per_class.q8"] = \
                theta_gathers_per_class(b)
    return out


def builds() -> dict:
    """Cold make_field, make_autspec and build_system, one cache key each."""
    out = {}
    t0 = time.perf_counter()
    ctx9 = tc.make_field(3, 2)
    t1 = time.perf_counter()
    spec9 = tc.make_autspec(ctx9, 1)
    t2 = time.perf_counter()
    tc.build_system(ctx9, spec9, 3)
    t3 = time.perf_counter()
    out["gf.make_field.s.q9"] = t1 - t0
    out["embedding.build_system.s.q9n3"] = t3 - t2
    out["embedding.make_system.s.q9n3"] = t3 - t0   # what make_system runs
    ctx8 = tc.make_field(2, 3)
    spec8 = tc.make_autspec(ctx8, 1)
    t0 = time.perf_counter()
    tc.build_system(ctx8, spec8, 2)
    out["embedding.build_system.s.q8n2"] = time.perf_counter() - t0
    return out


def big_field() -> dict:
    t0 = time.perf_counter()
    tc.make_field(3, 8)
    return {"gf.make_field.s.q3_8": time.perf_counter() - t0}


def lines_pg3_9() -> dict:
    """Line enumeration of PG(3, 9), then the Gamma pencils built on it."""
    ps = tc.make_system(*CONFIGS["q9n3"])
    t0 = time.perf_counter()
    enumerate_lines(ps.ctx, 4)
    t1 = time.perf_counter()
    ps.gamma.lines()
    t2 = time.perf_counter()
    E = np.zeros((4, 4), dtype=ps.ctx.dtype)
    E[0, 0] = 1
    inside = set(np.flatnonzero(tc.eval_codeword(ps, E).values == 0).tolist())
    hp = _median_time(lambda: ps.gamma.is_geometric_hyperplane(inside))
    return {"projgeom.enumerate_lines.s.pg3_9": t1 - t0,
            "gamma.Gamma.lines.s.pg3_9": t2 - t1,
            "gamma.is_geometric_hyperplane.ms_per_call.q9n3": hp * 1e3}


def probes(tracer_dir) -> dict:
    """Two passes over the probe pool of seed 0: plain, then traced.

    The plain pass gives classify latency per configuration, and the
    one-or-all line test at (4, 3) is timed after it; the traced pass gives
    the mean cost of calls nested inside the probes (theta, eval_codeword,
    rank, invert) from their spans.
    """
    from tracer import Tracer, summarize
    wl = ProbeMix()
    st = wl.setup(1, 0)
    wl.prepare(st, 0)
    pool = st["pool"]
    per: dict[str, list[float]] = {}
    for item, call in zip(pool, wl.job(st)):
        per.setdefault(f"{item['kind']}.{item['cfg']}", []).append(
            call.seconds)
    out = {f"hyperplanes.classify.ms_per_call.{c}":
           statistics.median(per[f"classify.{c}"]) * 1e3
           for c in PROBE_CONFIGS}
    ps = st["systems"]["q4n3"]
    E = np.zeros((ps.m, ps.m), dtype=ps.ctx.dtype)
    E[0, 0] = 1
    inside = set(np.flatnonzero(tc.eval_codeword(ps, E).values == 0).tolist())
    out["gamma.is_geometric_hyperplane.ms_per_call.q4n3"] = _median_time(
        lambda: ps.gamma.is_geometric_hyperplane(inside), 5) * 1e3

    tracer = Tracer(tracer_dir)
    tracer.install()
    wl.job(st)
    summ = summarize(tracer.collect())

    def mean(name, scale, per_call=1):
        rec = summ.get(name)
        if not rec or not rec["calls"]:
            return None
        return rec["total_s"] / (rec["calls"] * per_call) * scale
    out.update({
        "code.theta.ms_per_call": mean("code.theta", 1e3),
        "code.eval_codeword.ms_per_call": mean("code.eval_codeword", 1e3),
        "code.line_solution_bound.ms_per_call":
            mean("code.line_solution_bound", 1e3),
        "code.subspace_solution_bound.ms_per_call":
            mean("code.subspace_solution_bound", 1e3),
        "code.automorphism_check.ms_per_trial":
            mean("code.automorphism_check", 1e3, AUT_TRIALS),
        "linalg.rank.us_per_call": mean("linalg.rank", 1e6),
        "linalg.invert.us_per_call": mean("linalg.invert", 1e6),
    })
    return out
