"""The four benchmark workloads: set-up, jobs and exact checks.

A workload is a closed loop with one client: each job calls the public
twistcode API, checks every result against exact integers, and only then
starts the next job.  Every call is timed on its own, so a run yields a
per-call latency list as well as per-job wall times.

A workload's `repeat` says how a run repeats its job: "loop" in one
interpreter until the run's seconds have passed, "fresh" in a new
interpreter each time (run.py starts them), "once" not at all.

Only probe-mix draws inputs from the seed; the others are exhaustive or
deterministic constructions whose inputs are fixed by the paper.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import twistcode as tc
from twistcode.linalg import rank

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_421 = ROOT / "tests" / "data" / "spectrum_4_2_1.json"

# make_system arguments (p, t, j, n) by the short name used in metric names
CONFIGS = {
    "q4n2": (2, 2, 1, 2),
    "q9n2": (3, 2, 1, 2),
    "q4n3": (2, 2, 1, 3),
    "q8n2": (2, 3, 1, 2),
    "q9n3": (3, 2, 1, 3),
}


class CheckFailed(AssertionError):
    """A result differs from the exact value the benchmark expects."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Call:
    kind: str
    seconds: float
    classes: int
    error: str | None = None


def timed(calls: list[Call], kind: str, classes: int, fn, *args, **kwargs):
    """Run and time one API call.  Returns its result, or None when it
    raised; the exception is recorded as the call's error."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a raising call is a failed job, not a crash
        calls.append(Call(kind, time.perf_counter() - t0, classes,
                          f"{type(exc).__name__}: {exc}"))
        return None
    calls.append(Call(kind, time.perf_counter() - t0, classes))
    return out


def checked(calls: list[Call], check, out) -> None:
    """Apply an exact check to the last recorded call's result; a wrong
    answer marks that call failed, like an exception does."""
    if out is None:
        return
    try:
        check(out)
    except CheckFailed as exc:
        calls[-1].error = f"check: {exc}"


# ---------------------------------------------------------------------------
# sweep-q8: criterion 6, the exhaustive (8, 2, 1) sweep
# ---------------------------------------------------------------------------

class SweepQ8:
    name = "sweep-q8"
    # one job per run: the sweep outlasts any run length worth setting
    repeat = "once"
    CLASSES = 19_173_961

    def setup(self, threads: int, seed: int):
        return {"ps": tc.make_system(*CONFIGS["q8n2"]), "threads": threads}

    def job(self, st) -> list[Call]:
        calls: list[Call] = []
        rep = timed(calls, "second_weight_check", self.CLASSES,
                    tc.second_weight_check, st["ps"], threads=st["threads"])

        def check(r):
            expect(r.mode == "exhaustive", f"mode {r.mode}")
            expect(r.classes_checked == self.CLASSES,
                   f"classes {r.classes_checked}")
            expect((r.min_weight, r.second_weight) == (504, 512),
                   f"weights {r.min_weight}/{r.second_weight}")
            expect(r.correspondence_ok is True, "correspondence")
            expect((r.min_weight_classes, r.second_weight_classes)
                   == (4672, 657), "weight class counts")
            expect((r.quasi_singular_classes, r.singular_classes)
                   == (4672, 657), "rank-1 class counts")
            expect(tc.singular_cardinality(8, 2) == 145, "singular card")
            expect(tc.quasi_singular_cardinality(8, 2) == 153, "qsns card")
        checked(calls, check, rep)
        return calls


# ---------------------------------------------------------------------------
# verify-q4: criteria 3, 4, 5, 7 and the rank bounds of 12 at (4, 2, 1)
# ---------------------------------------------------------------------------

class VerifyQ4:
    name = "verify-q4"
    repeat = "loop"
    CLASSES = 87_381

    def setup(self, threads: int, seed: int):
        with open(GOLDEN_421) as fh:
            golden = {int(w): c for w, c in json.load(fh)["counts"].items()}
        return {"ps": tc.make_system(*CONFIGS["q4n2"]), "threads": threads,
                "golden": golden}

    def job(self, st) -> list[Call]:
        ps, th, C = st["ps"], st["threads"], self.CLASSES
        calls: list[Call] = []
        tbl = timed(calls, "weight_spectrum", C, tc.weight_spectrum, ps,
                    threads=th, flag_check=True)

        def check_spectrum(t):
            expect(t.mode == "exhaustive" and t.classes == C, "spectrum mode")
            expect(t.identity_checked is True, "flag check did not run")
            expect(t.counts == st["golden"], "spectrum differs from golden")
            expect(min(w for w in t.counts if w > 0) == 56, "min weight")
            expect(t.counts[56] == 1080, "weight-56 count")
        checked(calls, check_spectrum, tbl)

        res = timed(calls, "min_weight_sweep", C, tc.min_weight_sweep, ps,
                    threads=th)

        def check_mws(r):
            expect(r["ok"] is True and r["mismatches"] == 0, "mismatches")
            expect(r["classes"] == C, "classes")
            expect(r["first_mismatch"] is None, "first mismatch")
            expect(r["condition_classes"] == 360, "condition classes")
            expect(r["condition_classes"] * 3 == st["golden"][56],
                   "condition set vs weight-56 words")
        checked(calls, check_mws, res)

        rep = timed(calls, "is_minimal", C, tc.is_minimal, ps, threads=th)
        checked(calls, lambda r: expect(
            r.minimal is True and r.classes_checked == C, "minimality"), rep)

        for r, bound in ((1, 6), (2, 4), (3, 7)):
            mt = timed(calls, "max_theta_by_rank", C, tc.max_theta_by_rank,
                       ps, r, threads=th)
            checked(calls, lambda x, b=bound: expect(
                x.bound == b and x.max_theta == b and x.attains_bound,
                f"rank {x.rank}: max theta {x.max_theta}, bound {x.bound}"),
                mt)
        return calls


# ---------------------------------------------------------------------------
# geometry-q9: criterion 10, the fixed-point-free construction on PG(3, 9)
# ---------------------------------------------------------------------------

class GeometryQ9:
    name = "geometry-q9"
    # the line caches would make a second job in one interpreter nearly
    # free, so every job gets a fresh interpreter of its own
    repeat = "fresh"

    def setup(self, threads: int, seed: int):
        ps = tc.make_system(*CONFIGS["q9n3"])
        expect(ps.N == 74_620, f"N = {ps.N}")
        return {"ps": ps}

    def job(self, st) -> list[Call]:
        ps = st["ps"]
        calls: list[Call] = []
        w = timed(calls, "find_fpf_collineation", 1,
                  tc.find_fpf_collineation, ps)

        def check(w):
            expect(w.theta == 0, f"theta {w.theta}")
            expect(w.weight == 66_420, f"weight {w.weight}")
            expect(w.cardinality == ps.N - w.weight == 8200,
                   f"cardinality {w.cardinality}")
        checked(calls, check, w)
        if w is not None:
            calls[-1].classes = w.attempts
        return calls


# ---------------------------------------------------------------------------
# probe-mix: seeded single-matrix calls at four configurations
# ---------------------------------------------------------------------------

PROBE_CONFIGS = ("q4n2", "q9n2", "q4n3", "q8n2")
PROBE_KINDS = ("theta", "classify", "line_solution_bound",
               "subspace_solution_bound", "automorphism_check")
POOL = 64                 # rounds per pass = inputs per (kind, config)
SUBSPACE_SAMPLES = 8
AUT_TRIALS = 1


def _rand_matrix(rnd: random.Random, q: int, m: int, dtype) -> np.ndarray:
    while True:
        M = np.array([rnd.randrange(q) for _ in range(m * m)],
                     dtype=dtype).reshape(m, m)
        if M.any():
            return M


def _rank1_matrix(rnd: random.Random, ctx, m: int) -> np.ndarray:
    def vec():
        while True:
            v = [rnd.randrange(ctx.q) for _ in range(m)]
            if any(v):
                return np.array(v, dtype=ctx.dtype)
    return ctx.mul_np(vec()[:, None], vec()[None, :]).astype(ctx.dtype)


def probe_pool(systems: dict, seed: int) -> list[dict]:
    """Inputs of one full pass, a pure function of the seed.

    One round calls every kind once at every configuration; the pool holds
    POOL rounds.  classify gets rank-1 inputs on alternate rounds so that
    the singular and quasi-singular branches run, and at (4, 2, 1) the
    first two rounds use the criterion-8 matrices E12 and E11.
    """
    rnd = random.Random(seed)
    pool = []
    for r in range(POOL):
        for cfg in PROBE_CONFIGS:
            ps = systems[cfg]
            ctx, m = ps.ctx, ps.m
            for kind in PROBE_KINDS:
                item = {"cfg": cfg, "kind": kind, "round": r}
                if kind == "automorphism_check":
                    item["seed"] = rnd.randrange(1 << 31)
                elif kind.endswith("_solution_bound"):
                    while True:
                        M = _rand_matrix(rnd, ctx.q, m, ctx.dtype)
                        if rank(ctx, M) == m:
                            break
                    item["M"] = M
                    item["seed"] = rnd.randrange(1 << 31)
                elif kind == "classify" and cfg == "q4n2" and r < 2:
                    M = np.zeros((m, m), dtype=ctx.dtype)
                    M[0, 1 - r] = 1             # E12, then E11
                    item["M"] = M
                elif kind == "classify" and r % 2:
                    item["M"] = _rank1_matrix(rnd, ctx, m)
                else:
                    item["M"] = _rand_matrix(rnd, ctx.q, m, ctx.dtype)
                if "M" in item:
                    item["rank"] = rank(ctx, item["M"])
                pool.append(item)
    return pool


def pool_digest(pool: list[dict]) -> str:
    h = hashlib.sha256()
    for it in pool:
        h.update(repr((it["cfg"], it["kind"], it.get("seed"),
                       it["M"].tobytes() if "M" in it else b"")).encode())
    return h.hexdigest()


def _closed_forms(ps):
    q, n, s = ps.ctx.q, ps.n, ps.spec.s
    qn1 = q ** (n - 1)
    return {"q": q, "n": n, "s": s, "qn1": qn1,
            "pts": (q ** (n + 1) - 1) // (q - 1),
            "base": tc.base_cardinality(q, n),
            "m1": tc.m_bound(1, q, n, s)}


def _check_theta(rep, cf, r):
    expect(rep.identity_checked is True, "identity not checked")
    expect(rep.theta == rep.kernel_classes + rep.proportional_classes,
           "theta split")
    expect(rep.weight == cf["qn1"] * (cf["pts"] - rep.theta), "weight")
    expect(rep.intersection == cf["base"] + rep.theta * cf["qn1"],
           "intersection identity")
    expect(rep.theta <= tc.m_bound(r, cf["q"], cf["n"], cf["s"]),
           f"theta {rep.theta} above the rank-{r} bound")


def _check_classify(h, cf, item):
    expect(h.rank == item["rank"], "rank")
    expect(h.theta <= tc.m_bound(h.rank, cf["q"], cf["n"], cf["s"]),
           f"theta {h.theta} above the rank-{h.rank} bound")
    expect(h.cardinality == cf["base"] + h.theta * cf["qn1"], "cardinality")
    expect(h.weight == cf["qn1"] * (cf["pts"] - h.theta), "weight")
    expect(h.is_hyperplane is True, "one-or-all line test")
    if h.rank == 1:
        q, n = cf["q"], cf["n"]
        if h.kind == "singular":
            expect(h.theta == cf["m1"] - 1, "singular theta")
            expect(h.cardinality == tc.singular_cardinality(q, n), "sing card")
        else:
            expect(h.kind == "quasi_singular", f"rank-1 kind {h.kind}")
            expect(h.theta == cf["m1"], "quasi-singular theta")
            expect(h.cardinality == tc.quasi_singular_cardinality(q, n),
                   "qsns card")
    else:
        expect(h.kind in ("plain", "spread_type"), f"kind {h.kind}")
    if item["cfg"] == "q4n2" and item["round"] < 2:
        want = (("singular", 41) if item["round"] == 0
                else ("quasi_singular", 45))
        expect((h.kind, h.cardinality) == want, "criterion 8 cardinalities")


def _fingerprint(kind: str, out) -> tuple:
    if kind == "theta":
        return (out.theta, out.kernel_classes, out.proportional_classes,
                out.intersection, out.weight)
    if kind == "classify":
        return (out.kind, out.rank, out.theta, out.cardinality, out.weight,
                out.pairing, out.is_hyperplane, out.defining_point,
                out.defining_functional)
    if kind == "line_solution_bound":
        return (out["solutions"], out["max_on_a_line"], out["line_index"],
                out["bound"], out["ok"])
    if kind == "subspace_solution_bound":
        return (out["samples"], out["violations"],
                repr(out["worst_fill_ratio"]), out["ok"])
    return (out.trials, out.seed, out.weight_failures,
            out.permutation_failures, out.kernel_elements_checked,
            out.kernel_ok, out.nonkernel_trials, out.nonkernel_all_moved)


class ProbeMix:
    name = "probe-mix"
    repeat = "loop"

    def setup(self, threads: int, seed: int):
        systems = {c: tc.make_system(*CONFIGS[c]) for c in PROBE_CONFIGS}
        # one warm-up call of each kind fills the lazy line caches here
        for c, ps in systems.items():
            m = ps.m
            eye = np.eye(m, dtype=ps.ctx.dtype)
            tc.theta(ps, eye)
            tc.classify(ps, eye)
            tc.line_solution_bound(ps, eye)
            tc.subspace_solution_bound(ps, eye, samples=1, seed=0)
            tc.automorphism_check(ps, trials=1, seed=0, nonkernel_probes=1)
        return {"systems": systems, "cf": {c: _closed_forms(p)
                                          for c, p in systems.items()}}

    def prepare(self, st, seed: int) -> None:
        """Draw the seeded inputs; runs after set-up, outside all timing."""
        st["pool"] = probe_pool(st["systems"], seed)
        st["first"] = {}          # pool position -> result fingerprint

    def _call(self, st, calls, item):
        ps = st["systems"][item["cfg"]]
        cf = st["cf"][item["cfg"]]
        kind = item["kind"]
        if kind == "theta":
            out = timed(calls, kind, 1, tc.theta, ps, item["M"])
            checked(calls, lambda r: _check_theta(r, cf, item["rank"]), out)
        elif kind == "classify":
            out = timed(calls, kind, 1, tc.classify, ps, item["M"])
            checked(calls, lambda h: _check_classify(h, cf, item), out)
        elif kind == "line_solution_bound":
            out = timed(calls, kind, 1, tc.line_solution_bound, ps, item["M"])
            checked(calls, lambda r: expect(
                r["ok"] is True and r["bound"] == cf["s"] + 1
                and r["max_on_a_line"] <= cf["s"] + 1, "line bound"), out)
        elif kind == "subspace_solution_bound":
            out = timed(calls, kind, 1, tc.subspace_solution_bound, ps,
                        item["M"], samples=SUBSPACE_SAMPLES,
                        seed=item["seed"])
            checked(calls, lambda r: expect(
                r["ok"] is True and r["violations"] == 0
                and r["samples"] == SUBSPACE_SAMPLES, "subspace bound"), out)
        else:
            out = timed(calls, kind, AUT_TRIALS, tc.automorphism_check, ps,
                        trials=AUT_TRIALS, seed=item["seed"],
                        nonkernel_probes=1)
            checked(calls, lambda a: expect(
                a.trials == AUT_TRIALS and a.weight_failures == 0
                and a.permutation_failures == 0 and a.kernel_ok is True
                and a.kernel_elements_checked == cf["s"] - 1
                and a.nonkernel_trials == 1 and a.nonkernel_all_moved,
                "monomial action"), out)
        return out

    def job(self, st) -> list[Call]:
        """One pass over the pool.  A whole pass, not a round, is the job
        because rounds differ in cost from seed to seed and passes much
        less; every later pass must repeat the first pass's results."""
        calls: list[Call] = []
        for pos, item in enumerate(st["pool"]):
            out = self._call(st, calls, item)
            if out is None:
                continue
            fp = _fingerprint(item["kind"], out)
            if st["first"].setdefault(pos, fp) != fp:
                calls[-1].error = "result differs from the first pass"
        return calls

    @staticmethod
    def digest(st) -> str:
        """sha256 over the inputs and results of the first full pass."""
        h = hashlib.sha256(pool_digest(st["pool"]).encode())
        for pos in sorted(st["first"]):
            h.update(repr((pos, st["first"][pos])).encode())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (SweepQ8(), VerifyQ4(), GeometryQ9(),
                                 ProbeMix())}
