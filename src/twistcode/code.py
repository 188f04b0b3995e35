"""Codeword-level operations on the embedded flag system.

The quantity driving every weight here is the fixed-functional count of a
nonzero matrix M, written theta(M): the number of functional classes [xi]
with xi M = lambda * sigma(xi) for some lambda, including lambda = 0 (the
left kernel of M).  It ties to the codeword c_M[i] = Tr(X_i M) through the
intersection identity

    #zeros(c_M) = (q^(n+1)-1)(q^(n-1)-1)/(q-1)^2 + theta(M) * q^(n-1),

which is asserted wherever both sides are computed, and hence

    weight(c_M) = q^(n-1) * ((q^(n+1)-1)/(q-1) - theta(M)).

Rank-r matrices obey theta(M) <= m(r) with m(r) as in m_bound(); for
invertible M the solutions with lambda != 0 are few on every line of the
dual space (at most s + 1) and in every r-dimensional subspace (at most
(s^r-1)/(s-1)).  The *_bound helpers probe exactly these statements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import bulk
from .embedding import ProjectiveSystem
from .gamma import base_cardinality
from .gf import AutSpec, FieldCtx, norm
from .linalg import (as_matrix, invert, is_scalar_matrix, left_kernel, matmul,
                     normalize_rep, rank, scalar_mul, sigma_entrywise)
from .projgeom import class_indices, class_reps_range, line_array, num_classes
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Codeword:
    values: np.ndarray
    matrix: np.ndarray = field(repr=False)

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.values))


@dataclass(frozen=True)
class ThetaReport:
    theta: int
    kernel_classes: int
    proportional_classes: int
    intersection: int          # vanishing coordinates of the codeword
    weight: int
    identity_checked: bool
    # where the codeword vanishes, kept when the identity was checked
    zero_flags: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)


@dataclass(frozen=True)
class SpectrumTable:
    counts: dict               # weight -> number of words (or samples)
    mode: str                  # "exhaustive" | "sampled"
    classes: int
    identity_checked: bool


@dataclass(frozen=True, eq=False)
class MaxThetaReport:
    rank: int
    max_theta: int
    bound: int
    attains_bound: bool
    witness_index: int
    witness: np.ndarray


@dataclass(frozen=True, eq=False)
class MinimalityReport:
    minimal: bool
    classes_checked: int
    witness_index: int | None = None
    witness: np.ndarray | None = None
    covering: np.ndarray | None = None


@dataclass(frozen=True)
class SecondWeightReport:
    min_weight: int
    second_weight: int
    min_weight_classes: int
    second_weight_classes: int
    rank1_classes: int
    singular_classes: int
    quasi_singular_classes: int
    correspondence_ok: bool
    mode: str
    classes_checked: int


@dataclass(frozen=True)
class AutomorphismReport:
    trials: int
    seed: int
    weight_failures: int
    permutation_failures: int
    kernel_elements_checked: int
    kernel_ok: bool
    nonkernel_trials: int
    nonkernel_all_moved: bool


# ---------------------------------------------------------------------------
# basic evaluations
# ---------------------------------------------------------------------------

def eval_codeword(sys: ProjectiveSystem, M) -> Codeword:
    """Trace pairing of M against every embedded flag, in flag order."""
    M = as_matrix(sys.ctx, M, square=sys.m)
    return Codeword(sys.codewords(M), M)


def weight_of_theta(q: int, n: int, th: int) -> int:
    """Codeword weight q^(n-1) * ((q^(n+1)-1)/(q-1) - theta)."""
    return q ** (n - 1) * ((q ** (n + 1) - 1) // (q - 1) - th)


def theta(sys: ProjectiveSystem, M, check_identity: bool = True) -> ThetaReport:
    """Fixed-functional count of a nonzero matrix, plus the identity check.

    Scans every functional class once (lambda is read off at the leading 1
    of xi, which sigma fixes).  With check_identity the codeword is also
    evaluated over all flags (ProjectiveSystem.codewords) and its zero
    count asserted against the intersection identity: both start from the
    products xi M, which the scan compares with sigma(xi) and the codeword
    pairs with sigma(x_i) flag by flag; the zero set is kept as
    zero_flags.
    """
    ctx = sys.ctx
    M = as_matrix(ctx, M, square=sys.m)
    if not M.any():
        raise ValueError("theta of the zero matrix is undefined")
    ok, lam = bulk.fixed_scan(ctx, sys.gamma.funcs_arr, sys.spec.table, M)
    kernel = int((ok & (lam == 0)).sum())
    prop = int((ok & (lam != 0)).sum())
    th = kernel + prop

    q, n = ctx.q, sys.n
    zeros = base_cardinality(q, n) + th * q ** (n - 1)
    zero = None
    if check_identity:
        zero = sys.codewords(M) == 0
        z = int(np.count_nonzero(zero))
        assert z == zeros, \
            f"intersection identity violated: zeros={z}, theta={th}"
    return ThetaReport(theta=th, kernel_classes=kernel,
                       proportional_classes=prop, intersection=zeros,
                       weight=weight_of_theta(q, n, th),
                       identity_checked=check_identity, zero_flags=zero)


def m_bound(r: int, q: int, n: int, s: int) -> int:
    """Upper bound for theta over rank-r matrices:
    (q^(n+1-r)-1)/(q-1) + (s^r-1)/(s-1)."""
    if not 1 <= r <= n + 1:
        raise ValueError(f"rank r must be in [1, {n + 1}], got {r}")
    return (q ** (n + 1 - r) - 1) // (q - 1) + (s ** r - 1) // (s - 1)


def closed_form_min_distance(sys: ProjectiveSystem) -> int:
    """Closed-form minimum distance (sigma != 1, n >= 2): q^3 - s^3 for an
    involutory twist in the plane, q^(2n-1) - q^(n-1) otherwise."""
    ctx, spec, n = sys.ctx, sys.spec, sys.n
    if spec.j == 0:
        raise ValueError("closed-form distance needs sigma != 1")
    if n < 2:
        raise ValueError("closed-form distance needs n >= 2")
    q = ctx.q
    if spec.order == 2 and n == 2:
        return q ** 3 - spec.s ** 3
    return q ** (2 * n - 1) - q ** (n - 1)


def min_distance(sys: ProjectiveSystem, exhaustive: bool = False,
                 threads: int = 1) -> int:
    """Closed-form minimum distance; optionally verified by full sweep."""
    d = closed_form_min_distance(sys)
    if exhaustive:
        table = weight_spectrum(sys, threads=threads)
        observed = min(w for w in table.counts if w > 0)
        assert observed == d, f"spectrum minimum {observed} != closed form {d}"
    return d


# ---------------------------------------------------------------------------
# exhaustive sweeps
# ---------------------------------------------------------------------------

class _Sweep:
    """One exhaustive sweep of one kind, folded from its parts.

    table holds the class counts per cell (theta, rank class, check bit)
    of bulk.class_keys, and first, per cell, the index of its first class
    (int64 max where the count is zero).  theta, rclass and bit are the
    cell coordinates, shaped to broadcast against table; rank class 0 is
    rank 1 singular, 1 rank 1 quasi-singular and r >= 2 rank r.

    Every part is a bulk.sweep_chunk result: its table adds, weighted,
    and its first folds by np.minimum.  A "theta" sweep counts,
    in-process, the least run of each run orbit (bulk.orbit_runs), times
    the orbit's size: the runs of an orbit hold the same cells, so the
    first class of a cell lies in the least run of its orbit.  The check
    kinds read their bit off each class, so they count every chunk of
    bulk.iter_sweep, in submission order, in up to threads forked workers.
    """

    def __init__(self, sys: ProjectiveSystem, kind: str, threads: int):
        total = num_classes(sys.ctx.q, sys.k)
        limits = [(total, bulk.EXHAUSTIVE_CAP, "classes")]
        if kind == "minimality":        # each class ranks its N flag rows
            limits.append((total * sys.N, bulk.PAIR_CAP, "class x flag pairs"))
        for size, cap, unit in limits:
            if size > cap:
                raise ValueError(
                    f"{size} {unit} exceed the exhaustive cap {cap}")
        self.total = total
        if kind == "theta":
            parts = ((size, bulk.sweep_chunk(sys.cfg, {"kind": kind}, a, e))
                     for a, e, size in bulk.orbit_runs(sys.cfg))
        else:
            parts = ((1, res) for res in bulk.iter_sweep(
                sys.cfg, {"kind": kind}, total, threads=threads,
                chunk=bulk.DEFAULT_CHUNK))
        self.table, self.first = 0, np.iinfo(np.int64).max
        for size, res in parts:
            self.table = self.table + size * res["table"]
            self.first = np.minimum(self.first, res["first"])
        assert self.table.sum() == total
        self.theta, self.rclass, self.bit = np.ix_(
            *(np.arange(d) for d in self.table.shape))

    def count(self, cells) -> int:
        """Classes in the cells where the broadcast bool array cells is set."""
        return int(self.table[np.broadcast_to(cells, self.table.shape)].sum())

    def first_class(self, cells) -> int | None:
        """Index of the first class in those cells, None if there is none."""
        first = int(self.first[np.broadcast_to(cells, self.first.shape)]
                    .min(initial=self.total))
        return None if first == self.total else first


def weight_spectrum(sys: ProjectiveSystem, sample: int | None = None,
                    seed: int = 0, threads: int = 1,
                    flag_check: bool | None = None) -> SpectrumTable:
    """Weight distribution, exhaustive over all matrix classes or sampled.

    Exhaustive mode walks the (q^k-1)/(q-1) classes (cap 2*10^7), counts
    each class with multiplicity q-1 and adds the zero word; the counts
    then sum to q^k exactly, which is asserted, as is the closed-form
    minimum distance when it applies.  flag_check additionally recomputes
    every codeword's zero count from the flags and asserts the
    intersection identity per class (default: on when classes*N is small).
    Sampled mode takes at most as many draws as the exhaustive cap.
    """
    q, n = sys.ctx.q, sys.n

    if sample is not None:
        if sample <= 0:
            raise ValueError("sample size must be positive")
        if sample > bulk.EXHAUSTIVE_CAP:
            raise ValueError(
                f"{sample} samples exceed the cap {bulk.EXHAUSTIVE_CAP}")
        thetas = np.bincount(bulk.sampled_theta(sys.cfg, sample, seed))
        counts = {weight_of_theta(q, n, th): c
                  for th, c in enumerate(thetas.tolist()) if c}
        return SpectrumTable(counts=dict(sorted(counts.items())),
                             mode="sampled", classes=sample,
                             identity_checked=False)

    total = num_classes(q, sys.k)
    if flag_check is None:
        flag_check = total * sys.N <= bulk.PAIR_CAP
    sweep = _Sweep(sys, "flag" if flag_check else "theta", threads)
    if flag_check:
        bad = sweep.first_class(sweep.bit == 1)
        assert bad is None, \
            f"intersection identity violated first at class {bad}"
    counts = Counter({0: 1})
    for th, cnt in enumerate(sweep.table.sum(axis=(1, 2)).tolist()):
        if cnt:
            counts[weight_of_theta(q, n, th)] += cnt * (q - 1)
    assert sum(counts.values()) == q ** sys.k, "spectrum does not sum to q^k"
    if sys.spec.j != 0 and n >= 2:
        d = closed_form_min_distance(sys)
        observed = min(w for w in counts if w > 0)
        assert observed == d, f"minimum weight {observed} != closed form {d}"
    return SpectrumTable(counts=dict(sorted(counts.items())),
                         mode="exhaustive", classes=total,
                         identity_checked=bool(flag_check))


def max_theta_by_rank(sys: ProjectiveSystem, r: int,
                      threads: int = 1) -> MaxThetaReport:
    """Maximum theta over all classes of rank r, with the first witness.

    One exhaustive sweep for every n, ranks and theta from the block
    counts of bulk.class_keys.  Reports whether the maximum attains the m(r)
    bound.
    """
    ctx, spec = sys.ctx, sys.spec
    if not 1 <= r <= sys.m:
        raise ValueError(f"rank must be in [1, {sys.m}]")
    bound = m_bound(r, ctx.q, sys.n, spec.s)
    sweep = _Sweep(sys, "theta", threads)
    of_rank = np.maximum(sweep.rclass, 1) == r
    mx = int(np.flatnonzero((sweep.table * of_rank).sum(axis=(1, 2)))[-1])
    idx = sweep.first_class(of_rank & (sweep.theta == mx))
    witness = class_reps_range(ctx.q, sys.k, idx, idx + 1,
                               dtype=ctx.dtype)[0].reshape(sys.m, sys.m)
    assert rank(ctx, witness) == r
    assert mx <= bound, f"theta {mx} exceeds the rank-{r} bound {bound}"
    return MaxThetaReport(rank=r, max_theta=mx, bound=bound,
                          attains_bound=mx == bound,
                          witness_index=idx, witness=witness)


def is_minimal(sys: ProjectiveSystem, threads: int = 1) -> MinimalityReport:
    """Exhaustive minimality: each codeword's zero set must span a
    hyperplane of the matrix space.

    For every class [M], the embedded flags where c_M vanishes are rank
    k-1 exactly when no codeword covers c_M other than its multiples;
    sweeping all classes decides minimality of the whole code.  Rejects
    sigma = 1 (the identity-embedding code is classically non-minimal for
    the parameters of interest and the k-1 criterion no longer applies to
    its smaller span).
    """
    if sys.spec.j == 0:
        raise ValueError("minimality sweep requires sigma != 1")
    sweep = _Sweep(sys, "minimality", threads)
    first_bad = sweep.first_class(sweep.bit == 1)
    if first_bad is None:
        return MinimalityReport(minimal=True, classes_checked=sweep.total)
    ctx = sys.ctx
    witness = class_reps_range(ctx.q, sys.k, first_bad, first_bad + 1,
                               dtype=ctx.dtype)[0].reshape(sys.m, sys.m)
    rows = sys.flat[sys.codewords(witness) == 0]
    target, _ = normalize_rep(ctx, witness.T.reshape(-1))
    # the first w with rows w = 0 that is no multiple of the witness
    covering = next((w.reshape(sys.m, sys.m).T for w in left_kernel(ctx, rows.T)
                     if not np.array_equal(normalize_rep(ctx, w)[0], target)),
                    None)
    return MinimalityReport(minimal=False, classes_checked=sweep.total,
                            witness_index=first_bad, witness=witness,
                            covering=covering)


# ---------------------------------------------------------------------------
# minimum-weight characterizations
# ---------------------------------------------------------------------------

def _solutions(sys: ProjectiveSystem, M) -> list[tuple[tuple[int, ...], int]]:
    """All (xi rep, lambda) with xi M = lambda sigma(xi), lambda != 0."""
    ctx, g = sys.ctx, sys.gamma
    M = as_matrix(ctx, M, square=sys.m)
    ok, lam = bulk.fixed_scan(ctx, g.funcs_arr, sys.spec.table, M)
    return [(g.functionals[i].rep, int(lam[i]))
            for i in np.flatnonzero(ok & (lam != 0))]


def min_weight_condition_n2(sys: ProjectiveSystem, M) -> bool:
    """Minimum-weight test for n = 2, involutory sigma.

    True iff some norm class of lambda values admits three linearly
    independent solution functionals; by the plane classification this is
    exactly when the codeword of M has the minimum weight q^3 - s^3.
    """
    ctx, spec = sys.ctx, sys.spec
    if sys.n != 2:
        raise ValueError("this characterization is specific to n = 2")
    if spec.order != 2:
        raise ValueError("needs an involutory sigma != 1")
    groups: dict[int, list] = {}
    for rep, lam in _solutions(sys, M):
        groups.setdefault(norm(ctx, spec, lam), []).append(rep)
    for reps in groups.values():
        if len(reps) >= 3 and rank(ctx, np.array(reps, dtype=ctx.dtype)) >= 3:
            return True
    return False


def min_weight_sweep(sys: ProjectiveSystem, threads: int = 1) -> dict:
    """Exhaustive check that minimum weight <=> the three-solution condition.

    Vectorized via line containment of the solution set, which matches the
    norm-grouped statement only when the fixed subfield is GF(2) (single
    norm class); larger s must use min_weight_condition_n2 per matrix.
    """
    ctx, spec = sys.ctx, sys.spec
    if sys.n != 2 or spec.order != 2:
        raise ValueError("sweep requires n = 2 and involutory sigma")
    if spec.s != 2:
        raise ValueError("vectorized sweep requires fixed subfield GF(2)")
    target = m_bound(sys.m, ctx.q, sys.n, spec.s)   # theta at minimum weight
    sweep = _Sweep(sys, "cond", threads)
    mism = (sweep.theta == target) != (sweep.bit == 1)
    return {
        "classes": sweep.total,
        "condition_classes": sweep.count(sweep.bit == 1),
        "mismatches": sweep.count(mism),
        "first_mismatch": sweep.first_class(mism),
        "ok": sweep.count(mism) == 0,
    }


def second_weight_check(sys: ProjectiveSystem,
                        threads: int = 1) -> SecondWeightReport:
    """Characterize the two lightest weights via rank-1 classes.

    Sweeps every matrix class and checks the set equalities
    {theta = m(1)} == {rank 1, pairing != 0} and {theta = m(1)-1} ==
    {rank 1, pairing == 0}.  Requires max over r >= 2 of m(r) < m(1) - 1,
    so that the two lightest weights come from rank 1 alone.
    """
    ctx, spec = sys.ctx, sys.spec
    if spec.j == 0:
        raise ValueError("second-weight analysis needs sigma != 1")
    q, n = ctx.q, sys.n
    m1 = m_bound(1, q, n, spec.s)
    worst = max(m_bound(r, q, n, spec.s) for r in range(2, sys.m + 1))
    if worst >= m1 - 1:
        raise ValueError(
            f"the two lightest weights are not governed by rank 1 here: "
            f"max theta over rank >= 2 is {worst}, m(1) is {m1}")
    w_min = weight_of_theta(q, n, m1)
    w_second = weight_of_theta(q, n, m1 - 1)

    sweep = _Sweep(sys, "theta", threads)
    th, sing, qsns = sweep.theta, sweep.rclass == 0, sweep.rclass == 1
    assert sweep.count(th > m1) == 0, \
        "theta exceeded m(1); rank-1 maximality violated"
    return SecondWeightReport(
        min_weight=w_min, second_weight=w_second,
        min_weight_classes=sweep.count(th == m1),
        second_weight_classes=sweep.count(th == m1 - 1),
        rank1_classes=sweep.count(sing | qsns),
        singular_classes=sweep.count(sing),
        quasi_singular_classes=sweep.count(qsns),
        correspondence_ok=(sweep.count((th == m1) != qsns) == 0
                           and sweep.count((th == m1 - 1) != sing) == 0),
        mode="exhaustive", classes_checked=sweep.total)


# ---------------------------------------------------------------------------
# group action
# ---------------------------------------------------------------------------

def act(ctx: FieldCtx, spec: AutSpec, g, M) -> np.ndarray:
    """Action g^(-1) M sigma(g) of an invertible g on the matrix space."""
    g, M = as_matrix(ctx, g), as_matrix(ctx, M)
    return _act(ctx, invert(ctx, g), sigma_entrywise(ctx, spec, g), M)


def _act(ctx: FieldCtx, gi, sg, M) -> np.ndarray:
    """act with gi = g^(-1) and sg = sigma(g), for a g that acts repeatedly."""
    return matmul(ctx, matmul(ctx, gi, M), sg)


def random_nonzero_matrix(ctx: FieldCtx, m: int, rng: SplitMix64) -> np.ndarray:
    while True:
        A = np.array(rng.elements(ctx.q, m * m),
                     dtype=ctx.dtype).reshape(m, m)
        if A.any():
            return A


def random_invertible(ctx: FieldCtx, m: int, rng: SplitMix64) -> np.ndarray:
    while True:
        A = random_nonzero_matrix(ctx, m, rng)
        if rank(ctx, A) == m:
            return A


def _conj_permutation(sys: ProjectiveSystem, g, gi):
    """pi and lambda with sigma(g) X_i g^(-1) = lambda_i X_pi(i); gi = g^(-1).

    X_i = sigma(x_i) xi_i has rank 1, so its image is sigma(g x_i) times
    xi_i g^(-1).  With g x_i = c y and xi_i g^(-1) = b z, y and z
    normalized, pi(i) is the flag ([y], [z]) and lambda_i = sigma(c) b.
    """
    ctx, gamma = sys.ctx, sys.gamma

    def classes(V):
        # leading scalar and class index of every row of V
        lead = V[np.arange(len(V)), (V != 0).argmax(axis=1)]
        reps = ctx.mul_np(ctx.inv_table[lead][:, None], V)
        return lead, class_indices(ctx.q, reps)

    c, pidx = classes(matmul(ctx, gamma.points_arr, g.T))
    b, fidx = classes(matmul(ctx, gamma.funcs_arr, gi))
    perm = gamma.flag_indices(pidx[gamma.point_idx], fidx[gamma.func_idx])
    assert (perm >= 0).all(), "conjugation moved a flag off the geometry"
    lam = ctx.mul_np(sys.spec.table[c][gamma.point_idx], b[gamma.func_idx])
    return perm, lam


def automorphism_check(sys: ProjectiveSystem, trials: int, seed: int,
                       nonkernel_probes: int = 1000) -> AutomorphismReport:
    """Randomized check that conjugation acts monomially on the code.

    For each sampled pair (g, M): the codeword of g^(-1) M sigma(g) must be
    the lambda-scaled pi-permutation of the codeword of M, where pi and
    lambda come from the conjugation action on the embedded flags; weights
    are compared as well.  Kernel probes assert that every scalar matrix
    with entry in the fixed subfield acts trivially, and that random
    non-kernel elements move at least one elementary-matrix codeword.
    """
    ctx, spec = sys.ctx, sys.spec
    rng = SplitMix64(seed)
    m = sys.m
    weight_failures = 0
    perm_failures = 0
    for _ in range(trials):
        g = random_invertible(ctx, m, rng)
        M = random_nonzero_matrix(ctx, m, rng)
        gi = invert(ctx, g)
        Y = _act(ctx, gi, sigma_entrywise(ctx, spec, g), M)
        cM, cY = sys.codewords(np.stack([M, Y]))
        weight_failures += int(np.count_nonzero(cY) != np.count_nonzero(cM))
        perm, lam = _conj_permutation(sys, g, gi)
        perm_failures += not np.array_equal(cY, ctx.mul_np(lam, cM[perm]))

    # kernel: alpha I with alpha in the fixed subfield fixes every codeword
    fixed_scalars = [a for a in range(1, ctx.q) if spec.tlist[a] == a]
    kernel_ok = True
    for alpha in fixed_scalars:
        gI = scalar_mul(ctx, alpha, np.eye(m, dtype=ctx.dtype))
        gi, sg = invert(ctx, gI), sigma_entrywise(ctx, spec, gI)
        Ms = np.stack([random_nonzero_matrix(ctx, m, rng) for _ in range(4)])
        Ys = _act(ctx, gi, sg, Ms)
        cY, cM = sys.codewords(np.stack([Ys, Ms]))
        kernel_ok &= np.array_equal(Ys, Ms) and np.array_equal(cY, cM)

    # non-kernel: some elementary matrix codeword must move
    E = np.eye(m * m, dtype=ctx.dtype).reshape(-1, m, m)
    cE = sys.codewords(E) if nonkernel_probes else None
    moved_all = True
    probes = 0
    while probes < nonkernel_probes:
        g = random_invertible(ctx, m, rng)
        scal, alpha = is_scalar_matrix(ctx, g)
        if scal and spec.tlist[alpha] == alpha:
            continue
        probes += 1
        Y = _act(ctx, invert(ctx, g), sigma_entrywise(ctx, spec, g), E)
        moved = (Y != E).any(axis=(1, 2)) & (sys.codewords(Y) != cE).any(axis=1)
        moved_all &= bool(moved.any())
    return AutomorphismReport(trials=trials, seed=seed,
                              weight_failures=weight_failures,
                              permutation_failures=perm_failures,
                              kernel_elements_checked=len(fixed_scalars),
                              kernel_ok=kernel_ok,
                              nonkernel_trials=probes,
                              nonkernel_all_moved=moved_all)


# ---------------------------------------------------------------------------
# solution bounds (line and subspace)
# ---------------------------------------------------------------------------

def _solution_mask(sys: ProjectiveSystem, M) -> np.ndarray:
    """Over the functional classes: whether xi M = lambda sigma(xi), lambda != 0."""
    ok, lam = bulk.fixed_scan(sys.ctx, sys.gamma.funcs_arr, sys.spec.table, M)
    return ok & (lam != 0)


def line_solution_bound(sys: ProjectiveSystem, M) -> dict:
    """Max number of solutions on a line of the dual space, against s + 1.

    Solutions are the functional classes with xi M = lambda sigma(xi),
    lambda != 0; for invertible M no line carries more than s + 1 of them.
    """
    ctx, spec = sys.ctx, sys.spec
    M = as_matrix(ctx, M, square=sys.m)
    if rank(ctx, M) != sys.m:
        raise ValueError("the line bound applies to invertible matrices")
    sols = _solution_mask(sys, M)
    hits = sols[line_array(ctx, sys.m)].sum(axis=1)
    worst_line = int(np.argmax(hits))       # the first line with the maximum
    worst = int(hits[worst_line])
    bound = spec.s + 1
    return {"solutions": int(sols.sum()), "max_on_a_line": worst,
            "line_index": worst_line if worst else None, "bound": bound,
            "ok": worst <= bound}


def subspace_solution_bound(sys: ProjectiveSystem, M, samples: int = 100,
                            seed: int = 0) -> dict:
    """Solutions inside random subspaces of the dual, against (s^r-1)/(s-1).

    Draws `samples` subspaces of random dimension r in [1, n+1] and counts
    the solution classes each contains; for invertible M the count never
    exceeds (s^r - 1)/(s - 1).
    """
    from .projgeom import span_classes
    ctx, spec = sys.ctx, sys.spec
    M = as_matrix(ctx, M, square=sys.m)
    if rank(ctx, M) != sys.m:
        raise ValueError("the subspace bound applies to invertible matrices")
    sols = _solution_mask(sys, M)
    rng = SplitMix64(seed)
    worst_ratio = 0.0
    violations = 0
    checked = 0
    while checked < samples:
        r = 1 + rng.below(sys.m)
        B = np.array(rng.elements(ctx.q, r * sys.m),
                     dtype=ctx.dtype).reshape(r, sys.m)
        if rank(ctx, B) != r:
            continue
        checked += 1
        inside = int(sols[class_indices(ctx.q, span_classes(ctx, B))].sum())
        bound = (spec.s ** r - 1) // (spec.s - 1)
        if inside > bound:
            violations += 1
        if bound and inside / bound > worst_ratio:
            worst_ratio = inside / bound
    return {"samples": checked, "violations": violations,
            "worst_fill_ratio": worst_ratio, "ok": violations == 0}
