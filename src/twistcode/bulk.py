"""Vectorized exhaustive sweeps over projective matrix classes.

A sweep counts theta and the rank per run (_block_keys): in the class
order the q^m classes of one run share their first m - 1 rows R' and
take every last row r.  For a functional class (xi', 1), xi M lies in
F_q sigma(xi) exactly for r on the coset -xi' R' + F_q sigma(xi', 1), so
one bincount of the q^m coset codes of a run counts theta for all its
classes, one increment per class; the codes at c = 0 run over the row
space of R', which gives rank M.  Every p adds the coset digitwise
through add_np, which is XOR at p = 2.  On 2^18 classes from the middle
of the order (2 vCPU) a theta chunk takes 24-27 ns per class at
(8, 2, 1) and 28-31 at (9, 2, 1); theta_descent takes 270-300 and
370-580.

A run is read off the class codes, not rows, through the one codec of
the class order in projgeom (lead_blocks, digits and codes).

The maps M -> g^-1 M sigma(g) act monomially on the code, and so does
the Frobenius tau(x) = x^p, so theta, the rank and a vanishing pairing
are the same on a class and its images.  Where g^-1 = [[A, 0], [b, c]],
the map sends the run of R' onto the whole run of the normalized
A R' sigma(g), since the last row goes to lambda (b R' + c r) sigma(g)
for every r.  So the runs of one orbit of these maps hold the same
cells, and a theta sweep (code._Sweep) counts the least run of each
orbit, weighted by the orbit's size, in-process: at (8, 2, 1) 8 runs and
the zero prefix, the classes 0 .. (q^m - 1)/(q - 1) - 1, which form an
orbit of their own (_Bundle.run_orbits, orbit_runs).  The check kinds
count every class, since their check bit reads the class itself.

theta_descent, a closed form in the ranks of M and of N(M) - mu I
(Galois descent), takes theta of seeded draws (sampled_theta and the
theta = 0 search of hyperplanes.find_fpf_collineation), and the tests
check the block counts against it.  It has one kernel at every p,
_descent_bytes: N(M) from linalg.matmul and the ranks from
linalg.rank_batch.  The flag check and the minimality sweep take their
codewords from ProjectiveSystem.codewords; the minimality sweep ranks
each codeword's zero rows with subset_ranks.

fixed_scan is the one evaluator of xi M against sigma(xi): theta_batch
(kept for the solution masks of min_weight_sweep) runs it on stacks,
code.theta on single matrices.  Every kernel works through
linalg.matmul and the FieldCtx array operations, so none of them needs
the q x q field tables, and each works at every q.

A sweep has one record: each chunk of the global class order counts its
classes per cell (theta, rank class, check bit) of class_keys and notes
the index of each cell's first class; the kind of sweep picks the check
bit.  code adds the chunk tables as they come, in submission order, and
folds the first classes by np.minimum, so every aggregate is
byte-identical for any worker count, and a witness is read off the
folded first classes.  With more than one worker, iter_sweep forks
W = min(threads, chunks) processes, and worker w runs chunks w, w + W,
w + 2W, ... and sends each result on a pipe of its own.  The parent only
waits on those pipes; an EOF means that a worker has exited.  The
results it holds back for order are bounded by how far one worker runs
ahead of the others, not by W, and each table is a few KB.
"""

from __future__ import annotations

import functools
import math
import multiprocessing as mp
import signal

import numpy as np

from .embedding import build_system
from .gamma import base_cardinality
from .gf import AutSpec, FieldCtx, make_autspec, make_field
from .linalg import invert, matmul, rank_batch, subset_ranks
from .projgeom import (class_indices, class_reps_range, codes, digits,
                       lead_blocks, line_array, num_classes)
from .rng import SplitMix64

EXHAUSTIVE_CAP = 2 * 10 ** 7
PAIR_CAP = 10 ** 9      # class x flag pairs: auto flag check, minimality
DEFAULT_CHUNK = 1 << 18
_SLICE = 1 << 14        # rows per _descent_bytes step; bounds its N(M) products
_PRODUCTS = 1 << 18  # field products per slice of the scan and zero counts
_RUN_SLICE = 1 << 16  # coset codes per _block_keys step
_ORBIT_BLOCK = 1 << 16  # prefixes per step of the run-orbit images


class _Bundle:
    """Per-process cache of the system plus sweep-ready arrays."""

    def __init__(self, cfg: tuple):
        p, t, modulus, j, n = cfg
        ctx = make_field(p, t, modulus)
        spec = make_autspec(ctx, j)
        sys_ = build_system(ctx, spec, n)
        self.cfg = cfg
        self.ctx = ctx
        self.spec = spec
        self.sys = sys_
        self.q = ctx.q
        self.n = n
        self.m = n + 1
        self.k = self.m * self.m

        g = sys_.gamma
        self.F = len(g.functionals)
        # p2, funcs, sfuncs and lead: only perfbench/micro.py reads them
        self.p2 = ctx.p == 2
        self.funcs = [f.rep for f in g.functionals]
        self.sfuncs = [tuple(int(spec.table[e]) for e in f.rep)
                       for f in g.functionals]
        self.lead = [next(i for i, e in enumerate(f.rep) if e)
                     for f in g.functionals]
        self.N = sys_.N

    @functools.cached_property
    def run_orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """The least run of each run orbit, numbered as in orbit_runs, and
        the orbit's size, int64 (_run_orbits); built on the first theta
        sweep."""
        return _run_orbits(self)

    @functools.cached_property
    def run_tables(self):
        """For _run_arrays: every xi' of F_q^(m-1) as digits, in code order;
        the normalized xi'' among them, their leading positions and the
        codes of their lines F_q sigma(xi'', 0), (N'', q); and rank R' by
        the number of xi'' with xi'' R' = 0."""
        ctx, q, m = self.ctx, self.q, self.m
        xis = digits(np.arange(q ** (m - 1)), q, m - 1, ctx.dtype)
        count = num_classes(q, m - 1)
        normal = class_reps_range(q, m - 1, 0, count, dtype=ctx.dtype)
        sxi = np.concatenate([self.spec.table.take(normal),
                              np.zeros((count, 1), ctx.dtype)], axis=1)
        c = np.arange(q, dtype=ctx.dtype)[:, None]
        lines = codes(q, ctx.mul_np(c, sxi[:, None, :]))
        rank_of = np.full(count + 1, -1, dtype=np.int8)
        rank_of[[num_classes(q, m - 1 - r) for r in range(m)]] = range(m)
        return xis, normal, (normal != 0).argmax(axis=1), lines, rank_of

    @functools.cached_property
    def dual_line_masks(self) -> list[int]:
        """Bit masks (over functional indices) of the lines of PG(V*)."""
        assert self.F <= 62, "bit-mask line test needs <= 62 functionals"
        lines = line_array(self.ctx, self.m)
        return np.bitwise_or.reduce(np.left_shift(1, lines), axis=1).tolist()


@functools.lru_cache(maxsize=None)
def _bundle(cfg: tuple) -> _Bundle:
    return _Bundle(cfg)


# ---------------------------------------------------------------------------
# batched primitives (R is a (B, k) array of flattened matrices)
# ---------------------------------------------------------------------------

def fixed_scan(ctx: FieldCtx, funcs: np.ndarray, tau: np.ndarray,
               M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Test xi M = lambda * tau(xi) for every functional class xi.

    funcs holds one normalized representative per row, tau an entrywise
    field automorphism as a table, and M is one m x m matrix or a stack
    (..., m, m).  Returns (ok, lam) of shape (..., F), one entry per row
    of funcs; lambda is read off at the leading 1 of xi, which tau fixes,
    and lam == 0 on an ok row means xi M = 0.
    """
    # (F, m, ...): the stack axes last, as matmul lays them out in memory;
    # on stacks of 3 x 3 matrices the tests below run 2.5x slower in the
    # (..., F, m) view
    V = np.moveaxis(matmul(ctx, funcs, M), (-2, -1), (0, 1))
    lead = (funcs != 0).argmax(axis=1)
    lam = V[np.arange(len(funcs)), lead]
    sfuncs = tau[funcs].reshape(funcs.shape + (1,) * (V.ndim - 2))
    ok = (V == ctx.mul_np(lam[:, None], sfuncs)).all(axis=1)
    return np.moveaxis(ok, 0, -1), np.moveaxis(lam, 0, -1)


def theta_batch(b: _Bundle, R: np.ndarray, want_solmask: bool = False):
    """Fixed-functional count per matrix in the batch (fixed_scan).

    With want_solmask the per-functional solution bits for lambda != 0 are
    packed into an int64 mask (needs F <= 62 functionals).
    """
    funcs = b.sys.gamma.funcs_arr
    bits = np.left_shift(1, np.arange(b.F, dtype=np.int64))
    step = max(1, _PRODUCTS // (b.F * b.k))
    theta = np.empty(len(R), dtype=np.int32)
    sol = np.empty(len(R), dtype=np.int64) if want_solmask else None
    for a in range(0, len(R), step):
        M = R[a:a + step].reshape(-1, b.m, b.m)
        ok, lam = fixed_scan(b.ctx, funcs, b.spec.table, M)
        theta[a:a + step] = ok.sum(axis=1)
        if want_solmask:
            sol[a:a + step] = ((ok & (lam != 0)) * bits).sum(axis=1)
    return theta, sol


def zero_counts_batch(b: _Bundle, R: np.ndarray,
                      full_mask: bool = False):
    """Number of vanishing codeword coordinates per matrix in the batch.

    The codewords come from ProjectiveSystem.codewords, in slices of
    about _PRODUCTS field products.  Returns the count vector, and the
    full (B, N) boolean mask when full_mask is set (minimality needs the
    positions).
    """
    step = max(1, _PRODUCTS // (b.N * b.m))
    counts = np.empty(len(R), dtype=np.int32)
    mask = np.empty((len(R), b.N), dtype=bool) if full_mask else None
    for a in range(0, len(R), step):
        zero = b.sys.codewords(R[a:a + step].reshape(-1, b.m, b.m)) == 0
        counts[a:a + step] = zero.sum(axis=1)
        if full_mask:
            mask[a:a + step] = zero
    return counts, mask


def rank3_batch(b: _Bundle, R: np.ndarray) -> np.ndarray:
    """Ranks of a batch of flattened m x m matrices (linalg.rank_batch)."""
    return rank_batch(b.ctx, R.reshape(-1, b.m, b.m))


def theta_descent(ctx: FieldCtx, spec: AutSpec,
                  R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-functional counts and ranks of flattened m x m matrices; any q.

    Galois descent.  With e = spec.order, N(M) = M sigma(M) ...
    sigma^(e-1)(M), d0 = m - rank M and d_mu = m - rank(N(M) - mu I):

        theta(M) = (q^d0 - 1)/(q - 1)
                   + sum over mu in F_s* of (s^d_mu - 1)/(s - 1).

    The kernel classes give the first term.  The point map
    T(xi) = sigma^-1(xi M) is sigma^-1-semilinear with T^e(xi) = xi N(M),
    so the classes with lambda != 0 lie in the eigenspaces W_mu of N(M),
    and on each W_mu Speiser's lemma (Hilbert 90) gives the fixed vectors
    of the semilinear map as an F_s-form of dimension d_mu.  Both terms
    are looked up per rank.  The mu-sum takes one batched rank per element
    of F_s*, so the cost grows with s.  Reads no q x q table.

    The ranks come from _descent_bytes, in slices of _SLICE rows, which
    bounds the N(M) products.
    """
    q, s = ctx.q, spec.s
    m = math.isqrt(R.shape[1])
    M = R.reshape(-1, m, m)
    mus = [a for a in range(1, q) if spec.tlist[a] == a]
    dtype = np.min_scalar_type((q ** m - 1) // (q - 1))   # theta <= F
    kern = np.array([(q ** (m - r) - 1) // (q - 1) for r in range(m + 1)], dtype)
    fixed = np.array([(s ** (m - r) - 1) // (s - 1) for r in range(m + 1)], dtype)
    theta = np.empty(len(M), dtype=dtype)
    ranks = np.empty(len(M), dtype=np.int8)
    for a in range(0, len(M), _SLICE):
        th, rk = theta[a:a + _SLICE], ranks[a:a + _SLICE]
        rank_iter = _descent_bytes(ctx, spec, M[a:a + _SLICE], mus)
        rk[:] = next(rank_iter)
        kern.take(rk, out=th)
        for r in rank_iter:
            th += fixed.take(r)
    return theta, ranks


def _descent_bytes(ctx: FieldCtx, spec: AutSpec, M: np.ndarray, mus):
    """rank M, then rank(N(M) - mu I) for each mu: the byte kernel, any q."""
    yield rank_batch(ctx, M)
    N = S = M
    for _ in range(spec.order - 1):
        S = spec.table.take(S)
        N = matmul(ctx, N, S)
    diag = np.arange(M.shape[1])
    for mu in mus:
        shifted = N.copy()
        shifted[:, diag, diag] = ctx.add_np(N[:, diag, diag], ctx.neg(mu))
        yield rank_batch(ctx, shifted)


def pairing_batch(b: _Bundle, R: np.ndarray) -> np.ndarray:
    """zeta . sigma(u) for the leading rank-1 factorization of each matrix.

    zeta is the first nonzero row, u the matching coefficient column; the
    value is meaningful for rank-1 matrices (singular <=> 0).  Vanishing
    agrees with the sigma^{-1}-side pairing used in classify, since sigma
    is a field automorphism.
    """
    B = R.shape[0]
    m = b.m
    R3 = R.reshape(B, m, m)
    i0 = (R3 != 0).any(axis=2).argmax(axis=1)
    zeta = np.take_along_axis(R3, i0[:, None, None], axis=1)[:, 0, :]
    j0 = (zeta != 0).argmax(axis=1)
    u = np.take_along_axis(R3, j0[:, None, None], axis=2)[:, :, 0]
    su = b.spec.table.take(u)
    ctx = b.ctx
    acc = ctx.mul_np(zeta[:, 0], su[:, 0])
    for c in range(1, m):       # per column: one (m, B) product costs memory
        acc = ctx.add_np(acc, ctx.mul_np(zeta[:, c], su[:, c]))
    return acc


# ---------------------------------------------------------------------------
# run orbits
# ---------------------------------------------------------------------------

def orbit_runs(cfg: tuple) -> list[tuple[int, int, int]]:
    """(start, stop, orbit size) of the least run of each run orbit, in
    class order; the sizes add up to the num_classes(q, m (m - 1)) + 1 runs.

    The run of class i is (i - Z) // q^m + 1 with Z = (q^m - 1)/(q - 1):
    run 0 is the Z classes with a zero prefix R', and run r >= 1 the q^m
    classes whose prefix has class index r - 1 among the m (m - 1)-vectors.
    """
    b = _bundle(cfg)
    qm, zero = b.q ** b.m, num_classes(b.q, b.m)
    runs, sizes = b.run_orbits
    return [(max(zero + (r - 1) * qm, 0), zero + r * qm, size)
            for r, size in zip(runs.tolist(), sizes.tolist())]


def _run_orbits(b: _Bundle) -> tuple[np.ndarray, np.ndarray]:
    """The least run of each orbit of the run-preserving maps, and the
    orbit's size: the zero prefix, run 0, has an orbit of its own.

    The maps with g^-1 = [[I, 0], [b, 1]] add sigma(b) times the last
    column R'_2 of R' to its first m - 1 columns.  They form a normal
    subgroup, and its orbit of a prefix has one least member, the prefix
    with row i0 of those columns cleared, i0 the first nonzero row of
    R'_2 (_shear_least), and q^(m-1) members where R'_2 != 0, else one.
    So the closure runs on those least members alone (_shear_minima):
    every generator of _run_maps maps them, cleared again, onto least
    members, and the least label of each connected set (_least_labels)
    is the least run of its orbit.
    """
    rows, weight = _shear_minima(b)
    index = _shear_least(b, rows)
    order = np.argsort(index)
    rows, weight, index = rows[order], weight[order], index[order]
    A_maps, tau = _run_maps(b)
    images = [np.empty(len(rows), dtype=np.int32)
              for _ in range(len(A_maps) + (tau is not None))]
    for a in range(0, len(rows), _ORBIT_BLOCK):
        R = rows[a:a + _ORBIT_BLOCK]
        moved = [matmul(b.ctx, matmul(b.ctx, A, R), C) for A, C in A_maps]
        if tau is not None:
            moved.append(tau.take(R))
        for out, V in zip(images, moved):
            image = _shear_least(b, V)
            out[a:a + len(R)] = pos = np.searchsorted(index, image)
            assert np.array_equal(index[pos], image), "a map left the minima"
    least, member = np.unique(_least_labels(images, len(rows)),
                              return_inverse=True)
    sizes = np.zeros(len(least), dtype=np.int64)
    np.add.at(sizes, member, weight)
    return (np.concatenate([[0], index[least] + 1]),
            np.concatenate([[1], sizes]))


def _run_maps(b: _Bundle):
    """Generators of the run-preserving maps modulo the shears, as pairs
    (A, C) with R' -> A R' C, and tau as a table (None where t = 1).

    g^-1 = diag(A, 1) for A = diag(omega, 1, ...), I + E_01 and the row
    cycle, omega the generator of F_q*; C = sigma(g) = diag(sigma(A^-1), 1)
    acts on the first m - 1 columns.  Any set of such maps is exact: a
    smaller one only leaves more orbits, so more runs, to count.
    """
    ctx, w = b.ctx, b.m - 1
    eye = np.eye(w, dtype=ctx.dtype)
    gens = []
    if ctx.q > 2:
        gens.append(eye.copy())
        gens[-1][0, 0] = ctx.gen
    if w > 1:
        gens += [eye.copy(), np.roll(eye, 1, axis=1)]
        gens[-2][0, 1] = 1
    maps = []
    for A in gens:
        g = np.eye(b.m, dtype=ctx.dtype)
        g[:w, :w] = invert(ctx, A)
        maps.append((A, b.spec.table.take(g)))
    return maps, make_autspec(ctx, 1).table if ctx.t > 1 else None


def _shear_minima(b: _Bundle) -> tuple[np.ndarray, np.ndarray]:
    """The prefixes that _shear_least fixes, as (B, m - 1, m) rows, and
    the size of each one's shear orbit.

    Those with R'_2 = 0 are the nonzero R'_1; the others have their
    first nonzero R'_2 entry, scaled to 1, in some row i0, zeros above
    it, and row i0 of R'_1 cleared; every other entry runs free.
    """
    ctx, q, m = b.ctx, b.q, b.m
    w = m - 1
    R1 = class_reps_range(q, w * w, 0, num_classes(q, w * w), dtype=ctx.dtype)
    blocks = [np.pad(R1.reshape(-1, w, w), ((0, 0), (0, 0), (0, 1)))]
    weights = [np.ones(len(R1), dtype=np.int64)]
    for i0 in range(w):
        free = np.ones((w, m), dtype=bool)
        free[i0, :] = False
        free[:i0 + 1, w] = False
        R = np.zeros((q ** int(free.sum()), w, m), dtype=ctx.dtype)
        R[:, i0, w] = 1
        R[:, free] = digits(np.arange(len(R)), q, int(free.sum()), ctx.dtype)
        blocks.append(R)
        weights.append(np.full(len(R), q ** w, dtype=np.int64))
    return np.concatenate(blocks), np.concatenate(weights)


def _shear_least(b: _Bundle, V: np.ndarray) -> np.ndarray:
    """The prefix class index of the least member of the shear orbit of
    each (B, m - 1, m) row V != 0 (_run_orbits): row i0 of the first
    m - 1 columns cleared by adding -V[i0] / V[i0, m - 1] times the last
    column, then the row normalized."""
    ctx, w = b.ctx, b.m - 1
    each = np.arange(len(V))
    last = V[:, :, w]
    i0 = (last != 0).argmax(axis=1)
    s = ctx.mul_np(ctx.neg_inv_table.take(last[each, i0])[:, None],
                   V[each, i0, :w])                    # zero where last = 0
    V = V.copy()
    V[:, :, :w] = ctx.add_np(V[:, :, :w], ctx.mul_np(last[:, :, None],
                                                      s[:, None, :]))
    V = V.reshape(len(V), -1)
    lead = V[each, (V != 0).argmax(axis=1)]
    return class_indices(b.q, ctx.mul_np(ctx.inv_table.take(lead)[:, None], V))


def _least_labels(images: list[np.ndarray], n: int) -> np.ndarray:
    """The least member of the orbit of each of 0 .. n - 1 under the
    permutations images: each edge x -> image[x] hooks the larger label
    onto the smaller, pointers jump to their roots, and that repeats
    until every edge joins equal labels."""
    label = np.arange(n)
    while True:
        for image in images:
            a, c = label, label[image]
            apart = a != c
            hi = np.maximum(a[apart], c[apart])
            label[hi] = np.minimum(label[hi], np.minimum(a[apart], c[apart]))
        while not np.array_equal(root := label[label], label):
            label = root
        if all(np.array_equal(label[image], label) for image in images):
            return label


# ---------------------------------------------------------------------------
# chunk evaluation and the parallel driver
# ---------------------------------------------------------------------------

def class_keys(cfg: tuple, kind: str, start: int, stop: int) -> np.ndarray:
    """The cell of each class in [start, stop), as a flat table index.

    A cell is (theta, rank class, check bit), flattened to
    (theta * (m + 1) + rank class) * 2 + bit.  Theta and the rank class
    come from _block_keys, one key per class.  kind picks the check bit:
    "theta" sets none, "flag" marks a violated intersection identity
    (zero_counts_batch), "cond" the solutions on no line of the dual
    space (theta_batch's masks; its theta is asserted to equal the block
    count's) and "minimality" a zero set of rank < k - 1 (subset_ranks).
    Only the check bits build the rows of class_reps_range.
    """
    b = _bundle(cfg)
    keys = _block_keys(b, start, stop)
    if kind != "theta":
        R = class_reps_range(b.q, b.k, start, stop, dtype=b.ctx.dtype)
        keys += _check_bit(b, kind, R, keys // (2 * (b.m + 1)))
    return keys


def _block_keys(b: _Bundle, start: int, stop: int) -> np.ndarray:
    """The cells (theta, rank class, 0) of the classes in [start, stop),
    one per class in class order, counted per run.

    The row of a class is the base-q expansion of its code D = local
    index + q^tail in its lead block (projgeom.lead_blocks and digits),
    so the q^m classes of one run D // q^m share their first m - 1 rows
    R' and take every last row r, in code order D mod q^m.  theta counts
    the functional classes xi with xi M in F_q sigma(xi) (fixed_scan),
    regrouped: those (xi'', 0) with xi'' R' on its line are the run's
    base, and (xi', 1) M = o + r with o = xi' R' counts for r exactly on
    the coset -o + F_q sigma(xi', 1).
    So one bincount of the q^(m-1) x q coset codes of a run counts every
    last row at once, one increment per class.  Its c = 0 codes run over
    the row space of R', which gives rank M = rank R' + [r off that space].
    The runs of a lead block go in slices of S = max(1, _RUN_SLICE // q^m),
    and each slice is clipped to the codes D0 .. D1 - 1 that the range
    holds in the block by one offset and one length, so a run that the
    range cuts counts only its part.  The rank-1 classes are then picked
    from the block's keys; their rows come from their codes, and a
    vanishing pairing_batch (singular) moves them to rank class 0.
    """
    q, m, k = b.q, b.m, b.k
    qm = q ** m
    S = max(1, _RUN_SLICE // qm)                           # runs per slice
    keys = np.empty(stop - start, dtype=np.intp)
    at = 0                                      # keys written so far
    for D0, D1 in lead_blocks(q, k, start, stop):
        u0 = D0 // qm
        runs = _run_arrays(b, np.arange(u0, -(-D1 // qm), dtype=np.int64))
        block = keys[at:at + D1 - D0]
        for i in range(0, len(runs[0]), S):
            a = max(D0, (u0 + i) * qm)
            e = min(D1, (u0 + i + S) * qm)
            _count_slice(b, [v[i:i + S] for v in runs], a - (u0 + i) * qm,
                         block[a - D0:e - D0])
        r1 = np.flatnonzero(block % (2 * (m + 1)) == 2)    # rank class 1
        rows = digits(D0 + r1, q, k, b.ctx.dtype)
        block[r1] -= (pairing_batch(b, rows) == 0) * 2     # singular
        at += D1 - D0
    return keys


def _run_arrays(b: _Bundle, u: np.ndarray):
    """The base count, rank R' and offsets -o of the runs numbered u:
    -o = -xi' R' for every xi', as (U, m, q^(m-1)) digits (at p = 2
    neg_table is the identity)."""
    ctx, q, m = b.ctx, b.q, b.m
    Rp = digits(u, q, m * (m - 1), ctx.dtype).reshape(-1, m - 1, m)
    xis, normal, lead, lines0, rank_of = b.run_tables
    V = matmul(ctx, normal, Rp)                            # xi'' R'
    on, each = codes(q, V), np.arange(len(normal))
    lam = V[:, each, lead]                                 # its factor
    base = (on == lines0[each, lam]).sum(axis=1)
    rank_p = rank_of[(on == 0).sum(axis=1)]
    o = matmul(ctx, xis, Rp).transpose(0, 2, 1)
    return base, rank_p, ctx.neg_table.take(o)


def _count_slice(b: _Bundle, runs, off: int, keys: np.ndarray) -> None:
    """Write the cells (theta, rank class, 0), rank 1 not yet split, of
    the len(keys) classes from code off of the first of the runs on.

    The coset codes, shifted by off, are clipped to 0 .. len(keys) - 1.
    The xi' go in blocks, so that no step holds more than about
    _RUN_SLICE coset codes."""
    ctx, q, m = b.ctx, b.q, b.m
    base, rank_p, o = runs
    qm, X, S, n = q ** m, q ** (m - 1), len(base), len(keys)
    shift = np.arange(S, dtype=np.intp)[:, None, None] * qm - off
    step = max(1, _RUN_SLICE // (S * q))
    cnt, span = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.int8)
    for x0 in range(0, X, step):
        lines = _sigma_lines(b.cfg, x0, min(x0 + step, X))
        ob = o[..., x0:x0 + step]
        idx = ctx.add_np(ob[:, None, 0], lines[0]).astype(np.intp)
        for c in range(1, m):
            idx *= q
            idx += ctx.add_np(ob[:, None, c], lines[c])
        idx += shift
        in_span = idx[:, 0].ravel()                        # c = 0
        idx = idx.ravel()
        cnt += np.bincount(idx[idx.view(np.uintp) < n], minlength=n)
        span[in_span[in_span.view(np.uintp) < n]] = 2
    # 2 (theta (m + 1) + rank) with rank = rank R' + 1 - [r in the span]
    edges = np.clip(np.arange(S + 1) * qm - off, 0, n)
    cnt *= 2 * (m + 1)
    cnt += np.repeat(2 * (base * (m + 1) + rank_p + 1), np.diff(edges))
    np.subtract(cnt, span, out=keys)


def _sigma_lines(cfg: tuple, x0: int, x1: int) -> np.ndarray:
    """The lines F_q sigma(xi', 1) of the xi' with codes x0 .. x1 - 1, as
    (m, q, X) digits; row c = 0 is the zero vector."""
    b = _bundle(cfg)
    ctx = b.ctx
    xi = b.run_tables[0][x0:x1]
    sxi = b.spec.table.take(np.concatenate(
        [xi, np.ones((len(xi), 1), ctx.dtype)], axis=1))
    return ctx.mul_np(np.arange(b.q, dtype=ctx.dtype)[:, None],
                      sxi.T[:, None, :])


def _check_bit(b: _Bundle, kind: str, R: np.ndarray,
               theta: np.ndarray) -> np.ndarray:
    if kind == "flag":
        z, _ = zero_counts_batch(b, R)
        per_theta = theta.astype(np.int64) * b.q ** (b.n - 1)
        return z != base_cardinality(b.q, b.n) + per_theta
    if kind == "cond":
        scan, sol = theta_batch(b, R, want_solmask=True)
        assert np.array_equal(scan, theta), "scan and block theta differ"
        contained = np.zeros(R.shape[0], dtype=bool)
        for mk in b.dual_line_masks:
            contained |= (sol & ~mk) == 0
        return (sol != 0) & ~contained
    if kind == "minimality":
        # zero rows of rank k - 1 per class, in slices: no (len(R), N) mask
        step = max(1, _PRODUCTS // b.N)
        bad = np.empty(R.shape[0], dtype=bool)
        for a in range(0, R.shape[0], step):
            _, mask = zero_counts_batch(b, R[a:a + step], full_mask=True)
            ranks = subset_ranks(b.ctx, b.sys.flat, mask, b.k - 1)
            bad[a:a + step] = ranks < b.k - 1
        return bad
    raise ValueError(f"unknown sweep kind {kind!r}")


def sweep_chunk(cfg: tuple, opts: dict, start: int, stop: int) -> dict:
    """Count the classes in [start, stop) per cell.

    Only opts["kind"] is read.  Returns start, stop, classes (always
    stop - start), table, the (F + 1, m + 1, 2) counts of the keys of
    class_keys over (theta, rank class, check bit), one per class, and
    first, per cell the index of its first class in the range (int64 max
    where none); chunks fold by adding their tables and taking the
    np.minimum of their firsts.  code._Sweep folds the check kinds over
    every chunk (iter_sweep), and theta over the least run of each run
    orbit, times the orbit's size.
    """
    b = _bundle(cfg)
    shape = (b.F + 1, b.m + 1, 2)
    keys = class_keys(cfg, opts["kind"], start, stop)
    first = np.full(math.prod(shape), np.iinfo(np.int64).max)
    np.minimum.at(first, keys, np.arange(start, stop))
    return {"start": start, "stop": stop, "classes": stop - start,
            "table": np.bincount(keys, minlength=len(first)).reshape(shape),
            "first": first.reshape(shape)}


def iter_sweep(cfg: tuple, opts: dict, total: int, threads: int = 1,
               chunk: int = DEFAULT_CHUNK):
    """Yield per-chunk result dicts over [0, total) in submission order.

    With more than one worker, worker w of W = min(threads, chunks) forked
    processes runs chunks w, w + W, w + 2W, ... and sends each result on a
    pipe of its own; the parent only waits, and puts the results back in
    order.  An exception in a chunk reaches the caller with its type and
    message; a worker that dies (a signal, os._exit) raises RuntimeError
    with its exit code.  Closing the generator early terminates the workers.
    """
    ranges = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    workers = min(threads, len(ranges))
    if workers <= 1:
        for s, e in ranges:
            yield sweep_chunk(cfg, opts, s, e)
        return
    # imported here: it adds about 0.6 MB of RSS, which a command that
    # never sweeps in parallel need not pay
    from multiprocessing.connection import wait

    _bundle(cfg)            # built once here, inherited by every worker
    fork = mp.get_context("fork")
    procs, conns, done = [], [], False
    try:
        for w in range(workers):
            recv, send = fork.Pipe(duplex=False)
            conns.append(recv)
            proc = fork.Process(target=_sweep_worker, daemon=True,
                                args=(cfg, opts, ranges, w, workers, send))
            try:
                proc.start()
            finally:
                send.close()
            procs.append(proc)
        running, results, nxt = dict(zip(conns, procs)), {}, 0
        while nxt < len(ranges):
            if not running:
                raise RuntimeError("sweep workers stopped with "
                                   f"{len(ranges) - nxt} chunks left")
            for ready in wait(list(running)):
                try:
                    i, res = ready.recv()
                except EOFError:        # the worker has finished
                    proc = running.pop(ready)
                    proc.join()
                    if proc.exitcode:
                        raise RuntimeError(f"sweep worker {proc.pid} exited "
                                           f"with code {proc.exitcode}")
                    continue
                if isinstance(res, BaseException):
                    raise res
                results[i] = res
            while nxt in results:
                yield results.pop(nxt)
                nxt += 1
        done = True
    finally:
        for proc in procs:
            if not done:
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def _sweep_worker(cfg, opts, ranges, w, workers, send) -> None:
    """Run chunks w, w + workers, ...; send (i, result) for each, or
    (i, exception) and stop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent stops us
    for i in range(w, len(ranges), workers):
        try:
            res = sweep_chunk(cfg, opts, *ranges[i])
        except Exception as exc:        # raised again in the parent
            send.send((i, exc))
            return
        send.send((i, res))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def nonzero_draws(ctx: FieldCtx, k: int, count: int,
                  rng: SplitMix64) -> np.ndarray:
    """The next `count` seeded random nonzero rows of k field elements.

    The draws are those of code.random_nonzero_matrix, taken in blocks:
    the rows of k below(q) draws each, all-zero rows rejected.  A rejected
    row uses up its k words, so drawing only what is missing keeps the
    stream position of the one-draw-at-a-time loop, and calls on one rng
    continue its stream.
    """
    q = ctx.q
    draws = np.empty((0, k), dtype=ctx.dtype)
    while len(draws) < count:
        words = rng.words((count - len(draws)) * k) % q
        rows = words.astype(ctx.dtype).reshape(-1, k)
        draws = np.concatenate([draws, rows[rows.any(axis=1)]])
    return draws


def sampled_theta(cfg: tuple, count: int, seed: int) -> np.ndarray:
    """Fixed-functional counts of `count` seeded random nonzero matrices.

    The draws are those of nonzero_draws, taken and descended in blocks
    of _SLICE rows on one rng, so no more than one block of draws is held;
    theta comes from theta_descent.
    """
    p, t, modulus, j, n = cfg
    ctx = make_field(p, t, modulus)
    spec = make_autspec(ctx, j)
    rng = SplitMix64(seed)
    theta = np.empty(count, dtype=np.int64)
    for a in range(0, count, _SLICE):
        draws = nonzero_draws(ctx, (n + 1) ** 2, min(_SLICE, count - a), rng)
        theta[a:a + _SLICE] = theta_descent(ctx, spec, draws)[0]
    return theta
