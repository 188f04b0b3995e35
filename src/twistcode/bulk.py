"""Vectorized exhaustive sweeps over projective matrix classes.

A sweep counts theta and the rank per run (_block_keys): in the class
order the q^m classes of one run share their first m - 1 rows R' and
take every last row r.  For a functional class (xi', 1), xi M lies in
F_q sigma(xi) exactly for r on the coset -xi' R' + F_q sigma(xi', 1), so
one bincount of the q^m coset codes of a run counts theta for all its
classes, one increment per class; the codes at c = 0 run over the row
space of R', which gives rank M.  At p = 2 a coset code is one XOR of codes,
and odd p adds digitwise through add_np.  Over 2^18 classes (2 vCPU) a
theta chunk takes 11-15 ns per class at (8, 2, 1), against 43-74 through
theta_descent on planes, and 23-32 against 560-690 at (9, 2, 1).

theta_descent, a closed form in the ranks of M and of N(M) - mu I
(Galois descent), takes theta of seeded draws (sampled_theta and the
theta = 0 search of hyperplanes.find_fpf_collineation), and the tests
check the block counts against it.  For p = 2, at every supported
q = 2^t, it runs on bit planes, 64 classes per machine word (gf.Planes,
linalg.plane_matmul and linalg.plane_rank); odd p runs on bytes
(linalg.matmul and linalg.rank_batch), the planes' oracle in the tests.
At (8, 2, 1) the descent takes 40-48 ns per class on planes against 309
on bytes; the planes were faster at every t from 1 to 16 tried, so no
cutoff in t applies.  The flag check and the minimality sweep take their
codewords from ProjectiveSystem.codewords; the minimality sweep ranks
each codeword's zero rows with subset_ranks.

fixed_scan is the one evaluator of xi M against sigma(xi): theta_batch
(kept for the solution masks of min_weight_sweep) runs it on stacks,
code.theta on single matrices.  The planes aside, every kernel works
through linalg.matmul and the FieldCtx array operations, so none of
them needs the q x q field tables, and each works at every q.

A sweep has one record: each chunk of the global class order counts its
classes per cell (theta, rank class, check bit) of class_keys, and the
kind of sweep picks the check bit.  code adds the chunk tables as they
come, in submission order, so every aggregate is byte-identical for any
worker count, and reads a witness off the keys of the first chunk in
which its cell turns up.  With more than one worker, iter_sweep forks
min(threads, chunks) processes that pull chunk numbers from one task
pipe; the parent only waits on their result pipes and exits.
"""

from __future__ import annotations

import functools
import math
import multiprocessing as mp
import os
import select
import signal

import numpy as np

from .embedding import build_system
from .gamma import base_cardinality
from .gf import AutSpec, FieldCtx, make_autspec, make_field
from .linalg import matmul, plane_matmul, plane_rank, rank_batch, subset_ranks
from .projgeom import class_reps_range, line_array, num_classes
from .rng import SplitMix64

EXHAUSTIVE_CAP = 2 * 10 ** 7
PAIR_CAP = 10 ** 9      # class x flag pairs: auto flag check, minimality
DEFAULT_CHUNK = 1 << 18
_SLICE = 1 << 14        # rows per _descent_bytes step; bounds its N(M) products
_PLANE_SLICE = 1 << 16  # rows per _descent_planes step (1024 words a plane)
_PRODUCTS = 1 << 18  # field products per slice of the scan and zero counts
_RUN_SLICE = 1 << 16  # coset codes per _block_keys step


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
    def run_tables(self):
        """For _run_arrays: every xi' of F_q^(m-1) as digits, in code order;
        the normalized xi'' among them, their leading positions and the
        codes of their lines F_q sigma(xi'', 0), (N'', q); and rank R' by
        the number of xi'' with xi'' R' = 0."""
        ctx, q, m = self.ctx, self.q, self.m
        xis = _digits(np.arange(q ** (m - 1)), q, m - 1).astype(ctx.dtype)
        count = num_classes(q, m - 1)
        normal = class_reps_range(q, m - 1, 0, count, dtype=ctx.dtype)
        sxi = np.concatenate([self.spec.table.take(normal),
                              np.zeros((count, 1), ctx.dtype)], axis=1)
        c = np.arange(q, dtype=ctx.dtype)[:, None]
        lines = _codes(q, ctx.mul_np(c, sxi[:, None, :]))
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

    For p = 2 the ranks come from _descent_planes on the packed bit planes
    of R (64 classes per word), else from _descent_bytes; _fold_ranks
    walks the batch in slices of each kernel's size, which bounds the
    N(M) products, and turns the ranks into theta.
    """
    m = math.isqrt(R.shape[1])
    if ctx.p == 2:
        P = ctx.planes.pack(R.T).reshape(ctx.t, m, m, -1)
        words = _PLANE_SLICE // 64
        return _fold_ranks(ctx, spec, m, len(R), _PLANE_SLICE, lambda a, mus:
                           _descent_planes(ctx, spec,
                                           P[..., a // 64:a // 64 + words],
                                           mus))
    M = R.reshape(-1, m, m)
    return _fold_ranks(ctx, spec, m, len(M), _SLICE, lambda a, mus:
                       _descent_bytes(ctx, spec, M[a:a + _SLICE], mus))


def _fold_ranks(ctx: FieldCtx, spec: AutSpec, m: int, B: int, step: int,
                ranks_of) -> tuple[np.ndarray, np.ndarray]:
    """theta and rank of B classes from their ranks, slice by slice.

    ranks_of(a, mus) yields rank M, then rank(N(M) - mu I) for each mu,
    for the classes a .. a + step - 1 (a plane kernel pads to whole words:
    the tail is cut off); theta_descent's closed form adds them up.
    """
    q, s = ctx.q, spec.s
    mus = [a for a in range(1, q) if spec.tlist[a] == a]
    dtype = np.min_scalar_type((q ** m - 1) // (q - 1))   # theta <= F
    kern = np.array([(q ** (m - r) - 1) // (q - 1) for r in range(m + 1)], dtype)
    fixed = np.array([(s ** (m - r) - 1) // (s - 1) for r in range(m + 1)], dtype)
    theta = np.empty(B, dtype=dtype)
    ranks = np.empty(B, dtype=np.int8)
    for a in range(0, B, step):
        th, rk = theta[a:a + step], ranks[a:a + step]
        rank_iter = ranks_of(a, mus)
        rk[:] = next(rank_iter)[:len(rk)]
        kern.take(rk, out=th)
        for r in rank_iter:
            th += fixed.take(r[:len(th)])
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


def _descent_planes(ctx: FieldCtx, spec: AutSpec, P: np.ndarray, mus):
    """The ranks of _descent_bytes on the planes P (t, m, m, W); p = 2 only.

    One rank per lane, padding lanes included."""
    pf = ctx.planes
    yield plane_rank(pf, P)
    N = S = P
    for _ in range(spec.order - 1):
        S = pf.sigma(S, spec)
        N = plane_matmul(pf, N, S)
    diag = np.arange(P.shape[1])
    for mu in mus:
        shifted = N.copy()
        for i in range(pf.t):           # mu I: all-ones words on mu's planes
            if mu >> i & 1:
                shifted[i, diag, diag] ^= ~np.uint64(0)
        yield plane_rank(pf, shifted)


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
# chunk evaluation and the parallel driver
# ---------------------------------------------------------------------------

def class_keys(cfg: tuple, kind: str, start: int, stop: int) -> np.ndarray:
    """The cell of each class in [start, stop), as a flat table index.

    A cell is (theta, rank class, check bit), flattened to
    (theta * (m + 1) + rank class) * 2 + bit.  Theta and the rank come
    from _block_keys; the rank class is the rank, except that a rank-1
    class with a vanishing pairing_batch (singular) takes rank class 0.
    kind picks the check bit: "theta" sets none, "flag" marks a violated
    intersection identity (zero_counts_batch), "cond" the solutions on no
    line of the dual space (theta_batch's masks; its theta is asserted to
    equal the block count's) and "minimality" a zero set of rank < k - 1
    (subset_ranks).  Only the check bits build the rows of
    class_reps_range; the rank-1 rows come from their digits.
    """
    b = _bundle(cfg)
    keys, pos, rows = _block_keys(b, start, stop)
    keys[pos] -= (pairing_batch(b, rows) == 0) * 2          # singular: 0
    if kind != "theta":
        R = class_reps_range(b.q, b.k, start, stop, dtype=b.ctx.dtype)
        keys += _check_bit(b, kind, R, keys // (2 * (b.m + 1)))
    return keys


def _block_keys(b: _Bundle, start: int, stop: int):
    """The cells (theta, rank, 0) of the classes in [start, stop), counted
    per run.

    The row of a class is the base-q expansion of its code D = local
    index + q^tail in its lead block, so the q^m classes of one run
    D // q^m share their first m - 1 rows R' and take every last row r,
    in code order D mod q^m.  theta counts the functional classes xi with
    xi M in F_q sigma(xi) (fixed_scan), regrouped: those (xi'', 0) with
    xi'' R' on its line are the run's base, and (xi', 1) M = o + r with
    o = xi' R' counts for r exactly on the coset -o + F_q sigma(xi', 1).
    So one bincount of the q^(m-1) x q coset codes of a run counts every
    last row at once, one increment per class.  Its c = 0 codes run over
    the row space of R', which gives rank M = rank R' + [r off that space].

    Returns the flat cells as class_keys lays them out, with the rank for
    the rank class, and the positions and rows of the rank-1 classes,
    which lie in the runs with rank R' <= 1.
    """
    q, m, k = b.q, b.m, b.k
    qm = q ** m
    total = num_classes(q, k)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start}, {stop}) of {total} classes")
    keys = np.empty(stop - start, dtype=np.intp)
    pos, codes = [np.empty(0, np.intp)], [np.empty(0, np.int64)]
    S = max(1, _RUN_SLICE // qm)                           # runs per slice
    for tail in range(k):
        block_lo = num_classes(q, tail)
        lo, hi = max(start, block_lo), min(stop, block_lo + q ** tail)
        if lo >= hi:
            continue
        u, r = divmod(lo - block_lo + q ** tail, qm)       # class lo's run
        first = lo - r              # where run u would start, at r = 0
        runs = _run_arrays(b, u, -(-(hi - first) // qm))
        a = lo
        while a < hi:           # a run the range cuts is a slice of its own
            s, off = divmod(a - first, qm)
            whole = 0 if off or hi - a < qm else min(S, (hi - a) // qm)
            z = a + whole * qm if whole else min(hi, a - off + qm)
            p1 = _count_slice(b, [v[s:s + max(whole, 1)] for v in runs],
                              off, keys[a - start:z - start])
            pos.append(p1 + (a - start))
            codes.append(p1 + (a - block_lo + q ** tail))
            a = z
    rows = _digits(np.concatenate(codes), q, k).astype(b.ctx.dtype)
    return keys, np.concatenate(pos), rows


def _run_arrays(b: _Bundle, u: int, U: int):
    """The base count, rank R' and offsets -o of the runs u .. u + U - 1:
    -o = -xi' R' for every xi', as (U, q^(m-1)) codes for p = 2, else as
    (U, m, q^(m-1)) digits."""
    ctx, q, m = b.ctx, b.q, b.m
    Rp = _digits(np.arange(u, u + U, dtype=np.int64), q, m * (m - 1))
    Rp = Rp.astype(ctx.dtype).reshape(U, m - 1, m)
    xis, normal, lead, lines0, rank_of = b.run_tables
    V = matmul(ctx, normal, Rp)                            # xi'' R'
    on, each = _codes(q, V), np.arange(len(normal))
    lam = V[:, each, lead]                                 # its factor
    base = (on == lines0[each, lam]).sum(axis=1)
    rank_p = rank_of[(on == 0).sum(axis=1)]
    if ctx.p == 2:                                         # -o = o
        return base, rank_p, _offset_codes(ctx, Rp)
    o = matmul(ctx, xis, Rp).transpose(0, 2, 1)
    return base, rank_p, ctx.neg_table.take(o)


def _count_slice(b: _Bundle, runs, off: int, keys: np.ndarray) -> np.ndarray:
    """Write the cells of the len(keys) classes from code off of the first
    of the runs on; returns the positions of rank 1.

    The xi' go in blocks, so that no step holds more than about
    _RUN_SLICE coset codes."""
    ctx, q, m = b.ctx, b.q, b.m
    base, rank_p, o = runs
    qm, X, S, n = q ** m, q ** (m - 1), len(base), len(keys)
    shift = np.arange(S, dtype=np.intp)[:, None, None] * qm
    whole = off == 0 and n == S * qm
    step = max(1, _RUN_SLICE // (S * q))
    for x0 in range(0, X, step):
        lines = _sigma_lines(b.cfg, x0, min(x0 + step, X))
        ob = o[..., x0:x0 + step]
        if ctx.p == 2:  # a sum is the XOR of the codes, below the run bits
            idx = (ob[:, None, :] | shift) ^ lines
        else:
            idx = ctx.add_np(ob[:, None, 0], lines[0]).astype(np.intp)
            for c in range(1, m):
                idx *= q
                idx += ctx.add_np(ob[:, None, c], lines[c])
            idx += shift
        if off:
            idx -= off
        in_span = idx[:, 0].ravel()                        # c = 0
        idx = idx.ravel()
        if not whole:
            idx = idx[idx.view(np.uintp) < n]
            in_span = in_span[in_span.view(np.uintp) < n]
        counts = np.bincount(idx, minlength=n)
        if x0 == 0:
            cnt, span = counts, np.zeros(n, dtype=np.int8)
        else:
            cnt += counts
        span[in_span] = 2
    # 2 (theta (m + 1) + rank) with rank = rank R' + 1 - [r in the span]
    edges = np.clip(np.arange(S + 1) * qm - off, 0, n)
    cnt *= 2 * (m + 1)
    cnt += np.repeat(2 * (base * (m + 1) + rank_p + 1), np.diff(edges))
    np.subtract(cnt, span, out=keys)
    low = np.flatnonzero(rank_p <= 1)                      # the rank-1 runs
    cand = _ranges(edges[low], edges[low + 1])
    return cand[keys[cand] // 2 % (m + 1) == 1]


def _offset_codes(ctx: FieldCtx, Rp: np.ndarray) -> np.ndarray:
    """Codes of xi' R' for every xi', (S, q^(m - 1)) in code order; p = 2.

    xi' R' sums y^i R'_j over the bits i of the digits xi'_j, so the codes
    double up by one XOR per bit of xi', lowest first."""
    S = len(Rp)
    y = np.left_shift(1, np.arange(ctx.t))[:, None]
    basis = _codes(ctx.q, ctx.mul_np(Rp[:, :, None, :], y))   # (S, m-1, t)
    bits = basis[:, ::-1].reshape(S, -1)
    o = np.zeros((S, 1 << bits.shape[1]), dtype=np.intp)
    for i in range(bits.shape[1]):
        w = 1 << i
        np.bitwise_xor(o[:, :w], bits[:, i, None], out=o[:, w:2 * w])
    return o


@functools.lru_cache(maxsize=1)
def _sigma_lines(cfg: tuple, x0: int, x1: int) -> np.ndarray:
    """The lines F_q sigma(xi', 1) of the xi' with codes x0 .. x1 - 1:
    (q, X) codes for p = 2, else (m, q, X) digits; row c = 0 is the zero
    vector."""
    b = _bundle(cfg)
    ctx = b.ctx
    xi = b.run_tables[0][x0:x1]
    sxi = b.spec.table.take(np.concatenate(
        [xi, np.ones((len(xi), 1), ctx.dtype)], axis=1))
    lines = ctx.mul_np(np.arange(b.q, dtype=ctx.dtype)[:, None],
                       sxi.T[:, None, :])                  # (m, q, X)
    if ctx.p == 2:
        return _codes(b.q, np.moveaxis(lines, 0, -1))
    return lines


def _digits(v: np.ndarray, q: int, width: int) -> np.ndarray:
    """The width base-q digits of each entry of v, most significant first."""
    out = np.empty(v.shape + (width,), dtype=np.int64)
    for c in range(width - 1, -1, -1):
        v, out[..., c] = np.divmod(v, q)
    return out


def _codes(q: int, v: np.ndarray) -> np.ndarray:
    """The base-q values of the digit rows of v, most significant first."""
    out = v[..., 0].astype(np.intp)
    for c in range(1, v.shape[-1]):
        out *= q
        out += v[..., c]
    return out


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenated aranges lo[i] .. hi[i] - 1."""
    lengths = hi - lo
    return (np.arange(lengths.sum(), dtype=np.intp)
            + np.repeat(lo - np.cumsum(lengths) + lengths, lengths))


def _check_bit(b: _Bundle, kind: str, R: np.ndarray,
               theta: np.ndarray) -> np.ndarray:
    if kind == "flag":
        z, _ = zero_counts_batch(b, R)
        per_theta = theta.astype(np.int64) * b.q ** (b.n - 1)
        return z != base_cardinality(b.q, b.n) + per_theta
    if kind == "cond":
        scan, sol = theta_batch(b, R, want_solmask=True)
        assert np.array_equal(scan, theta), "scan and descent theta differ"
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
    """Count the classes in [start, stop) per cell (class_keys).

    Only opts["kind"] is read.  Returns start, stop, classes and table,
    the (F + 1, m + 1, 2) counts over (theta, rank class, check bit);
    chunks fold by adding their tables.
    """
    b = _bundle(cfg)
    shape = (b.F + 1, b.m + 1, 2)
    keys = class_keys(cfg, opts["kind"], start, stop)
    table = np.bincount(keys, minlength=math.prod(shape)).reshape(shape)
    return {"start": start, "stop": stop, "classes": stop - start,
            "table": table}


def iter_sweep(cfg: tuple, opts: dict, total: int, threads: int = 1,
               chunk: int = DEFAULT_CHUNK):
    """Yield per-chunk result dicts over [0, total) in submission order.

    With more than one worker, min(threads, chunks) forked processes pull
    chunk numbers from one task pipe and send each result on a pipe of
    their own; the parent only waits, and puts the results back in order.
    An exception in a chunk reaches the caller with its type and message;
    a worker that dies (a signal, os._exit) raises RuntimeError with its
    exit code.  Closing the generator early terminates the workers.
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
    tasks = np.arange(len(ranges), dtype="<u4").tobytes()
    task_r, task_w = os.pipe()
    os.set_blocking(task_w, False)
    fed, task_w = _feed(task_w, tasks, 0)
    procs, conns, done = [], [], False
    try:
        for _ in range(workers):
            recv, send = fork.Pipe(duplex=False)
            conns.append(recv)
            proc = fork.Process(target=_sweep_worker, daemon=True,
                                args=(cfg, opts, ranges, task_r, task_w, send))
            try:
                proc.start()
            finally:
                send.close()
            procs.append(proc)
        live = {proc.sentinel: proc for proc in procs}
        open_conns, results, nxt = set(conns), {}, 0
        while nxt < len(ranges):
            if not open_conns and not live:
                raise RuntimeError("sweep workers stopped with "
                                   f"{len(ranges) - nxt} chunks left")
            for ready in wait([*open_conns, *live]):
                if ready in live:
                    proc = live.pop(ready)
                    proc.join()
                    if proc.exitcode:
                        raise RuntimeError(f"sweep worker {proc.pid} exited "
                                           f"with code {proc.exitcode}")
                    continue
                try:
                    i, res = ready.recv()
                except EOFError:
                    open_conns.discard(ready)
                    continue
                if isinstance(res, BaseException):
                    raise res
                results[i] = res
                if task_w is not None:
                    fed, task_w = _feed(task_w, tasks, fed)
            while nxt in results:
                yield results.pop(nxt)
                nxt += 1
        done = True
    finally:
        for proc in procs:
            if not done:
                proc.terminate()
            proc.join()
        for fd in (task_r, task_w):
            if fd is not None:
                os.close(fd)
        for conn in conns:
            conn.close()


def _feed(fd: int, tasks: bytes, fed: int) -> tuple[int, int | None]:
    """Write tasks[fed:] to the non-blocking task pipe while it has room,
    and close it once all are in; return the new fed and fd, None once
    closed.  A piece of at most PIPE_BUF bytes goes in whole or not at
    all, so a worker's 4-byte read never splits a number."""
    while fed < len(tasks):
        try:
            fed += os.write(fd, tasks[fed:fed + select.PIPE_BUF])
        except BlockingIOError:
            return fed, fd
    os.close(fd)
    return fed, None


def _sweep_worker(cfg, opts, ranges, task_r, task_w, send) -> None:
    """Pull chunk numbers until the task pipe is closed and empty; send
    (i, result), or (i, exception) and stop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent stops us
    if task_w is not None:
        os.close(task_w)
    while raw := os.read(task_r, 4):
        i = int.from_bytes(raw, "little")
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

    The draws are those of nonzero_draws; theta comes from theta_descent.
    """
    p, t, modulus, j, n = cfg
    ctx = make_field(p, t, modulus)
    spec = make_autspec(ctx, j)
    draws = nonzero_draws(ctx, (n + 1) ** 2, count, SplitMix64(seed))
    return theta_descent(ctx, spec, draws)[0].astype(np.int64)
