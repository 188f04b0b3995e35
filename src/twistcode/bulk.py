"""Vectorized exhaustive sweeps over projective matrix classes.

Theta comes from theta_descent, a closed form in the ranks of M and of
N(M) - mu I (Galois descent), built from linalg.matmul and
linalg.rank_batch; it reads no q x q table, so sampled theta works at
any q, as does conj_images.  Only theta_batch (kept for the solution
masks of min_weight_sweep), zero_counts_batch and pairing_batch gather
from the q x q field tables, so exhaustive sweeps require q <= 1024.
A sweep walks the global class order in chunks; with more than one
worker the chunks go to a fork pool and are folded in submission order,
which keeps every aggregate (sums, histograms, first-witness tie breaks)
byte-identical regardless of the worker count.
"""

from __future__ import annotations

import functools
import math
import multiprocessing as mp

import numpy as np

from .embedding import build_system
from .gf import AutSpec, FieldCtx, make_autspec, make_field
from .linalg import _rank_upto, matmul, rank_batch
from .projgeom import class_reps_range, enumerate_lines
from .rng import SplitMix64

EXHAUSTIVE_CAP = 2 * 10 ** 7
DEFAULT_CHUNK = 1 << 18
_SLICE = 1 << 14     # rows per theta_descent step; bounds its N(M) products


class _Bundle:
    """Per-process cache of the system plus sweep-ready arrays."""

    def __init__(self, cfg: tuple):
        p, t, modulus, j, n = cfg
        ctx = make_field(p, t, modulus)
        spec = make_autspec(ctx, j)
        sys_ = build_system(ctx, spec, n)
        if ctx.mul_table is None:
            raise ValueError("vectorized sweeps need q <= 1024")
        self.cfg = cfg
        self.ctx = ctx
        self.spec = spec
        self.sys = sys_
        self.q = ctx.q
        self.n = n
        self.m = n + 1
        self.k = self.m * self.m
        self.p2 = ctx.p == 2
        self.MUL = ctx.mul_table
        self.ADD = ctx.add_table
        self.SIG = spec.table

        g = sys_.gamma
        self.F = len(g.functionals)
        self.funcs = [f.rep for f in g.functionals]
        self.sfuncs = [tuple(int(spec.table[e]) for e in f.rep)
                       for f in g.functionals]
        self.lead = [next(i for i, e in enumerate(f.rep) if e)
                     for f in g.functionals]
        self.N = sys_.N
        self.flat_rows = [tuple(map(int, r)) for r in sys_.flat.tolist()]
        q = self.q
        self.base = (q ** (n + 1) - 1) * (q ** (n - 1) - 1) // (q - 1) ** 2
        self.qn1 = q ** (n - 1)
        self.pts = (q ** (n + 1) - 1) // (q - 1)
        self._dual_line_masks: list[int] | None = None

    def vadd(self, a, b):
        return np.bitwise_xor(a, b) if self.p2 else self.ADD[a, b]

    def dual_line_masks(self) -> list[int]:
        """Bit masks (over functional indices) of the lines of PG(V*)."""
        if self._dual_line_masks is None:
            assert self.F <= 62, "bit-mask line test needs <= 62 functionals"
            masks = []
            for line in enumerate_lines(self.ctx, self.m):
                mk = 0
                for idx in line:
                    mk |= 1 << idx
                masks.append(mk)
            self._dual_line_masks = masks
        return self._dual_line_masks


@functools.lru_cache(maxsize=None)
def _bundle(cfg: tuple) -> _Bundle:
    return _Bundle(cfg)


# ---------------------------------------------------------------------------
# batched primitives (R is a (B, k) array of flattened matrices)
# ---------------------------------------------------------------------------

def theta_batch(b: _Bundle, R: np.ndarray, want_solmask: bool = False):
    """Fixed-functional count per matrix in the batch.

    For each functional class xi the batch test is: v = xi M equals
    lambda * sigma(xi) entrywise, where lambda = v at the leading-1
    position of xi (sigma fixes that 1).  lambda == 0 then means xi M = 0
    (kernel case); both cases count toward theta.

    With want_solmask the per-functional solution bits for lambda != 0 are
    packed into an int64 mask (needs F <= 62 functionals).
    """
    B = R.shape[0]
    m, MUL = b.m, b.MUL
    theta = np.zeros(B, dtype=np.int32)
    sol = np.zeros(B, dtype=np.int64) if want_solmask else None
    for f in range(b.F):
        xi = b.funcs[f]
        sxi = b.sfuncs[f]
        j0 = b.lead[f]
        vcols = []
        for c in range(m):
            acc = None
            for i in range(m):
                a = xi[i]
                if a:
                    term = MUL[a][R[:, i * m + c]]
                    acc = term if acc is None else b.vadd(acc, term)
            vcols.append(acc)
        lam = vcols[j0]
        ok = np.ones(B, dtype=bool)
        for c in range(m):
            if c == j0:
                continue
            sc = sxi[c]
            if sc:
                ok &= vcols[c] == MUL[sc][lam]
            else:
                ok &= vcols[c] == 0
        theta += ok
        if want_solmask:
            sol |= (ok & (lam != 0)).astype(np.int64) << f
    return theta, sol


def zero_counts_batch(b: _Bundle, R: np.ndarray,
                      full_mask: bool = False):
    """Number of vanishing codeword coordinates per matrix in the batch.

    Tr(X_i M) with X flattened row-major at a = r*m + c picks the M digit
    at c*m + r.  Returns the count vector, or the full (B, N) boolean mask
    when full_mask is set (minimality needs the positions).
    """
    B = R.shape[0]
    m, MUL = b.m, b.MUL
    counts = np.zeros(B, dtype=np.int32)
    mask = np.zeros((B, b.N), dtype=bool) if full_mask else None
    for i in range(b.N):
        row = b.flat_rows[i]
        acc = None
        for a in range(b.k):
            xa = row[a]
            if xa:
                r_, c_ = divmod(a, m)
                term = MUL[xa][R[:, c_ * m + r_]]
                acc = term if acc is None else b.vadd(acc, term)
        iszero = acc == 0
        counts += iszero
        if full_mask:
            mask[:, i] = iszero
    return (counts, mask) if full_mask else (counts, None)


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
    of F_s*, so the cost grows with s.  Reads no q x q table; the batch is
    walked in slices of _SLICE rows so the N(M) products stay small.
    """
    q, s = ctx.q, spec.s
    m = math.isqrt(R.shape[1])
    mus = [a for a in range(1, q) if spec.tlist[a] == a]
    kern = np.array([(q ** (m - r) - 1) // (q - 1) for r in range(m + 1)])
    fixed = np.array([(s ** (m - r) - 1) // (s - 1) for r in range(m + 1)])
    diag = np.arange(m)
    theta = np.empty(R.shape[0], dtype=np.min_scalar_type(kern[0]))  # <= F
    ranks = np.empty(R.shape[0], dtype=np.int8)
    for a in range(0, R.shape[0], _SLICE):
        M = R[a:a + _SLICE].reshape(-1, m, m)
        N = S = M
        for _ in range(spec.order - 1):
            S = spec.table[S]
            N = matmul(ctx, N, S)
        rk = rank_batch(ctx, M)
        th = kern[rk]
        for mu in mus:
            shifted = N.copy()
            shifted[:, diag, diag] = ctx.add_np(N[:, diag, diag], ctx.neg(mu))
            th += fixed[rank_batch(ctx, shifted)]
        theta[a:a + _SLICE] = th
        ranks[a:a + _SLICE] = rk
    return theta, ranks


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
    su = b.SIG[u]
    acc = None
    for c in range(m):
        term = b.MUL[zeta[:, c], su[:, c]]
        acc = term if acc is None else b.vadd(acc, term)
    return acc


# ---------------------------------------------------------------------------
# chunk evaluation and the parallel driver
# ---------------------------------------------------------------------------

def sweep_chunk(cfg: tuple, opts: dict, start: int, stop: int) -> dict:
    b = _bundle(cfg)
    R = class_reps_range(b.q, b.k, start, stop, dtype=b.ctx.dtype)
    out: dict = {"start": start, "stop": stop, "classes": stop - start}

    if opts["kind"] == "minimality":
        _, mask = zero_counts_batch(b, R, full_mask=True)
        target = b.k - 1
        rows = b.flat_rows.__getitem__
        bad = []
        for bi in range(R.shape[0]):
            zero_rows = map(rows, np.flatnonzero(mask[bi]).tolist())
            if _rank_upto(b.ctx, zero_rows, b.k, target) < target:
                bad.append(start + bi)
        out["bad"] = bad[:16]
        out["bad_count"] = len(bad)
        return out

    want_cond = opts.get("cond_theta") is not None
    if want_cond:       # the solution masks need the per-functional scan
        theta, sol = theta_batch(b, R, want_solmask=True)
        if opts.get("rank_pairing") or opts.get("max_by_rank"):
            ranks = rank3_batch(b, R)
    else:
        theta, ranks = theta_descent(b.ctx, b.spec, R)
    out["theta_hist"] = np.bincount(theta, minlength=b.F + 1)

    if opts.get("flag_check"):
        z, _ = zero_counts_batch(b, R)
        viol = z.astype(np.int64) != b.base + theta.astype(np.int64) * b.qn1
        out["identity_violations"] = int(viol.sum())
        out["first_identity_violation"] = (
            int(start + np.flatnonzero(viol)[0]) if viol.any() else None)

    if want_cond:
        contained = np.zeros(R.shape[0], dtype=bool)
        for mk in b.dual_line_masks():
            contained |= (sol & ~mk) == 0
        cond = (sol != 0) & ~contained
        hit = theta == opts["cond_theta"]
        mism = cond != hit
        out["cond_count"] = int(cond.sum())
        out["cond_mismatches"] = int(mism.sum())
        out["first_cond_mismatch"] = (
            int(start + np.flatnonzero(mism)[0]) if mism.any() else None)

    if opts.get("rank_pairing"):
        rank1 = ranks == 1
        pair = pairing_batch(b, R)
        qsns = rank1 & (pair != 0)
        sing = rank1 & (pair == 0)
        out["rank1_count"] = int(rank1.sum())
        out["qsns_count"] = int(qsns.sum())
        out["sing_count"] = int(sing.sum())
        m1 = opts["m1"]
        v1 = (theta == m1) != qsns
        v2 = (theta == m1 - 1) != sing
        out["w1_violations"] = int(v1.sum())
        out["first_w1"] = int(start + np.flatnonzero(v1)[0]) if v1.any() else None
        out["w2_violations"] = int(v2.sum())
        out["first_w2"] = int(start + np.flatnonzero(v2)[0]) if v2.any() else None

    if opts.get("max_by_rank"):
        per = {}
        for r in range(1, b.m + 1):
            msk = ranks == r
            if msk.any():
                mx = int(theta[msk].max())
                idx = int(start + np.flatnonzero(msk & (theta == mx))[0])
                per[r] = (mx, idx)
        out["max_by_rank"] = per

    return out


def _sweep_chunk_star(args):
    return sweep_chunk(*args)


def iter_sweep(cfg: tuple, opts: dict, total: int, threads: int = 1,
               chunk: int = DEFAULT_CHUNK):
    """Yield per-chunk result dicts over [0, total) in submission order."""
    ranges = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    if threads <= 1 or len(ranges) == 1:
        for s, e in ranges:
            yield sweep_chunk(cfg, opts, s, e)
        return
    args = [(cfg, opts, s, e) for s, e in ranges]
    with mp.get_context("fork").Pool(processes=threads) as pool:
        yield from pool.imap(_sweep_chunk_star, args, chunksize=1)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sampled_theta(cfg: tuple, count: int, seed: int) -> np.ndarray:
    """Fixed-functional counts of `count` seeded random nonzero matrices.

    Goes through theta_descent, which reads no q x q table, so it works
    at every q.
    """
    p, t, modulus, j, n = cfg
    ctx = make_field(p, t, modulus)
    spec = make_autspec(ctx, j)
    q, k = ctx.q, (n + 1) ** 2
    rng = SplitMix64(seed)
    draws = np.empty((count, k), dtype=ctx.dtype)
    for r in range(count):
        while True:
            row = [rng.below(q) for _ in range(k)]
            if any(row):
                break
        draws[r] = row
    return theta_descent(ctx, spec, draws)[0].astype(np.int64)


def conj_images(ctx, L: np.ndarray, X: np.ndarray, Rm: np.ndarray) -> np.ndarray:
    """Batched L @ X_i @ Rm over GF, X of shape (N, m, m); any q."""
    return matmul(ctx, matmul(ctx, L, X), Rm)
