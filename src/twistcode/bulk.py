"""Vectorized exhaustive sweeps over projective matrix classes.

Only the sweep kernels (theta_batch, zero_counts_batch, rank3_batch and
pairing_batch) gather from the q x q field tables, so sweeps require
q <= 1024; conj_images goes through linalg.matmul and works at any q.
A sweep walks the global class order in chunks; with more than one
worker the chunks go to a fork pool and are folded in submission order,
which keeps every aggregate (sums, histograms, first-witness tie breaks)
byte-identical regardless of the worker count.
"""

from __future__ import annotations

import functools
import multiprocessing as mp

import numpy as np

from .embedding import build_system
from .gf import make_autspec, make_field
from .linalg import _rank_upto, matmul
from .projgeom import class_reps_range, enumerate_lines
from .rng import SplitMix64

EXHAUSTIVE_CAP = 2 * 10 ** 7
DEFAULT_CHUNK = 1 << 18


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
        self.SUB = ctx.sub_table
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

    def vsub(self, a, b):
        return np.bitwise_xor(a, b) if self.p2 else self.SUB[a, b]

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
    """Ranks of a batch of nonzero 3 x 3 matrices (values 1, 2, 3)."""
    assert b.m == 3, "vectorized rank needs 3 x 3 matrices"
    MUL = b.MUL

    def mul(i, jj):
        return MUL[R[:, i], R[:, jj]]

    def minor(i, jj, kk, ll):
        return b.vsub(mul(i, ll), mul(jj, kk))

    # all 2x2 minors vanish <=> rank <= 1
    rank1 = np.ones(R.shape[0], dtype=bool)
    for r0, r1 in ((0, 1), (0, 2), (1, 2)):
        for c0, c1 in ((0, 1), (0, 2), (1, 2)):
            rank1 &= minor(3 * r0 + c0, 3 * r0 + c1,
                           3 * r1 + c0, 3 * r1 + c1) == 0
    c0 = minor(4, 5, 7, 8)
    c1 = minor(3, 5, 6, 8)
    c2 = minor(3, 4, 6, 7)
    det = b.vsub(b.vadd(MUL[R[:, 0], c0], MUL[R[:, 2], c2]), MUL[R[:, 1], c1])
    out = np.where(det != 0, 3, 2).astype(np.int8)
    out[rank1] = 1
    return out


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
    theta, sol = theta_batch(b, R, want_solmask=want_cond)
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

    ranks = None
    if opts.get("rank_pairing"):
        ranks = rank3_batch(b, R)
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
        if ranks is None:
            ranks = rank3_batch(b, R)
        per = {}
        for r in (1, 2, 3):
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

def sampled_theta(cfg: tuple, count: int, seed: int,
                  batch: int = 1 << 14) -> np.ndarray:
    """Fixed-functional counts of `count` seeded random nonzero matrices."""
    b = _bundle(cfg)
    rng = SplitMix64(seed)
    draws = np.empty((count, b.k), dtype=b.ctx.dtype)
    for r in range(count):
        while True:
            row = [rng.below(b.q) for _ in range(b.k)]
            if any(row):
                break
        draws[r] = row
    thetas = np.empty(count, dtype=np.int32)
    for s in range(0, count, batch):
        e = min(s + batch, count)
        thetas[s:e], _ = theta_batch(b, draws[s:e])
    return thetas


def conj_images(ctx, L: np.ndarray, X: np.ndarray, Rm: np.ndarray) -> np.ndarray:
    """Batched L @ X_i @ Rm over GF, X of shape (N, m, m); any q."""
    return matmul(ctx, matmul(ctx, L, X), Rm)
