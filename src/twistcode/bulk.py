"""Vectorized exhaustive sweeps over projective matrix classes.

A sweep counts theta and the rank per run (_block_keys): in the class
order the q^m classes of one run share their first m - 1 rows R' and
take every last row r.  For a functional class (xi', 1), xi M lies in
F_q sigma(xi) exactly for r on the coset -xi' R' + F_q sigma(xi', 1), so
one bincount of the q^m coset codes of a run counts theta for all its
classes, one increment per class; the codes at c = 0 run over the row
space of R', which gives rank M.  At p = 2 a coset code is one XOR of codes,
and odd p adds digitwise through add_np.  Over 2^18 classes (2 vCPU) a
theta chunk takes 11-15 ns per class at (8, 2, 1) and 23-32 at (9, 2, 1);
theta_descent takes 270-360 and 400-530 on 2^18 classes from the middle
of the order.

A run is read off the class codes, not rows, through the one codec of
the class order in projgeom (lead_blocks, digits and codes).

The Frobenius tau(x) = x^p commutes with sigma and fixes 0 and 1, so it
acts digit by digit on the class codes and maps run u onto run tau(u)
with the same cells: theta, the rank and a vanishing pairing are
tau-invariant.  A "theta" sweep therefore counts only the least run of
each tau-orbit, weighted by the orbit's size (_orbit_weights): at
(8, 2, 1) 12,525 of the 37,449 runs.  The check kinds still count every
class, since their check bit reads the class itself.

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
classes per cell (theta, rank class, check bit) of class_keys, a theta
chunk those of its least runs by orbit size, and the kind of sweep picks
the check bit.  code adds the chunk tables as they come, in submission
order, so every aggregate is byte-identical for any worker count, and
reads a witness off the keys of the first chunk in which its cell turns
up; the first run with a cell is the least of its orbit, so that chunk
does not depend on the orbits.  With more than one worker, iter_sweep forks
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
from .linalg import matmul, rank_batch, subset_ranks
from .projgeom import (class_reps_range, codes, digits, lead_blocks,
                       line_array, num_classes)
from .rng import SplitMix64

EXHAUSTIVE_CAP = 2 * 10 ** 7
PAIR_CAP = 10 ** 9      # class x flag pairs: auto flag check, minimality
DEFAULT_CHUNK = 1 << 18
_SLICE = 1 << 14        # rows per _descent_bytes step; bounds its N(M) products
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
    def frobenius(self) -> np.ndarray:
        """x -> x^p as a table, for _orbit_weights; t >= 2 only."""
        return make_autspec(self.ctx, 1).table

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
# chunk evaluation and the parallel driver
# ---------------------------------------------------------------------------

def class_keys(cfg: tuple, kind: str, start: int, stop: int) -> np.ndarray:
    """The cell of each class in [start, stop), as a flat table index.

    A cell is (theta, rank class, check bit), flattened to
    (theta * (m + 1) + rank class) * 2 + bit.  Theta and the rank class
    come from _block_keys with every run counted once, so there is one
    key per class, for every kind: the witness re-reads and the check
    kinds need the class itself.  kind picks the check bit: "theta" sets
    none, "flag" marks a violated intersection identity
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


def _block_keys(b: _Bundle, start: int, stop: int, orbits: bool = False):
    """The cells (theta, rank class, 0) of the classes in [start, stop),
    counted per run.

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
    The rank-1 classes lie in the runs with rank R' <= 1; their rows come
    from their digits, and a vanishing pairing_batch (singular) moves
    them to rank class 0.

    Without orbits every run counts: the keys are one per class, in
    class order.  With orbits only the least run of each Frobenius orbit
    counts (_orbit_weights), and the keys of its classes in the range
    come packed at the front of one range-sized buffer; a class of a run
    of orbit size w has its cell plus (t - w) times the number of cells,
    so that one bincount of the keys counts the cells per orbit size.
    tau(x) = x^p commutes with sigma and fixes 0 and 1, so it maps run u
    to run tau(u), digit by digit, and r to tau(r); xi M = lambda sigma(xi)
    holds exactly when tau(xi) tau(M) = tau(lambda) sigma(tau(xi)), so
    theta, the rank and a vanishing pairing are tau-invariant and the
    runs of one orbit hold the same cells.  A run that the range cuts
    counts its part in the range, so the chunks of a sweep add up to the
    whole orbits.  The first run that holds a cell is the least of its
    orbit, so the first chunk with a class in a cell still counts it.
    """
    q, m, k = b.q, b.m, b.k
    qm = q ** m
    blocks = lead_blocks(q, k, start, stop)
    keys = np.empty(stop - start, dtype=np.intp)
    cells = 2 * (b.F + 1) * (m + 1)
    pos, rank1 = [np.empty(0, np.intp)], [np.empty(0, np.int64)]
    S = max(1, _RUN_SLICE // qm)                           # runs per slice
    at = 0                                      # keys written so far
    for _, lo, hi, D0 in blocks:
        D1 = D0 + hi - lo
        u = np.arange(D0 // qm, -(-D1 // qm), dtype=np.int64)
        if orbits:
            w = _orbit_weights(b, u)
            u, lift = u[w > 0], (b.ctx.t - w[w > 0]) * cells
            if not len(u):
                continue
        # the codes of each run in the range: only the first and the last
        # run can be cut, and a cut run is a slice of its own
        head = np.maximum(D0 - u * qm, 0)
        end = np.minimum(D1 - u * qm, qm)
        cut = (head > 0) | (end < qm)
        runs = _run_arrays(b, u)
        i = 0
        while i < len(u):
            j = i + 1 if cut[i] else min(i + S, len(u) - int(cut[-1]))
            off = int(head[i])
            out = keys[at:at + (j - i - 1) * qm + int(end[j - 1]) - off]
            p1 = _count_slice(b, [v[i:j] for v in runs], off, out)
            if orbits and lift[i:j].any():
                out.reshape(j - i, -1)[:] += lift[i:j, None]
            s, r = np.divmod(p1 + off, qm)
            pos.append(p1 + at)
            rank1.append(u[i + s] * qm + r)
            at += len(out)
            i = j
    keys = keys[:at]
    rows = digits(np.concatenate(rank1), q, k, b.ctx.dtype)
    keys[np.concatenate(pos)] -= (pairing_batch(b, rows) == 0) * 2  # singular
    return keys


def _orbit_weights(b: _Bundle, u: np.ndarray) -> np.ndarray:
    """The orbit size of each run number u under the Frobenius x -> x^p,
    applied to its m (m - 1) digits, where u is the least of its orbit,
    else 0.  The size is the least i >= 1 with tau^i(u) = u, t if none."""
    t = b.ctx.t
    if t == 1:                                          # prime q: tau = 1
        return np.ones(len(u), dtype=np.int64)
    d = digits(u, b.q, b.m * (b.m - 1), b.ctx.dtype)
    size = np.full(len(u), t, dtype=np.int64)
    least = np.ones(len(u), dtype=bool)
    for i in range(1, t):
        d = b.frobenius.take(d)
        image = codes(b.q, d)
        least &= u <= image
        size[(image == u) & (size == t)] = i
    return size * least


def _run_arrays(b: _Bundle, u: np.ndarray):
    """The base count, rank R' and offsets -o of the runs numbered u:
    -o = -xi' R' for every xi', as (U, q^(m-1)) codes for p = 2, else as
    (U, m, q^(m-1)) digits."""
    ctx, q, m = b.ctx, b.q, b.m
    Rp = digits(u, q, m * (m - 1), ctx.dtype).reshape(-1, m - 1, m)
    xis, normal, lead, lines0, rank_of = b.run_tables
    V = matmul(ctx, normal, Rp)                            # xi'' R'
    on, each = codes(q, V), np.arange(len(normal))
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
    basis = codes(ctx.q, ctx.mul_np(Rp[:, :, None, :], y))    # (S, m-1, t)
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
        return codes(b.q, np.moveaxis(lines, 0, -1))
    return lines


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
    stop - start) and table, the (F + 1, m + 1, 2) counts over (theta,
    rank class, check bit); chunks fold by adding their tables.  The
    check kinds count the keys of class_keys, every class checked; the
    "theta" kind counts only the least run of each Frobenius orbit,
    weighted by the orbit's size (_block_keys), so a chunk's table can
    differ from that of its own classes, but the tables of the chunks of
    [0, total) add up to the same counts, and a cell's first chunk is
    the same.
    """
    b = _bundle(cfg)
    shape = (b.F + 1, b.m + 1, 2)
    if opts["kind"] == "theta":     # key band t - w: orbits of size w
        keys, bands = _block_keys(b, start, stop, orbits=True), b.ctx.t
    else:
        keys, bands = class_keys(cfg, opts["kind"], start, stop), 1
    counts = np.bincount(keys, minlength=bands * math.prod(shape))
    table = np.arange(bands, 0, -1) @ counts.reshape(bands, -1)
    return {"start": start, "stop": stop, "classes": stop - start,
            "table": table.reshape(shape)}


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

    The draws are those of nonzero_draws; theta comes from theta_descent.
    """
    p, t, modulus, j, n = cfg
    ctx = make_field(p, t, modulus)
    spec = make_autspec(ctx, j)
    draws = nonzero_draws(ctx, (n + 1) ** 2, count, SplitMix64(seed))
    return theta_descent(ctx, spec, draws)[0].astype(np.int64)
