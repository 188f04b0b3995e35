"""Exact linear algebra over a FieldCtx.

Matrices and vectors are numpy arrays of integer encodings (ctx.dtype).
Orientation is a signature convention rather than a wrapper type: vectors
of the underlying space V are columns and appear as parameters named `x`,
functionals (elements of the dual) are rows and appear as `xi`.  `vecmat`
applies a functional on the right, and `pure_tensor(ctx, x, xi)` is the
rank-<=1 matrix x * xi.

Every product of encoded arrays goes through `matmul`, one broadcast
gather through the FieldCtx array operations (mul_np, then sum_np over
the shared axis), so it works at every q.  Elimination stays scalar, on
lists of ints, except rank_batch, which ranks a stack by the same array
operations and picks its pivots with np.where, and subset_ranks, which
ranks sets of rows through it.  Scalar elimination (_rref) is
deterministic: reduced row echelon form with the topmost row supplying
each pivot, pivots normalized to 1, full reduction above and below.
Everything downstream that promises byte-identical output relies on this.
"""

from __future__ import annotations

import numpy as np

from .gf import AutSpec, FieldCtx
from .rng import SplitMix64

_PREFIX_ROWS = 12   # rows per set in the first round of subset_ranks


def as_matrix(ctx: FieldCtx, data, square: int | None = None) -> np.ndarray:
    """Validate and convert to a matrix of field-element encodings."""
    encodings = f"matrix entries must be encodings in [0, {ctx.q})"
    try:
        A = np.asarray(data, dtype=np.int64)
    except OverflowError:                   # an entry beyond int64
        raise ValueError(encodings) from None
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    if A.size and (A.min() < 0 or A.max() >= ctx.q):
        raise ValueError(encodings)
    if square is not None and A.shape != (square, square):
        raise ValueError(f"expected a {square} x {square} matrix, got {A.shape}")
    return A.astype(ctx.dtype)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def dot(ctx: FieldCtx, u, v) -> int:
    """Sum of entrywise products; used e.g. for the pairing xi . x."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"dot needs two vectors of one length, "
                         f"got {u.shape} and {v.shape}")
    return int(matmul(ctx, u[None, :], v[:, None])[0, 0])


def matmul(ctx: FieldCtx, A, B) -> np.ndarray:
    """A @ B over GF(q), broadcasting over leading axes like numpy.matmul.

    All products are gathered at once into a (k, n, p, ...) array, with
    the shared axis k first and any stack axes last, and then summed over
    k.  Every gather and sum then runs along the stack in contiguous
    memory rather than along rows of p entries, which is 2-4x faster for
    stacks of small matrices.  The result is a (..., n, p) view of that
    layout.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    nd = max(A.ndim, B.ndim)
    A = A.reshape((1,) * (nd - A.ndim) + A.shape)
    B = B.reshape((1,) * (nd - B.ndim) + B.shape)
    stack = range(nd - 2)
    a = np.ascontiguousarray(A.transpose(nd - 1, nd - 2, *stack))  # (k, n, ...)
    b = np.ascontiguousarray(B.transpose(nd - 2, nd - 1, *stack))  # (k, p, ...)
    out = ctx.sum_np(ctx.mul_np(a[:, :, None], b[:, None, :]), axis=0)
    return out.transpose(*range(2, nd), 0, 1).astype(ctx.dtype, copy=False)


def vecmat(ctx: FieldCtx, xi, A) -> np.ndarray:
    """Functional xi (row) times A; the result is again a row."""
    return matmul(ctx, np.asarray(xi).reshape(1, -1), A)[0, :]


def pure_tensor(ctx: FieldCtx, x, xi) -> np.ndarray:
    """Rank-<=1 matrix x * xi (column times row)."""
    x = np.asarray(x)
    xi = np.asarray(xi)
    if x.ndim != 1 or xi.ndim != 1:
        raise ValueError("pure_tensor takes a column x and a functional xi")
    return matmul(ctx, x[:, None], xi[None, :])


def trace_product(ctx: FieldCtx, X, M) -> int:
    """Trace of X @ M without forming the product."""
    X = np.asarray(X)
    M = np.asarray(M)
    if X.shape[1] != M.shape[0] or X.shape[0] != M.shape[1]:
        raise ValueError(f"shape mismatch {X.shape} x {M.shape}")
    return dot(ctx, X.reshape(-1), M.T.reshape(-1))


def scalar_mul(ctx: FieldCtx, c: int, A) -> np.ndarray:
    """c * A for a scalar c and an array A of any shape."""
    return ctx.mul_np(np.asarray(A), c).astype(ctx.dtype, copy=False)


def mat_add(ctx: FieldCtx, A, B) -> np.ndarray:
    return ctx.add_np(np.asarray(A), np.asarray(B)).astype(ctx.dtype)


def sigma_entrywise(ctx: FieldCtx, spec: AutSpec, A) -> np.ndarray:
    """Apply sigma to every entry."""
    return spec.table[np.asarray(A)].astype(ctx.dtype)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _rref(ctx: FieldCtx, rows: list[list[int]], ncols: int) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list."""
    add, mul, inv, neg = ctx.add, ctx.mul, ctx.inv, ctx.neg
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        pv = row[c]
        if pv != 1:
            f = inv(pv)
            for k in range(c, ncols):
                if row[k]:
                    row[k] = mul(f, row[k])
        for i in range(nrows):
            coef = rows[i][c]
            if i != r and coef:
                nc = neg(coef)
                ri = rows[i]
                for k in range(c, ncols):
                    if row[k]:
                        ri[k] = add(ri[k], mul(nc, row[k]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank_batch(ctx: FieldCtx, A) -> np.ndarray:
    """Ranks of a (B, r, c) stack of matrices, zero matrices included; any q.

    Batched elimination, one column at a time: in every matrix the first
    row that is nonzero in the column is the pivot row, and -a/pivot times
    it is added to each row with entry a there.  That clears the column and
    zeroes the pivot row itself, which has been counted and so leaves the
    matrix; without a pivot the factors are inv(0) = 0.  The stack axis is
    last, as in matmul, and a where-cascade up the rows reads the pivot
    row, so every step runs along contiguous memory, with no argmax and no
    gather by row index.  Returns int8 ranks, zeros if r or c is 0.
    """
    A = np.array(np.moveaxis(np.asarray(A), 0, -1), dtype=ctx.dtype,
                 order="C")                                 # (r, c, B)
    nr, nc, B = A.shape
    out = np.zeros(B, dtype=np.int8)
    if nr == 0:
        return out
    for c in range(nc):
        piv = A[nr - 1, c:]
        for i in range(nr - 2, -1, -1):
            piv = np.where(A[i, c] != 0, A[i, c:], piv)
        out += piv[0] != 0
        if c + 1 < nc:
            f = ctx.mul_np(A[:, c], ctx.neg_inv_table.take(piv[0]))
            A[:, c + 1:] = ctx.add_np(A[:, c + 1:],
                                      ctx.mul_np(f[:, None], piv[None, 1:]))
    return out


def subset_ranks(ctx: FieldCtx, A, mask, target: int) -> np.ndarray:
    """min(rank of the rows A[mask[b]], target) for each row of a (B, N) mask.

    Rows go in a fixed spread order, the argsort of N SplitMix64(0x5EED)
    words; flag rows come functional-major, whose short prefixes are
    rank-deficient.  Each set's first K rows (a cumsum select) go to
    rank_batch as one zero-padded stack, K from _PREFIX_ROWS doubling for
    the sets still open.  A set closes at target or once K covers its
    rows, so the answer depends on neither K nor the order.
    """
    order = np.argsort(SplitMix64(0x5EED).words(mask.shape[1]))
    mask = mask[:, order]
    counts = mask.sum(axis=1)
    out = np.zeros(len(mask), dtype=np.int8)
    live = np.arange(len(mask))
    K = _PREFIX_ROWS
    while live.size:
        sub = mask[live]
        pos = np.cumsum(sub, axis=1, dtype=np.int32)
        b, n = np.nonzero(sub & (pos <= K))
        stack = np.zeros((len(live), K, A.shape[1]), dtype=A.dtype)
        stack[b, pos[b, n] - 1] = A[order[n]]
        out[live] = np.minimum(rank_batch(ctx, stack), target)
        live = live[(out[live] < target) & (counts[live] > K)]
        K *= 2
    return out


def row_echelon(ctx: FieldCtx, A) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    A = np.asarray(A)
    rows = [list(map(int, r)) for r in A.tolist()]
    pivots = _rref(ctx, rows, A.shape[1])
    return np.array(rows, dtype=ctx.dtype).reshape(A.shape), tuple(pivots)


def rank(ctx: FieldCtx, A) -> int:
    return len(_rref(ctx, np.asarray(A).tolist(), np.shape(A)[1]))


def invert(ctx: FieldCtx, A) -> np.ndarray:
    """Inverse of a square matrix; raises ValueError if singular."""
    A = np.asarray(A)
    m = A.shape[0]
    if A.shape != (m, m):
        raise ValueError(f"invert needs a square matrix, got {A.shape}")
    eye = np.eye(m, dtype=A.dtype)
    rows = [list(map(int, list(r) + list(e))) for r, e in zip(A.tolist(), eye.tolist())]
    pivots = _rref(ctx, rows, 2 * m)
    if pivots[:m] != list(range(m)) or len(pivots) != m:
        raise ValueError("matrix is singular")
    return np.array([r[m:] for r in rows], dtype=ctx.dtype)


def left_kernel(ctx: FieldCtx, A) -> np.ndarray:
    """Canonical basis of {xi : xi A = 0}, one row per basis functional.

    The basis comes from the RREF of A^T in the standard free-variable
    form, so it is deterministic.  Shape (d, m) with d the kernel
    dimension (possibly 0).
    """
    A = np.asarray(A)
    m = A.shape[0]
    rows = [list(map(int, r)) for r in A.T.tolist()]
    pivots = _rref(ctx, rows, m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m):
        if f in pivot_set:
            continue
        v = [0] * m
        v[f] = 1
        for r_idx, pc in enumerate(pivots):
            v[pc] = ctx.neg(rows[r_idx][f])
        basis.append(v)
    return np.array(basis, dtype=ctx.dtype).reshape(len(basis), m)


# ---------------------------------------------------------------------------
# projective normalization and rank-1 factorization
# ---------------------------------------------------------------------------

def normalize_rep(ctx: FieldCtx, arr) -> tuple[np.ndarray, int]:
    """Scale so the first nonzero entry (row-major) becomes 1.

    Returns (normalized, scale) with arr == scale * normalized.  Raises
    ValueError on the zero array.
    """
    arr = np.asarray(arr)
    flat = arr.reshape(-1)
    nz = np.flatnonzero(flat)
    if nz.size == 0:
        raise ValueError("cannot normalize the zero array")
    scale = int(flat[nz[0]])
    if scale == 1:
        return arr.astype(ctx.dtype).copy(), 1
    return scalar_mul(ctx, ctx.inv(scale), arr), scale


def is_scalar_matrix(ctx: FieldCtx, A) -> tuple[bool, int]:
    """Whether A == c*I; returns (flag, c)."""
    A = np.asarray(A)
    m = A.shape[0]
    c = int(A[0, 0])
    expected = scalar_mul(ctx, c, np.eye(m, dtype=ctx.dtype))
    return bool(np.array_equal(A.astype(ctx.dtype), expected)), c


def rank1_factor(ctx: FieldCtx, M) -> tuple[np.ndarray, np.ndarray]:
    """Factor a rank-1 matrix as M = u * zeta (column times row).

    zeta is the first nonzero row of M and u the matching column of
    coefficients, so if M is a normalized projective representative then
    zeta is normalized too.  Raises ValueError if M is zero or has rank
    greater than 1 (the factorization is verified entrywise).
    """
    M = np.asarray(M)
    row_nz = np.flatnonzero((M != 0).any(axis=1))
    if row_nz.size == 0:
        raise ValueError("zero matrix has no rank-1 factorization")
    i0 = int(row_nz[0])
    zeta = M[i0, :].copy()
    j0 = int(np.flatnonzero(zeta)[0])
    piv_inv = ctx.inv(int(zeta[j0]))
    u = scalar_mul(ctx, piv_inv, M[:, j0])
    if not np.array_equal(pure_tensor(ctx, u, zeta), M.astype(ctx.dtype)):
        raise ValueError("matrix does not have rank 1")
    return u, zeta
