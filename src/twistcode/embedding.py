"""Twisted embedding of the flag geometry into projective matrix classes.

A flag (point [x], hyperplane [xi]) with xi . x = 0 maps to the projective
class of the rank-1 matrix sigma(x) * xi (column times row, entrywise
sigma on the point side).  With both representatives normalized the image
is already a normalized class representative.  The images of all N flags,
indexed by flag order, form a projective system in the matrix space; a
matrix M cuts the system in the coordinates i where the trace pairing
Tr(X_i M) vanishes, and the codeword of M downstream is exactly that trace
vector.  Every X_i has rank 1, so Tr(X_i M) = xi_i M sigma(x_i), and
ProjectiveSystem.codewords, the one codeword evaluator, takes it that way:
the F x m products xi M once, then m products per flag.

A flag is looked up by its (point, functional) index pair through
Gamma.flag_indices.  A normalized member X = sigma(x) * xi has xi as its
first nonzero row and sigma(x) as its column at the leading 1 of xi;
class_of finds the flag of x and xi and checks that its image is X.

The span of the system is the full matrix space for sigma != 1 and the
traceless hyperplane for sigma = 1; build_system asserts this dimension.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gamma import Flag, Gamma, build_gamma
from .gf import AutSpec, FieldCtx, make_autspec, make_field
from .linalg import matmul, normalize_rep, pure_tensor, subset_ranks
from .projgeom import class_indices

_BLOCK = 1 << 16      # field products per flag block of codewords


@dataclass(eq=False)
class ProjectiveSystem:
    """The embedded flag system for one (ctx, spec, n)."""

    ctx: FieldCtx
    spec: AutSpec
    n: int
    gamma: Gamma
    mats: np.ndarray            # (N, n+1, n+1) normalized representatives
    flat: np.ndarray            # (N, (n+1)^2) row-major flattening
    span_rank: int

    @property
    def N(self) -> int:
        return self.flat.shape[0]

    @property
    def k(self) -> int:
        return self.flat.shape[1]

    @property
    def m(self) -> int:
        return self.n + 1

    @property
    def cfg(self) -> tuple:
        """Hashable config tuple: the key of bulk's per-configuration
        tables (bulk._bundle), which forked sweep workers inherit."""
        return (self.ctx.p, self.ctx.t, self.ctx.modulus, self.spec.j, self.n)

    @functools.cached_property
    def _sigma_points(self) -> np.ndarray:
        """(m, N): column i is sigma(x_i); built on first use."""
        return self.spec.table[self.gamma.points_arr.T][:, self.gamma.point_idx]

    def codewords(self, M) -> np.ndarray:
        """c_M[i] = Tr(X_i M) = xi_i M sigma(x_i), in flag order.

        M is one m x m matrix or a stack (..., m, m); returns (..., N).
        V = xi M is taken once per functional class.  Then, in blocks of
        flags of about _BLOCK products, V is gathered into (m, flags, ...),
        with the stack axes last, multiplied by sigma(x_i) and summed over
        the m entries; larger blocks ran up to 2.5x slower per product.
        """
        ctx, g = self.ctx, self.gamma
        V = matmul(ctx, g.funcs_arr, M)
        nd = V.ndim
        # (m, F, ...): a view of the (F, m, ...) layout matmul leaves in memory
        V = V.transpose(nd - 1, nd - 2, *range(nd - 2))
        sx = self._sigma_points.reshape((self.m, self.N) + (1,) * (nd - 2))
        c = np.empty((self.N,) + V.shape[2:], dtype=ctx.dtype)
        step = max(1, _BLOCK // (self.m * max(1, V[0, 0].size)))
        for lo in range(0, self.N, step):
            W = V.take(g.func_idx[lo:lo + step], axis=1)
            c[lo:lo + step] = ctx.sum_np(ctx.mul_np(W, sx[:, lo:lo + step]), 0)
        return c.transpose(*range(1, nd - 1), 0)

    def class_of(self, M) -> int | None:
        """Flag index of [M] if M is proportional to a system member."""
        rep, _ = normalize_rep(self.ctx, np.asarray(M))
        idx = int(self._decode(rep.reshape(1, -1))[0])
        return None if idx < 0 else idx

    def _decode(self, reps: np.ndarray) -> np.ndarray:
        """Flag index of each normalized row of reps; -1 off the system."""
        R = reps.reshape(-1, self.m, self.m)
        rows = np.arange(len(R))
        xi = R[rows, (R != 0).any(axis=2).argmax(axis=1)]
        sx = R[rows, :, (xi != 0).argmax(axis=1)]
        q = self.ctx.q
        idx = self.gamma.flag_indices(
            class_indices(q, self.spec.inv_table[sx]), class_indices(q, xi))
        return np.where((idx >= 0) & (self.flat[idx] == reps).all(axis=1),
                        idx, -1)


def embed_flag(ctx: FieldCtx, spec: AutSpec, flag: Flag) -> np.ndarray:
    """Image sigma(x) * xi of one flag, already normalized.

    The first nonzero entry of the product sits where the leading 1 of x
    meets the leading 1 of xi and sigma fixes 1, so no rescaling is needed;
    this is asserted.
    """
    x = np.array(flag.point.rep, dtype=ctx.dtype)
    xi = np.array(flag.functional.rep, dtype=ctx.dtype)
    sx = spec.table[x].astype(ctx.dtype)
    X = pure_tensor(ctx, sx, xi)
    flat = X.reshape(-1)
    assert int(flat[np.flatnonzero(flat)[0]]) == 1, "embedding not normalized"
    return X


@functools.lru_cache(maxsize=None)
def build_system(ctx: FieldCtx, spec: AutSpec, n: int) -> ProjectiveSystem:
    """Embed every flag of PG(n, q); cached per (ctx, spec, n).

    Asserts injectivity (the N images are pairwise distinct classes) and
    the span dimension ((n+1)^2, or one less when sigma is the identity).
    """
    gamma = build_gamma(ctx, n)
    m = n + 1
    N = gamma.N
    # one outer product sigma(x)[:, None] * xi[None, :] per flag
    sig_pts = spec.table[gamma.points_arr].astype(ctx.dtype)
    mats = ctx.mul_np(sig_pts[gamma.point_idx][:, :, None],
                      gamma.funcs_arr[gamma.func_idx][:, None, :])
    flat = mats.reshape(N, m * m)

    lead_vals = flat[np.arange(N), (flat != 0).argmax(axis=1)]
    assert np.all(lead_vals == 1), "system representatives not normalized"

    ps = ProjectiveSystem(ctx=ctx, spec=spec, n=n, gamma=gamma, mats=mats,
                          flat=flat, span_rank=_span_rank(ctx, spec, mats))
    # decoding every image back to its own flag proves the N images distinct
    if not np.array_equal(ps._decode(flat), np.arange(N)):
        raise AssertionError("embedding not injective")
    return ps


def _span_rank(ctx: FieldCtx, spec: AutSpec, mats: np.ndarray) -> int:
    """Rank of the members, asserted k, or k - 1 at sigma = 1: there each
    x xi has trace xi(x) = 0, checked here, so a rank capped at k - 1 is exact.
    """
    N, m, _ = mats.shape
    expected = m * m if spec.j != 0 else m * m - 1
    if spec.j == 0 and ctx.sum_np(mats.diagonal(0, 1, 2), axis=1).any():
        raise AssertionError("a sigma = 1 system member has nonzero trace")
    flat = mats.reshape(N, m * m)
    srank = int(subset_ranks(ctx, flat, np.ones((1, N), bool), expected)[0])
    if srank != expected:
        raise AssertionError(f"system span rank {srank}, expected {expected}")
    return srank


def make_system(p: int, t: int, j: int, n: int,
                modulus: tuple[int, ...] | None = None) -> ProjectiveSystem:
    """Convenience builder from raw parameters."""
    ctx = make_field(p, t, modulus)
    return build_system(ctx, make_autspec(ctx, j), n)
