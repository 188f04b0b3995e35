"""Projective point enumeration over GF(q), with one global class order.

A projective class [v] is stored by its normalized representative: the
first nonzero coordinate (row-major for matrices) is scaled to 1.  The
global order of classes is lexicographic on the representative digit
tuples; equivalently, classes are blocked by the position of the leading 1
(last coordinate first) with the trailing digits counted lexicographically.
The same order is used for points of PG, for functionals, and for the
flattened matrix classes in exhaustive sweeps, so "first witness in sweep
order" is well defined everywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf import AutSpec, FieldCtx
from .linalg import _rref, dot, matmul

POINT_CAP = 10 ** 7


@dataclass(frozen=True)
class ProjClass:
    """One projective class: position in the global order plus its rep."""
    index: int
    rep: tuple[int, ...]


def num_classes(q: int, k: int) -> int:
    """(q^k - 1) / (q - 1): number of projective classes of nonzero k-vectors."""
    return (q ** k - 1) // (q - 1)


def class_reps_range(q: int, k: int, start: int, stop: int,
                     dtype=np.int64) -> np.ndarray:
    """Rows start..stop-1 of the global class order, as a (stop-start, k) array.

    Row layout: zeros, then the leading 1 at position lead, then the tail
    digits of the local index in base q, most significant digit first (that
    is what makes the order lexicographic).
    """
    total = num_classes(q, k)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start}, {stop}) of {total} classes")
    out = np.zeros((stop - start, k), dtype=dtype)
    for lead in range(k - 1, -1, -1):
        tail_len = k - 1 - lead
        block_lo = num_classes(q, tail_len)   # classes before this block
        block_hi = block_lo + q ** tail_len
        lo = max(start, block_lo)
        hi = min(stop, block_hi)
        if lo >= hi:
            continue
        local = np.arange(lo - block_lo, hi - block_lo, dtype=np.int64)
        seg = out[lo - start:hi - start]
        seg[:, lead] = 1
        for m in range(tail_len):
            seg[:, lead + 1 + m] = (local // q ** (tail_len - 1 - m)) % q
    return out


def class_index(q: int, k: int, rep) -> int:
    """Global-order index of a normalized representative."""
    rep = list(map(int, rep))
    if len(rep) != k:
        raise ValueError(f"expected {k} digits, got {len(rep)}")
    lead = next((i for i, d in enumerate(rep) if d), None)
    if lead is None or rep[lead] != 1:
        raise ValueError("representative is not normalized (leading digit != 1)")
    tail_len = k - 1 - lead
    local = 0
    for d in rep[lead + 1:]:
        local = local * q + d
    return num_classes(q, tail_len) + local


def normalize_tuple(ctx: FieldCtx, vec) -> tuple[int, ...]:
    """Normalized representative of a nonzero vector, as a digit tuple."""
    vals = list(map(int, vec))
    lead = next((v for v in vals if v), 0)
    if lead == 0:
        raise ValueError("cannot normalize the zero vector")
    if lead == 1:
        return tuple(vals)
    f = ctx.inv(lead)
    mul = ctx.mul
    return tuple(mul(f, v) if v else 0 for v in vals)


def enumerate_pg(ctx: FieldCtx, dim: int) -> list[ProjClass]:
    """All points of PG(dim-1, q) in the global class order.

    `dim` is the vector-space dimension.  Raises ValueError when the point
    count exceeds the 10^7 enumeration cap.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    total = num_classes(ctx.q, dim)
    if total > POINT_CAP:
        raise ValueError(f"PG enumeration of {total} points exceeds cap {POINT_CAP}")
    reps = class_reps_range(ctx.q, dim, 0, total)
    return [ProjClass(i, tuple(map(int, reps[i]))) for i in range(total)]


def index_map(points: list[ProjClass]) -> dict[tuple[int, ...], int]:
    return {pt.rep: pt.index for pt in points}


def incident(ctx: FieldCtx, point, functional) -> bool:
    """Whether the functional vanishes on the point (xi . x == 0)."""
    x = point.rep if isinstance(point, ProjClass) else point
    xi = functional.rep if isinstance(functional, ProjClass) else functional
    if len(x) != len(xi):
        raise ValueError("point and functional live in different dimensions")
    return dot(ctx, xi, x) == 0


def sigma_fixed_points(ctx: FieldCtx, spec: AutSpec, dim: int) -> list[ProjClass]:
    """Points of PG(dim-1, q) fixed by [v] -> [sigma(v)] entrywise.

    A normalized representative is fixed by the induced collineation iff
    all its entries lie in the fixed subfield (the proportionality constant
    is pinned to 1 at the leading coordinate), so the fixed set is the
    subgeometry PG(dim-1, s) and has (s^dim - 1)/(s - 1) members; that
    count is asserted before returning.
    """
    tl = spec.tlist
    fixed = [pt for pt in enumerate_pg(ctx, dim)
             if all(tl[e] == e for e in pt.rep)]
    expected = (spec.s ** dim - 1) // (spec.s - 1)
    assert len(fixed) == expected, (len(fixed), expected)
    return fixed


def line_through(ctx: FieldCtx, a, b) -> list[tuple[int, ...]]:
    """The q+1 normalized class reps on the projective line spanned by a, b."""
    a = list(map(int, a.rep if isinstance(a, ProjClass) else a))
    b = list(map(int, b.rep if isinstance(b, ProjClass) else b))
    add, mul = ctx.add, ctx.mul
    pts = {normalize_tuple(ctx, b)}
    for lam in range(ctx.q):
        v = [add(x, mul(lam, y)) if lam else x for x, y in zip(a, b)]
        pts.add(normalize_tuple(ctx, v))
    out = sorted(pts)
    assert len(out) == ctx.q + 1, "degenerate line (points were dependent?)"
    return out


def span_classes(ctx: FieldCtx, gens) -> list[tuple[int, ...]]:
    """All projective classes inside the row span of `gens`, sorted.

    The generators need not be independent; a row basis is extracted
    first.  Intended for small subspaces (the class count is capped at
    10^6).
    """
    G = np.asarray(gens)
    rows = [list(map(int, r)) for r in G.tolist()]
    pivots = _rref(ctx, rows, G.shape[1])
    basis = rows[:len(pivots)]
    d = len(basis)
    if d == 0:
        return []
    total = num_classes(ctx.q, d)
    if total > 10 ** 6:
        raise ValueError(f"span of {total} classes is too large to enumerate")
    coefs = class_reps_range(ctx.q, d, 0, total, dtype=ctx.dtype)
    span = matmul(ctx, coefs, np.array(basis, dtype=ctx.dtype))
    # RREF basis + normalized coefficients already yield normalized vectors
    return sorted(map(tuple, span.tolist()))


@functools.lru_cache(maxsize=None)
def _lines_cached(ctx: FieldCtx, dim: int) -> tuple[tuple[int, ...], ...]:
    points = enumerate_pg(ctx, dim)
    imap = index_map(points)
    lines = []
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            members = sorted(imap[rep] for rep in line_through(ctx, a, b))
            if members[0] == i and members[1] == b.index:
                lines.append(tuple(members))
    return tuple(lines)


def enumerate_lines(ctx: FieldCtx, dim: int) -> tuple[tuple[int, ...], ...]:
    """All lines of PG(dim-1, q) as sorted tuples of point indices.

    Ordered by their two smallest point indices; cached per (ctx, dim).
    """
    if dim < 2:
        raise ValueError("lines need dim >= 2")
    return _lines_cached(ctx, dim)
