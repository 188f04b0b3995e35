"""Projective point enumeration over GF(q), with one global class order.

A projective class [v] is stored by its normalized representative: the
first nonzero coordinate (row-major for matrices) is scaled to 1.  The
global order of classes is lexicographic on the representative digit
tuples; equivalently, classes are blocked by the position of the leading 1
(last coordinate first) with the trailing digits counted lexicographically.
The same order is used for points of PG, for functionals, and for the
flattened matrix classes in exhaustive sweeps, so "first witness in sweep
order" is well defined everywhere.

One codec encodes and decodes the order: in the lead block with tail
digits after the leading 1, local index C has the code D = C + q^tail,
whose base-q digits are the row (lead_blocks, digits and codes).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gf import AutSpec, FieldCtx
from .linalg import _rref, dot, matmul

POINT_CAP = 10 ** 7
_SHOWN_DIGITS = 30      # capped_count prints a count if q^e < 10^30


@dataclass(frozen=True)
class ProjClass:
    """One projective class: position in the global order plus its rep."""
    index: int
    rep: tuple[int, ...]


def num_classes(q: int, k: int) -> int:
    """(q^k - 1) / (q - 1): number of projective classes of nonzero k-vectors."""
    return (q ** k - 1) // (q - 1)


def capped_count(count, q: int, e: int, cap: int, message: str) -> int:
    """count() when it is at most cap, else ValueError(message.format(c,
    cap)) with c the count.

    count() must be at least q^e.  Where q^e >= 10^_SHOWN_DIGITS, the
    count is refused from e alone, before count() forms a power of q, and
    c reads "at least q^e": a huge n costs nothing and the message stays
    short.
    """
    if e >= _SHOWN_DIGITS / math.log10(q):      # q^e >= 10^30 > cap
        raise ValueError(message.format(f"at least {q}^{e}", cap))
    total = count()
    if total > cap:
        raise ValueError(message.format(total, cap))
    return total


def lead_blocks(q: int, k: int, start: int, stop: int) -> list[tuple]:
    """(tail, lo, hi, D) per lead block that classes start..stop-1 meet,
    in order: its classes lo..hi-1, tail digits after the leading 1 and D,
    the code of class lo.  Raises ValueError on a range outside the order."""
    total = num_classes(q, k)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start}, {stop}) of {total} classes")
    blocks = []
    for tail in range(k):
        block_lo = num_classes(q, tail)       # classes before this block
        lo, hi = max(start, block_lo), min(stop, block_lo + q ** tail)
        if lo < hi:
            blocks.append((tail, lo, hi, lo - block_lo + q ** tail))
    return blocks


def digits(v: np.ndarray, q: int, width: int, dtype=np.int64) -> np.ndarray:
    """The width base-q digits of each 0 <= v < q^width as dtype, most
    significant first: width - 1 divmods from the least significant end,
    in uint32 where q^width <= 2^32, else int64, leave the top digit."""
    v = v.astype(np.uint32 if q ** width <= 1 << 32 else np.int64, copy=False)
    out = np.empty(v.shape + (width,), dtype=dtype)
    for c in range(width - 1, 0, -1):
        v, out[..., c] = np.divmod(v, q)
    out[..., :1] = v[..., None]             # the top digit, none at width 0
    return out


def codes(q: int, v: np.ndarray) -> np.ndarray:
    """The base-q values of the digit rows of v, most significant first."""
    out = v[..., 0].astype(np.intp)
    for c in range(1, v.shape[-1]):
        out *= q
        out += v[..., c]
    return out


def class_reps_range(q: int, k: int, start: int, stop: int,
                     dtype=np.int64) -> np.ndarray:
    """Rows start..stop-1 of the global class order, as a (stop-start, k) array.

    Row layout: zeros, then the leading 1 at position lead, then the tail
    digits of the local index in base q, most significant digit first (that
    is what makes the order lexicographic): the k digits of the class code.
    """
    blocks = lead_blocks(q, k, start, stop)
    D = [np.arange(d, d + hi - lo, dtype=np.int64) for _, lo, hi, d in blocks]
    return digits(np.concatenate(D or [np.empty(0, np.int64)]), q, k, dtype)


def class_index(q: int, k: int, rep) -> int:
    """Global-order index of a normalized representative."""
    rep = list(map(int, rep))
    if len(rep) != k:
        raise ValueError(f"expected {k} digits, got {len(rep)}")
    if next((d for d in rep if d), 0) != 1:
        raise ValueError("representative is not normalized (leading digit != 1)")
    return int(class_indices(q, rep))


def class_indices(q: int, reps) -> np.ndarray:
    """class_index of every normalized representative along the last axis.

    With tail = k - 1 - lead, the index is (q^tail - 1)/(q - 1) plus the
    class code, minus the leading 1's q^tail.  Raises ValueError where
    the codes of k digits could pass int64.
    """
    reps = np.asarray(reps)
    k = reps.shape[-1]
    if q ** (k - 1) > 1 << 62:                  # codes reach 2 q^(k-1) - 1
        raise ValueError(f"{k}-digit class codes over GF({q}) overflow int64")
    tail = k - 1 - np.argmax(reps != 0, axis=-1)
    offset = np.array([num_classes(q, t) - q ** t for t in range(k)],
                      dtype=np.int64)
    return offset[tail] + codes(q, reps)


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


def _capped_points(q: int, dim: int) -> int:
    return capped_count(lambda: num_classes(q, dim), q, dim - 1, POINT_CAP,
                        "PG enumeration of {} points exceeds cap {}")


def enumerate_pg(ctx: FieldCtx, dim: int) -> list[ProjClass]:
    """All points of PG(dim-1, q) in the global class order.

    `dim` is the vector-space dimension.  Raises ValueError when the point
    count exceeds the 10^7 enumeration cap.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    total = _capped_points(ctx.q, dim)
    reps = class_reps_range(ctx.q, dim, 0, total)
    return [ProjClass(i, tuple(map(int, reps[i]))) for i in range(total)]


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
def line_array(ctx: FieldCtx, dim: int) -> np.ndarray:
    """All lines of PG(dim-1, q) as a read-only (L, q+1) array of point indices.

    Each line is enumerated once, from its 2-dimensional subspace in reduced
    echelon form: for pivots i < j, row 1 is e_i plus free digits in the
    columns after i other than j, row 2 is e_j plus free digits after j.
    The members row 2 and row 1 + lam * row 2 are already normalized.  Rows
    are ascending and ordered by their two smallest entries, the order of
    enumerate_lines; cached per (ctx, dim).
    """
    if dim < 2:
        raise ValueError("lines need dim >= 2")
    q = ctx.q
    total = _capped_points(q, dim)
    lam = np.arange(q, dtype=ctx.dtype)[None, :, None]
    blocks = []
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            free1 = [c for c in range(i + 1, dim) if c != j]
            free2 = list(range(j + 1, dim))
            f = len(free1) + len(free2)
            free = digits(np.arange(q ** f), q, f, ctx.dtype)
            row1 = np.zeros((q ** f, dim), dtype=ctx.dtype)
            row2 = np.zeros((q ** f, dim), dtype=ctx.dtype)
            row1[:, i] = 1
            row1[:, free1] = free[:, :len(free1)]
            row2[:, j] = 1
            row2[:, free2] = free[:, len(free1):]
            pts = ctx.add_np(ctx.mul_np(lam, row2[:, None, :]), row1[:, None, :])
            blocks.append(np.concatenate(
                [class_indices(q, pts), class_indices(q, row2)[:, None]], axis=1))
    lines = np.sort(np.concatenate(blocks), axis=1)
    lines = lines[np.lexsort((lines[:, 1], lines[:, 0]))]
    assert len(lines) == total * num_classes(q, dim - 1) // (q + 1)
    lines.setflags(write=False)
    return lines


def enumerate_lines(ctx: FieldCtx, dim: int) -> tuple[tuple[int, ...], ...]:
    """All lines of PG(dim-1, q) as sorted tuples of point indices.

    Ordered by their two smallest point indices; built from line_array.
    """
    return tuple(map(tuple, line_array(ctx, dim).tolist()))
