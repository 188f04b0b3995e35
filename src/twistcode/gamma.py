"""Point-hyperplane flag geometry of PG(n, q).

A flag is an incident (point, hyperplane) pair; hyperplanes are identified
with projective classes of nonzero functionals.  Flags are enumerated
functional-major: for each functional in the global class order, its
incident points in the global class order.  The flag index is the codeword
coordinate everywhere downstream.

Lines of the geometry come in two families, both with q + 1 flags:

* point pencil: fix a hyperplane H and a line r inside it, vary the point
  along r;
* hyperplane pencil: fix a point p and a codimension-2 space S through p,
  vary the hyperplane through S.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx
from .linalg import matmul
from .projgeom import POINT_CAP, ProjClass, enumerate_pg, line_array

FLAG_CAP = POINT_CAP
_PAIR_BLOCK = 1 << 22     # entries per block of the incidence tests
_LOOKUP_BLOCK = 1 << 16   # entries per block of the line rows and lookups
FAMILIES = ("point-pencil", "hyperplane-pencil")   # the two line families


@dataclass(frozen=True)
class Flag:
    """Incident (point, hyperplane) pair; index = codeword coordinate."""
    index: int
    point: ProjClass
    functional: ProjClass


@dataclass(frozen=True)
class GammaLine:
    family: str                 # one of FAMILIES
    flags: tuple[int, ...]      # member flag indices, ascending


def flag_count(q: int, n: int) -> int:
    """(q^(n+1)-1)(q^n-1) / (q-1)^2: the number of flags of PG(n, q)."""
    return (q ** (n + 1) - 1) * (q ** n - 1) // (q - 1) ** 2


def base_cardinality(q: int, n: int) -> int:
    """Flags on which a theta = 0 functional vanishes:
    (q^(n+1)-1)(q^(n-1)-1)/(q-1)^2."""
    return (q ** (n + 1) - 1) * (q ** (n - 1) - 1) // (q - 1) ** 2


class Gamma:
    """The flag geometry for one (ctx, n); build via build_gamma()."""

    def __init__(self, ctx: FieldCtx, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        expected = flag_count(ctx.q, n)
        if expected > FLAG_CAP:
            raise ValueError(f"{expected} flags exceed the {FLAG_CAP} cap")
        self.ctx = ctx
        self.n = n
        # functionals enumerate like points: one list and one array serve both
        self.points = self.functionals = enumerate_pg(ctx, n + 1)
        self.points_arr = self.funcs_arr = np.array(
            [p.rep for p in self.points], dtype=ctx.dtype)

        # incidence in blocks of functionals; the nonzero positions of the
        # F x P test are the sorted keys functional * P + point of the flags
        P = len(self.points)
        step = max(1, _PAIR_BLOCK // (P * (n + 1)))
        self._keys = np.concatenate([np.flatnonzero(
            matmul(ctx, self.funcs_arr[lo:lo + step], self.points_arr.T) == 0)
            + lo * P for lo in range(0, len(self.funcs_arr), step)])
        assert len(self._keys) == expected, (len(self._keys), expected)
        self.func_idx, self.point_idx = (
            a.astype(np.int32) for a in np.divmod(self._keys, P))
        self._line_flags: tuple[np.ndarray, int] | None = None

    @property
    def N(self) -> int:
        return len(self.func_idx)

    @functools.cached_property
    def flags(self) -> list[Flag]:
        """Every flag as a Flag object, in flag order; built on first use."""
        return [Flag(i, self.points[p], self.functionals[f]) for i, (p, f)
                in enumerate(zip(self.point_idx.tolist(),
                                 self.func_idx.tolist()))]

    def flag_indices(self, points, functionals) -> np.ndarray:
        """Flag index of each (point, functional) index pair; -1 off the flags.

        The two index arrays broadcast against each other like numpy.
        """
        p = np.asarray(points, dtype=np.int64)
        want = np.asarray(functionals, dtype=np.int64) * len(self.points) + p
        pos = np.searchsorted(self._keys, want).clip(max=self.N - 1)
        hit = (self._keys[pos] == want) & (p >= 0) & (p < len(self.points))
        return np.where(hit, pos, -1)

    def flag_index(self, point_index: int, functional_index: int) -> int:
        """Flag index of an incident pair; KeyError if not incident."""
        idx = int(self.flag_indices(point_index, functional_index))
        if idx < 0:
            raise KeyError((point_index, functional_index))
        return idx

    # -- lines -------------------------------------------------------------

    def line_flags(self) -> tuple[np.ndarray, int]:
        """Every line as a row of flag indices, and the point-pencil count.

        Point pencils come first, ordered by (H, r), then hyperplane pencils,
        ordered by (p, S); each row is ascending.  Built on first call.
        """
        if self._line_flags is not None:
            return self._line_flags
        q, P = self.ctx.q, len(self.points)
        pg = line_array(self.ctx, self.n + 1)
        inc = np.zeros((P, P), dtype=bool)
        inc[self.func_idx, self.point_idx] = True
        # xi.x is symmetric, so inc is too, and one set of (y, line) pairs
        # serves both families: point pencils (H, r) and hyperplane pencils
        # (p, S), S cut out by a dual line.  The flag transpose
        # (x, xi) -> (xi, x) maps the one onto the other, rows kept ascending
        y, li = _incident_pairs(inc, pg)
        # both families have (#lines of PG) * (q^(n-1)-1)/(q-1) members
        npp = len(pg) * (q ** (self.n - 1) - 1) // (q - 1)
        assert len(y) == npp, (len(y), npp)
        # flags are in (functional, point) order, so a stable sort by point
        # lists them in (point, functional) order: the order of the keys of
        # their transposes, which are the flags again
        transpose = np.empty(self.N, dtype=np.int32)
        transpose[np.argsort(self.point_idx.astype(np.min_scalar_type(P)),
                             kind="stable")] = np.arange(self.N)
        assert (self.func_idx[transpose] == self.point_idx).all()
        # the lookups go in blocks of rows straight into the result, so no
        # int64 index array of all the pencil members is ever whole
        flags = np.empty((2 * npp, q + 1), dtype=np.int32)
        step = max(1, _LOOKUP_BLOCK // (q + 1))
        for lo in range(0, npp, step):
            hi = min(lo + step, npp)
            rows = flags[lo:hi]
            rows[...] = self.flag_indices(pg[li[lo:hi]], y[lo:hi, None])
            assert (rows >= 0).all(), "pencil member not a flag"
            flags[npp + lo:npp + hi] = transpose[rows]
        self._line_flags = flags, npp
        return self._line_flags

    def lines(self) -> list[GammaLine]:
        """Both line families as GammaLine objects, point pencils first."""
        flags, npp = self.line_flags()
        return [GammaLine(FAMILIES[i >= npp], tuple(row))
                for i, row in enumerate(flags.tolist())]

    def is_geometric_hyperplane(self, flagset) -> tuple[bool, GammaLine | None]:
        """Check the one-or-all property of a flag subset against every line.

        Returns (True, None) if each line either lies inside the set or
        meets it in exactly one flag; otherwise (False, first bad line).
        The flags may come as an integer array, or as any iterable of
        indices and Flag objects.  Raises ValueError for flag indices
        outside the geometry.
        """
        if not isinstance(flagset, np.ndarray):
            flagset = [f.index if isinstance(f, Flag) else int(f)
                       for f in flagset]
        idx = np.asarray(flagset, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= self.N)]
        if bad.size:
            raise ValueError(f"flag index {int(bad[0])} outside the geometry")
        members = np.zeros(self.N, dtype=bool)
        members[idx] = True
        flags, npp = self.line_flags()
        c = members[flags].sum(axis=1)
        offenders = np.flatnonzero((c != 1) & (c != self.ctx.q + 1))
        if offenders.size:
            i = int(offenders[0])
            return False, GammaLine(FAMILIES[i >= npp],
                                    tuple(flags[i].tolist()))
        return True, None


def _incident_pairs(inc: np.ndarray, lines: np.ndarray):
    """(y, line) pairs, ordered by y then line, with y incident to the line.

    inc[x, y] says whether x and y are incident, and the lines are lines
    of x's.  y is incident to a line iff it is incident to the line's first
    two members, which span it.  The lines go in blocks, so no lines x y
    array is ever whole.
    """
    step = max(1, _LOOKUP_BLOCK // inc.shape[1])
    ls, ys = [], []
    for lo in range(0, len(lines), step):
        block = lines[lo:lo + step]
        li, y = np.nonzero(inc[block[:, 0]] & inc[block[:, 1]])
        ls.append(li + lo)
        ys.append(y)
    li, y = np.concatenate(ls), np.concatenate(ys)
    # nonzero is line-major, so a stable sort by y alone orders by (y, line);
    # keys of 16 bits or fewer radix-sort
    order = np.argsort(y.astype(np.min_scalar_type(inc.shape[1])),
                       kind="stable")
    return y[order], li[order]


@functools.lru_cache(maxsize=None)
def build_gamma(ctx: FieldCtx, n: int) -> Gamma:
    return Gamma(ctx, n)

