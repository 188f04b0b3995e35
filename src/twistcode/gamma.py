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
from .projgeom import POINT_CAP, ProjClass, enumerate_lines, enumerate_pg

FLAG_CAP = POINT_CAP


@dataclass(frozen=True)
class Flag:
    """Incident (point, hyperplane) pair; index = codeword coordinate."""
    index: int
    point: ProjClass
    functional: ProjClass


@dataclass(frozen=True)
class GammaLine:
    family: str                 # "point-pencil" or "hyperplane-pencil"
    flags: tuple[int, ...]      # member flag indices, ascending


def flag_count(q: int, n: int) -> int:
    """(q^(n+1)-1)(q^n-1) / (q-1)^2: the number of flags of PG(n, q)."""
    return (q ** (n + 1) - 1) * (q ** n - 1) // (q - 1) ** 2


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
        self.points = enumerate_pg(ctx, n + 1)
        self.functionals = enumerate_pg(ctx, n + 1)
        self.points_arr = np.array([p.rep for p in self.points], dtype=ctx.dtype)
        self.funcs_arr = np.array([f.rep for f in self.functionals], dtype=ctx.dtype)

        # incidence, vectorized over points one functional at a time
        flags: list[Flag] = []
        by_functional: list[np.ndarray] = []
        for fn, xi in zip(self.functionals, self.funcs_arr):
            acc = matmul(ctx, self.points_arr, xi[:, None])[:, 0]
            hit = np.flatnonzero(acc == 0)
            by_functional.append(hit.astype(np.int32))
            for pi in hit:
                flags.append(Flag(len(flags), self.points[int(pi)], fn))
        assert len(flags) == expected, (len(flags), expected)
        self.flags = flags
        self.by_functional = by_functional
        self.point_idx = np.array([f.point.index for f in flags], dtype=np.int32)
        self.func_idx = np.array([f.functional.index for f in flags], dtype=np.int32)
        self._flag_index = {(f.point.index, f.functional.index): f.index
                            for f in flags}
        self._lines: list[GammaLine] | None = None

    @property
    def N(self) -> int:
        return len(self.flags)

    def flag_index(self, point_index: int, functional_index: int) -> int:
        """Flag index of an incident pair; KeyError if not incident."""
        return self._flag_index[(point_index, functional_index)]

    # -- lines -------------------------------------------------------------

    def lines(self) -> list[GammaLine]:
        """Both line families, point pencils first; cached after first call."""
        if self._lines is not None:
            return self._lines
        ctx, n = self.ctx, self.n
        q = ctx.q
        inc = np.zeros((len(self.functionals), len(self.points)), dtype=bool)
        for h, hit in enumerate(self.by_functional):
            inc[h, hit] = True

        out: list[GammaLine] = []
        # point pencils: (hyperplane H, line r inside H), ordered by (H, r)
        pg_lines = enumerate_lines(ctx, n + 1)
        pencil_pairs: list[tuple[int, int]] = []
        for li, line in enumerate(pg_lines):
            for h in np.flatnonzero(inc[:, line].all(axis=1)):
                pencil_pairs.append((int(h), li))
        pencil_pairs.sort()
        for h, li in pencil_pairs:
            members = tuple(sorted(self._flag_index[(p, h)] for p in pg_lines[li]))
            out.append(GammaLine("point-pencil", members))
        npp = len(out)

        # hyperplane pencils: (point p, codim-2 space S through p); S is the
        # common zero set of a dual line of functionals; ordered by (p, S)
        dual_lines = enumerate_lines(ctx, n + 1)   # lines of PG(V*), same shape
        dual_pairs: list[tuple[int, int]] = []
        for di, pencil in enumerate(dual_lines):
            for p in np.flatnonzero(inc[pencil, :].all(axis=0)):
                dual_pairs.append((int(p), di))
        dual_pairs.sort()
        for p, di in dual_pairs:
            members = tuple(sorted(self._flag_index[(p, h)] for h in dual_lines[di]))
            out.append(GammaLine("hyperplane-pencil", members))

        for ln in out:
            assert len(ln.flags) == q + 1
        # both families have (#lines of PG) * (q^(n-1)-1)/(q-1) members
        per_family = len(pg_lines) * (q ** (n - 1) - 1) // (q - 1)
        assert npp == per_family and len(out) == 2 * per_family, \
            (npp, len(out), per_family)
        self._lines = out
        return out

    def is_geometric_hyperplane(self, flagset) -> tuple[bool, GammaLine | None]:
        """Check the one-or-all property of a flag subset against every line.

        Returns (True, None) if each line either lies inside the set or
        meets it in exactly one flag; otherwise (False, first bad line).
        Raises ValueError for flag indices outside the geometry.
        """
        members = np.zeros(self.N, dtype=bool)
        for f in flagset:
            idx = f.index if isinstance(f, Flag) else int(f)
            if not 0 <= idx < self.N:
                raise ValueError(f"flag index {idx} outside the geometry")
            members[idx] = True
        q = self.ctx.q
        for ln in self.lines():
            c = int(members[list(ln.flags)].sum())
            if c != 1 and c != q + 1:
                return False, ln
        return True, None


@functools.lru_cache(maxsize=None)
def build_gamma(ctx: FieldCtx, n: int) -> Gamma:
    return Gamma(ctx, n)

