"""Geometric hyperplanes of the flag geometry cut out by matrix functionals.

Every nonzero matrix class [M] determines the flag set {(p, H) : Tr(X M) = 0}
where X runs over the embedded flags; these sets are geometric hyperplanes
of the point-hyperplane geometry and their cardinality is controlled by
theta(M).  Two shapes get names:

  singular                    rank 1, twisted pairing zero; the defining
                              pair is itself a flag of the geometry
  quasi-singular nonsingular  rank 1, twisted pairing nonzero

Everything else is reported as plain.  A third shape, spread type, would
need sigma involutory, n odd, some scalar multiple M' with
sigma(M') M' = I, and the point map [x] -> [M sigma(x)] fixed-point free
(forcing theta(M) = 0).  Over a finite field it does not occur: by
Hilbert 90 every M with sigma(M) M a nonzero scalar is c * B^(-1)
sigma(B), so [x] -> [M sigma(x)] is conjugate to entrywise sigma and
fixes the (s^(n+1)-1)/(s-1) points of the subfield subgeometry PG(n, s).
A theta = 0 class is therefore plain, even though its flag count matches
spread_type_cardinality.

The two constructive searches live here too: find_spread (which tries
the natural candidates with sigma(M) M = I and, by the argument above,
always exhausts its budget) and find_fpf_collineation (which builds a
fixed-point-free twist through a field model of the dual space when the
arithmetic allows one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from . import bulk
from . import code as code_ops
from .embedding import ProjectiveSystem
from .gamma import base_cardinality
from .gf import FieldCtx, make_field
from .linalg import (as_matrix, dot, invert, is_scalar_matrix, matmul, rank,
                     rank1_factor, sigma_entrywise, vecmat)
from .projgeom import class_index, normalize_tuple
from .rng import SplitMix64


class SearchBudgetExhausted(RuntimeError):
    """A randomized search ran out of attempts without a witness."""

    def __init__(self, message: str, attempts: int, seed: int,
                 histogram: dict | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.seed = seed
        self.histogram = dict(histogram or {})


# ---------------------------------------------------------------------------
# cardinalities
# ---------------------------------------------------------------------------

def singular_cardinality(q: int, n: int) -> int:
    return base_cardinality(q, n) + q ** (n - 1) * (q ** n - 1) // (q - 1)


def quasi_singular_cardinality(q: int, n: int) -> int:
    return singular_cardinality(q, n) + q ** (n - 1)


def spread_type_cardinality(q: int, n: int) -> int:
    return base_cardinality(q, n)


# ---------------------------------------------------------------------------
# the point-side twist map
# ---------------------------------------------------------------------------

def phi_fixed_points(sys: ProjectiveSystem, M) -> int:
    """Count the point classes [x] with M sigma(x) = lambda x, lambda != 0.

    This is the fixed-point count of the semilinear collineation
    [x] -> [M sigma(x)] induced by an invertible M; theta() counts the
    dual-side analogue.  y = sigma(x) maps normalized representatives
    onto normalized representatives, and M sigma(x) = lambda x exactly
    when y M^T = lambda sigma^(-1)(y), so the count is the lambda != 0
    part of the functional scan with sigma^(-1) on M^T.
    """
    ctx, spec = sys.ctx, sys.spec
    M = as_matrix(ctx, M, square=sys.m)
    ok, lam = bulk.fixed_scan(ctx, sys.gamma.funcs_arr, spec.inv_table, M.T)
    return int((ok & (lam != 0)).sum())


def norm_proportional(ctx: FieldCtx, spec, M) -> bool:
    """Whether some scalar multiple M' of M satisfies sigma(M') M' = I.

    Scaling M by alpha scales sigma(M) M by the relative norm of alpha,
    and the norm onto the fixed field is surjective, so the test reduces
    to sigma(M) M being a nonzero scalar matrix.
    """
    M = as_matrix(ctx, M, square=None)
    scal, d = is_scalar_matrix(
        ctx, matmul(ctx, sigma_entrywise(ctx, spec, M), M))
    return scal and d != 0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HyperplaneReport:
    kind: str                  # singular | quasi_singular | plain
    rank: int
    theta: int
    cardinality: int           # flags in the hyperplane
    weight: int
    matrix: np.ndarray = field(repr=False)
    pairing: int | None = None               # zeta . sigma(u) for rank 1
    is_hyperplane: bool | None = None
    defining_point: int | None = None        # class index in PG(n, q)
    defining_functional: int | None = None   # class index in the dual


def classify(sys: ProjectiveSystem, M,
             check_hyperplane: bool | None = None) -> HyperplaneReport:
    """Name the hyperplane cut out by a nonzero matrix.

    Rank-1 matrices factor as u zeta (column times row); the twisted
    pairing zeta . sigma(u) decides singular versus quasi-singular, and
    the theta value and flag count are asserted against the closed-form
    cardinalities.  Every other class is plain, theta = 0 included: no
    spread-type class exists over a finite field (see the module
    docstring).  check_hyperplane additionally walks every line of the
    geometry and asserts the one-or-all property (default: on for small
    geometries).
    """
    ctx, spec = sys.ctx, sys.spec
    M = as_matrix(ctx, M, square=sys.m)
    if not M.any():
        raise ValueError("cannot classify the zero matrix")
    r = rank(ctx, M)
    rep = code_ops.theta(sys, M)
    card = rep.intersection
    q, n = ctx.q, sys.n

    kind = "plain"
    pairing = None
    def_pt = def_fn = None
    if r == 1:
        u, zeta = rank1_factor(ctx, M)
        su = spec.table[u].astype(ctx.dtype)
        pairing = int(dot(ctx, zeta, su))
        m1 = code_ops.m_bound(1, q, n, spec.s)
        if pairing == 0:
            kind = "singular"
            assert rep.theta == m1 - 1, \
                f"singular rank-1 class has theta {rep.theta}, expected {m1 - 1}"
            assert card == singular_cardinality(q, n)
        else:
            kind = "quasi_singular"
            assert rep.theta == m1, \
                f"quasi-singular class has theta {rep.theta}, expected {m1}"
            assert card == quasi_singular_cardinality(q, n)
        def_pt = class_index(q, sys.m, normalize_tuple(ctx, u))
        def_fn = class_index(q, sys.m, normalize_tuple(
            ctx, [int(spec.inv_tlist[int(e)]) for e in zeta]))

    is_hp = None
    if check_hyperplane is None:
        check_hyperplane = sys.N <= 10 ** 5
    if check_hyperplane:
        inside = np.flatnonzero(rep.zero_flags)     # theta's codeword
        is_hp, offender = sys.gamma.is_geometric_hyperplane(inside)
        assert is_hp, f"zero set fails the one-or-all test on line {offender}"
    return HyperplaneReport(kind=kind, rank=r, theta=rep.theta,
                            cardinality=card, weight=rep.weight, matrix=M,
                            pairing=pairing, is_hyperplane=is_hp,
                            defining_point=def_pt, defining_functional=def_fn)


# ---------------------------------------------------------------------------
# spread search
# ---------------------------------------------------------------------------

def find_spread(sys: ProjectiveSystem, attempts: int = 1000,
                seed: int = 0) -> NoReturn:
    """Search for a spread-type hyperplane among the norm-one candidates.

    Requires an involutory sigma != 1 and odd n.  Candidates are
    M = B^(-1) B^sigma for random invertible B; these satisfy
    sigma(M) M = I (asserted), so the point map [x] -> [M sigma(x)] is
    an involution.  Each candidate's fixed-point count is cross-checked
    against theta(M) and tallied.  A witness would need a count of 0, and
    over a finite field there is none: each candidate is conjugate to
    entrywise sigma and fixes the (s^(n+1)-1)/(s-1) points of PG(n, s)
    (Hilbert 90).  So the search always raises SearchBudgetExhausted with
    the seed and the histogram, {(s^(n+1)-1)/(s-1): attempts}; a broken
    count would show there as another key.
    """
    ctx, spec = sys.ctx, sys.spec
    if spec.j == 0 or spec.order != 2:
        raise ValueError("spread search requires an involutory sigma != 1")
    if sys.n % 2 == 0:
        raise ValueError("spread-type hyperplanes require odd n")
    rng = SplitMix64(seed)
    hist: dict[int, int] = {}
    for _ in range(attempts):
        B = code_ops.random_invertible(ctx, sys.m, rng)
        M = matmul(ctx, invert(ctx, B), sigma_entrywise(ctx, spec, B))
        MsM = matmul(ctx, sigma_entrywise(ctx, spec, M), M)
        assert np.array_equal(MsM, np.eye(sys.m, dtype=ctx.dtype)), \
            "candidate is not norm one"
        fp = phi_fixed_points(sys, M)
        th = code_ops.theta(sys, M, check_identity=False).theta
        assert fp == th, \
            "point and functional fixed counts disagree on a norm-one class"
        hist[fp] = hist.get(fp, 0) + 1
    raise SearchBudgetExhausted(
        f"no spread-type hyperplane after {attempts} candidates "
        f"(seed {seed}); fixed-point counts seen: {dict(sorted(hist.items()))}",
        attempts=attempts, seed=seed, histogram=hist)


# ---------------------------------------------------------------------------
# fixed-point-free twists via a field model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FpfWitness:
    matrix: np.ndarray
    theta: int
    weight: int
    cardinality: int
    model_degree: int          # degree of the field model over the prime field
    omega_power: int           # the twist multiplier as a power of the generator
    attempts: int              # multipliers tested before this one worked
    kind: str                  # classification of the resulting hyperplane


class _FieldModel:
    """F_q^m realized as the degree-m extension field, with coordinates.

    Elements of the big field K are identified with row vectors over F_q
    through the basis 1, beta, ..., beta^(m-1) (beta a generator of K^*),
    and F_q sits inside K through the smallest root of its defining
    polynomial.  Coordinate extraction solves one prime-field linear
    system, inverted once.
    """

    def __init__(self, ctx: FieldCtx, m: int):
        self.ctx = ctx
        self.m = m
        deg = ctx.t * m
        self.K = make_field(ctx.p, deg)
        K, p = self.K, ctx.p

        # embed F_q: find the smallest root of ctx's modulus inside K
        step = (K.q - 1) // (ctx.q - 1)
        coeffs = ctx.modulus          # list over F_p, degree t
        roots = []
        for i in range(ctx.q - 1):
            z = K.pow(K.gen, i * step) if i else 1
            acc = 0
            for c in reversed(coeffs):
                acc = K.add(K.mul(acc, z), c % p)
            if acc == 0:
                roots.append(z)
        if not roots:
            raise ValueError("defining polynomial has no root in the model")
        root = min(roots)
        self.phi = np.zeros(ctx.q, dtype=np.int64)
        for a in range(ctx.q):
            digits = ctx.digits(a)
            acc = 0
            for d in reversed(digits):
                acc = K.add(K.mul(acc, root), d)
            self.phi[a] = acc
        assert self.phi[1] == 1
        sample = min(ctx.q, 64)
        for a in range(sample):
            for b in range(sample):
                assert self.phi[ctx.add(a, b)] == K.add(
                    int(self.phi[a]), int(self.phi[b]))
                assert self.phi[ctx.mul(a, b)] == K.mul(
                    int(self.phi[a]), int(self.phi[b]))

        self.basis = [K.pow(K.gen, i) for i in range(m)]

        # prime-field transition matrix: columns are the K-digit vectors of
        # phi(y^d) * beta^i, one per (i, d) coordinate of F_q^m over F_p
        self.pf = make_field(p, 1)
        T = ctx.t * m
        cols = []
        for i in range(m):
            for d in range(ctx.t):
                v = K.mul(int(self.phi[p ** d]), self.basis[i])
                cols.append(K.digits(v))
        Tm = np.array(cols, dtype=self.pf.dtype).T
        assert Tm.shape == (T, T)
        self.Tinv = invert(self.pf, Tm)
        self.deg = T

    def to_field(self, x) -> int:
        acc = 0
        for i, e in enumerate(x):
            acc = self.K.add(acc, self.K.mul(int(self.phi[int(e)]),
                                             self.basis[i]))
        return acc

    def coords(self, v: int) -> np.ndarray:
        dv = np.array(self.K.digits(v), dtype=self.pf.dtype)
        c = matmul(self.pf, self.Tinv, dv[:, None])[:, 0]
        out = np.zeros(self.m, dtype=self.ctx.dtype)
        for i in range(self.m):
            val = 0
            for d in reversed(range(self.ctx.t)):
                val = val * self.ctx.p + int(c[i * self.ctx.t + d])
            out[i] = val
        return out


def find_fpf_collineation(sys: ProjectiveSystem,
                          max_multipliers: int = 200) -> FpfWitness:
    """Build a matrix whose dual twist map has no fixed functional.

    Models the dual row space as the field K of degree n+1 over F_q and
    realizes xi |-> sigma^(-1)(xi M) as v |-> omega v^(p^(t-j)) on K.
    With omega a generator of K^* this map is fixed-point free exactly
    when the multiplier falls outside the power-times-scalar subgroup,
    which the arithmetic precondition

        gcd((q^(n+1)-1)/(q-1), p^j - 1) > 1

    makes possible; configurations failing it admit no fixed-point-free
    twist at all and raise ValueError.  The construction is verified on
    the spot: semilinearity on random vectors, then a full scan asserting
    theta(M) = 0.
    """
    ctx, spec = sys.ctx, sys.spec
    if spec.j == 0:
        raise ValueError("the identity twist fixes every functional")
    q, n = ctx.q, sys.n
    pts = (q ** (n + 1) - 1) // (q - 1)
    g = math.gcd(pts, ctx.p ** spec.j - 1)
    if g == 1:
        raise ValueError(
            f"gcd((q^{n + 1}-1)/(q-1), p^j-1) = 1 for q={q}, n={n}, "
            f"j={spec.j}: every twist of this shape fixes a functional")
    if ctx.t * sys.m > 16:
        raise ValueError("field model exceeds the supported degree")

    model = _FieldModel(ctx, sys.m)
    K = model.K
    jinv = (ctx.t - spec.j) % ctx.t
    exp = ctx.p ** jinv if jinv else 1
    rng = SplitMix64(0xF1E1D)

    tried = 0
    for e in range(1, max_multipliers + 1):
        if math.gcd(e, K.q - 1) != 1:
            continue
        tried += 1
        omega = K.pow(K.gen, e)
        M = np.zeros((sys.m, sys.m), dtype=ctx.dtype)
        for i in range(sys.m):
            M[i] = model.coords(K.mul(omega, K.pow(model.basis[i], exp)))
        # semilinearity spot checks: coords(omega v^(p^(t-j))) = sigma^(-1)(x) M
        for _ in range(32):
            x = np.array(rng.elements(q, sys.m), dtype=ctx.dtype)
            if not x.any():
                continue
            v = model.to_field(x)
            lhs = model.coords(K.mul(omega, K.pow(v, exp)))
            rhs = vecmat(ctx, spec.inv_table[x].astype(ctx.dtype), M)
            assert np.array_equal(lhs, rhs), "field model is not semilinear"
        rep = code_ops.theta(sys, M)
        if rep.theta == 0:
            # the map is fixed-point free, so the class is plain with the
            # flag count of the spread-type cardinality
            hp = classify(sys, M)
            assert hp.theta == 0
            assert hp.cardinality == spread_type_cardinality(q, n)
            return FpfWitness(matrix=M, theta=0, weight=rep.weight,
                              cardinality=rep.intersection,
                              model_degree=model.deg, omega_power=e,
                              attempts=tried, kind=hp.kind)
    raise SearchBudgetExhausted(
        f"no fixed-point-free multiplier among {max_multipliers} generator "
        f"powers", attempts=max_multipliers, seed=0)
