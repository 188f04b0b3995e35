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
always exhausts its budget) and find_fpf_collineation (a seeded search
through bulk.theta_descent for a theta = 0 class, the words of maximum
weight, which exist for every n >= 1 and sigma != 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from . import bulk
from . import code as code_ops
from .embedding import ProjectiveSystem
from .gamma import base_cardinality
from .gf import FieldCtx
from .linalg import (as_matrix, dot, invert, is_scalar_matrix, matmul, rank,
                     rank1_factor, sigma_entrywise)
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
# fixed-point-free twists
# ---------------------------------------------------------------------------

FPF_SEED = 0xF1E1D
_FPF_BLOCK = 64


@dataclass(frozen=True, eq=False)
class FpfWitness:
    matrix: np.ndarray
    theta: int
    weight: int
    cardinality: int
    attempts: int              # candidates drawn, the witness included
    kind: str                  # classification of the resulting hyperplane


def find_fpf_collineation(sys: ProjectiveSystem,
                          attempts: int = 4096) -> FpfWitness:
    """Find a matrix whose dual twist map has no fixed functional.

    Draws seeded random nonzero matrices (bulk.nonzero_draws, seed
    FPF_SEED) in blocks of 64, takes theta from bulk.theta_descent and
    returns the first class with theta = 0: the one of maximum weight
    q^(n-1) (q^(n+1)-1)/(q-1).  classify verifies it: the functional scan
    of code.theta with its identity check, which must give theta 0 as
    the descent did, the one-or-all line test on small geometries, and
    the spread-type flag count.

    By the descent formula theta(M) = 0 exactly when M is invertible and
    N(M) = M sigma(M) ... sigma^(e-1)(M) has no eigenvalue in the fixed
    field F_s.  By Lang-Shintani N(M) runs through the classes of
    GL_m(s), the companion matrix of an irreducible polynomial of degree
    m >= 2 over F_s among them, so such classes exist for every n >= 1
    and sigma != 1; between a fifth and a third of random matrices
    qualify at every configuration tried.  The identity twist fixes every
    functional (ValueError); SearchBudgetExhausted after `attempts`
    candidates without a witness.
    """
    ctx, spec = sys.ctx, sys.spec
    if spec.j == 0:
        raise ValueError("the identity twist fixes every functional")
    rng = SplitMix64(FPF_SEED)
    drawn = 0
    while drawn < attempts:
        R = bulk.nonzero_draws(ctx, sys.k, min(_FPF_BLOCK, attempts - drawn),
                               rng)
        free = np.flatnonzero(bulk.theta_descent(ctx, spec, R)[0] == 0)
        if len(free):
            i = int(free[0])
            hp = classify(sys, R[i].reshape(sys.m, sys.m))
            assert hp.theta == 0, \
                f"descent theta 0 but the scan gives {hp.theta}"
            assert hp.cardinality == spread_type_cardinality(ctx.q, sys.n)
            return FpfWitness(matrix=hp.matrix, theta=0, weight=hp.weight,
                              cardinality=hp.cardinality,
                              attempts=drawn + i + 1, kind=hp.kind)
        drawn += len(R)
    raise SearchBudgetExhausted(
        f"no fixed-point-free class among {attempts} candidates "
        f"(seed {FPF_SEED})", attempts=attempts, seed=FPF_SEED)
