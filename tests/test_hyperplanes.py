"""Hyperplane classification, cardinalities and the two searches."""

import math
from fractions import Fraction

import numpy as np
import pytest

from twistcode import (SearchBudgetExhausted, base_cardinality, classify,
                       find_fpf_collineation, find_spread, norm_proportional,
                       phi_fixed_points, quasi_singular_cardinality,
                       singular_cardinality, spread_type_cardinality, theta)
from twistcode.code import (random_invertible, random_nonzero_matrix,
                            weight_spectrum)
from twistcode.hyperplanes import FPF_SEED
from twistcode.linalg import pure_tensor
from twistcode.projgeom import class_reps_range, num_classes
from twistcode.rng import SplitMix64

import naive_ref
from helpers import system


def test_cardinality_formulas():
    assert base_cardinality(4, 2) == 21
    assert singular_cardinality(4, 2) == 41
    assert quasi_singular_cardinality(4, 2) == 45
    assert spread_type_cardinality(4, 2) == 21
    assert base_cardinality(9, 3) == 8200


def test_classify_named_examples():
    ps = system(2, 2, 1, 2)
    E12 = np.zeros((3, 3), dtype=ps.ctx.dtype); E12[0, 1] = 1
    E11 = np.zeros((3, 3), dtype=ps.ctx.dtype); E11[0, 0] = 1
    h12 = classify(ps, E12)
    assert (h12.kind, h12.cardinality, h12.pairing) == ("singular", 41, 0)
    assert h12.is_hyperplane
    # the defining pair of a singular class is an incident flag
    ps.gamma.flag_index(h12.defining_point, h12.defining_functional)
    h11 = classify(ps, E11)
    assert (h11.kind, h11.cardinality) == ("quasi_singular", 45)
    assert h11.pairing != 0 and h11.is_hyperplane
    with pytest.raises(KeyError):
        ps.gamma.flag_index(h11.defining_point, h11.defining_functional)


def test_classify_all_rank_one_classes_small():
    ps = system(2, 2, 1, 2)
    ctx = ps.ctx
    counts = {"singular": 0, "quasi_singular": 0}
    P = num_classes(4, 3)
    reps = list(class_reps_range(4, 3, 0, P))
    for u in reps:
        for zeta in reps:
            M = pure_tensor(ctx, np.array(u, dtype=ctx.dtype),
                            np.array(zeta, dtype=ctx.dtype))
            rep = classify(ps, M, check_hyperplane=False)
            counts[rep.kind] += 1
            assert rep.rank == 1
            assert rep.cardinality + rep.weight == ps.N
    assert counts == {"singular": 105, "quasi_singular": 336}


def test_classify_all_rank_one_classes_octal():
    # sigma of order 3 here, so the twisted pairing really matters
    ps = system(2, 3, 1, 2)
    ctx = ps.ctx
    counts = {"singular": 0, "quasi_singular": 0}
    P = num_classes(8, 3)
    reps = list(class_reps_range(8, 3, 0, P))
    for u in reps:
        for zeta in reps:
            M = pure_tensor(ctx, np.array(u, dtype=ctx.dtype),
                            np.array(zeta, dtype=ctx.dtype))
            rep = classify(ps, M, check_hyperplane=False)
            counts[rep.kind] += 1
    assert counts == {"singular": 657, "quasi_singular": 4672}


def test_plain_and_theta_zero_classes():
    ps = system(2, 2, 1, 2)
    ident = np.eye(3, dtype=ps.ctx.dtype)
    h = classify(ps, ident)
    assert h.kind == "plain" and h.theta == 7 and h.pairing is None
    # a theta = 0 class stays plain at even n despite the matching count
    rng = SplitMix64(7)
    while True:
        M = random_invertible(ps.ctx, 3, rng)
        if theta(ps, M, check_identity=False).theta == 0:
            break
    h0 = classify(ps, M)
    assert h0.kind == "plain"
    assert h0.cardinality == spread_type_cardinality(4, 2)


def test_cardinality_weight_split_is_universal():
    for cfg in [(2, 2, 1, 2), (3, 2, 1, 2)]:
        ps = system(*cfg)
        rng = SplitMix64(13)
        for _ in range(15):
            M = random_nonzero_matrix(ps.ctx, 3, rng)
            rep = classify(ps, M, check_hyperplane=False)
            assert rep.cardinality + rep.weight == ps.N
            assert rep.is_hyperplane is None


def test_point_functional_duality_under_involution():
    # for sigma of order 2, the point map of M^T fixes exactly the
    # lambda != 0 part of theta(M); kernels explain the difference
    ps = system(2, 2, 1, 2)
    rng = SplitMix64(99)
    for _ in range(60):
        M = random_nonzero_matrix(ps.ctx, 3, rng)
        rep = theta(ps, M, check_identity=False)
        assert phi_fixed_points(ps, M.T) == rep.proportional_classes


@pytest.mark.parametrize("cfg", [(2, 3, 1, 2), (2, 4, 1, 2)])
def test_point_fixed_count_matches_reference_beyond_involutions(cfg):
    # sigma of order 3 and 4: y = sigma(x) turns M sigma(x) = lambda x into
    # y M^T = lambda sigma^(-1)(y), so the point count of M is the
    # brute-force functional count of M^T under sigma^(-1); invertible M
    # has no kernel on either side
    ps = system(*cfg)
    ctx, t, j = ps.ctx, ps.ctx.t, ps.spec.j
    nf = naive_ref.make_naive(ctx.q)
    rng = SplitMix64(31)
    for _ in range(6):
        M = random_invertible(ctx, ps.m, rng)
        assert phi_fixed_points(ps, M) == \
            naive_ref.naive_theta(nf, (t - j) % t, M.T.tolist())


def test_norm_proportional_examples():
    ps = system(2, 2, 1, 2)
    assert norm_proportional(ps.ctx, ps.spec, np.eye(3, dtype=ps.ctx.dtype))
    E11 = np.zeros((3, 3), dtype=ps.ctx.dtype); E11[0, 0] = 1
    assert not norm_proportional(ps.ctx, ps.spec, E11)
    # scaling never changes the answer
    two = np.eye(3, dtype=ps.ctx.dtype) * 2
    assert norm_proportional(ps.ctx, ps.spec, two)


def test_classify_rejects_zero():
    ps = system(2, 2, 1, 2)
    with pytest.raises(ValueError):
        classify(ps, np.zeros((3, 3), dtype=ps.ctx.dtype))


def test_find_spread_preconditions():
    with pytest.raises(ValueError):
        find_spread(system(2, 2, 1, 2))        # n even
    with pytest.raises(ValueError):
        find_spread(system(2, 3, 1, 1))        # sigma of order 3
    with pytest.raises(ValueError):
        find_spread(system(2, 2, 0, 1))        # identity twist


def test_find_spread_exhausts_with_constant_histogram():
    # every norm-one candidate fixes the full subfield subgeometry
    ps = system(2, 2, 1, 1)
    with pytest.raises(SearchBudgetExhausted) as info:
        find_spread(ps, attempts=80, seed=4)
    err = info.value
    assert err.attempts == 80 and err.seed == 4
    assert err.histogram == {3: 80}            # (s^2-1)/(s-1) every time
    assert "80" in str(err)


def _gl2_order(r):
    return (r * r - 1) * (r * r - r)


@pytest.mark.parametrize("cfg, count", [((2, 2, 1), 30), ((3, 2, 1), 240),
                                        ((2, 4, 2), 1020)])
def test_norm_proportional_lines_fix_the_subfield_line(cfg, count):
    # Exhaustive over every 2x2 matrix at n = 1: the ones with sigma(M) M
    # a nonzero scalar are c * B^(-1) sigma(B) (Hilbert 90), so their point
    # map fixes the s + 1 points of PG(1, s) and none is spread type.
    ps = system(*cfg, 1)
    ctx, spec = ps.ctx, ps.spec
    q, s = ctx.q, spec.s
    a, b, c, d = np.indices((q,) * 4, dtype=ctx.dtype).reshape(4, -1)
    sa, sb, sc, sd = (spec.table[x] for x in (a, b, c, d))
    mul, add = ctx.mul_table, ctx.add_table
    p00 = add[mul[sa, a], mul[sb, c]]
    p01 = add[mul[sa, b], mul[sb, d]]
    p10 = add[mul[sc, a], mul[sd, c]]
    p11 = add[mul[sc, b], mul[sd, d]]
    keep = (p01 == 0) & (p10 == 0) & (p00 == p11) & (p00 != 0)
    cands = np.stack([a, b, c, d], axis=1)[keep].reshape(-1, 2, 2)
    # (q-1) |GL_2(q)| / (|GL_2(s)| (s+1)): each norm-one matrix has s + 1
    # scalar multiples that are again norm one
    assert len(cands) == count == \
        (q - 1) * _gl2_order(q) // (_gl2_order(s) * (s + 1))
    for M in cands:
        assert norm_proportional(ctx, spec, M)
        assert phi_fixed_points(ps, M) == s + 1
        h = classify(ps, M)
        assert h.kind == "plain"
        assert h.theta == s + 1


def _fpf_witness(ps):
    """find_fpf_collineation's witness, checked against the brute force."""
    w = find_fpf_collineation(ps)
    q, n = ps.ctx.q, ps.n
    nf = naive_ref.make_naive(q)
    assert naive_ref.naive_theta(nf, ps.spec.j, w.matrix.tolist()) == 0
    assert w.theta == theta(ps, w.matrix).theta == 0
    assert w.weight == q ** (n - 1) * (q ** (n + 1) - 1) // (q - 1)
    assert w.cardinality == ps.N - w.weight == spread_type_cardinality(q, n)
    assert w.kind == "plain"
    return w


def test_find_fpf_small_success():
    ps = system(3, 2, 1, 1)
    w = _fpf_witness(ps)
    assert w.weight == ps.N == 10              # every coordinate nonzero
    assert w.cardinality == base_cardinality(9, 1) == 0
    # the witness is the first theta = 0 matrix of the one-at-a-time draws
    rng = SplitMix64(FPF_SEED)
    for drawn in range(1, w.attempts + 1):
        M = random_nonzero_matrix(ps.ctx, ps.m, rng)
        assert (theta(ps, M).theta == 0) == (drawn == w.attempts)
    assert np.array_equal(M, w.matrix)


def test_find_fpf_budget():
    ps = system(3, 2, 1, 1)
    w = find_fpf_collineation(ps)
    assert w.attempts > 1
    with pytest.raises(SearchBudgetExhausted) as exc:
        find_fpf_collineation(ps, attempts=w.attempts - 1)
    assert exc.value.attempts == w.attempts - 1
    assert exc.value.seed == FPF_SEED


def test_find_fpf_larger_success():
    # q = 16, sigma = x^4: gcd((16^2-1)/15, 2^2-1) = gcd(17, 3) = 1, and a
    # fixed-point-free twist exists all the same
    _fpf_witness(system(2, 4, 2, 1))


def test_find_fpf_gate():
    # configurations with gcd((q^(n+1)-1)/(q-1), p^j-1) = 1 have witnesses
    for cfg in [(2, 2, 1, 3), (2, 2, 1, 2), (3, 2, 1, 2)]:
        _fpf_witness(system(*cfg))
    with pytest.raises(ValueError):
        find_fpf_collineation(system(2, 2, 0, 1))   # identity twist


def _gl_order(q, m):
    return math.prod(q ** m - q ** i for i in range(m))


@pytest.mark.parametrize("cfg", [
    (2, 2, 1, 2), (2, 2, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1), (5, 2, 1, 1),
    (3, 3, 1, 1), (2, 4, 1, 1), (2, 4, 2, 1)],
    ids=["q4n2", "q4n1", "q8n1", "q9n1", "q25n1", "q27n1", "q16n1j1",
         "q16n1j2"])
def test_maximum_weight_multiplicity(cfg):
    # theta = 0 is the maximum weight; by Lang-Shintani its words number
    # |GL_m(q)| D_m(s) / |GL_m(s)|, D_m(s) the matrices of GL_m(s) with no
    # eigenvalue in F_s
    ps = system(*cfg)
    q, n, m, s = ps.ctx.q, ps.n, ps.m, ps.spec.s
    share = {2: Fraction(s, 2 * (s + 1)),
             3: Fraction(s ** 3 - s, 3 * (s ** 3 - 1))}[m]
    counts = weight_spectrum(ps, flag_check=False).counts
    wmax = q ** (n - 1) * (q ** (n + 1) - 1) // (q - 1)
    assert max(counts) == wmax
    assert counts[wmax] == _gl_order(q, m) * share
    if (q, n) == (4, 2):
        assert counts[wmax] == 51_840
    if (q, n) == (27, 1):
        assert counts[wmax] == 191_646
