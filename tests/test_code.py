"""Theta, weights, spectra, minimality and the solution-set bounds."""

import numpy as np
import pytest

from twistcode import (act, automorphism_check, closed_form_min_distance,
                       eval_codeword, is_minimal, line_solution_bound,
                       m_bound, max_theta_by_rank, min_distance,
                       min_weight_condition_n2, min_weight_sweep,
                       second_weight_check, subspace_solution_bound, theta,
                       weight_spectrum)
from twistcode.code import random_invertible, random_nonzero_matrix
from twistcode.linalg import (invert, mat_add, matmul, scalar_mul,
                              sigma_entrywise)
from twistcode.rng import SplitMix64

import naive_ref
from helpers import golden, prime_power, system


def _system_for(cfg):
    p, t = prime_power(cfg["q"])
    return system(p, t, cfg["j"], cfg["n"])


def test_theta_matches_golden_samples():
    samples = golden("theta_samples")
    for name, cfg in samples.items():
        ps = _system_for(cfg)
        for item in cfg["items"]:
            rep = theta(ps, item["matrix"])
            assert rep.theta == item["theta"], (name, item["index"])
            assert rep.theta == rep.kernel_classes + rep.proportional_classes
            assert rep.identity_checked


def test_theta_matches_naive_on_random_matrices():
    ps = system(2, 3, 1, 1)
    nf = naive_ref.make_naive(8)
    rng = SplitMix64(29)
    for _ in range(30):
        M = random_nonzero_matrix(ps.ctx, 2, rng)
        assert theta(ps, M).theta == naive_ref.naive_theta(nf, 1, M.tolist())


def test_theta_rejects_zero_but_codeword_accepts_it():
    ps = system(2, 2, 1, 2)
    Z = np.zeros((3, 3), dtype=ps.ctx.dtype)
    with pytest.raises(ValueError):
        theta(ps, Z)
    cw = eval_codeword(ps, Z)
    assert not cw.values.any() and cw.weight == 0


def test_codewords_are_linear_and_faithful():
    ps = system(2, 2, 1, 2)
    ctx = ps.ctx
    rng = SplitMix64(31)
    for _ in range(25):
        A = random_nonzero_matrix(ctx, 3, rng)
        B = random_nonzero_matrix(ctx, 3, rng)
        a, b = 1 + rng.below(3), 1 + rng.below(3)
        L = mat_add(ctx, scalar_mul(ctx, a, A), scalar_mul(ctx, b, B))
        lhs = eval_codeword(ps, L).values
        rhs = ctx.add_np(ctx.mul_np(np.full(ps.N, a, ctx.dtype),
                                    eval_codeword(ps, A).values),
                         ctx.mul_np(np.full(ps.N, b, ctx.dtype),
                                    eval_codeword(ps, B).values))
        assert np.array_equal(lhs, rhs)
        if L.any():
            assert eval_codeword(ps, L).values.any()   # injective on classes


def test_m_bounds():
    assert [m_bound(r, 4, 2, 2) for r in (1, 2, 3)] == [6, 4, 7]
    assert m_bound(1, 8, 2, 2) == 10
    assert m_bound(1, 9, 2, 3) == 11
    assert m_bound(2, 8, 2, 2) == 4


def test_closed_form_min_distance():
    assert closed_form_min_distance(system(2, 2, 1, 2)) == 56      # q^3 - s^3
    assert closed_form_min_distance(system(3, 2, 1, 2)) == 702
    assert closed_form_min_distance(system(2, 3, 1, 2)) == 504     # q^3 - q
    assert closed_form_min_distance(system(2, 2, 1, 3)) == 1008
    with pytest.raises(ValueError):
        closed_form_min_distance(system(2, 2, 0, 2))               # sigma = 1
    with pytest.raises(ValueError):
        closed_form_min_distance(system(2, 3, 1, 1))               # n = 1


def test_spectrum_matches_goldens():
    for name in ["spectrum_4_1_1", "spectrum_8_1_1", "spectrum_4_2_1"]:
        cfg = golden(name)
        ps = _system_for(cfg)
        table = weight_spectrum(ps)
        want = {int(w): c for w, c in cfg["counts"].items()}
        assert table.counts == want
        assert table.mode == "exhaustive"
        assert sum(table.counts.values()) == ps.ctx.q ** ps.k
        assert table.counts[0] == 1


def test_spectrum_sampling_is_reproducible():
    ps = system(2, 2, 1, 2)
    full = weight_spectrum(ps)
    s1 = weight_spectrum(ps, sample=150, seed=9)
    s2 = weight_spectrum(ps, sample=150, seed=9)
    assert s1.counts == s2.counts
    assert s1.mode == "sampled"
    assert set(s1.counts) <= set(w for w in full.counts if w)
    assert sum(s1.counts.values()) == 150    # one entry per sampled class


def test_min_distance_exhaustive_agrees():
    assert min_distance(system(2, 2, 1, 2), exhaustive=True) == 56


def test_max_theta_by_rank_small():
    ps = system(2, 2, 1, 2)
    for r, want in [(1, 6), (2, 4), (3, 7)]:
        rep = max_theta_by_rank(ps, r)
        assert rep.max_theta == want == rep.bound
        assert rep.attains_bound
        wit = theta(ps, rep.witness)
        assert wit.theta == want
    with pytest.raises(ValueError):
        max_theta_by_rank(ps, 4)


def test_max_theta_by_rank_generic_route():
    # 2 x 2 matrices take the same sweep as n = 2; q = 64 has 266,305
    # classes, more than the per-class rank loop this sweep replaced allowed
    for q in (8, 64):
        ps = system(*prime_power(q), 1, 1)
        rep1 = max_theta_by_rank(ps, 1)
        rep2 = max_theta_by_rank(ps, 2)
        assert rep1.bound == 2 and rep2.bound == 3
        assert rep1.attains_bound and rep2.attains_bound
        assert theta(ps, rep2.witness).theta == 3


def test_minimality_against_brute_force():
    ps = system(2, 2, 1, 1)        # 85 classes, 9 coordinates
    rep = is_minimal(ps)
    words = []
    total = (4 ** 4 - 1) // 3
    from twistcode.projgeom import class_reps_range
    for flat in class_reps_range(4, 4, 0, total):
        M = np.array(flat, dtype=ps.ctx.dtype).reshape(2, 2)
        words.append(frozenset(
            np.flatnonzero(eval_codeword(ps, M).values).tolist()))
    covered = any(a <= b or b <= a
                  for i, a in enumerate(words) for b in words[:i])
    assert rep.minimal == (not covered)
    assert rep.classes_checked == total
    if not rep.minimal:
        assert rep.witness is not None and rep.covering is not None
        wsupp = frozenset(
            np.flatnonzero(eval_codeword(ps, rep.witness).values).tolist())
        csupp = frozenset(
            np.flatnonzero(eval_codeword(ps, rep.covering).values).tolist())
        assert csupp <= wsupp
        # the cover is a genuinely different projective class
        from twistcode.linalg import normalize_rep
        wrep, _ = normalize_rep(ps.ctx, rep.witness)
        crep, _ = normalize_rep(ps.ctx, rep.covering)
        assert not np.array_equal(wrep, crep)


def test_minimality_small_plane():
    rep = is_minimal(system(2, 2, 1, 2))
    assert rep.minimal and rep.witness is None


def test_min_weight_condition_and_sweep():
    ps = system(2, 2, 1, 2)
    res = min_weight_sweep(ps)
    assert res["ok"] and res["mismatches"] == 0
    assert res["classes"] == 87381             # every projective class swept
    assert res["condition_classes"] == 360     # the weight-56 classes
    # the characterization agrees with the actual weight pointwise
    rng = SplitMix64(41)
    seen_min = False
    for _ in range(40):
        M = random_nonzero_matrix(ps.ctx, 3, rng)
        rep = theta(ps, M)
        assert min_weight_condition_n2(ps, M) == (rep.weight == 56)
        seen_min |= rep.weight == 56
    with pytest.raises(ValueError):
        min_weight_condition_n2(system(2, 3, 1, 1), np.eye(2))


@pytest.mark.parametrize("cfg", [(3, 2, 1, 2), (2, 4, 2, 2), (5, 2, 1, 2)],
                         ids=["q9", "q16j2", "q25"])
def test_min_weight_condition_beyond_s2(cfg):
    # s = 3, 4 and 5: seeded matrices, every other one c B^-1 sigma(B),
    # whose N(M) = N(c) I gives theta = m(3), the rest plain draws.  The
    # oracle is naive_theta where naive_ref has the field, else code.theta
    # with its flag identity check
    ps = system(*cfg)
    ctx, q = ps.ctx, ps.ctx.q
    target = m_bound(3, q, 2, ps.spec.s)
    nf = naive_ref.make_naive(q) if q in naive_ref.MODULI else None
    rng = SplitMix64(sum(cfg))
    marked = 0
    for i in range(16):
        if i % 2:
            B = random_invertible(ctx, 3, rng)
            M = scalar_mul(ctx, 1 + rng.below(q - 1), matmul(
                ctx, invert(ctx, B), sigma_entrywise(ctx, ps.spec, B)))
        else:
            M = random_nonzero_matrix(ctx, 3, rng)
        th = (naive_ref.naive_theta(nf, ps.spec.j, M.tolist()) if nf
              else theta(ps, M).theta)
        assert min_weight_condition_n2(ps, M) == (th == target), M.tolist()
        marked += th == target
    assert marked >= 8


def test_second_weight_guard_on_the_small_plane():
    # at q=4, n=2 the m(r) bounds do not separate the two lightest weights
    with pytest.raises(ValueError):
        second_weight_check(system(2, 2, 1, 2))


def test_second_weight_check_is_limited_by_the_class_cap():
    # the sweep takes any m; at (4, 3) the 4^16 classes are what stop it
    with pytest.raises(ValueError, match="exhaustive cap"):
        second_weight_check(system(2, 2, 1, 3))


def test_act_is_a_weight_preserving_monomial_action():
    ps = system(2, 2, 1, 2)
    ctx, spec = ps.ctx, ps.spec
    rng = SplitMix64(43)
    for _ in range(20):
        g = random_invertible(ctx, 3, rng)
        M = random_nonzero_matrix(ctx, 3, rng)
        Y = act(ctx, spec, g, M)
        assert theta(ps, Y).weight == theta(ps, M).weight
    rep = automorphism_check(ps, trials=40, seed=7, nonkernel_probes=25)
    assert rep.weight_failures == 0 and rep.permutation_failures == 0
    assert rep.kernel_ok and rep.nonkernel_all_moved
    assert rep.kernel_elements_checked == spec.s - 1


@pytest.mark.parametrize("cfg", [(2, 2, 1, 2), (2, 3, 1, 2), (3, 2, 1, 2),
                                 (2, 2, 1, 3), (2, 2, 0, 2)])
def test_conj_permutation_is_the_two_sided_product(cfg):
    # the permutation comes from point and functional images; the full
    # conjugation sigma(g) X_i g^(-1) of every flag matrix is the oracle
    from twistcode.code import _conj_permutation
    from twistcode.linalg import invert, matmul, sigma_entrywise
    ps = system(*cfg)
    ctx = ps.ctx
    rng = SplitMix64(sum(cfg))
    for _ in range(3):
        g = random_invertible(ctx, ps.m, rng)
        imgs = matmul(ctx, matmul(ctx, sigma_entrywise(ctx, ps.spec, g),
                                  ps.mats), invert(ctx, g))
        perm, lam = _conj_permutation(ps, g, invert(ctx, g))
        assert sorted(perm.tolist()) == list(range(ps.N))
        assert np.array_equal(imgs, ctx.mul_np(lam[:, None, None],
                                               ps.mats[perm]))


def test_line_bound_attained_by_the_identity():
    ps = system(2, 2, 1, 2)
    res = line_solution_bound(ps, np.eye(3, dtype=ps.ctx.dtype))
    assert res["solutions"] == 7 and res["max_on_a_line"] == 3
    assert res["bound"] == 3 and res["ok"]
    ps9 = system(3, 2, 1, 2)
    res9 = line_solution_bound(ps9, np.eye(3, dtype=ps9.ctx.dtype))
    assert res9["solutions"] == 13 and res9["max_on_a_line"] == 4
    assert res9["bound"] == 4 and res9["ok"]
    with pytest.raises(ValueError):
        line_solution_bound(ps, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_line_bound_matches_a_line_scan():
    # the batched count against a walk over enumerate_lines, keeping the
    # first line with the strict maximum; a fixed-point-free M has no
    # solutions at all, so no line is named
    from twistcode import find_fpf_collineation
    from twistcode.code import _solution_mask
    from twistcode.projgeom import enumerate_lines
    rng = SplitMix64(5)
    cases = []
    for cfg in ((2, 2, 1, 2), (3, 2, 1, 2)):
        ps = system(*cfg)
        cases += [(ps, np.eye(3, dtype=ps.ctx.dtype))]
        cases += [(ps, random_invertible(ps.ctx, 3, rng)) for _ in range(5)]
    ps1 = system(3, 2, 1, 1)
    cases.append((ps1, find_fpf_collineation(ps1).matrix))
    for ps, M in cases:
        sols = set(np.flatnonzero(_solution_mask(ps, M)).tolist())
        worst, worst_line = 0, None
        for li, line in enumerate(enumerate_lines(ps.ctx, ps.m)):
            hits = sum(i in sols for i in line)
            if hits > worst:
                worst, worst_line = hits, li
        res = line_solution_bound(ps, M)
        assert (res["solutions"], res["max_on_a_line"], res["line_index"]) \
            == (len(sols), worst, worst_line)
    assert res["line_index"] is None


def test_subspace_bound_holds():
    ps = system(2, 2, 1, 2)
    res = subspace_solution_bound(ps, np.eye(3, dtype=ps.ctx.dtype),
                                  samples=60, seed=3)
    assert res["ok"] and res["violations"] == 0
    assert 0 < res["worst_fill_ratio"] <= 1.0
