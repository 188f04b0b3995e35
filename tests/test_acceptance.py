"""Acceptance suite: one test and one verdict line per numbered criterion.

Every check here pins exact integers (no tolerances) and asserts the wall
clock stays inside a fixed per-criterion budget.  Criterion 9 checks an
absence: the spread-type search is structurally empty at q = 4, n = 3
(proved in the README), so the test asserts that the search exhausts with
the subfield fixed-point count and fails if a witness ever turns up.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import twistcode as tc
from twistcode.cli import main as cli_main
from twistcode.code import random_invertible
from twistcode.linalg import invert, matmul, sigma_entrywise
from twistcode.rng import SplitMix64

import naive_ref
from helpers import system


BUDGETS = {1: 1, 2: 5, 3: 120, 4: 120, 5: 300, 6: 1800, 7: 300, 8: 1,
           9: 30, 10: 120, 11: 60, 12: 300}

_MEMO: dict = {}


def _verdict(num: int, label: str, elapsed: float) -> None:
    budget = BUDGETS[num]
    assert elapsed < budget, \
        f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {num:2d} [{label}]: PASS ({elapsed:.2f}s / {budget}s)")


def _params(q: int, n: int) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["params", "--q", str(q), "--j", "1", "--n", str(n)])
    assert code == 0
    return json.loads(buf.getvalue())


def _sweep_421():
    """Flag-checked exhaustive spectrum at (4, 2, 1), shared by 3 and 4."""
    if "tbl" not in _MEMO:
        t0 = time.perf_counter()
        _MEMO["tbl"] = tc.weight_spectrum(system(2, 2, 1, 2), threads=1,
                                          flag_check=True)
        _MEMO["secs"] = time.perf_counter() - t0
    return _MEMO["tbl"], _MEMO["secs"]


def test_criterion_01_parameter_table():
    t0 = time.perf_counter()
    rows = [(4, 2, 105, 9, 56),
            (9, 2, 910, 9, 702),
            (8, 2, 657, 9, 504),
            (4, 3, 1785, 16, 1008)]
    for q, n, N, k, d in rows:
        out = _params(q, n)
        assert out["length"] == N
        assert out["code_dimension"] == k
        assert out["min_distance"] == d
    _verdict(1, "parameter table", time.perf_counter() - t0)


def test_criterion_02_generator_ranks():
    t0 = time.perf_counter()
    assert tc.make_system(2, 2, 1, 2).span_rank == 9
    assert tc.make_system(2, 2, 0, 2).span_rank == 8
    assert tc.make_system(2, 2, 1, 3).span_rank == 16
    _verdict(2, "generator ranks 9/8/16", time.perf_counter() - t0)


def test_criterion_03_intersection_identity_all_classes():
    tbl, secs = _sweep_421()
    assert tbl.mode == "exhaustive"
    assert tbl.classes == 87_381
    # identity_checked means every class passed the independent flag scan
    # against the theta count; weight_spectrum asserts zero violations.
    assert tbl.identity_checked is True
    _verdict(3, "intersection identity, 87381 classes", secs)


def test_criterion_04_minimum_distance_and_max_theta():
    tbl, secs = _sweep_421()
    nonzero = [w for w in tbl.counts if w > 0]
    assert min(nonzero) == 56
    # weight = 4 * (21 - theta), so the lightest word realizes the largest
    # theta; 7 is the rank-3 ceiling (s^2 + s + 1 at s = 2)
    assert 21 - min(nonzero) // 4 == 7
    assert tc.m_bound(3, 4, 2, 2) == 7
    assert tbl.counts[56] == 1080
    _verdict(4, "min weight 56, max theta 7", secs)


def test_criterion_05_minimum_weight_condition():
    t0 = time.perf_counter()
    res = tc.min_weight_sweep(system(2, 2, 1, 2), threads=1)
    assert res["ok"] is True
    assert res["classes"] == 87_381
    assert res["mismatches"] == 0
    assert res["first_mismatch"] is None
    assert res["condition_classes"] == 360
    tbl, _ = _sweep_421()
    assert res["condition_classes"] * 3 == tbl.counts[56]
    _verdict(5, "weight-56 set == condition set", time.perf_counter() - t0)


def test_criterion_06_two_lightest_weights_octal():
    t0 = time.perf_counter()
    ps = system(2, 3, 1, 2)
    rep = tc.second_weight_check(ps, threads=1)
    assert rep.mode == "exhaustive"
    assert rep.classes_checked == 19_173_961
    assert rep.min_weight == 504
    assert rep.second_weight == 512
    assert rep.correspondence_ok is True
    assert rep.min_weight_classes == 4672
    assert rep.second_weight_classes == 657
    assert rep.quasi_singular_classes == 4672
    assert rep.singular_classes == 657
    assert tc.singular_cardinality(8, 2) == 145
    assert tc.quasi_singular_cardinality(8, 2) == 153
    _verdict(6, "weights 504/512 and correspondence", time.perf_counter() - t0)


def test_criterion_07_minimality():
    t0 = time.perf_counter()
    rep = tc.is_minimal(system(2, 2, 1, 2), threads=1)
    assert rep.minimal is True and rep.witness is None
    assert rep.classes_checked == 87_381
    _verdict(7, "minimal code, 87381 hyperplanes", time.perf_counter() - t0)


def test_criterion_08_hyperplane_cardinalities():
    t0 = time.perf_counter()
    ps = system(2, 2, 1, 2)
    E12 = np.zeros((3, 3), dtype=ps.ctx.dtype)
    E12[0, 1] = 1
    E11 = np.zeros((3, 3), dtype=ps.ctx.dtype)
    E11[0, 0] = 1
    h12 = tc.classify(ps, E12)
    assert h12.kind == "singular" and h12.cardinality == 41
    h11 = tc.classify(ps, E11)
    assert h11.kind == "quasi_singular" and h11.cardinality == 45
    _verdict(8, "cardinalities 41/45", time.perf_counter() - t0)


def test_criterion_09_spread_type_witness():
    # No spread-type hyperplane exists at q = 4, n = 3: by Hilbert 90 every
    # M with sigma(M) M a nonzero scalar is c * B^(-1) sigma(B), so the
    # twisted map [x] -> [M sigma(x)] is conjugate to entrywise sigma and
    # fixes the (s^(n+1) - 1)/(s - 1) = 15 points of PG(3, 2).  The search
    # must exhaust with that count every time; a witness would contradict
    # the theorem, and pytest.raises fails the test if one is returned.
    t0 = time.perf_counter()
    ps = system(2, 2, 1, 3)
    ctx, spec = ps.ctx, ps.spec
    q, n, s = ctx.q, ps.n, spec.s
    with pytest.raises(tc.SearchBudgetExhausted) as info:
        tc.find_spread(ps, attempts=3000, seed=0)
    exc = info.value
    subfield_points = (s ** (n + 1) - 1) // (s - 1)
    assert subfield_points == 15
    assert exc.attempts == 3000
    assert exc.seed == 0
    assert exc.histogram == {subfield_points: 3000}

    # the first candidates of that search, re-drawn from the same seed and
    # counted by the brute-force reference, which shares no code with
    # phi_fixed_points or theta
    spread_card = tc.spread_type_cardinality(q, n)
    assert spread_card == 425
    nf = naive_ref.make_naive(q)
    rng = SplitMix64(0)
    for _ in range(5):
        B = random_invertible(ctx, ps.m, rng)
        M = matmul(ctx, invert(ctx, B), sigma_entrywise(ctx, spec, B))
        assert tc.norm_proportional(ctx, spec, M)
        assert naive_ref.naive_theta(nf, spec.j, M.tolist()) == 15
        h = tc.classify(ps, M)
        assert h.kind == "plain"
        assert h.theta == 15
        assert h.weight == 1120
        # the base count plus q^(n-1) flags per fixed functional class
        assert h.cardinality == 665 == spread_card + 15 * q ** (n - 1)
        assert h.cardinality != spread_card
    _verdict(9, "no spread-type witness, theta 15 on all 3000",
             time.perf_counter() - t0)


def test_criterion_10_fixed_point_free_construction():
    t0 = time.perf_counter()
    ps = system(3, 2, 1, 3)
    assert ps.N == 74_620
    w = tc.find_fpf_collineation(ps)
    assert w.theta == 0
    assert w.weight == 66_420
    assert w.cardinality == ps.N - w.weight == 8200
    _verdict(10, "fixed-point-free theta 0, weight 66420",
             time.perf_counter() - t0)


def test_criterion_11_monomial_action():
    t0 = time.perf_counter()
    ps = system(2, 2, 1, 2)
    rep = tc.automorphism_check(ps, trials=10_000, seed=0,
                                nonkernel_probes=1000)
    assert rep.trials == 10_000
    assert rep.weight_failures == 0
    assert rep.permutation_failures == 0
    assert rep.kernel_ok is True
    # scalars alpha I act trivially only for alpha in the fixed subfield;
    # GF(2) has a single invertible scalar, and it is checked
    assert rep.kernel_elements_checked == ps.spec.s - 1 == 1
    assert rep.nonkernel_trials == 1000
    assert rep.nonkernel_all_moved is True
    _verdict(11, "monomial action, 10^4 pairs", time.perf_counter() - t0)


def test_criterion_12_solution_bounds():
    t0 = time.perf_counter()
    for cfg in ((2, 2, 1, 2), (3, 2, 1, 2)):
        ps = system(*cfg)
        s = ps.spec.s
        rng = SplitMix64(12)
        for _ in range(100):
            M = random_invertible(ps.ctx, 3, rng)
            lb = tc.line_solution_bound(ps, M)
            assert lb["ok"] is True
            assert lb["bound"] == s + 1
            assert lb["max_on_a_line"] <= s + 1
            sb = tc.subspace_solution_bound(ps, M, samples=100, seed=7)
            assert sb["ok"] is True
            assert sb["violations"] == 0
    status = []
    ps4 = system(2, 2, 1, 2)
    for r, bound in ((1, 6), (2, 4), (3, 7)):
        rep = tc.max_theta_by_rank(ps4, r)
        assert rep.bound == bound
        assert rep.max_theta <= bound
        status.append(f"r={r}: max theta {rep.max_theta}"
                      f"{'=' if rep.attains_bound else '<'}{rep.bound}")
        assert rep.attains_bound is True
    print("rank bound equality status:", "; ".join(status))
    _verdict(12, "line/subspace/rank bounds", time.perf_counter() - t0)
