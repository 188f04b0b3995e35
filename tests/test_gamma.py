"""The flag geometry: counts, ordering, line families, hyperplane test."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from twistcode import build_gamma, eval_codeword, flag_count, make_field
from twistcode.gamma import Gamma
from twistcode.projgeom import line_array

import naive_ref
from helpers import LINE_FLAGS_SHA256, prime_power, system


def test_flag_counts():
    assert flag_count(4, 2) == 105
    assert flag_count(8, 2) == 657
    assert flag_count(9, 2) == 910
    assert flag_count(4, 3) == 1785
    assert flag_count(9, 3) == 74620


def test_flag_order_is_functional_major_and_matches_naive():
    for q, n in [(4, 2), (8, 1), (9, 1)]:
        ctx = make_field(*prime_power(q))
        g = build_gamma(ctx, n)
        nf = naive_ref.make_naive(q)
        want = naive_ref.naive_flags(nf, n)
        assert len(g.flags) == len(want)
        for fl, (x, xi) in zip(g.flags, want):
            assert tuple(fl.point.rep) == x
            assert tuple(fl.functional.rep) == xi
        # grouped by functional, points ascending inside each group
        fi = g.func_idx
        assert (np.diff(fi) >= 0).all()
        for h in range(len(g.functionals)):
            pts = g.point_idx[fi == h]
            assert (np.diff(pts) > 0).all()


def test_flag_indices_match_a_dict_of_the_flags():
    for q, n in [(4, 2), (8, 1)]:
        g = build_gamma(make_field(*prime_power(q)), n)
        want = {(fl.point.index, fl.functional.index): fl.index
                for fl in g.flags}
        P, F = len(g.points), len(g.functionals)
        got = g.flag_indices(np.arange(P)[:, None], np.arange(F)[None, :])
        assert got.tolist() == [[want.get((p, f), -1) for f in range(F)]
                                for p in range(P)]
        for (p, f), i in list(want.items())[::7]:
            assert g.flag_index(p, f) == i
        # the out-of-range point P has the key of the flag (0, 1)
        assert (0, 1) in want and g.flag_indices(P, 0) == -1
        bad = next((p, f) for p in range(P) for f in range(F)
                   if (p, f) not in want)
        with pytest.raises(KeyError):
            g.flag_index(*bad)


def test_a_fresh_gamma_builds_no_flag_objects():
    # the Flag list is built on first access only, and neither the line
    # arrays nor the hyperplane test ask for it
    g = Gamma(make_field(3, 2), 3)
    assert "flags" not in g.__dict__
    assert not g.is_geometric_hyperplane(range(10))[0]
    assert "flags" not in g.__dict__


def test_every_flag_is_incident():
    ctx = make_field(2, 2)
    g = build_gamma(ctx, 2)
    for fl in g.flags:
        acc = 0
        for a, b in zip(fl.functional.rep, fl.point.rep):
            acc = ctx.add(acc, ctx.mul(a, b))
        assert acc == 0


def test_line_families():
    for q, n in [(3, 1), (4, 1), (4, 2), (9, 2), (3, 3), (4, 3)]:
        ctx = make_field(*prime_power(q))
        g = build_gamma(ctx, n)
        lines = g.lines()
        pencils = [ln for ln in lines if ln.family == "point-pencil"]
        duals = [ln for ln in lines if ln.family == "hyperplane-pencil"]
        # (#lines of PG(n, q)) * (#hyperplanes through a line)
        pg_lines = ((q ** (n + 1) - 1) * (q ** n - 1)
                    // ((q ** 2 - 1) * (q - 1)))
        per_family = pg_lines * (q ** (n - 1) - 1) // (q - 1)
        assert len(pencils) == len(duals) == per_family
        # hyperplane pencil i is the flag transpose (x, xi) -> (xi, x) of
        # point pencil i, member by member
        pairs = [(fl.point.index, fl.functional.index) for fl in g.flags]
        for pen, dual in zip(pencils, duals):
            assert [pairs[i][::-1] for i in pen.flags] == \
                [pairs[i] for i in dual.flags]
        for ln in lines:
            assert len(ln.flags) == q + 1
            members = [g.flags[i] for i in ln.flags]
            if ln.family == "point-pencil":
                shared = {fl.functional.index for fl in members}
                varying = {fl.point.index for fl in members}
            else:
                shared = {fl.point.index for fl in members}
                varying = {fl.functional.index for fl in members}
            assert len(shared) == 1 and len(varying) == q + 1


def test_hyperplane_one_or_all():
    ps = system(2, 2, 1, 2)
    g = ps.gamma
    E12 = np.zeros((3, 3), dtype=ps.ctx.dtype)
    E12[0, 1] = 1
    cw = eval_codeword(ps, E12)
    inside = set(np.flatnonzero(cw.values == 0).tolist())
    ok, offender = g.is_geometric_hyperplane(inside)
    assert ok and offender is None
    # removing one flag breaks the one-or-all property
    broken = inside - {min(inside)}
    ok, offender = g.is_geometric_hyperplane(broken)
    assert not ok and offender is not None
    # a fiber over one functional is not a hyperplane either
    fiber = set(np.flatnonzero(g.func_idx == 0).tolist())
    assert not g.is_geometric_hyperplane(fiber)[0]


@pytest.mark.parametrize("n", [2, 3])
def test_first_offender_matches_a_line_scan(n):
    # the batched one-or-all test against a walk over g.lines()
    ps = system(2, 2, 1, n)
    g = ps.gamma
    E12 = np.zeros((n + 1, n + 1), dtype=ps.ctx.dtype)
    E12[0, 1] = 1
    inside = set(np.flatnonzero(eval_codeword(ps, E12).values == 0).tolist())
    broken = inside - {min(inside)}
    fiber = set(np.flatnonzero(g.func_idx == 0).tolist())
    for flagset in (broken, fiber):
        scan = next(ln for ln in g.lines()
                    if len(flagset.intersection(ln.flags))
                    not in (1, ps.ctx.q + 1))
        assert g.is_geometric_hyperplane(flagset) == (False, scan)


def _walk(g, flagset):
    """The one-or-all test as a walk over g.lines(), in their order."""
    inside = set(flagset)
    for ln in g.lines():
        if len(inside.intersection(ln.flags)) not in (1, g.ctx.q + 1):
            return False, ln
    return True, None


@pytest.mark.parametrize("q,n", [(3, 1), (2, 2), (4, 2), (3, 3), (4, 3)])
def test_one_or_all_matches_a_walk_over_the_lines(q, n):
    p, t = prime_power(q)
    ps = system(p, t, min(t - 1, 1), n)
    g, m = ps.gamma, n + 1
    mats = []
    for i, j in [(0, 0), (0, 1)]:
        E = np.zeros((m, m), dtype=ps.ctx.dtype)
        E[i, j] = 1
        mats.append(E)
    R = np.random.default_rng(100 * q + n).integers(0, q, (m, m))
    R[0, 0] = 1
    mats.append(R.astype(ps.ctx.dtype))
    zero_sets = [np.flatnonzero(eval_codeword(ps, M).values == 0)
                 for M in mats]
    # the flags whose point lies on hyperplane 0 meet every point pencil in
    # 1 or q + 1 flags, and a hyperplane pencil through a point off it in 0
    on_h0 = np.isin(g.point_idx, g.point_idx[g.func_idx == 0])
    failing = [z[1:] for z in zero_sets] + [
        np.flatnonzero(g.func_idx == 0), np.flatnonzero(on_h0)]
    for flagset in zero_sets + failing:
        want = _walk(g, flagset.tolist())
        assert g.is_geometric_hyperplane(flagset) == want
        assert g.is_geometric_hyperplane(set(flagset.tolist())) == want
    assert g.is_geometric_hyperplane(
        [g.flags[i] for i in failing[0]]) == _walk(g, failing[0].tolist())
    for z in zero_sets:
        assert g.is_geometric_hyperplane(z) == (True, None)
    if n == 1:
        assert g.line_flags()[0].shape == (0, q + 1)
        for flagset in failing:
            assert g.is_geometric_hyperplane(flagset) == (True, None)
        return
    for flagset in failing:
        assert not g.is_geometric_hyperplane(flagset)[0]
    ok, line = g.is_geometric_hyperplane(np.flatnonzero(on_h0))
    assert line.family == "hyperplane-pencil"


def test_flag_indices_outside_the_geometry_are_refused():
    g = build_gamma(make_field(2, 2), 2)
    for bad in (np.array([0, g.N]), [-1], {3, g.N + 5}, range(g.N + 1)):
        with pytest.raises(ValueError):
            g.is_geometric_hyperplane(bad)


@pytest.mark.parametrize("q,n", sorted(LINE_FLAGS_SHA256))
def test_line_flags_bytes_are_pinned(q, n):
    g = build_gamma(make_field(*prime_power(q)), n)
    flags, npp = g.line_flags()
    assert flags.dtype == np.int32 and flags.shape[1] == q + 1
    assert (hashlib.sha256(flags.tobytes()).hexdigest(), npp) == \
        LINE_FLAGS_SHA256[q, n]


def test_cold_line_test_memory_is_bounded():
    # a cold Gamma and its line rows at (9, 3) each peak below 16 MB of
    # allocations (about 4.6 and 11.1 MB, the rows themselves 6 MB); with
    # whole-array gathers and flag lookups each took about 25 MB
    ctx = make_field(3, 2)
    line_array(ctx, 4)                      # cached, so not part of the peak
    # Gamma itself, not the cached build_gamma, so the build is cold
    tracemalloc.start()
    try:
        g = Gamma(ctx, 3)
        gamma_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g.line_flags()
        lines_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gamma_peak < 16 * 2 ** 20, gamma_peak
    assert lines_peak < 16 * 2 ** 20, lines_peak


def test_size_cap_and_bad_n():
    ctx = make_field(2, 2)
    with pytest.raises(ValueError):
        build_gamma(ctx, 0)
