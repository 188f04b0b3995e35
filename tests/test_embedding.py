"""The twisted embedding of flags into matrix space."""

import re
from pathlib import Path

import numpy as np
import pytest

import twistcode
from twistcode import SplitMix64, embed_flag, make_system
from twistcode.embedding import _span_rank
from twistcode.linalg import pure_tensor, rank, scalar_mul, trace_product

import naive_ref
from helpers import flat_codewords, golden, prime_power, system


def test_embedded_flats_match_golden():
    want = golden("embedding_4_2_1")
    ps = system(2, 2, 1, 2)
    assert ps.N == len(want["flats"]) == 105
    assert ps.flat.tolist() == want["flats"]
    for fl, (x, xi) in zip(ps.gamma.flags, want["flags"]):
        assert list(fl.point.rep) == x and list(fl.functional.rep) == xi


def test_embedding_matches_naive_oracle():
    for q, n, j in [(8, 1, 1), (9, 1, 1), (4, 2, 1)]:
        ps = system(*prime_power(q), j, n)
        nf = naive_ref.make_naive(q)
        for flag, got in zip(naive_ref.naive_flags(nf, n), ps.flat):
            assert naive_ref.naive_embed(nf, j, flag) == tuple(got.tolist())


def test_span_ranks():
    assert system(2, 2, 1, 2).span_rank == 9     # full ambient space
    assert system(2, 2, 0, 2).span_rank == 8     # identity twist drops one
    assert system(2, 2, 1, 3).span_rank == 16
    assert system(3, 2, 1, 2).span_rank == 9
    # sigma = 1 at odd p and at n = 3: the traceless hyperplane
    for cfg, want in [((3, 2, 0, 2), 8), ((2, 2, 0, 3), 15)]:
        ps = system(*cfg)
        nf = naive_ref.make_naive(ps.ctx.q)
        assert ps.span_rank == want
        assert naive_ref.naive_rank(nf, ps.flat.tolist()) == want


def test_span_check_at_sigma_one_needs_the_traces():
    ps = system(2, 2, 0, 2)
    assert _span_rank(ps.ctx, ps.spec, ps.mats) == 8
    # one member replaced by E11, rank 1 with trace 1: the members then
    # span all 9 dimensions, which a rank capped at k - 1 = 8 would not see
    mats = ps.mats.copy()
    mats[0] = 0
    mats[0, 0, 0] = 1
    assert rank(ps.ctx, mats.reshape(ps.N, 9)) == 9
    with pytest.raises(AssertionError, match="nonzero trace"):
        _span_rank(ps.ctx, ps.spec, mats)
    ps = system(2, 2, 1, 2)         # too few members for the full span
    with pytest.raises(AssertionError, match="span rank 2, expected 9"):
        _span_rank(ps.ctx, ps.spec, ps.mats[:5])


def test_embedding_is_injective():
    ps = system(2, 2, 1, 2)
    ctx = ps.ctx
    for i, fl in enumerate(ps.gamma.flags):
        assert ps.class_of(ps.mats[i]) == i == fl.index
    # a scalar multiple of a member is the same class
    assert ps.class_of(scalar_mul(ctx, 3, ps.mats[5])) == 5
    # rank 1, but the point (1,0,0) is not on the hyperplane xi = (1,0,0)
    E11 = np.zeros((3, 3), dtype=ctx.dtype)
    E11[0, 0] = 1
    assert ps.class_of(E11) is None
    # rank 2, with the first row and leading column of member i intact
    i = next(i for i in range(ps.N) if ps.mats[i][0].any())
    X = ps.mats[i].copy()
    c = (int(np.flatnonzero(X[0])[0]) + 1) % 3
    X[1, c] = ctx.add(int(X[1, c]), 1)
    assert rank(ctx, X) == 2
    assert ps.class_of(X) is None


def test_members_are_rank_one_tensors():
    ps = system(3, 2, 1, 1)
    ctx, spec = ps.ctx, ps.spec
    for i, fl in enumerate(ps.gamma.flags):
        X = ps.mats[i]
        assert rank(ctx, X) == 1
        x, xi = fl.point.rep, fl.functional.rep
        for r in range(ps.m):
            for c in range(ps.m):
                want = ctx.mul(int(spec.tlist[x[r]]), xi[c])
                assert int(X[r, c]) == want


def test_embed_flag_normalizes():
    ps = system(2, 2, 1, 2)
    X = embed_flag(ps.ctx, ps.spec, ps.gamma.flags[17])
    lead = X.reshape(-1)[np.flatnonzero(X.reshape(-1))[0]]
    assert lead == 1


def test_saturation_membership_agrees_with_the_codeword():
    # the flag (x, xi) lies on the hyperplane of M exactly when
    # Tr(sigma(x) xi M) = 0, taken here flag by flag from the two reps
    from twistcode import eval_codeword
    ps = system(2, 2, 1, 2)
    ctx, spec = ps.ctx, ps.spec
    M = ps.mats[11]
    cw = eval_codeword(ps, M)
    hits = 0
    for fl, val in zip(ps.gamma.flags, cw.values.tolist()):
        X = pure_tensor(ctx, spec.table[list(fl.point.rep)],
                        np.array(fl.functional.rep, dtype=ctx.dtype))
        member = trace_product(ctx, X, M) == 0
        assert member == (val == 0)
        hits += member
    assert 0 < hits < ps.N


@pytest.mark.parametrize("q, n, j", [(4, 2, 1), (8, 2, 1), (9, 2, 1),
                                     (4, 2, 0), (2048, 1, 1), (2187, 1, 2)])
def test_codewords_match_the_naive_trace_pairing(q, n, j):
    # sigma of order 3 at q = 8, odd p at q = 9, sigma = 1 at (4, 2, 0), no
    # q x q tables at q = 2048 and 2187; naive_codeword takes Tr(X_i M) on
    # the flat rows, which test_embedding_matches_naive_oracle checks
    ps = system(*prime_power(q), j, n)
    ctx, m = ps.ctx, ps.m
    nf = naive_ref.NaiveGF(ctx.p, ctx.t, ctx.modulus)
    flats = ps.flat.tolist()
    stack = np.array(SplitMix64(q + j).elements(q, 6 * ps.k),
                     dtype=ctx.dtype).reshape(2, 3, m, m)
    stack[0, 1] = 0
    want = np.array([naive_ref.naive_codeword(nf, flats, M.tolist())
                     for M in stack.reshape(-1, m, m)]).reshape(2, 3, ps.N)
    for M, w in [(stack, want), (stack[1], want[1]), (stack[1, 2], want[1, 2]),
                 (stack[0, :0], want[0, :0])]:
        got = ps.codewords(M)
        assert got.shape == w.shape and got.dtype == ctx.dtype
        assert np.array_equal(got, w)


def test_codewords_match_the_flat_product():
    ps = system(3, 2, 1, 3)
    R = np.array(SplitMix64(5).elements(9, 12 * ps.k),
                 dtype=ps.ctx.dtype).reshape(12, ps.k)
    got = ps.codewords(R.reshape(-1, ps.m, ps.m))
    assert np.array_equal(got, flat_codewords(ps, R))


def test_no_module_takes_a_flat_product():
    # every codeword goes through ProjectiveSystem.codewords; flat stays for
    # ranks, decoding and witness rows, never as a matmul operand
    src = Path(twistcode.__file__).parent
    flat_product = re.compile(r"matmul\((?:[^()]|\([^()]*\))*\.flat\b")
    assert sorted(path.name for path in src.glob("*.py")
                  if flat_product.search(path.read_text())) == []


def test_make_system_validation():
    with pytest.raises(ValueError):
        make_system(2, 2, 1, 0)
    with pytest.raises(ValueError):
        make_system(4, 1, 0, 2)
