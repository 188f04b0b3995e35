"""Exact matrix routines cross-checked against the schoolbook oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcode import linalg, make_autspec, make_field
from twistcode.linalg import (as_matrix, dot, invert, left_kernel, matmul,
                              normalize_rep, pure_tensor, rank, rank1_factor,
                              rank_batch, row_echelon, sigma_entrywise,
                              subset_ranks, trace_product, vecmat)
from twistcode.rng import SplitMix64

import naive_ref
from helpers import prime_power


def _random_matrix(ctx, m, rng):
    return np.array(rng.elements(ctx.q, m * m), dtype=ctx.dtype).reshape(m, m)


def _random_rect(ctx, r, c, rng):
    return np.array(rng.elements(ctx.q, r * c), dtype=ctx.dtype).reshape(r, c)


def test_rank_matches_naive():
    for q in [4, 8, 9, 2048]:
        ctx = make_field(*prime_power(q))
        nf = naive_ref.NaiveGF(ctx.p, ctx.t, ctx.modulus)
        rng = SplitMix64(q)
        count = 60 if q < 64 else 4     # the naive inverse scans GF(q)
        mats = [_random_matrix(ctx, 3, rng) for _ in range(count)]
        F = (q ** 3 - 1) // (q - 1) if q < 64 else 40     # tall: F x m
        mats += [_random_rect(ctx, F, 3, rng),
                 matmul(ctx, _random_rect(ctx, F, 2, rng),
                        _random_rect(ctx, 2, 4, rng)),    # rank <= 2
                 _random_rect(ctx, 2, 4, rng), _random_rect(ctx, 1, 3, rng),
                 np.zeros((3, 3), dtype=ctx.dtype),
                 np.zeros((2, 5), dtype=ctx.dtype)]
        for A in mats:
            assert rank(ctx, A) == naive_ref.naive_rank(nf, A.tolist())


def test_subset_ranks_edge_cases(monkeypatch):
    monkeypatch.setattr(linalg, "_PREFIX_ROWS", 1)
    ctx = make_field(3, 2)
    rng = SplitMix64(13)
    A = _random_rect(ctx, 12, 4, rng)
    A[6:] = A[0]                    # a block of repeats: rank 1
    assert subset_ranks(ctx, A, np.zeros((0, 12), bool), 3).tolist() == []
    mask = np.zeros((5, 12), dtype=bool)
    mask[1] = True                  # every row: rank 4, capped at the target
    mask[2, 6:] = True              # the block
    mask[3, [0, 6]] = True          # a row and its repeat
    mask[4, ::3] = True
    for target in (2, 3, 4, 6):     # 6 is above every true rank
        want = [min(rank(ctx, A[mk]), target) for mk in mask]
        assert subset_ranks(ctx, A, mask, target).tolist() == want
    assert want[:4] == [0, 4, 1, 1]


@pytest.mark.parametrize("q", [4, 9, 2048, 2187])
def test_rank_batch_matches_rank(q):
    ctx = make_field(*prime_power(q))
    rng = SplitMix64(q)
    for m in (2, 3, 4):
        A = np.stack([_random_matrix(ctx, m, rng) for _ in range(60)])
        A[:5] = 0                               # zero matrices
        A[5:20, -1] = A[5:20, 0]                # repeated row
        A[20:30, :, 1] = 0                      # zero column
        A[30:40] = A[30:40] % 2                 # sparse 0/1 entries
        A[40:45] = pure_tensor(ctx, [1] * m, list(range(m)))   # rank 1
        want = [rank(ctx, M) for M in A]
        assert rank_batch(ctx, A).tolist() == want
        assert {0, m - 1, m} <= set(want)


def test_rank_batch_on_non_square_and_empty_stacks():
    ctx = make_field(3, 2)
    rng = SplitMix64(11)
    for r, c in [(1, 3), (3, 1), (2, 4), (4, 2), (5, 3)]:
        A = np.array(rng.elements(ctx.q, 40 * r * c),
                     dtype=ctx.dtype).reshape(40, r, c)
        A[:4] = 0                               # zero matrices
        A[4:12, -1] = A[4:12, 0]                # repeated row
        A[12:24] = A[12:24] % 2                 # sparse 0/1 entries
        want = [rank(ctx, M) for M in A]
        assert rank_batch(ctx, A).tolist() == want
        assert {0, min(r, c)} <= set(want)
    # no matrices, no rows, no columns: rank 0 as linalg.rank gives it
    for shape in [(0, 3, 3), (4, 0, 3), (4, 3, 0), (0, 0, 0)]:
        A = np.zeros(shape, dtype=ctx.dtype)
        got = rank_batch(ctx, A)
        assert got.dtype == np.int8
        assert got.tolist() == [rank(ctx, M) for M in A]


def test_row_echelon_pivots_are_leading_ones():
    ctx = make_field(2, 3)
    rng = SplitMix64(5)
    for _ in range(40):
        A = _random_matrix(ctx, 4, rng)
        R, pivots = row_echelon(ctx, A)
        assert len(pivots) == rank(ctx, A)
        for i, c in enumerate(pivots):
            assert R[i, c] == 1
            assert not R[i, :c].any()
            assert not R[i + 1:, c].any()


def test_invert_round_trip():
    for q in [4, 9, 25]:
        ctx = make_field(*prime_power(q))
        rng = SplitMix64(q + 1)
        eye = np.eye(3, dtype=ctx.dtype)
        done = 0
        while done < 25:
            A = _random_matrix(ctx, 3, rng)
            if rank(ctx, A) < 3:
                with pytest.raises(ValueError):
                    invert(ctx, A)
                continue
            B = invert(ctx, A)
            assert np.array_equal(matmul(ctx, A, B), eye)
            assert np.array_equal(matmul(ctx, B, A), eye)
            done += 1


def _naive_matmul(nf, A, B):
    return [[naive_ref.naive_dot(nf, row, col) for col in zip(*B)] for row in A]


@pytest.mark.parametrize("p,t", [(2, 2), (3, 2), (2, 11), (3, 7)])
def test_matmul_broadcasts_and_matches_naive(p, t):
    # (2, 11) and (3, 7) have no q x q tables: log-table products, and XOR
    # or digit-sum additions
    ctx = make_field(p, t)
    nf = naive_ref.NaiveGF(p, t, ctx.modulus)
    rng = SplitMix64(p * 100 + t)
    stack = np.array(rng.elements(ctx.q, 5 * 9), dtype=ctx.dtype).reshape(5, 3, 3)
    A = _random_matrix(ctx, 3, rng)
    row = np.array(rng.elements(ctx.q, 3), dtype=ctx.dtype).reshape(1, 3)

    got = matmul(ctx, stack, A)
    assert got.shape == (5, 3, 3) and got.dtype == ctx.dtype
    for X, G in zip(stack, got):
        assert G.tolist() == _naive_matmul(nf, X.tolist(), A.tolist())

    got = matmul(ctx, A, stack)
    assert got.shape == (5, 3, 3) and got.dtype == ctx.dtype
    for X, G in zip(stack, got):
        assert G.tolist() == _naive_matmul(nf, A.tolist(), X.tolist())

    got = matmul(ctx, row, A)
    assert got.shape == (1, 3) and got.dtype == ctx.dtype
    assert got.tolist() == _naive_matmul(nf, row.tolist(), A.tolist())
    assert vecmat(ctx, row[0], A).tolist() == got[0].tolist()

    with pytest.raises(ValueError):
        matmul(ctx, row, stack[:, :2, :])


def test_left_kernel_annihilates():
    ctx = make_field(3, 2)
    rng = SplitMix64(11)
    for _ in range(50):
        A = _random_matrix(ctx, 3, rng)
        K = left_kernel(ctx, A)
        assert K.shape[0] == 3 - rank(ctx, A)
        for v in K:
            assert not vecmat(ctx, v, A).any()
        if K.shape[0]:
            assert rank(ctx, K) == K.shape[0]   # basis rows independent


def test_pure_tensor_and_factor_invert_each_other():
    ctx = make_field(2, 2)
    spec = make_autspec(ctx, 1)
    rng = SplitMix64(3)
    for _ in range(40):
        x = np.array(rng.elements(4, 3), dtype=ctx.dtype)
        xi = np.array(rng.elements(4, 3), dtype=ctx.dtype)
        if not x.any() or not xi.any():
            continue
        M = pure_tensor(ctx, x, xi)
        assert rank(ctx, M) == 1
        u, zeta = rank1_factor(ctx, M)
        assert np.array_equal(pure_tensor(ctx, u, zeta), M)
        # sigma acts entrywise and multiplicatively on the tensor
        Ms = sigma_entrywise(ctx, spec, M)
        xs = spec.table[x].astype(ctx.dtype)
        xis = spec.table[xi].astype(ctx.dtype)
        assert np.array_equal(Ms, pure_tensor(ctx, xs, xis))


def test_trace_product_matches_naive_pairing():
    ctx = make_field(2, 3)
    nf = naive_ref.make_naive(8)
    rng = SplitMix64(17)
    for _ in range(40):
        X = _random_matrix(ctx, 3, rng)
        M = _random_matrix(ctx, 3, rng)
        want = naive_ref.naive_trace_pairing(nf, X.reshape(-1).tolist(),
                                             M.tolist())
        assert trace_product(ctx, X, M) == want


def test_dot_requires_equal_lengths():
    ctx = make_field(2, 2)
    with pytest.raises(ValueError):
        dot(ctx, [1, 0], [1, 0, 1])


@given(st.sampled_from([4, 8, 9, 27]), st.lists(st.integers(0, 2 ** 30),
                                                min_size=4, max_size=4),
       st.integers(1, 2 ** 30))
@settings(max_examples=100, deadline=None)
def test_normalize_rep_is_idempotent_and_scale_invariant(q, entries, c):
    ctx = make_field(*prime_power(q))
    v = np.array([e % q for e in entries], dtype=ctx.dtype)
    if not v.any():
        return
    rep, scale = normalize_rep(ctx, v)
    lead = rep[np.flatnonzero(rep)[0]]
    assert lead == 1
    assert np.array_equal(ctx.mul_np(np.full(4, scale, ctx.dtype), rep), v)
    again, unit = normalize_rep(ctx, rep)
    assert np.array_equal(again, rep) and unit == 1
    scaled = ctx.mul_np(np.full(4, c % (q - 1) + 1, ctx.dtype), v)
    assert np.array_equal(normalize_rep(ctx, scaled)[0], rep)


def test_as_matrix_validates():
    ctx = make_field(2, 2)
    with pytest.raises(ValueError):
        as_matrix(ctx, [[1, 0], [0, 1], [0, 0]], square=2)
    with pytest.raises(ValueError):
        as_matrix(ctx, [[4, 0], [0, 1]], square=2)   # out of range
    for huge in (10 ** 20, -10 ** 20):                # beyond int64 either way
        with pytest.raises(ValueError, match=r"encodings in \[0, 4\)"):
            as_matrix(ctx, [[1, 0], [0, huge]], square=2)
