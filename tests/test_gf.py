"""Field contexts and twist automorphisms against the frozen oracle."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistcode
from twistcode import gf, make_autspec, make_field, norm
from twistcode.gf import apply_sigma, apply_sigma_inverse
from twistcode.rng import SplitMix64

import naive_ref
from helpers import golden, prime_power

DESK_Q = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81]


def test_tables_match_goldens():
    tables = golden("gf_tables")
    for key, want in tables.items():
        q = int(key)
        ctx = make_field(*prime_power(q))
        assert list(ctx.modulus) == want["modulus"]
        assert ctx.add_table.tolist() == want["add"]
        assert ctx.mul_table.tolist() == want["mul"]
        spec = make_autspec(ctx, 1)
        assert list(spec.tlist) == want["frob1"]


def test_full_agreement_with_naive_q9():
    ctx = make_field(3, 2)
    nf = naive_ref.make_naive(9)
    for a in range(9):
        assert ctx.neg(a) == nf.neg(a)
        for b in range(9):
            assert ctx.add(a, b) == nf.add(a, b)
            assert ctx.mul(a, b) == nf.mul(a, b)
    for a in range(1, 9):
        assert ctx.inv(a) == nf.inv(a)


def test_full_agreement_with_naive_q16():
    ctx = make_field(2, 4)
    nf = naive_ref.make_naive(16)
    for a in range(16):
        for b in range(16):
            assert ctx.add(a, b) == nf.add(a, b)
            assert ctx.mul(a, b) == nf.mul(a, b)


def test_generator_has_full_order():
    for q in DESK_Q:
        ctx = make_field(*prime_power(q))
        powers = set()
        a = 1
        for _ in range(q - 1):
            a = ctx.mul(a, ctx.gen)
            powers.add(a)
        assert a == 1 and len(powers) == q - 1


def test_prime_field_arithmetic_is_mod_p():
    ctx = make_field(7, 1)
    for a in range(7):
        for b in range(7):
            assert ctx.add(a, b) == (a + b) % 7
            assert ctx.mul(a, b) == (a * b) % 7


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        make_field(4, 1)                       # p not prime
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 0, 1))            # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 1))               # wrong degree
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 1, 2))            # not monic after reduction
    ctx = make_field(2, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ValueError):
        make_autspec(ctx, 2)                   # j out of range


@given(st.sampled_from([25, 27, 32, 49, 64, 81]),
       st.integers(0, 2 ** 48), st.integers(0, 2 ** 48), st.integers(0, 2 ** 48))
@settings(max_examples=120, deadline=None)
def test_axioms_hold_at_larger_q(q, i, j, k):
    ctx = make_field(*prime_power(q))
    a, b, c = i % q, j % q, k % q
    assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
    assert ctx.add(a, ctx.add(b, c)) == ctx.add(ctx.add(a, b), c)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, ctx.neg(a)) == 0
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_sampled_axiom_check_catches_a_corrupt_table():
    # above q = 512 the axioms are checked on 10^5 sampled triples
    from twistcode.gf import FieldCtx
    ctx = FieldCtx(3, 7)                       # fresh: make_field caches
    ctx._verify_axioms()
    for k in (0, ctx.q - 1):                  # both copies of the cycle
        ctx.exp[[5 + k, 7 + k]] = ctx.exp[[7 + k, 5 + k]]
    with pytest.raises(AssertionError):
        ctx._verify_axioms()


@pytest.mark.parametrize("p, t", [(3, 2), (3, 7)])
def test_axiom_check_catches_a_corrupt_zech_entry(p, t):
    # up to q = 1024 the Zech table is checked against add_table on 1 + x;
    # above it, the sampled triples run through the Zech add_np
    from twistcode.gf import FieldCtx
    ctx = FieldCtx(p, t)
    ctx._verify_axioms()
    e = 5
    ctx.zech[e] = ctx._zech[e] = (ctx._zech[e] + 1) % (ctx.q - 1)
    with pytest.raises(AssertionError):
        ctx._verify_axioms()


@pytest.mark.parametrize("q", [q for q in DESK_Q if q % 2])
def test_scalar_operations_match_the_tables(q):
    # scalar add (Zech) and mul (exp/log) against the q x q tables
    ctx = make_field(*prime_power(q))
    assert [[ctx.add(a, b) for b in range(q)] for a in range(q)] == \
        ctx.add_table.tolist()
    assert [[ctx.mul(a, b) for b in range(q)] for a in range(q)] == \
        ctx.mul_table.tolist()


@pytest.mark.parametrize("q", [4, 9, 256])
def test_array_operations_match_the_tables(q):
    # the table gathers go in blocks of _GATHER_BLOCK entries: these
    # broadcast shapes fall below, on and across block boundaries
    ctx = make_field(*prime_power(q))
    B = gf._GATHER_BLOCK
    rng = SplitMix64(q)

    def draw(shape, dtype=ctx.dtype):
        size = int(np.prod(shape))
        return (rng.words(size) % np.uint64(q)).astype(dtype).reshape(shape)

    shapes = [((), ()), ((), (B + 3,)), ((B,), (B,)), ((3, 1, 5), (1, 7, 1)),
              ((2, B // 2 + 1), (1, B // 2 + 1)), ((B + 1, 1), (1, 3)),
              ((3, 1, 1), (1, 5, B // 4 + 7))]
    cases = [(draw(sa), draw(sb)) for sa, sb in shapes]
    cases.append((draw((3, B // 2)).T, draw((B // 2, 1), np.int64)))
    cases.append((q - 1, draw((2, B + 5))))               # a Python int
    for a, b in cases:
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        for op, table in ((ctx.mul_np, ctx.mul_table), (ctx.add_np, ctx.add_table)):
            got = op(a, b)
            # p = 2 adds by XOR, which keeps numpy's result type
            xor = ctx.p == 2 and op == ctx.add_np
            assert got.shape == shape
            assert got.dtype == (np.result_type(a, b) if xor else ctx.dtype)
            assert np.array_equal(got, table[a, b])
    for a in range(q):
        assert [int(ctx.mul_np(a, b)) for b in range(q)] == ctx.mul_table[a].tolist()
        assert [int(ctx.add_np(a, b)) for b in range(q)] == ctx.add_table[a].tolist()


def test_default_modulus_is_one_field():
    # make_field(p, t) and make_field(p, t, its modulus) are one context
    for q in (3, 9, 27, 32, 6561):
        ctx = make_field(*prime_power(q))
        assert make_field(*prime_power(q), ctx.modulus) is ctx


@pytest.mark.parametrize("p, t", [(3, 7), (5, 5), (3, 8)])
def test_zech_add_np_matches_naive_above_the_table_cap(p, t):
    ctx = make_field(p, t)
    assert ctx.add_table is None
    nf = naive_ref.NaiveGF(p, t, ctx.modulus)
    rng = SplitMix64(ctx.q)
    a, b = (np.array(rng.elements(ctx.q, 500), dtype=ctx.dtype) for _ in range(2))
    a[:20] = b[10:30] = 0                      # zeros on either side and both
    b[40:60] = ctx.neg_table[a[40:60]]         # x + (-x) = 0
    got = ctx.add_np(a, b)
    assert got.dtype == ctx.dtype
    assert got.tolist() == [nf.add(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert (got[40:60] == 0).all()


@pytest.mark.parametrize("p, t", [(2, 12), (3, 8)])
def test_exp_log_and_zech_arrays_go_in_blocks(p, t):
    # above q = 1024 mul_np (exp/log) and the odd-p Zech add_np build
    # their int64 temporaries one block of _GATHER_BLOCK entries at a
    # time: 10^6 broadcast products hold their uint16 output and about
    # one block more, and agree with the same operation on pieces under
    # one block and with the scalar operations
    ctx = make_field(p, t)
    assert ctx.mul_table is None
    rng = SplitMix64(ctx.q)
    a, b = ((rng.words(1000) % np.uint64(ctx.q)).astype(ctx.dtype)
            for _ in range(2))
    a[:30] = b[500:530] = 0
    ops = [(ctx.mul_np, ctx.mul)]
    if p > 2:
        ops.append((ctx.add_np, ctx.add))
    for op, scalar in ops:
        tracemalloc.start()
        got = op(a[:, None], b[None, :])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got.shape == (1000, 1000) and got.dtype == ctx.dtype
        assert peak < got.nbytes + (3 << 20), peak
        want = np.concatenate([op(a[i:i + 50, None], b[None, :])
                               for i in range(0, 1000, 50)])
        assert np.array_equal(got, want)
        for i, j in [(0, 1), (5, 500), (999, 999), (123, 456), (40, 7)]:
            assert got[i, j] == scalar(int(a[i]), int(b[j]))


@given(st.sampled_from(DESK_Q), st.integers(0, 2 ** 48))
@settings(max_examples=80, deadline=None)
def test_digit_round_trip(q, i):
    ctx = make_field(*prime_power(q))
    a = i % q
    assert ctx.from_digits(ctx.digits(a)) == a


def test_autspec_shape():
    cases = [(4, 1, 2, 2), (8, 1, 2, 3), (8, 2, 2, 3), (9, 1, 3, 2),
             (16, 1, 2, 4), (16, 2, 4, 2), (27, 1, 3, 3), (64, 2, 4, 3),
             (64, 3, 8, 2), (81, 2, 9, 2)]
    for q, j, s, order in cases:
        ctx = make_field(*prime_power(q))
        spec = make_autspec(ctx, j)
        assert spec.s == s and spec.order == order
        assert spec.involutory == (2 * j % ctx.t == 0)
        assert spec.exponent == ctx.p ** j


def test_sigma_is_an_automorphism():
    for q, j in [(4, 1), (8, 1), (8, 2), (9, 1), (16, 2), (27, 2)]:
        ctx = make_field(*prime_power(q))
        spec = make_autspec(ctx, j)
        for a in range(q):
            assert spec.tlist[a] == ctx.pow(a, ctx.p ** j)
            assert apply_sigma_inverse(ctx, spec, apply_sigma(ctx, spec, a)) == a
            for b in range(q):
                assert spec.tlist[ctx.add(a, b)] == ctx.add(spec.tlist[a],
                                                            spec.tlist[b])
                assert spec.tlist[ctx.mul(a, b)] == ctx.mul(spec.tlist[a],
                                                            spec.tlist[b])
        fixed = sum(1 for a in range(q) if spec.tlist[a] == a)
        assert fixed == spec.s


def test_frobenius_matches_naive():
    for q in [4, 8, 9, 16]:
        ctx = make_field(*prime_power(q))
        nf = naive_ref.make_naive(q)
        for j in range(1, ctx.t):
            spec = make_autspec(ctx, j)
            for a in range(q):
                assert spec.tlist[a] == nf.frob(a, j)


def test_norm_lands_in_the_fixed_subfield():
    for q, j in [(4, 1), (9, 1), (16, 2), (81, 2)]:
        ctx = make_field(*prime_power(q))
        spec = make_autspec(ctx, j)
        fixed = {a for a in range(q) if spec.tlist[a] == a}
        values = {norm(ctx, spec, a) for a in range(1, q)}
        assert values == fixed - {0}          # surjective onto F_s^*
        for a in range(q):
            assert norm(ctx, spec, a) == ctx.mul(a, spec.tlist[a])


def test_norm_requires_an_involution():
    ctx = make_field(2, 3)
    with pytest.raises(ValueError):
        norm(ctx, make_autspec(ctx, 1), 3)    # order 3 twist
    ctx4 = make_field(2, 2)
    with pytest.raises(ValueError):
        norm(ctx4, make_autspec(ctx4, 0), 3)  # identity twist


def test_default_moduli_make_x_the_generator():
    # the log/antilog layout keys on x itself generating the group
    for q in DESK_Q:
        p, t = prime_power(q)
        if t > 1:
            assert make_field(p, t).gen == p  # the encoding of x


def test_only_gf_reads_the_field_tables():
    # every other module multiplies and adds through the FieldCtx array
    # and scalar operations, so the tables stay an internal of gf.py
    src = Path(twistcode.__file__).parent
    readers = sorted(path.name for path in src.glob("*.py")
                     if path.name != "gf.py"
                     and re.search(r"\b(mul|add|sub)_table\b", path.read_text()))
    assert readers == []


def test_only_gf_branches_on_p_2():
    # characteristic 2 is a fact of the field encoding (add_np is XOR,
    # neg_table the identity), so every other module takes one route at
    # every p; bulk's p2 flag is read by perfbench/micro.py alone
    src = Path(twistcode.__file__).parent
    tests = sorted((path.name, line.strip())
                   for path in src.glob("*.py") if path.name != "gf.py"
                   for line in path.read_text().splitlines()
                   if re.search(r"\bp\s*[!=]=\s*2\b", line))
    assert tests == [("bulk.py", "self.p2 = ctx.p == 2")]
