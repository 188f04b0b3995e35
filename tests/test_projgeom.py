"""Projective class enumeration, indexing, lines and fixed classes."""

import re
from pathlib import Path

import numpy as np
import pytest

import twistcode
from twistcode import class_index, class_reps_range, enumerate_pg, \
    make_autspec, make_field, num_classes, sigma_fixed_points
from twistcode.projgeom import (capped_count, class_indices, codes, digits,
                                enumerate_lines, incident, line_through,
                                normalize_tuple, span_classes)

import naive_ref
from helpers import prime_power


def test_enumeration_matches_naive_order():
    for q, k in [(4, 3), (8, 2), (9, 3), (16, 2)]:
        ctx = make_field(*prime_power(q))
        want = naive_ref.naive_class_reps(q, k)
        assert num_classes(q, k) == len(want)
        got = [tuple(int(e) for e in r)
               for r in class_reps_range(q, k, 0, len(want))]
        assert got == want


@pytest.mark.parametrize("q,k", [(8, 9), (4, 16), (16, 9), (16, 16)])
def test_class_codec_round_trips_at_every_seam(q, k):
    # q^k = 2^27 and exactly 2^32 divide in uint32, 2^36 and 2^64 in
    # int64; at (16, 16) the codes of the last classes reach 2^61
    total = num_classes(q, k)
    ranges = [(0, 3), (total - 150, total)]
    ranges += [(max(num_classes(q, tail) - 70, 0), num_classes(q, tail) + 70)
               for tail in range(1, k)]
    for a, b in ranges:
        R = class_reps_range(q, k, a, b)
        assert np.array_equal(class_indices(q, R), np.arange(a, b)), (a, b)
        assert [class_index(q, k, r) for r in R] == list(range(a, b))
        # normalized and in strictly increasing lexicographic order
        lead = (R != 0).argmax(axis=1)
        assert (R[np.arange(len(R)), lead] == 1).all()
        assert [tuple(r) for r in R.tolist()] == sorted(map(tuple, R.tolist()))
        assert len(set(map(tuple, R.tolist()))) == len(R)
        # a row is the digits of its code, written straight as any dtype
        assert np.array_equal(digits(codes(q, R), q, k), R)
        assert np.array_equal(class_reps_range(q, k, a, b, dtype=np.uint8), R)
    for a, b in ((5, 4), (-1, 0), (total, total + 1)):
        with pytest.raises(ValueError, match="bad range"):
            class_reps_range(q, k, a, b)
    for w in (k - 1, k):
        top = min(q ** w, 1 << 63) - 1
        v = np.array([0, 1, q - 1, q, top // q, top // 2, top - 1, top])
        assert np.array_equal(codes(q, digits(v, q, w)), v), w


def test_class_codec_refuses_codes_beyond_int64():
    # 5^27 < 2^63 < 2 * 5^27: the last class's code would wrap
    for k in (28, 40):
        with pytest.raises(ValueError, match="overflow int64"):
            class_indices(5, [1] + [4] * (k - 1))
        with pytest.raises(ValueError, match="overflow int64"):
            class_index(5, k, [1] + [4] * (k - 1))
    assert class_index(5, 27, [1] + [4] * 26) == num_classes(5, 27) - 1
    # the code of the first class with 63 binary digits after its leading
    # 1 is 2^63: no row, rather than one read from a float
    first = num_classes(2, 63)
    assert class_reps_range(2, 65, first - 1, first)[0, 2:].all()
    with pytest.raises(OverflowError):
        class_reps_range(2, 65, first, first + 1)


def test_only_projgeom_expands_base_q_digits():
    # the class-order codec (lead_blocks, digits, codes) lives in
    # projgeom.py alone; divmod by anything but q, as in gamma's flag keys
    # and the runs of bulk._block_keys, splits positions, not digits
    src = Path(twistcode.__file__).parent
    helper = re.compile(r"^def \w*(digits|codes)\w*\([^)]*\bq\b", re.M)
    expand = re.compile(r"divmod\([^()]*,\s*q\s*\)")
    found = sorted(path.name for path in src.glob("*.py")
                   if path.name != "projgeom.py"
                   and (helper.search(text := path.read_text())
                        or expand.search(text)))
    assert found == []


def test_capped_count_refuses_a_huge_count_unformed():
    msg = "{} points exceed cap {}"

    def unformed():
        raise AssertionError("the count was formed")

    assert capped_count(lambda: 10, 2, 3, 10, msg) == 10
    with pytest.raises(ValueError, match="^11 points exceed cap 10$"):
        capped_count(lambda: 11, 2, 3, 10, msg)
    # 2^99 < 10^30 <= 2^100
    with pytest.raises(ValueError, match="^12 points"):
        capped_count(lambda: 12, 2, 99, 10, msg)
    with pytest.raises(ValueError, match=r"^at least 2\^100 points"):
        capped_count(unformed, 2, 100, 10, msg)
    with pytest.raises(ValueError, match=r"^at least 4\^10{30} points"):
        capped_count(unformed, 4, 10 ** 30, 10, msg)
    with pytest.raises(ValueError, match="^PG enumeration of at least 4"):
        enumerate_pg(make_field(2, 2), 10 ** 30)


def test_rep_at_agrees_with_full_enumeration():
    q, k = 9, 3
    reps = naive_ref.naive_class_reps(q, k)
    for idx in [0, 1, 17, 90, len(reps) - 1]:
        assert naive_ref.naive_class_rep_at(q, k, idx) == reps[idx]


def test_class_index_inverts_enumeration():
    ctx = make_field(2, 2)
    pg = enumerate_pg(ctx, 3)
    assert len(pg) == num_classes(4, 3) == 21
    for cls in pg:
        assert class_index(4, 3, cls.rep) == cls.index
    with pytest.raises(ValueError):
        class_index(4, 3, (0, 2, 1))          # not normalized
    with pytest.raises(ValueError):
        class_index(4, 3, (0, 0, 0))


def test_normalize_tuple_matches_naive():
    ctx = make_field(2, 3)
    nf = naive_ref.make_naive(8)
    from twistcode.rng import SplitMix64
    rng = SplitMix64(23)
    for _ in range(100):
        v = rng.elements(8, 3)
        if not any(v):
            continue
        assert normalize_tuple(ctx, v) == naive_ref.naive_normalize(nf, v)


def test_incidence_is_the_dot_test():
    ctx = make_field(3, 2)
    nf = naive_ref.make_naive(9)
    pg = enumerate_pg(ctx, 2)
    for pt in pg:
        for fn in pg:
            want = naive_ref.naive_dot(nf, pt.rep, fn.rep) == 0
            assert incident(ctx, pt.rep, fn.rep) == want


def test_lines_partition_pairs():
    # every line has q+1 points; every point pair lies on exactly one line
    for q, dim in [(4, 3), (9, 2)]:
        ctx = make_field(*prime_power(q))
        P = num_classes(q, dim)
        lines = enumerate_lines(ctx, dim)
        assert all(len(ln) == q + 1 for ln in lines)
        pair_count = sum(len(ln) * (len(ln) - 1) // 2 for ln in lines)
        assert pair_count == P * (P - 1) // 2
        assert len(set(lines)) == len(lines)


@pytest.mark.parametrize("q,dim", [(2, 5), (4, 3), (9, 2), (3, 4), (8, 3)])
def test_lines_match_the_naive_pair_scan(q, dim):
    # echelon-form enumeration against the point-pair scan, order included
    ctx = make_field(*prime_power(q))
    want = naive_ref.naive_lines(naive_ref.make_naive(q), dim)
    assert enumerate_lines(ctx, dim) == want


def test_line_through_is_symmetric_and_closed():
    ctx = make_field(2, 2)
    a, b = (1, 0, 2), (0, 1, 3)
    ln = line_through(ctx, a, b)
    assert len(ln) == 5
    assert set(line_through(ctx, b, a)) == set(ln)
    for rep in ln:
        assert class_index(4, 3, rep) >= 0     # all normalized


def test_span_classes_sizes():
    ctx = make_field(2, 2)
    # one generator: the class itself; two independent: a full line
    assert span_classes(ctx, [(1, 0, 0)]) == [(1, 0, 0)]
    two = span_classes(ctx, [(1, 0, 0), (0, 1, 0)])
    assert len(two) == 5 and two == sorted(two)
    # dependent generators collapse
    assert span_classes(ctx, [(1, 0, 0), (2, 0, 0)]) == [(1, 0, 0)]


def test_sigma_fixed_points_are_the_subfield_classes():
    cases = [(4, 1, 3, 7), (8, 1, 3, 7), (9, 1, 4, 40), (16, 2, 2, 5)]
    for q, j, dim, count in cases:
        ctx = make_field(*prime_power(q))
        spec = make_autspec(ctx, j)
        fixed = sigma_fixed_points(ctx, spec, dim)
        assert len(fixed) == count == (spec.s ** dim - 1) // (spec.s - 1)
        for cls in fixed:
            assert tuple(int(spec.tlist[e]) for e in cls.rep) == tuple(cls.rep)
