"""Vectorized sweep machinery against the per-matrix routines."""

import contextlib
import multiprocessing as mp
import os
import signal
import tracemalloc

import numpy as np
import pytest

from twistcode import (bulk, classify, linalg, make_autspec, make_field,
                       make_system, theta, weight_spectrum)
from twistcode.code import (_Sweep, is_minimal, m_bound, max_theta_by_rank,
                            min_weight_sweep, random_nonzero_matrix,
                            second_weight_check)
from twistcode.linalg import pure_tensor, rank, scalar_mul
from twistcode.projgeom import class_indices, class_reps_range, num_classes
from twistcode.rng import SplitMix64

import naive_ref
from helpers import flat_codewords, golden, prime_power, system


def _batch(ps, count, seed):
    rng = SplitMix64(seed)
    R = np.stack([random_nonzero_matrix(ps.ctx, ps.m, rng).reshape(-1)
                  for _ in range(count)])
    return R


def test_bundle_reuses_the_system():
    # cfg carries the resolved modulus, which finds the same field, so a
    # sweep worker or a later sweep builds no second field or system
    for cfg in [(2, 2, 1, 2), (3, 2, 1, 2), (3, 1, 0, 2), (2, 4, 2, 1)]:
        ps = make_system(*cfg)
        assert bulk._bundle(ps.cfg).sys is ps


def test_theta_batch_matches_scalar_theta():
    # code.theta runs the same fixed_scan, so naive_theta is the oracle
    for cfg in [(2, 2, 1, 2), (2, 3, 1, 2), (3, 2, 1, 2)]:
        ps = system(*cfg)
        nf = naive_ref.make_naive(ps.ctx.q)
        b = bulk._bundle(ps.cfg)
        R = _batch(ps, 50, sum(cfg))
        got, _ = bulk.theta_batch(b, R)
        for row, th in zip(R, got.tolist()):
            M = row.reshape(ps.m, ps.m)
            assert theta(ps, M, check_identity=False).theta == th
            assert naive_ref.naive_theta(nf, ps.spec.j, M.tolist()) == th
    ps = system(2, 11, 1, 1)        # q = 2048: no q x q tables
    R = _batch(ps, 12, 7)
    got, _ = bulk.theta_batch(bulk._bundle(ps.cfg), R)
    assert np.array_equal(got, bulk.theta_descent(ps.ctx, ps.spec, R)[0])


@pytest.mark.parametrize("cfg", [(2, 2, 1, 1), (2, 2, 1, 2), (2, 3, 1, 1),
                                 (2, 2, 0, 2), (2, 4, 2, 1), (2, 4, 0, 1)])
def test_theta_descent_matches_theta_batch_exhaustively(cfg):
    # sigma = 1 (j = 0) makes s = q, so the mu-sum runs over all of F_q*;
    # q = 16 with j = 2 has s = 4
    ps = system(*cfg)
    R = class_reps_range(ps.ctx.q, ps.k, 0, num_classes(ps.ctx.q, ps.k),
                         dtype=ps.ctx.dtype)
    want, _ = bulk.theta_batch(bulk._bundle(ps.cfg), R)
    got, ranks = bulk.theta_descent(ps.ctx, ps.spec, R)
    assert np.array_equal(got, want)
    assert ranks.tolist() == [rank(ps.ctx, M) for M in R.reshape(-1, ps.m, ps.m)]


@pytest.mark.parametrize("cfg", [(2, 3, 1, 2), (3, 2, 1, 2)])
def test_theta_descent_matches_theta_batch_across_slices(cfg):
    # three full slices and a partial one, from the middle of the order,
    # and a batch of no rows
    ps = system(*cfg)
    start = num_classes(ps.ctx.q, ps.k) // 2
    R = class_reps_range(ps.ctx.q, ps.k, start, start + 3 * bulk._SLICE + 17,
                         dtype=ps.ctx.dtype)
    want, _ = bulk.theta_batch(bulk._bundle(ps.cfg), R)
    got, ranks = bulk.theta_descent(ps.ctx, ps.spec, R)
    assert np.array_equal(got, want)
    assert ranks.tolist() == [rank(ps.ctx, M) for M in R.reshape(-1, ps.m, ps.m)]
    assert {2, 3} <= set(ranks.tolist())
    none, no_ranks = bulk.theta_descent(ps.ctx, ps.spec, R[:0])
    assert none.shape == no_ranks.shape == (0,)
    assert (none.dtype, no_ranks.dtype) == (got.dtype, ranks.dtype)


@pytest.mark.parametrize("q,j,m,count,extra", [
    (8, 1, 3, 40, 5), (8, 2, 3, 40, 5), (27, 1, 3, 2, 2), (9, 1, 4, 4, 2),
    (64, 1, 2, 10, 5)])
def test_theta_descent_matches_naive_beyond_involutions(q, j, m, count, extra):
    # sigma of order 3 at q = 8 and 27, 2 at (9, 3) and 6 at q = 64; besides
    # random matrices, scalar ones (N(M) = cI) and rank-1 ones load the mu-sum
    ctx = make_field(*prime_power(q))
    spec = make_autspec(ctx, j)
    nf = naive_ref.make_naive(q)
    rng = SplitMix64(q * m + j)
    mats = [random_nonzero_matrix(ctx, m, rng) for _ in range(count)]
    for c in range(1, extra + 1):
        mats.append(scalar_mul(ctx, c, np.eye(m, dtype=ctx.dtype)))
        x, xi = (random_nonzero_matrix(ctx, m, rng)[0] for _ in range(2))
        mats.append(pure_tensor(ctx, x, xi))
    R = np.stack([M.reshape(-1) for M in mats])
    got, ranks = bulk.theta_descent(ctx, spec, R)
    for M, th, r in zip(mats, got.tolist(), ranks.tolist()):
        assert th == naive_ref.naive_theta(nf, j, M.tolist()), M.tolist()
        assert r == rank(ctx, M)


def _order_slice(ctx, k, where, count):
    """count rows of the class order from its start, middle or end; an
    order shorter than count is repeated."""
    total = num_classes(ctx.q, k)
    if count > total:
        whole = class_reps_range(ctx.q, k, 0, total, dtype=ctx.dtype)
        return whole[np.arange(count) % total]
    start = {"start": 0, "middle": (total - count) // 2, "end": total - count}[where]
    return class_reps_range(ctx.q, k, start, start + count, dtype=ctx.dtype)


@pytest.mark.parametrize("cfg", [(2, 1, 0, 1), (2, 2, 1, 2), (2, 2, 0, 2),
                                 (2, 3, 1, 2), (2, 4, 2, 1), (2, 4, 0, 1),
                                 (2, 2, 1, 3), (2, 6, 1, 1), (2, 11, 1, 1)])
def test_plane_kernel_matches_the_byte_kernel(cfg, monkeypatch):
    # the p = 2 descent, which ran on bit planes before the byte kernel
    # served every p, against one unsliced byte-kernel call and, on every
    # 16th row (theta_batch is slow at q = 2048), against theta_batch;
    # lengths around one slice expose its seams
    ps = system(*cfg)
    ctx, spec = ps.ctx, ps.spec
    b = bulk._bundle(ps.cfg)
    for count in (0, 1, bulk._SLICE, bulk._SLICE + 17):
        for where in ("start", "middle", "end"):
            R = _order_slice(ctx, ps.k, where, count)
            got = bulk.theta_descent(ctx, spec, R)
            with monkeypatch.context() as mp:
                mp.setattr(bulk, "_SLICE", max(count, 1))
                want = bulk.theta_descent(ctx, spec, R)
            for g, w in zip(got, want):
                assert g.shape == w.shape == (count,)
                assert g.dtype == w.dtype
                assert np.array_equal(g, w), (count, where)
            some, _ = bulk.theta_batch(b, R[::16])
            assert np.array_equal(got[0][::16], some), (count, where)


def _descent_keys(ps, R):
    """class_keys' theta cells from the rows R: theta_descent, the rank
    class from its ranks and pairing_batch on the rank-1 rows."""
    theta, ranks = bulk.theta_descent(ps.ctx, ps.spec, R)
    rclass = ranks.astype(np.intp)
    one = ranks == 1
    rclass[one] = bulk.pairing_batch(bulk._bundle(ps.cfg), R[one]) != 0
    return (theta.astype(np.intp) * (ps.m + 1) + rclass) * 2, ranks


@pytest.mark.parametrize("cfg", [(2, 2, 1, 2), (2, 3, 1, 2), (2, 4, 2, 1)])
def test_class_keys_match_the_byte_route(cfg):
    # the byte route ranks the rows of the class order on bytes (the
    # descent's kernel) and adds the flag check of those rows; with the
    # check bit cleared its keys are the theta kind's.  The chunks start
    # off the q^m grid of the runs, and the first ones hold singular and
    # quasi-singular rank-1 classes
    ps = system(*cfg)
    q, k = ps.ctx.q, ps.k
    total = num_classes(q, k)
    b = bulk._bundle(ps.cfg)

    rank1 = set()
    for start, stop in ((0, 300), (101, 2101), (total - 777, total)):
        R = class_reps_range(q, k, start, stop, dtype=ps.ctx.dtype)
        cells, _ = _descent_keys(ps, R)
        theta = cells // (2 * (ps.m + 1))
        want = cells + bulk._check_bit(b, "flag", R, theta)
        for kind, keys in (("flag", want), ("theta", cells)):
            got = bulk.class_keys(ps.cfg, kind, start, stop)
            assert got.dtype == keys.dtype
            assert np.array_equal(got, keys), (kind, start, stop)
        rank1 |= set((want // 2 % (ps.m + 1)).tolist()) & {0, 1}
    assert rank1 == {0, 1}


def _seam_ranges(q, k, width):
    """Ranges of about 2 width classes across every lead-block seam of the
    class order, off the q^m grid of the runs, and its last width classes."""
    total = num_classes(q, k)
    seams = [num_classes(q, tail) for tail in range(1, k)]
    return [(max(0, s - width), min(total, s + width + 1)) for s in seams] \
        + [(total - width, total)]


@pytest.mark.parametrize("cfg, ranges", [
    ((2, 2, 1, 2), [(0, num_classes(4, 9))]),
    ((2, 2, 0, 2), [(0, num_classes(4, 9))]),           # sigma = 1
    ((2, 2, 1, 1), [(0, num_classes(4, 4))]),           # n = 1
    ((3, 3, 1, 1), [(0, num_classes(27, 4))]),
    ((2, 1, 0, 2), [(0, num_classes(2, 9))]),           # one bit a digit
    ((2, 3, 1, 2), _seam_ranges(8, 9, 700)
     + [(num_classes(8, 8) + 100 * 512 + 77,        # a block in 4 slices of runs
         num_classes(8, 8) + 500 * 512 + 377)]),
    ((3, 2, 1, 2), _seam_ranges(9, 9, 700)),
    ((2, 2, 1, 3), _seam_ranges(4, 16, 300)),
    ((2, 4, 2, 2), _seam_ranges(16, 9, 300))],
    ids=["q4n2", "q4n2-sigma1", "q4n1", "q27n1", "q2n2", "q8n2-seams",
         "q9n2-seams", "q4n3-seams", "q16n2j2-seams"])
def test_class_keys_match_the_descent(cfg, ranges):
    # the block counts against theta_descent and pairing_batch on the rows
    # of class_reps_range, and their ranks against the scalar rank on
    # every rank-1 class and a spread of the others
    ps = system(*cfg)
    q, k = ps.ctx.q, ps.k
    for start, stop in ranges:
        R = class_reps_range(q, k, start, stop, dtype=ps.ctx.dtype)
        want, ranks = _descent_keys(ps, R)
        got = bulk.class_keys(ps.cfg, "theta", start, stop)
        assert np.array_equal(got, want), (start, stop)
        spot = np.flatnonzero((ranks == 1) | (np.arange(len(R)) % 97 == 0))
        assert [rank(ps.ctx, R[i].reshape(ps.m, ps.m)) for i in spot[:400]] \
            == (got[spot[:400]] // 2 % (ps.m + 1)).clip(1).tolist()


def test_class_keys_work_in_one_run_beyond_the_range(monkeypatch):
    # at q = 2048, n = 1 a run is q^2 = 2^22 classes: a short range walks
    # the q functionals xi' of each run it touches once, in blocks, and
    # holds no run-sized array
    ps = system(2, 11, 1, 1)
    q, k = ps.ctx.q, ps.k
    bulk.class_keys(ps.cfg, "theta", 0, 1)              # build the tables
    walked = []
    lines = bulk._sigma_lines

    def counted(cfg, x0, x1):
        walked.append(x1 - x0)
        return lines(cfg, x0, x1)

    monkeypatch.setattr(bulk, "_sigma_lines", counted)
    # in the last lead block a run starts at every multiple of q^2 of
    # index - num_classes(q, k - 1); this one ends 150 classes on
    start = num_classes(q, k - 1) + 1000 * q * q - 150
    for stop, runs in ((start + 100, 1), (start + 300, 2)):
        walked.clear()
        tracemalloc.start()
        got = bulk.class_keys(ps.cfg, "theta", start, stop)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sum(walked) == runs * q and len(walked) > runs
        assert peak < 8 << 20, peak     # the codes of one run: 32 MB
        R = class_reps_range(q, k, start, stop, dtype=ps.ctx.dtype)
        assert np.array_equal(got, _descent_keys(ps, R)[0])


def test_theta_sweeps_reach_no_descent_kernel(monkeypatch):
    # a sweep counts theta per run, so the descent kernel never runs; the
    # seeded draws of sampled_theta still go through it, at every p
    def kernel(*args):
        raise AssertionError("descent kernel reached")

    monkeypatch.setattr(bulk, "_descent_bytes", kernel)
    table = weight_spectrum(system(2, 2, 1, 2))
    assert table.counts == {int(w): c for w, c in
                            golden("spectrum_4_2_1")["counts"].items()}
    for cfg in [(2, 2, 1, 2), (3, 2, 1, 2)]:
        with pytest.raises(AssertionError, match="descent kernel reached"):
            bulk.sampled_theta(system(*cfg).cfg, 4, seed=1)


def test_sampled_theta_beyond_the_table_fields():
    ps = system(2, 11, 1, 1)        # q = 2048: no q x q tables
    got = bulk.sampled_theta(ps.cfg, 12, seed=5)
    rng = SplitMix64(5)
    for th in got.tolist():
        M = random_nonzero_matrix(ps.ctx, ps.m, rng)
        assert theta(ps, M).theta == th


def test_sampled_theta_draws_rows_like_the_scalar_loop(monkeypatch):
    # at q = 2 with 2 x 2 matrices one row in 16 is zero, so the block
    # draws must reject rows exactly where random_nonzero_matrix does,
    # also where blocks of 7 rows continue the stream of one rng
    ps = system(2, 1, 0, 1)
    rng = SplitMix64(9)
    mats, rejected = [], 0
    while len(mats) < 300:
        M = np.array(rng.elements(2, 4), dtype=ps.ctx.dtype).reshape(2, 2)
        if M.any():
            mats.append(M)
        else:
            rejected += 1
    assert rejected > 0
    got = bulk.sampled_theta(ps.cfg, 300, seed=9)
    assert got.tolist() == [theta(ps, M).theta for M in mats]
    monkeypatch.setattr(bulk, "_SLICE", 7)
    assert np.array_equal(bulk.sampled_theta(ps.cfg, 300, seed=9), got)


def test_sampled_theta_holds_one_block_of_draws():
    # the draws are taken and descended in blocks of _SLICE rows: 2^18
    # draws at (4, 3) peaked at 6.3 MB under tracemalloc, against 64 MB
    # when all of them were drawn at once
    cfg = system(2, 2, 1, 3).cfg
    bulk.sampled_theta(cfg, 1, seed=0)          # field and tables built
    tracemalloc.start()
    got = bulk.sampled_theta(cfg, 1 << 18, seed=2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(got) == 1 << 18
    assert peak < 16 << 20, peak


@pytest.mark.parametrize("cfg", [(2, 2, 1, 2), (3, 2, 1, 2), (2, 11, 1, 1)])
def test_zero_counts_batch_matches_codewords(cfg):
    ps = system(*cfg)
    b = bulk._bundle(ps.cfg)
    R = _batch(ps, 40, 3)
    counts, mask = bulk.zero_counts_batch(b, R, full_mask=True)
    zero = flat_codewords(ps, R) == 0
    assert np.array_equal(mask, zero)
    assert np.array_equal(counts, zero.sum(axis=1))


@pytest.mark.parametrize("cfg, start, stop", [
    ((2, 2, 1, 2), 43000, 43300),   # (4, 2): minimal, on a class slice
    ((2, 2, 1, 1), 0, None),        # n = 1: not minimal, all classes
    ((3, 2, 1, 1), 0, None),
    ((2, 3, 1, 1), 0, None)])
def test_minimality_certificate_matches_naive_rank(cfg, start, stop,
                                                   monkeypatch):
    # a first prefix of one row sends the classes through several doublings
    monkeypatch.setattr(linalg, "_PREFIX_ROWS", 1)
    ps = system(*cfg)
    b = bulk._bundle(ps.cfg)
    nf = naive_ref.make_naive(ps.ctx.q)
    stop = stop or num_classes(ps.ctx.q, ps.k)
    R = class_reps_range(ps.ctx.q, ps.k, start, stop, dtype=ps.ctx.dtype)
    _, mask = bulk.zero_counts_batch(b, R, full_mask=True)
    got = linalg.subset_ranks(ps.ctx, ps.flat, mask, ps.k - 1)
    want = [naive_ref.naive_rank(nf, ps.flat[mk].tolist()) if mk.any() else 0
            for mk in mask]
    assert got.tolist() == want
    bad = [r < ps.k - 1 for r in want]
    assert (not any(bad)) == (ps.n == 2)
    # the check bit of every class's cell is its certificate
    keys = bulk.class_keys(ps.cfg, "minimality", start, stop)
    assert (keys & 1).astype(bool).tolist() == bad
    res = bulk.sweep_chunk(ps.cfg, {"kind": "minimality"}, start, stop)
    assert res["table"][..., 1].sum() == sum(bad)


def test_rank3_batch_matches_rank():
    ps = system(2, 3, 1, 2)
    b = bulk._bundle(ps.cfg)
    R = _batch(ps, 60, 5)
    ranks = bulk.rank3_batch(b, R)
    for row, r in zip(R, ranks.tolist()):
        assert rank(ps.ctx, row.reshape(3, 3)) == r


@pytest.mark.parametrize("cfg", [(2, 3, 1, 2), (2, 2, 1, 2), (3, 2, 1, 2),
                                 (2, 11, 1, 1)])
def test_pairing_batch_matches_classify(cfg):
    ps = system(*cfg)
    ctx = ps.ctx
    b = bulk._bundle(ps.cfg)
    rng = SplitMix64(11)
    mats = []
    for _ in range(40):
        u = np.array(rng.elements(ctx.q, ps.m), dtype=ctx.dtype)
        z = np.array(rng.elements(ctx.q, ps.m), dtype=ctx.dtype)
        if not u.any() or not z.any():
            continue
        mats.append(pure_tensor(ctx, u, z))
    R = np.stack([M.reshape(-1) for M in mats])
    pair = bulk.pairing_batch(b, R)
    for M, pv in zip(mats, pair.tolist()):
        rep = classify(ps, M, check_hyperplane=False)
        assert (rep.kind == "singular") == (pv == 0)


def test_cond_theta_sweep_keeps_the_rank_options():
    # the cond kind only adds its check bit: theta and the rank classes
    # are the theta kind's, so its table summed over the bit is that table
    ps = system(2, 2, 1, 2)
    total = num_classes(4, 9)
    plain = bulk.sweep_chunk(ps.cfg, {"kind": "theta"}, 0, total)["table"]
    cond = bulk.sweep_chunk(ps.cfg, {"kind": "cond"}, 0, total)["table"]
    assert plain[..., 1].sum() == 0
    assert np.array_equal(cond.sum(axis=2), plain[..., 0])
    # the check bit is set exactly on the minimum-weight classes
    target = m_bound(3, 4, 2, 2)
    assert cond[target, :, 1].sum() == cond[target].sum() == 360
    assert cond[..., 1].sum() == 360


def test_sweep_is_thread_invariant(monkeypatch):
    # the folded record, counts and first classes, is the same for every
    # worker count, including more workers than the 6 chunks
    ps = system(2, 2, 1, 2)
    total = num_classes(4, 9)
    monkeypatch.setattr(bulk, "DEFAULT_CHUNK", 1 << 14)
    threads = (1, 2, 3, 8)
    tables = {}
    for kind in ("theta", "flag", "cond", "minimality"):
        one, *rest = [_Sweep(ps, kind, th) for th in threads]
        for other in rest:
            assert np.array_equal(other.table, one.table)
            assert np.array_equal(other.first, one.first)
        assert one.table.sum() == total
        tables[kind] = one.table
    for kind in ("theta", "flag"):
        assert tables[kind][..., 1].sum() == 0
    # weight = 4 * (21 - theta), so the frozen spectrum pins the histogram:
    # 1080 codewords of weight 56 are 360 classes, 1008 of weight 60 are 336
    hist = tables["theta"].sum(axis=(1, 2))
    assert hist[7] == 360
    assert hist[6] == 336
    for r in (1, 2, 3):
        one, *rest = [max_theta_by_rank(ps, r, threads=th) for th in threads]
        for other in rest:
            assert other.witness_index == one.witness_index
            assert other.max_theta == one.max_theta
            assert np.array_equal(other.witness, one.witness)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a sweep that hangs instead of hanging the test run."""
    def expire(signum, frame):
        raise TimeoutError(f"sweep still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _sweep_all(ps, threads, chunk):
    total = num_classes(ps.ctx.q, ps.k)
    return list(bulk.iter_sweep(ps.cfg, {"kind": "theta"}, total,
                                threads=threads, chunk=chunk))


def test_sweep_forks_no_more_workers_than_chunks():
    ps = system(2, 2, 1, 2)
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    with _deadline(10):
        res = _sweep_all(ps, threads=6, chunk=1 << 15)     # 3 chunks
    assert len(forks) == 3
    assert [r["start"] for r in res] == [0, 1 << 15, 1 << 16]
    serial = _sweep_all(ps, threads=1, chunk=1 << 15)
    for a, b in zip(res, serial):
        assert np.array_equal(a["table"], b["table"])
    assert mp.active_children() == []


def test_sweep_tops_up_a_full_task_pipe(monkeypatch):
    # 10000 results per worker take more than a 64 KiB result pipe holds:
    # each worker blocks until the parent reads, and order still holds
    monkeypatch.setattr(bulk, "sweep_chunk",
                        lambda cfg, opts, start, stop: {"start": start})
    with _deadline(10):
        res = bulk.iter_sweep(system(2, 2, 1, 2).cfg, {"kind": "theta"},
                              20000, threads=2, chunk=1)
        assert [r["start"] for r in res] == list(range(20000))
    assert mp.active_children() == []


def test_sweep_raises_when_a_worker_dies(monkeypatch):
    ps = system(2, 2, 1, 2)
    chunk_of = bulk.sweep_chunk

    def dies_in_the_fourth(cfg, opts, start, stop):
        if start == 3 << 12:
            os._exit(1)
        return chunk_of(cfg, opts, start, stop)

    monkeypatch.setattr(bulk, "sweep_chunk", dies_in_the_fourth)
    with _deadline(10):
        with pytest.raises(RuntimeError, match="exited with code 1"):
            _sweep_all(ps, threads=2, chunk=1 << 12)
    assert mp.active_children() == []


def test_sweep_raises_when_every_worker_stops_early(monkeypatch):
    # a worker that exits 0 without sending closes its pipe all the same
    monkeypatch.setattr(bulk, "sweep_chunk",
                        lambda cfg, opts, start, stop: os._exit(0))
    with _deadline(10):
        with pytest.raises(RuntimeError,
                           match="^sweep workers stopped with 3 chunks left$"):
            _sweep_all(system(2, 2, 1, 2), threads=2, chunk=1 << 15)
    assert mp.active_children() == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_sweeps_leave_no_file_descriptors_open(monkeypatch):
    ps = system(2, 2, 1, 2)

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    with _deadline(10):
        _sweep_all(ps, threads=2, chunk=1 << 12)
    assert open_fds() == before
    with _deadline(10):
        sweep = bulk.iter_sweep(ps.cfg, {"kind": "theta"},
                                num_classes(4, 9), threads=2, chunk=1 << 10)
        next(sweep)
        sweep.close()
    assert open_fds() == before
    chunk_of = bulk.sweep_chunk

    def dies_in_the_second(cfg, opts, start, stop):
        if start == 1 << 12:
            os._exit(1)
        return chunk_of(cfg, opts, start, stop)

    monkeypatch.setattr(bulk, "sweep_chunk", dies_in_the_second)
    with _deadline(10):
        with pytest.raises(RuntimeError, match="exited with code 1"):
            _sweep_all(ps, threads=2, chunk=1 << 12)
    assert open_fds() == before
    assert mp.active_children() == []


def test_sweep_passes_on_exceptions_and_stops_on_close(monkeypatch, capfd):
    ps = system(2, 2, 1, 2)
    chunk_of = bulk.sweep_chunk

    def fails_in_the_third(cfg, opts, start, stop):
        if start == 2 << 12:
            raise ValueError(f"bad chunk at {start}")
        return chunk_of(cfg, opts, start, stop)

    monkeypatch.setattr(bulk, "sweep_chunk", fails_in_the_third)
    with _deadline(10):
        with pytest.raises(ValueError, match="^bad chunk at 8192$"):
            _sweep_all(ps, threads=2, chunk=1 << 12)
    assert mp.active_children() == []
    assert "Traceback" not in capfd.readouterr().err
    monkeypatch.setattr(bulk, "sweep_chunk", chunk_of)
    total = num_classes(4, 9)
    with _deadline(10):
        sweep = bulk.iter_sweep(ps.cfg, {"kind": "minimality"}, total,
                                threads=2, chunk=1 << 10)
        assert next(sweep)["start"] == 0
        sweep.close()
    assert mp.active_children() == []


def test_chunk_boundaries_do_not_lose_classes():
    ps = system(2, 2, 1, 2)
    total = num_classes(4, 9)
    for kind in ("theta", "cond"):
        opts = {"kind": kind}
        whole = bulk.sweep_chunk(ps.cfg, opts, 0, total)
        halves = [bulk.sweep_chunk(ps.cfg, opts, 0, total // 2),
                  bulk.sweep_chunk(ps.cfg, opts, total // 2, total)]
        assert np.array_equal(halves[0]["table"] + halves[1]["table"],
                              whole["table"])
        first = np.minimum(halves[0]["first"], halves[1]["first"])
        assert np.array_equal(first, whole["first"])
        # on the nonempty cells, the first class of the range per cell
        start = 1000
        part = bulk.sweep_chunk(ps.cfg, opts, start, total)
        cell, at = np.unique(bulk.class_keys(ps.cfg, kind, start, total),
                             return_index=True)
        nonempty = np.flatnonzero(part["table"].reshape(-1))
        assert np.array_equal(nonempty, cell)
        assert np.array_equal(part["first"].reshape(-1)[cell], start + at)


def _class_route(ps):
    """The theta table per class, np.bincount of class_keys over [0, total),
    and per cell the index of its first class (int64 max where none)."""
    b = bulk._bundle(ps.cfg)
    shape = (b.F + 1, b.m + 1, 2)
    total = num_classes(ps.ctx.q, ps.k)
    counts = np.zeros(np.prod(shape), dtype=np.int64)
    first = np.full(np.prod(shape), np.iinfo(np.int64).max)
    for a in range(0, total, 1 << 20):      # pieces: no 19M-key array
        keys = bulk.class_keys(ps.cfg, "theta", a, min(a + (1 << 20), total))
        piece = np.bincount(keys, minlength=len(counts))
        if ((piece > 0) & (counts == 0)).any():         # a new cell
            cell, at = np.unique(keys, return_index=True)
            first[cell] = np.minimum(first[cell], a + at)
        counts += piece
    return counts.reshape(shape), first.reshape(shape)


@pytest.mark.parametrize("cfg, runs", [
    ((2, 2, 1, 2), "all"),
    ((2, 3, 1, 2), "one"), ((2, 3, 2, 2), "one"),       # (8, 2), j = 1, 2
    ((2, 2, 1, 1), "all"), ((2, 3, 1, 1), "all"), ((3, 2, 1, 1), "all"),
    ((2, 4, 1, 1), "all"), ((2, 4, 2, 1), "all"), ((5, 2, 1, 1), "all"),
    ((3, 3, 1, 1), "all"),
    ((11, 1, 0, 1), "all")],                # prime q: every run its orbit
    ids=["q4n2", "q8n2", "q8n2j2", "q4n1", "q8n1", "q9n1", "q16n1",
         "q16n1j2", "q25n1", "q27n1", "q11n1"])
def test_orbit_folded_theta_sweep_matches_the_class_route(cfg, runs,
                                                          monkeypatch):
    # a theta sweep counts only the least run of each run orbit, weighted
    # by the orbit's size, so a part's table is in general not that of its
    # own classes; the folded record, counts and first classes, is the
    # class route's, for any chunk size and worker count.
    # Chunks of 1000 and 4099 classes would cut runs (q^m = 64 .. 19683);
    # at (8, 2), 19,173,961 classes, the class route takes about 0.3 s
    # (the sweep 3 ms), so those run one combination
    ps = system(*cfg)
    table, first = _class_route(ps)
    combos = [(1000, 1), (1000, 2), (4099, 1), (4099, 2)]
    for chunk, threads in combos if runs == "all" else [(4099, 2)]:
        monkeypatch.setattr(bulk, "DEFAULT_CHUNK", chunk)
        sweep = _Sweep(ps, "theta", threads)
        assert np.array_equal(sweep.table, table), (chunk, threads)
        assert np.array_equal(sweep.first, first), (chunk, threads)


_ORBIT_CFGS = [(2, 2, 1, 2), (2, 3, 1, 2), (2, 3, 2, 2), (3, 2, 1, 2),
               (2, 2, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1), (2, 4, 1, 1),
               (2, 4, 2, 1), (5, 2, 1, 1), (3, 3, 1, 1), (11, 1, 0, 1)]
_ORBIT_IDS = ["q4n2", "q8n2", "q8n2j2", "q9n2", "q4n1", "q8n1", "q9n1",
              "q16n1", "q16n1j2", "q25n1", "q27n1", "q11n1j0"]


def _prefix_orbits(ps):
    """Per prefix, the least member of its orbit, by closure over all
    num_classes(q, m (m - 1)) prefixes: R' -> A R' sigma(g) with g^-1 =
    [[A, 0], [b, 1]] for A = diag(omega, 1, ...), I + E_01 and the row
    cycle (b = 0), for A = I and b = e_0, and tau; labels spread along
    each map and its inverse until none moves."""
    ctx, q, m = ps.ctx, ps.ctx.q, ps.m
    w = m - 1
    P = num_classes(q, w * m)
    R = class_reps_range(q, w * m, 0, P, dtype=ctx.dtype).reshape(P, w, m)
    eye = np.eye(m, dtype=ctx.dtype)
    gis = [eye.copy(), eye.copy()]
    gis[0][0, 0] = ctx.gen                          # A = diag(omega, 1, ...)
    gis[1][w, 0] = 1                                # b = e_0
    if w > 1:
        gis.append(eye.copy())
        gis[-1][0, 1] = 1                           # A = I + E_01
        gis.append(eye[list(range(1, w)) + [0, w]])  # A = the row cycle
    images = []
    for gi in gis:
        g = np.asarray(linalg.invert(ctx, gi), dtype=ctx.dtype)
        sg = ps.spec.table.take(g)
        V = linalg.matmul(ctx, linalg.matmul(ctx, gi[:w, :w], R), sg)
        images.append(V.reshape(P, -1))
    if ctx.t > 1:
        images.append(make_autspec(ctx, 1).table.take(R).reshape(P, -1))
    perms = []
    for V in images:
        lead = V[np.arange(P), (V != 0).argmax(axis=1)]
        scaled = ctx.mul_np(ctx.inv_table[lead][:, None], V)
        perms.append(class_indices(q, scaled))
    label = np.arange(P)
    while True:
        old = label.copy()
        for f in perms:
            label = np.minimum(label, label[f])
            label[f] = np.minimum(label[f], label)
        label = label[label]
        if np.array_equal(label, old):
            return label


@pytest.mark.parametrize("cfg", _ORBIT_CFGS, ids=_ORBIT_IDS)
def test_run_orbits_are_the_least_runs_of_their_orbits(cfg):
    # the table runs its closure on the least members of the shear orbits
    # only; a closure over every prefix, with the shear b = e_0 among the
    # maps, gives the same least runs and orbit sizes
    ps = system(*cfg)
    runs, sizes = bulk._bundle(ps.cfg).run_orbits
    assert runs.dtype == sizes.dtype == np.int64
    assert sizes.sum() == num_classes(ps.ctx.q, ps.m * (ps.m - 1)) + 1
    least, size = np.unique(_prefix_orbits(ps), return_counts=True)
    assert runs.tolist() == [0] + (least + 1).tolist()
    assert sizes.tolist() == [1] + size.tolist()


@pytest.mark.parametrize("cfg", _ORBIT_CFGS, ids=_ORBIT_IDS)
def test_run_maps_keep_the_cells_of_a_run(cfg):
    # each generator, and the shear that clears a row, maps a run onto a
    # run with the same cell counts, on a seeded sample of runs: the
    # cells are invariant whatever the labeling makes of them
    ps = system(*cfg)
    b = bulk._bundle(ps.cfg)
    q, m = b.q, b.m
    w, qm, zero = m - 1, q ** m, num_classes(q, m)
    P = num_classes(q, w * m)
    rng = np.random.default_rng(sum(cfg))
    prefixes = rng.choice(P, size=min(P, 24), replace=False)
    R = np.concatenate([class_reps_range(q, w * m, i, i + 1, dtype=b.ctx.dtype)
                        for i in prefixes]).reshape(-1, w, m)
    maps, tau = bulk._run_maps(b)
    moved = [linalg.matmul(b.ctx, linalg.matmul(b.ctx, A, R), C)
             for A, C in maps] + [R]
    if tau is not None:
        moved.append(tau.take(R))
    assert len(maps) == (q > 2) + 2 * (w > 1)

    def cells(i):
        start = zero + i * qm
        keys = bulk.class_keys(ps.cfg, "theta", start, start + qm)
        return np.bincount(keys, minlength=2 * (b.F + 1) * (m + 1))

    for V in moved:
        image = bulk._shear_least(b, V)
        for i, j in zip(prefixes.tolist(), image.tolist()):
            assert np.array_equal(cells(j), cells(i)), (i, j)


def test_unweighted_least_runs_miss_classes(monkeypatch):
    # with every least run at weight 1 the sweep loses the other runs of
    # each orbit, and _Sweep's class count catches it
    ps = system(2, 2, 1, 2)
    runs, sizes = bulk._bundle(ps.cfg).run_orbits
    assert (sizes > 1).any()
    monkeypatch.setattr(bulk._Bundle, "run_orbits",
                        property(lambda b: (runs, np.ones_like(sizes))))
    with pytest.raises(AssertionError):
        _Sweep(ps, "theta", 1)


def test_run_orbit_table_stays_small_at_q16():
    # (16, 2, 1) has 1,118,481 prefixes, but the closure runs on the 8,721
    # least members of their shear orbits: a cold table peaked at 1.53 MB
    # under tracemalloc, and the bound leaves 2.6x room
    ps = system(2, 4, 1, 2)
    b = bulk._Bundle(ps.cfg)
    tracemalloc.start()
    runs, sizes = b.run_orbits
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(runs) == 9 and sizes.sum() == num_classes(16, 6) + 1
    assert peak < 4 << 20, peak


def _forks_during(call) -> int:
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    call()
    return len(forks)


def test_theta_sweeps_fork_nothing(monkeypatch):
    # a theta sweep counts its least runs in-process for any threads; the
    # check kinds still fork their workers, here over 6 chunks of (4, 2)
    monkeypatch.setattr(bulk, "DEFAULT_CHUNK", 1 << 14)
    q4, q8 = system(2, 2, 1, 2), system(2, 3, 1, 2)
    with _deadline(30):
        assert _forks_during(lambda: second_weight_check(q8, threads=2)) == 0
        assert _forks_during(lambda: weight_spectrum(
            q4, flag_check=False, threads=8)) == 0
        assert _forks_during(lambda: weight_spectrum(
            q4, flag_check=True, threads=2)) == 2
    assert mp.active_children() == []


SPECTRUM_9_2_1 = {0: 1, 702: 60480, 720: 58968, 729: 7280, 774: 8845200,
                  783: 6289920, 792: 10614240, 801: 75479040,
                  810: 181555920, 819: 104509440}


def test_exhaustive_spectrum_at_q9(monkeypatch):
    # the end-to-end oracle for odd p at t = 2, over all 48,427,561
    # classes: the spectrum was recorded by a sweep that counted every run
    ps = system(3, 2, 1, 2)
    monkeypatch.setattr(bulk, "EXHAUSTIVE_CAP", num_classes(9, 9))
    table = weight_spectrum(ps, flag_check=False, threads=2)
    assert table.mode == "exhaustive"
    assert table.classes == 48_427_561
    assert table.counts == SPECTRUM_9_2_1


SPECTRUM_16_2_1 = {0: 1, 4080: 1048320, 4096: 69615, 4256: 381888000,
                   4304: 712857600, 4320: 8019648000, 4336: 2405894400,
                   4352: 38867446800, 4368: 18330624000}
SPECTRUM_16_2_2 = {0: 1, 4032: 1060800, 4080: 1048320, 4096: 69615,
                   4272: 784143360, 4288: 334152000, 4320: 3801907200,
                   4336: 12029472000, 4352: 31400263440, 4368: 20367360000}
SPECTRUM_4_3_1 = {0: 1, 1008: 16320, 1024: 5355, 1120: 146880,
                  1232: 8616960, 1248: 15422400, 1264: 13366080,
                  1280: 6832980, 1296: 164505600, 1312: 380419200,
                  1328: 760838400, 1344: 2089368000, 1360: 855429120}


@pytest.mark.parametrize("cfg, counts", [
    ((2, 4, 1, 2), SPECTRUM_16_2_1), ((2, 4, 2, 2), SPECTRUM_16_2_2),
    ((2, 2, 1, 3), SPECTRUM_4_3_1)], ids=["q16n2", "q16n2j2", "q4n3"])
def test_exhaustive_spectra_beyond_the_cap(cfg, counts, monkeypatch):
    # spectra recorded by every-run sweeps on 2 workers (40 s each at
    # q = 16, 26 s at (4, 3)), an oracle independent of the run orbits;
    # the orbit route counts 9, 10 and 23 least runs in 0.02-0.3 s
    ps = system(*cfg)
    monkeypatch.setattr(bulk, "EXHAUSTIVE_CAP", num_classes(ps.ctx.q, ps.k))
    table = weight_spectrum(ps, flag_check=False)
    assert table.mode == "exhaustive"
    assert table.counts == counts


def test_witnesses_do_not_depend_on_the_chunk_size(monkeypatch):
    # a witness is read off the folded first classes; a theta sweep has no
    # chunk grid, so chunks of 2^10 (86 of them at (4, 2)) change nothing
    ps = system(2, 2, 1, 2)
    ctx = ps.ctx
    R = class_reps_range(4, 9, 0, num_classes(4, 9), dtype=ctx.dtype)
    theta, _ = bulk.theta_batch(bulk._bundle(ps.cfg), R)    # fixed_scan
    ranks = linalg.rank_batch(ctx, R.reshape(-1, 3, 3))
    wide = {r: max_theta_by_rank(ps, r) for r in (1, 2, 3)}
    monkeypatch.setattr(bulk, "DEFAULT_CHUNK", 1 << 10)
    for r in (1, 2, 3):
        narrow = max_theta_by_rank(ps, r)
        of_rank = ranks == r
        mx = theta[of_rank].max()
        first = int(np.flatnonzero(of_rank & (theta == mx))[0])
        assert wide[r].witness_index == narrow.witness_index == first
        assert wide[r].max_theta == narrow.max_theta == mx
        assert np.array_equal(narrow.witness, R[first].reshape(3, 3))


def test_witnesses_are_read_off_the_record(monkeypatch):
    # first_class is a lookup in the folded first classes: once the sweep
    # is built, no class key is read again
    ps = system(2, 2, 1, 2)
    sweep = _Sweep(ps, "theta", 1)

    def no_keys(*args):
        raise AssertionError("class keys read again")

    monkeypatch.setattr(bulk, "class_keys", no_keys)
    rank1 = sweep.rclass <= 1
    assert sweep.first_class(rank1 & (sweep.theta == m_bound(1, 4, 2, 2))) == 0
    assert sweep.first_class((sweep.rclass == 3) & (sweep.theta == 7)) == 1637
    assert sweep.first_class(sweep.bit == 1) is None        # empty cells


def test_sampled_theta_reproducible():
    ps = system(2, 2, 1, 2)
    a = bulk.sampled_theta(ps.cfg, 120, seed=17)
    bb = bulk.sampled_theta(ps.cfg, 120, seed=17)
    c = bulk.sampled_theta(ps.cfg, 120, seed=18)
    assert np.array_equal(a, bb)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() <= 7


@pytest.mark.parametrize("entry, cfg", [
    (weight_spectrum, (2, 2, 1, 2)),
    (lambda ps: max_theta_by_rank(ps, 1), (2, 2, 1, 2)),
    (is_minimal, (2, 2, 1, 2)),
    (min_weight_sweep, (2, 2, 1, 2)),
    (second_weight_check, (2, 3, 1, 2))],
    ids=["weight_spectrum", "max_theta_by_rank", "is_minimal",
         "min_weight_sweep", "second_weight_check"])
def test_exhaustive_cap_is_enforced(entry, cfg, monkeypatch):
    # one class over the cap is refused before any chunk runs
    ps = system(*cfg)
    total = num_classes(ps.ctx.q, ps.k)
    monkeypatch.setattr(bulk, "EXHAUSTIVE_CAP", total - 1)
    monkeypatch.setattr(bulk, "iter_sweep", None)
    with pytest.raises(ValueError, match=f"{total} classes exceed the "
                                         f"exhaustive cap {total - 1}"):
        entry(ps)


def test_exhaustive_cap_refuses_the_real_sizes():
    with pytest.raises(ValueError, match="exhaustive cap 20000000"):
        weight_spectrum(system(3, 2, 1, 2))     # 9^9 classes
    # (8, 2) is under the class cap, but its minimality sweep would rank
    # 19,173,961 x 657 flag rows
    with pytest.raises(ValueError, match="class x flag pairs exceed the "
                                         "exhaustive cap 1000000000"):
        is_minimal(system(2, 3, 1, 2))
