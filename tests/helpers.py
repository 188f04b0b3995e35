"""Shared test plumbing: cached systems and golden-file access."""

import json
from functools import lru_cache
from pathlib import Path

from twistcode import make_system
from twistcode.linalg import matmul

DATA = Path(__file__).parent / "data"


def prime_power(q):
    for p in (2, 3, 5, 7):
        m, t = q, 0
        while m % p == 0:
            m //= p
            t += 1
        if m == 1:
            return p, t
    raise ValueError(f"{q} is not a small prime power")


@lru_cache(maxsize=None)
def system(p, t, j, n):
    return make_system(p, t, j, n)


def flat_codewords(ps, R):
    """Codewords of the flattened matrices R as the flat product: row i of
    flat holds X_i row-major, so Tr(X_i M) is flat[i] . vec(M^T)."""
    W = R.reshape(-1, ps.m, ps.m).transpose(0, 2, 1).reshape(-1, ps.k)
    return matmul(ps.ctx, W, ps.flat.T)


def golden(name):
    with open(DATA / f"{name}.json") as fh:
        return json.load(fh)
