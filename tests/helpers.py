"""Shared test plumbing: cached systems and golden-file access."""

import json
from functools import lru_cache
from pathlib import Path

from twistcode import make_system
from twistcode.linalg import matmul

DATA = Path(__file__).parent / "data"

# sha256 of line_flags()'s int32 rows, and the point-pencil count
LINE_FLAGS_SHA256 = {
    (3, 3): ("b6e1c2e3d8d465bed68447de4d79a5fee849ef2a5c1bc23a7f0f67fc4c39db7b",
             520),
    (4, 2): ("9e20511fddb59fdaa50b6bd0bdb642ec5193faa63ab2f30d4a61fed512d9aff5",
             21),
    (4, 3): ("e071022fe51a1089410e26fe9cdf379a8a4ea09f345d90de48accdc525493fc1",
             1785),
    (9, 3): ("13e8ac0fea5d0ff95e5f377900bb3bf0c15ef4c1f69995094708720547de28b8",
             74620),
}


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
