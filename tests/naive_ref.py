"""Independent reference implementations used to freeze golden values.

Everything here works from first principles: field elements are
coefficient tuples reduced with schoolbook polynomial division, inverses
come from scanning, incidence and traces are evaluated directly from the
definitions, and nothing is vectorized.  No imports from the package on
purpose; agreement between these routines and the fast paths is what the
golden tests certify.
"""

from __future__ import annotations

import itertools


class NaiveGF:
    """GF(p^t) as coefficient tuples reduced mod a monic polynomial.

    Encodings match the package convention (base-p digits, least
    significant first) so values are directly comparable, but all
    arithmetic is schoolbook.
    """

    def __init__(self, p: int, t: int, modulus: tuple[int, ...]):
        assert len(modulus) == t + 1 and modulus[t] == 1
        self.p = p
        self.t = t
        self.q = p ** t
        self.modulus = modulus
        self._mul_cache: dict[tuple[int, int], int] = {}

    def encode(self, coeffs) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (c % self.p)
        return val

    def decode(self, a: int) -> list[int]:
        out = []
        for _ in range(self.t):
            out.append(a % self.p)
            a //= self.p
        return out

    def add(self, a: int, b: int) -> int:
        return self.encode([(x + y) % self.p
                            for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a: int) -> int:
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        pa, pb = self.decode(a), self.decode(b)
        prod = [0] * (2 * self.t - 1)
        for i, x in enumerate(pa):
            if x:
                for j, y in enumerate(pb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce: x^t = -(modulus minus leading term)
        for d in range(len(prod) - 1, self.t - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i in range(self.t):
                    prod[d - self.t + i] = (
                        prod[d - self.t + i] - c * self.modulus[i]) % self.p
        val = self.encode(prod[:self.t])
        self._mul_cache[key] = val
        return val

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("no inverse found")

    def powmod(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def frob(self, a: int, j: int) -> int:
        return self.powmod(a, self.p ** j)


# default moduli, matching docs/field-encoding.md (low degree first)
MODULI = {
    2: (2, 1, (1, 1)),
    3: (3, 1, (1, 1)),
    4: (2, 2, (1, 1, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (2, 2, 1)),
    16: (2, 4, (1, 1, 0, 0, 1)),
    27: (3, 3, (1, 2, 0, 1)),
    64: (2, 6, (1, 1, 0, 1, 1, 0, 1)),
}


def make_naive(q: int) -> NaiveGF:
    p, t, modulus = MODULI[q]
    return NaiveGF(p, t, modulus)


# ---------------------------------------------------------------------------
# projective classes in the global order
# ---------------------------------------------------------------------------

def naive_num_classes(q: int, k: int) -> int:
    return (q ** k - 1) // (q - 1)


def naive_class_reps(q: int, k: int) -> list[tuple[int, ...]]:
    """Blocks by leading-one position descending, tails in lexicographic
    order with the most significant digit first."""
    reps = []
    for lead in range(k - 1, -1, -1):
        tail = k - 1 - lead
        for digits in itertools.product(range(q), repeat=tail):
            reps.append((0,) * lead + (1,) + digits)
    assert len(reps) == naive_num_classes(q, k)
    return reps


def naive_class_rep_at(q: int, k: int, idx: int) -> tuple[int, ...]:
    """The idx-th representative of the global order, computed directly."""
    assert 0 <= idx < naive_num_classes(q, k)
    for lead in range(k - 1, -1, -1):
        tail = k - 1 - lead
        before = naive_num_classes(q, tail)
        if idx < before + q ** tail:
            local = idx - before
            digits = []
            for _ in range(tail):
                digits.append(local % q)
                local //= q
            return (0,) * lead + (1,) + tuple(reversed(digits))
    raise AssertionError("unreachable")


def naive_normalize(gf: NaiveGF, vec) -> tuple[int, ...]:
    vec = list(vec)
    lead = next(v for v in vec if v)
    f = gf.inv(lead)
    return tuple(gf.mul(f, v) for v in vec)


def naive_lines(gf: NaiveGF, k: int) -> tuple[tuple[int, ...], ...]:
    """Lines of PG(k-1, q) from a scan of every point pair.

    Each pair spans the q + 1 classes of b and a + lam*b; a line is kept
    when the pair is its two smallest members, so lines come out ordered
    by their two smallest point indices.
    """
    reps = naive_class_reps(gf.q, k)
    index = {rep: i for i, rep in enumerate(reps)}
    lines = []
    for i, a in enumerate(reps):
        for j in range(i + 1, len(reps)):
            b = reps[j]
            members = {index[b]}
            for lam in range(gf.q):
                v = [gf.add(x, gf.mul(lam, y)) for x, y in zip(a, b)]
                members.add(index[naive_normalize(gf, v)])
            members = sorted(members)
            assert len(members) == gf.q + 1
            if members[:2] == [i, j]:
                lines.append(tuple(members))
    return tuple(lines)


# ---------------------------------------------------------------------------
# flags and the embedding
# ---------------------------------------------------------------------------

def naive_dot(gf: NaiveGF, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = gf.add(acc, gf.mul(a, b))
    return acc


def naive_flags(gf: NaiveGF, n: int) -> list[tuple[tuple, tuple]]:
    """(point, functional) pairs with xi . x = 0, functional-major."""
    pts = naive_class_reps(gf.q, n + 1)
    out = []
    for xi in pts:            # functionals enumerate like points
        for x in pts:
            if naive_dot(gf, xi, x) == 0:
                out.append((x, xi))
    return out


def naive_embed(gf: NaiveGF, j: int, flag) -> tuple[int, ...]:
    """Normalized row-major flattening of sigma(x) * xi."""
    x, xi = flag
    m = len(x)
    flat = []
    for r in range(m):
        sr = gf.frob(x[r], j)
        for c in range(m):
            flat.append(gf.mul(sr, xi[c]))
    return naive_normalize(gf, flat)


def naive_trace_pairing(gf: NaiveGF, X, M) -> int:
    """Tr(X M) for row-major flat X and matrix M (list of rows)."""
    m = len(M)
    acc = 0
    for r in range(m):
        for c in range(m):
            acc = gf.add(acc, gf.mul(X[r * m + c], M[c][r]))
    return acc


def naive_codeword(gf: NaiveGF, flats, M) -> list[int]:
    return [naive_trace_pairing(gf, X, M) for X in flats]


# ---------------------------------------------------------------------------
# theta and spectra
# ---------------------------------------------------------------------------

def naive_theta(gf: NaiveGF, j: int, M) -> int:
    """Count functional classes with xi M = lambda sigma(xi), any lambda.

    Brute force over all nonzero vectors; divisibility by q - 1 is
    asserted before dividing down to classes.
    """
    m = len(M)
    hits = 0
    for xi in itertools.product(range(gf.q), repeat=m):
        if not any(xi):
            continue
        v = [0] * m
        for i, e in enumerate(xi):
            if e:
                for c in range(m):
                    v[c] = gf.add(v[c], gf.mul(e, M[i][c]))
        sxi = [gf.frob(e, j) for e in xi]
        if not any(v):
            hits += 1
            continue
        lead = next(i for i, e in enumerate(sxi) if e)
        lam = gf.mul(v[lead], gf.inv(sxi[lead]))
        if all(v[c] == gf.mul(lam, sxi[c]) for c in range(m)):
            hits += 1
    assert hits % (gf.q - 1) == 0
    return hits // (gf.q - 1)


def naive_spectrum(gf: NaiveGF, j: int, n: int) -> dict[int, int]:
    """Exact weight distribution by evaluating every class representative.

    The field tables are tabulated once from the schoolbook routines, and
    each flag keeps only its nonzero trace terms; the walk over all
    (q^k - 1)/(q - 1) representatives stays first-principles otherwise.
    """
    q = gf.q
    add_t = [[gf.add(a, b) for b in range(q)] for a in range(q)]
    mul_t = [[gf.mul(a, b) for b in range(q)] for a in range(q)]
    m = n + 1
    flats = [naive_embed(gf, j, fl) for fl in naive_flags(gf, n)]
    # Tr(X M) pairs the flat X at r*m+c with the rep digit at c*m+r
    terms = []
    for X in flats:
        terms.append([(c * m + r, X[r * m + c])
                      for r in range(m) for c in range(m) if X[r * m + c]])
    counts: dict[int, int] = {0: 1}
    for rep in naive_class_reps(q, m * m):
        w = 0
        for tl in terms:
            acc = 0
            for pos, xv in tl:
                acc = add_t[acc][mul_t[xv][rep[pos]]]
            if acc:
                w += 1
        counts[w] = counts.get(w, 0) + (q - 1)
    return counts


def naive_rank(gf: NaiveGF, M) -> int:
    rows = [list(r) for r in M]
    ncols = len(rows[0])
    rk = 0
    col = 0
    while col < ncols and rk < len(rows):
        piv = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        f = gf.inv(rows[rk][col])
        rows[rk] = [gf.mul(f, v) for v in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                c = rows[r][col]
                rows[r] = [gf.sub(v, gf.mul(c, w))
                           for v, w in zip(rows[r], rows[rk])]
        rk += 1
        col += 1
    return rk
