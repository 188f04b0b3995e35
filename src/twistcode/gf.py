"""Exact arithmetic in GF(q), q = p^t <= 2^16, as integer-encoded elements.

An element is a plain int in [0, q): its base-p digits, least significant
first, are the coefficients of a polynomial residue mod the field modulus
(see docs/field-encoding.md).  Hence 0 and 1 are the additive and
multiplicative identities for every q, and for t >= 2 the integer p encodes
the class of y.

The scalar and array arithmetic is table based.  A FieldCtx carries

* exp/log lists for the cyclic group (the construction of the exp table
  doubles as the primitivity proof for the generator),
* the Zech logarithms Z(e) = log(1 + g^e), so that for odd p
  a + b = g^(log a + Z(log b - log a)),
* full q x q add/mul numpy tables for q <= 1024, and
* per-element neg, inv and -1/x tables.

Scalar add is XOR for p = 2 and Zech for odd p, scalar mul is exp/log,
at every q.  The array operations add_np, mul_np and sum_np (the field
sum along one axis) read the q x q tables up to q = 1024, with gathers
in blocks of _GATHER_BLOCK entries; above it they add by XOR (p = 2) or
Zech and multiply through exp/log, in blocks of as many.  Other modules
go through them and the scalar operations; none reads the q x q tables.

Field axioms are verified exhaustively at construction for q <= 512 and on
a fixed deterministic sample of triples above that; the Zech table is
checked against add_table on 1 + x wherever add_table exists.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import SplitMix64

Q_CAP = 1 << 16          # largest supported field size
_FULL_TABLE_CAP = 1024   # build q x q tables up to this size
_AXIOM_EXHAUSTIVE_CAP = 512
_GATHER_BLOCK = 1 << 16  # entries per block of a table gather

# Default moduli, coefficients low degree first, leading 1 included.
# Each is primitive: the class of y generates the multiplicative group
# (proved at construction while the exp table is built).
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),                # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),             # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),          # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),       # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 1, 1, 0, 1),    # x^6 + x^4 + x^3 + x + 1
    (3, 2): (2, 2, 1),                # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),             # x^3 + 2x + 1
    (3, 4): (2, 0, 0, 2, 1),          # x^4 + 2x^3 + 2
    (5, 2): (2, 4, 1),                # x^2 + 4x + 2
    (7, 2): (3, 6, 1),                # x^2 + 6x + 3
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers on digit lists over GF(p), used during construction only
# ---------------------------------------------------------------------------

def _int_digits(a: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(a % p)
        a //= p
    return out


def _digits_int(ds, p: int) -> int:
    v = 0
    for d in reversed(list(ds)):
        v = v * p + d
    return v


def _poly_mul_mod(a: int, b: int, p: int, t: int, mod: tuple[int, ...]) -> int:
    """Product of two encoded residues, schoolbook then reduce by `mod`."""
    da = _int_digits(a, p, t)
    db = _int_digits(b, p, t)
    prod = [0] * (2 * t - 1)
    for i, ai in enumerate(da):
        if ai:
            for k, bk in enumerate(db):
                if bk:
                    prod[i + k] = (prod[i + k] + ai * bk) % p
    for i in range(2 * t - 2, t - 1, -1):
        c = prod[i]
        if c:
            for k in range(t + 1):
                prod[i - t + k] = (prod[i - t + k] - c * mod[k]) % p
    return _digits_int(prod[:t], p)


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by den (digit lists, low degree first, den monic-led)."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[dd], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            f = (c * lead_inv) % p
            for k in range(dd + 1):
                num[i - dd + k] = (num[i - dd + k] - f * den[k]) % p
    return num[:dd]


def _poly_is_irreducible(mod: tuple[int, ...], p: int, t: int) -> bool:
    """Trial division by every monic polynomial of degree <= t // 2."""
    if t == 1:
        return True
    if mod[0] == 0:
        return False
    for d in range(1, t // 2 + 1):
        for low in range(p ** d):
            den = _int_digits(low, p, d) + [1]
            if not any(_poly_rem(list(mod), den, p)):
                return False
    return True


def _element_order(a: int, p: int, t: int, mod: tuple[int, ...]) -> int:
    q1 = p ** t - 1
    order = q1
    for r in _prime_factors(q1):
        while order % r == 0:
            e = order // r
            acc, base, k = 1, a, e
            while k:
                if k & 1:
                    acc = _poly_mul_mod(acc, base, p, t, mod)
                base = _poly_mul_mod(base, base, p, t, mod)
                k >>= 1
            if acc == 1:
                order = e
            else:
                break
    return order


def _smallest_primitive_root(p: int) -> int:
    for g in range(2, p):
        if _element_order(g, p, 1, (0, 1)) == p - 1:
            return g
    return 1  # p == 2


def _search_primitive_modulus(p: int, t: int) -> tuple[int, ...]:
    """Smallest (by base-p encoding of low coefficients) primitive modulus."""
    for low in range(1, p ** t):
        mod = tuple(_int_digits(low, p, t)) + (1,)
        if mod[0] == 0:
            continue
        if not _poly_is_irreducible(mod, p, t):
            continue
        if _element_order(p if t > 1 else (p - mod[0]) % p, p, t, mod) == p ** t - 1:
            return mod
    raise ValueError(f"no primitive modulus found for p={p}, t={t}")


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

def _field_size(p: int, t: int) -> int:
    """q = p^t; ValueError unless p is prime, t >= 1 and q <= Q_CAP.  p and
    t are bounded first, so no huge p is tested and no huge p^t formed."""
    if p > Q_CAP:
        raise ValueError(f"p = {p} exceeds the supported cap {Q_CAP} on q")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if t > Q_CAP.bit_length():                  # p^t >= 2^t > Q_CAP
        raise ValueError(f"q = {p}^{t} exceeds the supported cap {Q_CAP}")
    q = p ** t
    if q > Q_CAP:
        raise ValueError(f"q = {q} exceeds the supported cap {Q_CAP}")
    return q


class FieldCtx:
    """Tables and scalar operations for one finite field.

    Use make_field(p, t) rather than constructing directly; contexts are
    cached per (p, t, modulus) and safe to share (all tables read-only).
    """

    def __init__(self, p: int, t: int, modulus: tuple[int, ...] | None = None):
        q = _field_size(p, t)
        if modulus is None:
            modulus = _default_modulus(p, t)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != t + 1 or modulus[t] != 1:
                raise ValueError("modulus must be monic of degree t "
                                 f"(expected {t + 1} coefficients, low degree first)")
            if any(not (0 <= c < p) for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if not _poly_is_irreducible(modulus, p, t):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")

        self.p = p
        self.t = t
        self.q = q
        self.modulus = modulus
        self.dtype = np.uint8 if q <= 256 else np.uint16

        self.gen = self._find_generator()
        self._build_exp_log()
        self._build_elementwise_tables()
        self._build_full_tables()
        self._verify_axioms()

    # -- construction ------------------------------------------------------

    def _find_generator(self) -> int:
        p, t, q, mod = self.p, self.t, self.q, self.modulus
        y = p if t > 1 else (p - mod[0]) % p
        if _element_order(y, p, t, mod) == q - 1:
            return y
        for a in range(2, q):
            if _element_order(a, p, t, mod) == q - 1:
                return a
        raise ValueError("field has no generator (not a field?)")

    def _mul_by_y(self, a: int) -> int:
        """a * y, digit shift plus one reduction step (t >= 2 only)."""
        p, q, mod = self.p, self.q, self.modulus
        v = a * p
        top = v // q
        if top:
            v -= top * q
            # y^t = -(mod[0] + mod[1] y + ... + mod[t-1] y^(t-1))
            corr = 0
            mult = 1
            for k in range(self.t):
                corr += ((-top * mod[k]) % p) * mult
                mult *= p
            v = self._digit_add(v, corr)
        return v

    def _digit_add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        v, mult = 0, 1
        while a or b:
            v += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return v

    def _build_exp_log(self) -> None:
        q = self.q
        exp = [0] * (2 * (q - 1))
        log = [-1] * q
        acc = 1
        use_shift = self.t > 1 and self.gen == self.p
        for i in range(q - 1):
            exp[i] = acc
            if log[acc] != -1:
                raise ValueError(f"generator {self.gen} is not primitive "
                                 f"(cycle at exponent {i})")
            log[acc] = i
            if use_shift:
                acc = self._mul_by_y(acc)
            else:
                acc = _poly_mul_mod(acc, self.gen, self.p, self.t, self.modulus)
        if acc != 1:
            raise ValueError(f"generator {self.gen} does not have order {q - 1}")
        for i in range(q - 1):
            exp[q - 1 + i] = exp[i]
        self._exp = exp
        self._log = log
        self.exp = np.asarray(exp, dtype=np.int32)
        self.log = np.asarray(log, dtype=np.int32)

    def _build_elementwise_tables(self) -> None:
        p, q = self.p, self.q
        idx = np.arange(q, dtype=np.int64)
        digs = [(idx // p ** i) % p for i in range(self.t)]
        neg = np.zeros(q, dtype=np.int64)
        for i, d in enumerate(digs):
            neg += ((p - d) % p) * p ** i
        self.neg_table = neg.astype(self.dtype)
        inv = np.zeros(q, dtype=np.int64)
        lg = self.log[1:].astype(np.int64)
        inv[1:] = self.exp[(q - 1 - lg) % (q - 1)]
        self.inv_table = inv.astype(self.dtype)
        self.neg_inv_table = neg[inv].astype(self.dtype)    # -1/x, 0 -> 0
        self._negl = [int(v) for v in neg]
        self._invl = [int(v) for v in inv]
        # Zech logarithms, -1 where 1 + g^e = 0; 1 + x raises only the
        # lowest base-p digit of x
        x = self.exp[:q - 1]
        self.zech = self.log[x - x % p + (x + 1) % p]
        self._zech = self.zech.tolist()

    def _build_full_tables(self) -> None:
        p, q = self.p, self.q
        if q > _FULL_TABLE_CAP:
            self.add_table = None
            self.mul_table = None
            return
        if p == 2:
            idx = np.arange(q, dtype=np.int64)
            add = idx[:, None] ^ idx[None, :]
        else:
            idx = np.arange(q, dtype=np.int64)
            add = np.zeros((q, q), dtype=np.int64)
            for i in range(self.t):
                d = (idx // p ** i) % p
                add += ((d[:, None] + d[None, :]) % p) * p ** i
        lg = self.log.astype(np.int64)
        mt = np.zeros((q, q), dtype=np.int64)
        mt[1:, 1:] = self.exp[(lg[1:, None] + lg[None, 1:]) % (q - 1)]
        self.add_table = add.astype(self.dtype)
        self.mul_table = mt.astype(self.dtype)

    def _verify_axioms(self) -> None:
        q = self.q
        a = np.arange(q, dtype=np.int64)
        assert np.all(self.add_np(a, self.neg_table.astype(np.int64)) == 0), \
            "additive inverses broken"
        nz = a[1:]
        assert np.all(self.mul_np(nz, self.inv_table[1:].astype(np.int64)) == 1), \
            "multiplicative inverses broken"
        if self.add_table is not None:
            # scalar add reads the Zech list, not the tables: 1 + x, O(q)
            x, z = self.exp[:q - 1], self.zech
            assert np.array_equal(np.where(z < 0, 0, self.exp[z]),
                                  self.add_table[1, x]) \
                and self._zech == z.tolist(), "Zech logarithms broken"
        if q <= _AXIOM_EXHAUSTIVE_CAP:
            add, mul = self.add_table.astype(np.int64), self.mul_table.astype(np.int64)
            assert np.array_equal(add, add.T), "addition not commutative"
            assert np.array_equal(mul, mul.T), "multiplication not commutative"
            # chunked exhaustive associativity / distributivity
            cols = np.arange(q)
            for x in range(q):
                arow, mrow = add[x], mul[x]
                # (x + b) + c == x + (b + c)
                assert np.array_equal(add[arow[:, None], cols[None, :]], arow[add]), \
                    "addition not associative"
                # (x * b) * c == x * (b * c)
                assert np.array_equal(mul[mrow[:, None], cols[None, :]], mrow[mul]), \
                    "multiplication not associative"
                # x * (b + c) == x*b + x*c
                assert np.array_equal(mrow[add], add[mrow[:, None], mrow[None, :]]), \
                    "distributivity broken"
        else:
            # 10^5 triples, the draws of a scalar below(q) loop in one block
            x, b, c = (SplitMix64(0xF1E1D).words(3 * 10 ** 5) % np.uint64(q)
                       ).astype(np.int64).reshape(-1, 3).T
            add, mul = self.add_np, self.mul_np
            assert np.array_equal(mul(x, add(b, c)), add(mul(x, b), mul(x, c))), \
                "distributivity broken"
            assert np.array_equal(mul(mul(x, b), c), mul(x, mul(b, c))), \
                "multiplication not associative"
            assert np.array_equal(add(add(x, b), c), add(x, add(b, c))), \
                "addition not associative"

    # -- scalar operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        la = self._log[a]
        # a negative difference indexes from the end: the same class mod q - 1
        z = self._zech[self._log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        return self._negl[a]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._invl[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 1 if e == 0 else 0
        e %= self.q - 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- vector operations (numpy arrays of encodings) ------------------------

    def _gather(self, table: np.ndarray, a, b):
        """table[a, b] over the broadcast shape of a and b.

        A flat take at a * q + b beats table[a, b] by 1.5-3x from ~10^3
        entries, but its index costs 8 bytes per entry.  So above
        _GATHER_BLOCK entries the take goes in blocks of that many, into one
        preallocated output, and no call holds more than one block of index.
        Smaller gathers stay one take: the block iterator costs about 10 us,
        more than a small take itself.
        """
        flat = table.ravel()
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        if math.prod(shape) <= _GATHER_BLOCK:
            return flat.take(np.multiply(a, self.q, dtype=np.intp) + b)
        out = np.empty(shape, dtype=table.dtype)
        index = np.empty(_GATHER_BLOCK, dtype=np.intp)
        with np.nditer([a, b, out], ["external_loop", "buffered"],
                       [["readonly"], ["readonly"], ["writeonly"]],
                       buffersize=_GATHER_BLOCK) as blocks:
            for x, y, o in blocks:
                i = index[:len(o)]
                np.multiply(x, self.q, out=i, dtype=np.intp)
                i += y
                flat.take(i, out=o)
        return out

    def _blockwise(self, f, a, b):
        """f(a, b) over the broadcast shape of a and b, by blocks.

        The exp/log and Zech forms above q = 1024 build several int64
        temporaries per entry, about 30 bytes in all.  So, as in _gather,
        above _GATHER_BLOCK entries f runs on blocks of that many, into
        one preallocated output of ctx.dtype.
        """
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        if math.prod(shape) <= _GATHER_BLOCK:
            return f(a, b)
        out = np.empty(shape, dtype=self.dtype)
        with np.nditer([a, b, out], ["external_loop", "buffered"],
                       [["readonly"], ["readonly"], ["writeonly"]],
                       buffersize=_GATHER_BLOCK) as blocks:
            for x, y, o in blocks:
                o[...] = f(x, y)
        return out

    def add_np(self, a, b):
        """Entrywise sum of two broadcasting arrays (or ints).

        XOR for p = 2; up to q = 1024 a gather from add_table, in blocks
        (see _gather); above it through the Zech logarithms, in blocks as
        well (see _blockwise).
        """
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.add_table is not None:
            return self._gather(self.add_table, a, b)
        return self._blockwise(self._add_zech, a, b)

    def _add_zech(self, a, b):
        # Zech, from the smaller logarithm: a + b = a (1 + b/a) = b (1 + a/b).
        # A zero has log -1; the indices it spoils are clipped, then masked
        la, lb = self.log.take(a), self.log.take(b)
        z = self.zech.take(np.abs(lb - la), mode="clip")
        out = np.where(z < 0, 0, self.exp.take(np.minimum(la, lb) + z, mode="clip"))
        return np.where(a == 0, b, np.where(b == 0, a, out)).astype(self.dtype)

    def sum_np(self, a, axis: int):
        """Field sum of the array `a` along one axis.

        The axis is first moved to the front and made contiguous: numpy
        reduces along a short inner axis several times slower.
        """
        terms = np.ascontiguousarray(np.rollaxis(np.asarray(a), axis))
        if self.p == 2:
            return np.bitwise_xor.reduce(terms, axis=0)
        if len(terms) == 0:
            return np.zeros(terms.shape[1:], dtype=self.dtype)
        return functools.reduce(self.add_np, terms[1:], terms[0])

    def mul_np(self, a, b):
        """Entrywise product of two broadcasting arrays (or ints).

        Up to q = 1024 the products are gathered from mul_table, and the
        gathers go in blocks (see _gather); above it they go through exp/log,
        in blocks as well (see _blockwise).
        """
        if self.mul_table is not None:
            return self._gather(self.mul_table, a, b)
        return self._blockwise(self._mul_exp_log, a, b)

    def _mul_exp_log(self, a, b):
        la = self.log[a].astype(np.int64)
        lb = self.log[b].astype(np.int64)
        out = self.exp[(la + lb) % (self.q - 1)].astype(self.dtype)
        return np.where((a == 0) | (b == 0), 0, out)

    def digits(self, a: int) -> tuple[int, ...]:
        return tuple(_int_digits(a, self.p, self.t))

    def from_digits(self, ds) -> int:
        return _digits_int(ds, self.p)

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.q}) = GF({self.p}^{self.t}), modulus={self.modulus})"


def _default_modulus(p: int, t: int) -> tuple[int, ...]:
    """x - g for the smallest primitive root g when t = 1, else the
    DEFAULT_MODULI entry, else the first primitive modulus found.
    p, t and q are checked first, so no search runs on a bad field."""
    _field_size(p, t)
    if t == 1:
        return ((-_smallest_primitive_root(p)) % p, 1)
    if (p, t) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, t)]
    return _search_primitive_modulus(p, t)


@functools.lru_cache(maxsize=None)
def make_field(p: int, t: int, modulus: tuple[int, ...] | None = None) -> FieldCtx:
    """Build (or fetch from cache) the GF(p^t) context.

    Args:
        p: prime characteristic.
        t: extension degree, t >= 1.
        modulus: optional monic irreducible of degree t, coefficients low
            degree first including the leading 1.  Defaults to the table in
            docs/field-encoding.md, or a deterministic search for other q.

    Raises:
        ValueError: p not prime, q > 2^16, or a bad/reducible modulus.

    Without a modulus it fetches the context of the default one, so
    make_field(p, t) and make_field(p, t, make_field(p, t).modulus) are
    one context.
    """
    if modulus is None:
        return make_field(p, t, _default_modulus(p, t))
    return FieldCtx(p, t, modulus)


# ---------------------------------------------------------------------------
# field automorphisms x -> x^(p^j)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AutSpec:
    """A Frobenius power x -> x^(p^j) of a fixed field.

    s is the size of the fixed subfield, order the order of the map in the
    Galois group; involutory means the square is the identity (including
    the degenerate j = 0 case, where the map itself is the identity).
    """

    j: int
    exponent: int
    s: int
    order: int
    involutory: bool
    table: np.ndarray = field(repr=False)
    inv_table: np.ndarray = field(repr=False)
    tlist: list = field(repr=False)
    inv_tlist: list = field(repr=False)


def _frobenius_table(ctx: FieldCtx, j: int) -> np.ndarray:
    q = ctx.q
    tab = np.zeros(q, dtype=ctx.dtype)
    i = np.arange(q - 1, dtype=np.int64)
    tab[ctx.exp[:q - 1]] = ctx.exp[(i * (ctx.p ** j)) % (q - 1)]
    return tab


@functools.lru_cache(maxsize=None)
def make_autspec(ctx: FieldCtx, j: int) -> AutSpec:
    """AutSpec for x -> x^(p^j) on ctx; requires 0 <= j < t."""
    if not 0 <= j < ctx.t:
        raise ValueError(f"automorphism index j must satisfy 0 <= j < t "
                         f"(got j={j}, t={ctx.t})")
    g = math.gcd(j, ctx.t)
    tab = _frobenius_table(ctx, j)
    inv_tab = _frobenius_table(ctx, (ctx.t - j) % ctx.t)
    return AutSpec(
        j=j,
        exponent=ctx.p ** j,
        s=ctx.p ** g,
        order=ctx.t // g,
        involutory=(2 * j) % ctx.t == 0,
        table=tab,
        inv_table=inv_tab,
        tlist=[int(v) for v in tab],
        inv_tlist=[int(v) for v in inv_tab],
    )


def apply_sigma(ctx: FieldCtx, spec: AutSpec, a: int) -> int:
    """sigma(a) = a^(p^j)."""
    return spec.tlist[a]


def apply_sigma_inverse(ctx: FieldCtx, spec: AutSpec, a: int) -> int:
    """sigma^(-1)(a), i.e. the (order-1)-th power of sigma applied to a."""
    return spec.inv_tlist[a]


def norm(ctx: FieldCtx, spec: AutSpec, a: int) -> int:
    """Norm a * sigma(a) onto the fixed subfield; requires an involution != 1.

    For an involutory sigma != 1 the fixed field has s = p^(t/2) elements
    and the norm is a^(s+1); it maps the nonzero elements onto the nonzero
    fixed-subfield elements with fibers of size s + 1.
    """
    if spec.order != 2:
        raise ValueError("norm requires an involutory sigma != 1 "
                         f"(order is {spec.order})")
    return ctx.mul(a, spec.tlist[a])
