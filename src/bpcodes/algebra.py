"""Finite groups and field arithmetic underlying the graph constructions.

Covers: Legendre symbols, PGL(2,q)/PSL(2,q) as canonically normalized
projective 2x2 matrices, the unipotent subgroup, abstract cyclic groups,
the group algebra of Z_ell over GF(2) with its circulant lift, and
GF(2^m) as polynomials modulo a fixed primitive polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapExceeded, DimensionMismatch, InvalidModulus, NotPGL
from .f2la import F2Matrix

PGL_ORDER_CAP = 61  # q(q^2-1) ~ 230k; beyond this full enumeration is off the table


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) via the Euler criterion a^((p-1)/2) mod p."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InvalidModulus(f"modulus {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


# -- projective 2x2 matrices over F_q ----------------------------------


@dataclass(frozen=True, order=True)
class ProjMat2:
    """Element of PGL(2,q) as a matrix normalized so its first nonzero
    entry (scanning a,b,c,d) equals 1."""

    q: int
    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def make(q: int, a: int, b: int, c: int, d: int) -> "ProjMat2":
        a, b, c, d = a % q, b % q, c % q, d % q
        det = (a * d - b * c) % q
        if det == 0:
            raise InvalidModulus("matrix is singular")
        for lead in (a, b, c, d):
            if lead != 0:
                inv = pow(lead, q - 2, q)
                return ProjMat2(q, a * inv % q, b * inv % q, c * inv % q, d * inv % q)
        raise InvalidModulus("zero matrix")

    @staticmethod
    def identity(q: int) -> "ProjMat2":
        return ProjMat2(q, 1, 0, 0, 1)

    def mul(self, other: "ProjMat2") -> "ProjMat2":
        q = self.q
        return ProjMat2.make(
            q,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "ProjMat2":
        return ProjMat2.make(self.q, self.d, -self.b, -self.c, self.a)


CAYLEY_TABLE_CAP = 400  # largest group given a full multiplication table
_INDEX_BLOCK = 1 << 13  # entries per block of a large broadcast index computation


def row_blocks(rows: int, row_size: int) -> list[slice]:
    """Slices of consecutive rows of about _INDEX_BLOCK entries each, at
    least one row a slice."""
    step = max(1, _INDEX_BLOCK // max(row_size, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def blockwise(fn, a, b) -> np.ndarray:
    """fn(a, b) for int arrays broadcast together. Above _INDEX_BLOCK
    entries it is evaluated a block of leading-axis rows at a time into
    one int64 result (a row longer than a block is split the same way),
    so fn's temporaries stay about a block; an error raised by fn comes
    from the first block that has it."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    if math.prod(shape) <= _INDEX_BLOCK:
        return fn(a, b)
    out = np.empty(shape, dtype=np.int64)
    _fill_blocks(fn, *np.broadcast_arrays(a, b), out)
    return out


def _fill_blocks(fn, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    row_size = out.size // len(out)
    if row_size > _INDEX_BLOCK:
        for i in range(len(out)):
            _fill_blocks(fn, a[i], b[i], out[i])
        return
    for rows in row_blocks(len(out), row_size):
        out[rows] = fn(a[rows], b[rows])


def index_table(rows, shape: tuple[int, int]) -> np.ndarray | None:
    """rows as a read-only int64 array of the given shape, or None when
    they are ragged or shaped otherwise. An int64 array is taken as it is,
    not copied, and made read-only in place."""
    try:
        table = np.asarray(rows, dtype=np.int64)
    except (TypeError, ValueError):
        return None
    if table.shape != shape:
        return None
    table.flags.writeable = False
    return table


class FiniteGroup:
    """A finite group on the element indices 0..order-1.

    ``mul_indices`` multiplies element indices given as broadcastable int
    arrays; it is the only product. This base class holds an element list
    and reads the products from a Cayley table filled once from ``mul_fn``,
    which needs the order at most CAYLEY_TABLE_CAP; filling it checks
    closure. Subclasses compute products from index arithmetic instead.
    Identity, inverses and (up to CAYLEY_TABLE_CAP) closure are derived
    from ``mul_indices``.
    """

    def __init__(self, elements, mul_fn, name: str = ""):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InvalidModulus("duplicate group elements")
        n = len(self.elements)
        if n > CAYLEY_TABLE_CAP:
            raise CapExceeded(f"order {n} exceeds the Cayley table cap {CAYLEY_TABLE_CAP}")
        table = np.array(
            [[self.index.get(mul_fn(e, f), -1) for f in self.elements] for e in self.elements],
            dtype=np.int64,
        ).reshape(n, n)
        if (table < 0).any():
            i, j = divmod(int(np.argmax(table < 0)), n)
            e, f = self.elements[i], self.elements[j]
            raise InvalidModulus(f"product {e} * {f} leaves the element list")
        self._table = table
        self._derive(name, n)

    def _derive(self, name: str, order: int) -> None:
        """Name and order, then identity, inverses and closure from the products."""
        self.name = name
        self.order = order
        every = np.arange(order)
        self.identity = self._find_identity(every)
        self._inv = self._build_inverses(every)
        if order <= CAYLEY_TABLE_CAP:
            self.mul_indices(every[:, None], every)  # raises if a product leaves the group

    def mul_indices(self, a, b) -> np.ndarray:
        """Products of element indices, broadcast over int arrays a and b."""
        return self._table[a, b]

    def indices_of(self, elements) -> np.ndarray:
        """Indices of a subgroup's elements, or of a list of elements, in
        this group; -1 where one is absent."""
        if isinstance(elements, FiniteGroup):
            elements = elements.elements
        return np.array([self.index.get(e, -1) for e in elements], dtype=np.int64)

    def _inverse_candidates(self, every: np.ndarray) -> np.ndarray:
        """A candidate inverse index of every element, checked afterwards."""
        return np.argmax(self._table == self.identity, axis=1)

    def _find_identity(self, every: np.ndarray) -> int:
        if not self.order:
            raise InvalidModulus("no identity element found")
        hits = (self.mul_indices(every, 0) == 0) & (self.mul_indices(0, every) == 0)
        if not hits.any():
            raise InvalidModulus("no identity element found")
        return int(np.argmax(hits))

    def _build_inverses(self, every: np.ndarray) -> np.ndarray:
        inv = self._inverse_candidates(every)
        bad = np.flatnonzero(self.mul_indices(every, inv) != self.identity)
        if len(bad):
            raise InvalidModulus(f"element {self.elements[bad[0]]} has no inverse in the list")
        inv.flags.writeable = False
        return inv

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_indices(i, j))

    def inv(self, i: int) -> int:
        return int(self._inv[i])

    def inverses(self) -> np.ndarray:
        """Inverse indices of all elements, as a read-only int array."""
        return self._inv

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Generators picked greedily in index order: an element joins when
        the earlier generators do not generate it."""
        gens, reached = [], np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            frontier = np.flatnonzero(reached)
            while len(frontier):  # close under right products by the generators
                step = np.unique(self.mul_indices(frontier[:, None], gens))
                frontier = step[~reached[step]]
                reached[frontier] = True
        return tuple(gens)

    def is_action_table(self, perms) -> bool:
        """Whether perms (order x n, row h the image of every point under
        element h) is a group action: every entry lies in range, the
        identity row fixes every point, and perms[a][perms[s]] equals
        perms[a*s] for every a and generator s, which by induction on word
        length gives the law for all pairs; rows are then permutations."""
        p = np.asarray(perms, dtype=np.int64)
        if p.ndim != 2 or p.shape[0] != self.order:
            return False
        n = p.shape[1]
        if n and (p.min() < 0 or p.max() >= n):
            return False
        if not np.array_equal(p[self.identity], np.arange(n)):
            return False
        every, blocks = np.arange(self.order), row_blocks(self.order, n)
        return all(
            np.array_equal(p[rows][:, p[s]], p[self.mul_indices(every[rows], s)])
            for s in self.generators
            for rows in blocks
        )

    def is_abelian(self) -> bool:
        g = np.array(self.generators, dtype=np.int64)
        return np.array_equal(self.mul_indices(g[:, None], g), self.mul_indices(g, g[:, None]))

    def same_table(self, other: "FiniteGroup") -> bool:
        """Whether other has the same order and multiplication table."""
        if self.order != other.order:
            return False
        every = np.arange(self.order)
        return all(
            np.array_equal(self.mul_indices(a, every), other.mul_indices(a, every))
            for a in range(self.order)
        )

    def element_orders(self) -> np.ndarray:
        """The order of every element: the first k with g^k the identity,
        read off the powers of all elements at once."""
        every = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        acc = every
        for k in range(1, self.order + 1):
            orders[(acc == self.identity) & (orders == 0)] = k
            if orders.all():
                break
            acc = self.mul_indices(acc, every)
        return orders

    def powers(self, g: int) -> np.ndarray:
        """g^0, g^1, ..., g^(k-1) for the order k of g, doubling the known
        powers until the identity comes round again."""
        p = np.array([self.identity, g], dtype=np.int64)
        while not (p[1:] == self.identity).any():
            p = np.concatenate([p, self.mul_indices(p, self.mul_indices(p[-1], g))])
        return p[: int(np.argmax(p[1:] == self.identity)) + 1]


class _CyclicGroup(FiniteGroup):
    """Z_n on the indices 0..n-1: products are (i + j) mod n."""

    def __init__(self, n: int):
        self.elements = list(range(n))
        self.index = dict(zip(self.elements, self.elements))
        self._derive(f"Z_{n}", n)

    def mul_indices(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=np.int64) + b) % self.order

    def _inverse_candidates(self, every: np.ndarray) -> np.ndarray:
        return -every % self.order


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with elements 0..n-1 under addition mod n."""
    return _CyclicGroup(n)


class _ProjectiveGroup(FiniteGroup):
    """A group of projective 2x2 matrices over F_q, held as the read-only
    (order, 4) array ``entries`` of their normalized entries (a, b, c, d).
    Products multiply entries mod q, scale by the inverse of the leading
    entry and look the index up by sorted code, a block at a time
    (``blockwise``)."""

    def __init__(self, q: int, entries, name: str):
        self.q = q
        self._entries = np.array(entries, dtype=np.int64).reshape(-1, 4).T.copy()
        self._entries.flags.writeable = False  # row r holds entry r of every element
        codes = self._codes(self._entries)
        self._by_code = np.argsort(codes)
        self._sorted_codes = codes[self._by_code]
        if (np.diff(self._sorted_codes) == 0).any():
            raise InvalidModulus("duplicate group elements")
        self._inv_mod = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)
        self._derive(name, len(codes))

    @property
    def entries(self) -> np.ndarray:
        return self._entries.T

    def _codes(self, m) -> np.ndarray:
        q = self.q
        return ((m[0] * q + m[1]) * q + m[2]) * q + m[3]

    def _lookup(self, m) -> np.ndarray:
        """Indices of the matrices m (entries first), normalized so the
        first nonzero entry is 1; -1 where one is not an element."""
        q = self.q
        # det != 0 keeps (a, b) nonzero, so the leading entry is a or b
        lead = np.where(m[0] != 0, m[0], m[1])
        codes = self._codes(m * self._inv_mod[lead] % q)
        pos = np.minimum(np.searchsorted(self._sorted_codes, codes), self.order - 1)
        return np.where(self._sorted_codes[pos] == codes, self._by_code[pos], -1)

    def _elements_at(self, m) -> np.ndarray:
        """_lookup, raising when a matrix is not an element."""
        found = self._lookup(m)
        if (found < 0).any():
            raise InvalidModulus("product leaves the group")
        return found

    def mul_indices(self, a, b) -> np.ndarray:
        return blockwise(self._products, a, b)

    def _products(self, a, b) -> np.ndarray:
        x, y = self._entries[:, a], self._entries[:, b]
        q = self.q
        m = np.stack([
            (x[0] * y[0] + x[1] * y[2]) % q,
            (x[0] * y[1] + x[1] * y[3]) % q,
            (x[2] * y[0] + x[3] * y[2]) % q,
            (x[2] * y[1] + x[3] * y[3]) % q,
        ])
        return self._elements_at(m)

    def indices_of(self, elements) -> np.ndarray:
        """Indices of a projective subgroup's elements, or of a list of
        ProjMat2 over the same field; -1 where one is absent."""
        if isinstance(elements, _ProjectiveGroup):
            m = elements._entries
        else:
            m = np.array([(e.a, e.b, e.c, e.d) for e in elements], dtype=np.int64).reshape(-1, 4).T
        return self._lookup(m)

    def _inverse_candidates(self, every: np.ndarray) -> np.ndarray:
        a, b, c, d = self._entries
        return self._elements_at(np.stack([d, -b % self.q, -c % self.q, a]))

    def square_determinants(self) -> np.ndarray:
        """Whether the determinant of each element is a square mod q; the
        class is the same for every scalar multiple of a matrix."""
        a, b, c, d = self._entries
        squares = np.zeros(self.q, dtype=bool)
        squares[np.arange(1, self.q) ** 2 % self.q] = True
        return squares[(a * d - b * c) % self.q]


def _pgl2_entries(q: int) -> np.ndarray:
    """The canonical forms of PGL(2,q), first nonzero of (a, b, c, d) equal
    to 1: (1, b, c, d) with d != bc in (b, c, d) order, then (0, 1, c, d)
    with c != 0 in (c, d) order (a = b = 0 is always singular)."""
    b, c, d = np.indices((q, q, q)).reshape(3, -1)
    ones = np.stack([np.ones_like(b), b, c, d], axis=1)[(d - b * c) % q != 0]
    c, d = np.indices((q - 1, q)).reshape(2, -1)
    return np.concatenate([ones, np.stack([np.zeros_like(c), np.ones_like(c), c + 1, d], axis=1)])


@lru_cache(maxsize=None)
def build_pgl2(q: int) -> FiniteGroup:
    """PGL(2,q) fully enumerated; order q(q^2-1)."""
    if not is_prime(q) or q % 2 == 0:
        raise InvalidModulus(f"{q} is not an odd prime")
    if q > PGL_ORDER_CAP:
        raise CapExceeded(f"q={q} exceeds the enumeration cap {PGL_ORDER_CAP}")
    g = _ProjectiveGroup(q, _pgl2_entries(q), name=f"PGL(2,{q})")
    if g.order != q * (q * q - 1):
        raise InvalidModulus("PGL enumeration produced a wrong order")
    return g


@lru_cache(maxsize=None)
def build_psl2(q: int) -> FiniteGroup:
    """PSL(2,q) as the square-determinant-class subgroup of PGL(2,q)."""
    pgl = build_pgl2(q)
    g = _ProjectiveGroup(q, pgl.entries[pgl.square_determinants()], name=f"PSL(2,{q})")
    if g.order != q * (q * q - 1) // 2:
        raise InvalidModulus("PSL enumeration produced a wrong order")
    return g


def unipotent_subgroup(g: FiniteGroup) -> FiniteGroup:
    """The cyclic subgroup {[[1,x],[0,1]]} of PGL(2,q); order exactly q."""
    if not isinstance(g, _ProjectiveGroup):
        raise NotPGL("group elements are not projective matrices")
    q = g.q
    x = np.arange(q)
    one, zero = np.ones_like(x), np.zeros_like(x)
    sub = _ProjectiveGroup(q, np.stack([one, x, zero, one], axis=1), name=f"U({q})")
    if (g.indices_of(sub) < 0).any():
        raise NotPGL("unipotent elements are not all present in the group")
    if sub.order != q:
        raise NotPGL("unipotent subgroup has unexpected order")
    return sub


# -- group algebra of Z_ell over GF(2) ---------------------------------


@dataclass(frozen=True)
class GroupAlgebraElem:
    """Element of GF(2)[Z_ell]; coeffs is an ell-bit mask, bit k = coefficient
    of the k-th power of the generator."""

    ell: int
    coeffs: int

    def __post_init__(self):
        if self.ell < 1:
            raise DimensionMismatch("cyclic order must be positive")
        if self.coeffs >> self.ell:
            raise DimensionMismatch("coefficient mask wider than the cyclic order")

    @staticmethod
    def zero(ell: int) -> "GroupAlgebraElem":
        return GroupAlgebraElem(ell, 0)

    @staticmethod
    def one(ell: int) -> "GroupAlgebraElem":
        return GroupAlgebraElem(ell, 1)

    @staticmethod
    def monomial(ell: int, k: int) -> "GroupAlgebraElem":
        return GroupAlgebraElem(ell, 1 << (k % ell))

    def add(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        if self.ell != other.ell:
            raise DimensionMismatch("mixed cyclic orders")
        return GroupAlgebraElem(self.ell, self.coeffs ^ other.coeffs)

    def mul(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        """Cyclic convolution mod 2."""
        if self.ell != other.ell:
            raise DimensionMismatch("mixed cyclic orders")
        ell, acc = self.ell, 0
        x = self.coeffs
        while x:
            k = (x & -x).bit_length() - 1
            rotated = ((other.coeffs << k) | (other.coeffs >> (ell - k))) if k else other.coeffs
            acc ^= rotated & ((1 << ell) - 1)
            x &= x - 1
        return GroupAlgebraElem(ell, acc)

    def is_zero(self) -> bool:
        return self.coeffs == 0


def circulant_lift(x: GroupAlgebraElem) -> F2Matrix:
    """Left-multiplication matrix of x in the monomial basis of GF(2)[Z_ell].

    Entry (i, j) is the coefficient of the generator power (i - j) mod ell,
    so lift(x*y) = lift(x) @ lift(y).
    """
    return lift_group_algebra_matrix([[x]])


def lift_group_algebra_matrix(entries: list[list[GroupAlgebraElem]]) -> F2Matrix:
    """Blockwise circulant lift of a matrix over GF(2)[Z_ell].

    Output row (i, r) and column (j, s) are ordered block-major, i.e. index
    i*ell + r.
    """
    if not entries or not entries[0]:
        raise DimensionMismatch("empty matrix")
    ell = entries[0][0].ell
    rows, cols = len(entries), len(entries[0])
    if any(len(row) != cols for row in entries):
        raise DimensionMismatch("ragged matrix")
    if any(e.ell != ell for row in entries for e in row):
        raise DimensionMismatch("mixed cyclic orders in matrix")
    # object dtype keeps the masks as Python ints, so any ell fits
    masks = np.array([[e.coeffs for e in row] for row in entries], dtype=object)
    i, j = np.nonzero(masks)
    s = np.arange(ell)
    hit, k = np.nonzero((masks[i, j, None] >> s) & 1)
    out_rows = i[hit, None] * ell + (s + k[:, None]) % ell
    out_cols = j[hit, None] * ell + s
    return F2Matrix.from_entries(rows * ell, cols * ell, (out_rows.ravel(), out_cols.ravel()))


# -- GF(2^m) ------------------------------------------------------------

# Fixed primitive polynomials (bitmask includes the leading term), m <= 12.
PRIMITIVE_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


class GF2m:
    """GF(2^m) with elements as m-bit polynomial masks."""

    def __init__(self, m: int):
        if m not in PRIMITIVE_POLY:
            raise InvalidModulus(f"no primitive polynomial on file for m={m}")
        self.m = m
        self.poly = PRIMITIVE_POLY[m]
        self.size = 1 << m

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.poly
        return acc

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(2^m)")
        return self.pow(a, self.size - 2)

    def generator(self) -> int:
        return 0b10  # x is primitive for every polynomial in the table

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != 1:
            acc = self.mul(acc, a)
            k += 1
            if k > self.size:
                raise InvalidModulus("not a unit")
        return k

    def poly_eval(self, coeffs: list[int], x: int) -> int:
        """Evaluate a polynomial with GF(2^m) coefficients, coeffs[k] on x^k."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def coords(self, a: int) -> list[int]:
        """GF(2)-coordinates of a in the polynomial basis 1, x, ..., x^(m-1)."""
        return [(a >> k) & 1 for k in range(self.m)]
