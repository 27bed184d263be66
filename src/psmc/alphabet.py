"""Symbol arithmetic over prime fields and extension fields.

Symbols are plain ints in ``[0, q)``.  Prime fields use ordinary modular
arithmetic.  Extension fields GF(p^m) use a polynomial
basis: the integer whose base-p digits are ``(c0, c1, ..., c_{m-1})``
stands for ``c0 + c1*X + ... + c_{m-1}*X^{m-1}``.  The reducing modulus is
deterministic: among all monic irreducible polynomials of degree m over
GF(p), the one whose coefficient vector, read as a base-p integer with the
constant term least significant, is smallest.  For p = 2 this reproduces
the familiar textbook moduli (x^2+x+1, x^3+x+1, x^4+x+1, ...), so element
labels are reproducible across runs and across ports of this library.

Scalar arithmetic covers every field of order up to ``MAX_ORDER`` (2^20);
a larger field raises :class:`BudgetExceeded`, as does array arithmetic
over an extension field above 2^16.
:meth:`Alphabet.add`, ``sub`` and ``neg`` take a symbol or an int64 array
of symbols alike: prime fields reduce mod q, characteristic 2 adds,
subtracts and negates by XOR (negation is the identity), and other
extension fields sum base-p digits in ``_digitwise``.  Fields with
q <= 2^16 multiply through one exp/log layout that needs neither a zero
test nor a modulus.  Larger fields multiply digit vectors directly.

One set of polynomial kernels on coefficient tuples (add/sub, mul,
divmod, gcd, power mod f) serves every :class:`Alphabet`.  Over a prime
field, mul and divmod pack a tuple into one int, a w-byte lane per
coefficient: a product is one int multiply, a division one multiply-add
of f (-b) per quotient symbol f, read off the leading lane mod q.  w is
the narrowest of 1, 2, 4 or 8 bytes that holds a lane's bound (given in
``_pmul`` and ``_pdivmod``), so no lane carries; one-byte lanes reduce
with one ``bytes.translate``.  A product of several polynomials,
``_pprod``, multiplies them as one chain of packed ints and unpacks once,
splitting the chain where its bound would outgrow 8-byte lanes.
Extension fields call their scalar ops per symbol.
:class:`Polynomial` wraps them.  An extension field is bootstrapped by
multiply-by-x steps on digit lists over its prime field: Ben-Or's
irreducibility test (the only user of gcd) reaches x^(p^i) mod each
candidate f one step at a time to pick the modulus.  Up to 2^16, one
successor list a -> a * g over every symbol, built by linearity from the
m products g x^j, is walked from 1 to fill the exp/log tables; the
primitive element is the first g whose walk closes only after q - 1
steps.  Larger fields have no tables: they multiply digit tuples modulo
f and find the primitive element by powering.

The array products (:meth:`Alphabet.vmul` and :meth:`Alphabet.matmul`)
act on int64 arrays of symbols: prime fields reduce mod q, and
extension fields gather from the exp/log arrays up to q = 2^16.
Every table lookup is a gather from a 1-D array: on arrays of thousands
of symbols numpy does that about twice as fast as indexing a 2-D table
with two index arrays.  Codes and everything built on them therefore
support every prime field up to 2^20 and extension fields up to 2^16.

A prime-field matmul is one integer product and one reduction mod q.  An
extension-field matmul takes a fixed number of array passes per block of
rows, not one per inner index: one ``vmul`` of every product of the block
(rows x k x columns), then a sum along k, which is one XOR reduction in
characteristic 2 and ceil(log2 k) halving ``add`` passes for odd p.  A
block holds about ``_MATMUL_BLOCK`` = 2^16 products, so the temporary
stays near 512 KiB however many rows the product has.  A single word is
a batch of one: ``matmul(x[None, :], b)[0]``.

All operations are pure.  An Alphabet's tables are caches, each filled
once on first use; every fill computes the same values, so instances can
be shared freely across threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import zip_longest
from operator import index
from typing import Iterable, Sequence

import numpy as np

MAX_ORDER = 1 << 20

_TABLE_ORDER_LIMIT = 1 << 10  # the dense q x q add table only below this
_EXPLOG_ORDER_LIMIT = 1 << 16
_MATMUL_BLOCK = 1 << 16  # products per extension-field matmul block (512 KiB of int64)


class BudgetExceeded(Exception):
    """Raised when work would exceed a resource limit: an enumeration, a
    syndrome table or a masking probability over its budget, a field of
    order above ``MAX_ORDER``, or array arithmetic over an extension
    field of order above 2^16.  Every field-order limit is checked here,
    in this module."""


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial kernels: coefficient tuples over any Alphabet, lowest degree
# first, no trailing zeros.  Polynomial wraps them, and extension fields run
# them over their prime field before their own arithmetic exists.
# ---------------------------------------------------------------------------

def _strip(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pzip(op, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Coefficient-wise op (an Alphabet's add or sub) of a and b."""
    return _strip([op(x, y) for x, y in zip_longest(a, b, fillvalue=0)])


_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # lane width in bytes: its struct code


@cache
def _byte_tables(q: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` tables that map each byte to itself and to its
    negation, mod q <= 256."""
    repeat = 256 // q + 1
    return (bytes(range(q)) * repeat)[:256], (bytes([0, *range(q - 1, 0, -1)]) * repeat)[:256]


def _lane_bytes(bound: int) -> int:
    """The narrowest lane, of 1, 2, 4 or 8 bytes, that holds ``bound``."""
    for w in _LANES:
        if bound < 1 << 8 * w:
            return w
    raise OverflowError(f"a lane bound of {bound} needs more than 8 bytes")


def _pack(a: Sequence[int], w: int) -> int:
    """Coefficients as one int, coefficient i in the w-byte lane i."""
    return int.from_bytes(bytes(a) if w == 1 else struct.pack(f"<{len(a)}{_LANES[w]}", *a), "little")


def _unpack(raw: bytes, w: int, q: int) -> tuple[int, ...]:
    """Lanes of w bytes, each reduced mod q, with trailing zeros dropped."""
    if w == 1:
        return tuple(raw.translate(_byte_tables(q)[0]).rstrip(b"\0"))
    return _strip([c % q for c in struct.unpack(f"<{len(raw) // w}{_LANES[w]}", raw)])


def _pmul(A: "Alphabet", a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """a * b; a prime field takes one product of packed ints, whose lanes
    hold min(len a, len b) (q-1)^2 and so never carry."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if A.m == 1:
        w = _lane_bytes(min(len(a), len(b)) * (A.q - 1) ** 2)
        return _unpack((_pack(a, w) * _pack(b, w)).to_bytes(len(out) * w, "little"), w, A.q)
    add, mul = A.add, A.mul
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] = add(out[j], mul(ai, bj))
    return _strip(out)


def _pprod(A: "Alphabet", factors: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Product of one or more nonzero polynomials.  A prime field multiplies
    them as packed ints in chains, unpacking once per chain.  Coefficient t
    of head * R is the sum of head[a] R[t - a] <= max(head) R(1), so a
    chain's lanes hold max(head) times the product of the other factors'
    coefficient sums.  Before that bound would need more than 8 bytes the
    chain is reduced mod q and heads the next one; a reduced head and one
    factor always fit, since (q - 1)^2 times a length stays below 2^64 for
    q <= ``MAX_ORDER``.  Extension fields fold ``_pmul``."""
    if A.m > 1:
        return reduce(partial(_pmul, A), factors)
    chain, bound = [factors[0]], max(factors[0])
    for f in factors[1:]:
        s = sum(f)
        if bound * s >= 1 << 64:
            head = _chain_product(chain, bound, A.q)
            chain, bound = [head], max(head)
        chain.append(f)
        bound *= s
    return _chain_product(chain, bound, A.q)


def _chain_product(chain: list[Sequence[int]], bound: int, q: int) -> tuple[int, ...]:
    """The product of a chain whose lanes hold ``bound``, reduced mod q.
    The lanes also hold every symbol, as ``_unpack`` reads one-byte lanes
    only for q <= 256."""
    w = _lane_bytes(max(bound, q - 1))
    x = 1
    for f in chain:
        x *= _pack(f, w)
    size = sum(map(len, chain)) - len(chain) + 1
    return _unpack(x.to_bytes(size * w, "little"), w, q)


def _pdivmod(A: "Alphabet", a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by b; b must be nonzero with no trailing zeros.
    A prime field packs the remainder and adds f (-b), shifted into place,
    for each quotient symbol f, read off the leading lane mod q: a lane
    takes at most min(len b, len quot) such terms, each at most (q-1)^2."""
    dd = len(b) - 1
    rem = list(a)
    if len(rem) <= dd:
        return (), _strip(rem)
    inv_lc = A.inv(b[-1])
    quot = [0] * (len(rem) - dd)
    if A.m == 1:
        q = A.q
        w = _lane_bytes(min(len(b), len(quot)) * (q - 1) ** 2 + q - 1)
        neg_b = bytes(b).translate(_byte_tables(q)[1]) if q <= 256 else [-c % q for c in b]
        x, neg_b = _pack(rem, w), _pack(neg_b, w)
        bits, lane = 8 * w, (1 << 8 * w) - 1
        for shift in range(len(quot) - 1, -1, -1):
            f = quot[shift] = (x >> bits * (shift + dd) & lane) * inv_lc % q
            x += f * neg_b << bits * shift
        return _strip(quot), _unpack(x.to_bytes(len(rem) * w, "little")[: dd * w], w, q)
    sub, mul = A.sub, A.mul
    for shift in range(len(rem) - dd - 1, -1, -1):
        c = rem[shift + dd]
        if c:
            f = quot[shift] = mul(c, inv_lc)
            for i, bc in enumerate(b, shift):
                rem[i] = sub(rem[i], mul(f, bc))
    return _strip(quot), _strip(rem)


def _pgcd(A: "Alphabet", a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Monic greatest common divisor (empty when a and b are both zero)."""
    while b:
        a, b = b, _pdivmod(A, a, b)[1]
    return _pmul(A, (A.inv(a[-1]),), a) if a else ()


def _ppowmod(A: "Alphabet", a: Sequence[int], e: int, f: Sequence[int]) -> tuple[int, ...]:
    """a^e mod f."""
    result, acc = (1,), _pdivmod(A, a, f)[1]
    while e:
        if e & 1:
            result = _pdivmod(A, _pmul(A, result, acc), f)[1]
        acc = _pdivmod(A, _pmul(A, acc, acc), f)[1]
        e >>= 1
    return result


def _times_x(r: list[int], f: Sequence[int], p: int) -> list[int]:
    """x * r mod the monic f over GF(p), on digit lists of length deg f:
    a shift up one place, then the top digit times f subtracted."""
    top = r[-1]
    r = [0, *r[:-1]]
    return [(c - top * fc) % p for c, fc in zip(r, f)] if top else r


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic f of degree m >= 2 over GF(p): f is
    irreducible iff gcd(x^(p^i) - x, f) = 1 for every i <= m/2.  x^(p^i)
    mod f is reached by multiply-by-x steps, p^(m//2) of them at most."""
    F, m = make_field(p), len(f) - 1
    power, steps = [1] + [0] * (m - 1), 0  # x^steps mod f
    for i in range(1, m // 2 + 1):
        while steps < p ** i:
            power, steps = _times_x(power, f, p), steps + 1
        if len(_pgcd(F, f, _pzip(F.sub, _strip(power[:]), (0, 1)))) > 1:
            return False
    return True


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    # Candidates ordered by the base-p integer formed by the non-leading
    # coefficients; the first irreducible one is the fixed modulus.
    for v in range(p ** m):
        f = tuple(v // p ** i % p for i in range(m)) + (1,)
        if _is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# Alphabet
# ---------------------------------------------------------------------------

class Alphabet:
    """The finite field GF(p^m) with symbols 0..q-1.

    Use :func:`make_field`, which caches and reuses instances, instead of
    calling this constructor directly.

    add, sub and neg take ints or int64 arrays and return the same kind;
    in characteristic 2, neg returns its argument itself, not a copy.
    Products stay apart (mul for ints, vmul for arrays): one method would
    return ``np.int64`` for ints, which would leak into
    :class:`Polynomial` coefficients and change their repr under numpy 2.
    """

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p ** m
        self._mod_digits = _find_modulus(p, m) if m > 1 else None
        self._add_table: np.ndarray | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def modulus(self) -> "Polynomial | None":
        """Reducing polynomial of an extension field, over the prime field."""
        if self._mod_digits is None:
            return None
        return Polynomial(make_field(self.p), self._mod_digits)

    def check(self, a: int) -> int:
        a = index(a)
        if not 0 <= a < self.q:
            raise ValueError(f"symbol {a!r} out of range for {self!r}")
        return a

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector of length m (extension-field coordinates)."""
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_digits(self, digits: Iterable[int]) -> int:
        a = 0
        for i, d in enumerate(digits):
            a += (d % self.p) * self.p ** i
        return a

    # -- arithmetic: add, sub and neg also take int64 arrays -------------------

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.q
        return a ^ b if self.p == 2 else self._digitwise(a, b, 1)

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.q
        return a ^ b if self.p == 2 else self._digitwise(a, b, -1)

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.q
        return a if self.p == 2 else self._digitwise(0, a, -1)

    def _ext_mul_raw(self, a: int, b: int) -> int:
        # Table-free product of digit tuples modulo the field's modulus, for
        # fields above 2^16; the tests check the tables against it.
        F = make_field(self.p)
        prod = _pmul(F, _strip(list(self.digits(a))), _strip(list(self.digits(b))))
        return self.from_digits(_pdivmod(F, prod, self._mod_digits)[1])

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.q
        if self.q <= _EXPLOG_ORDER_LIMIT:
            exp, log = self._tables
            return exp[log[a] + log[b]]
        return self._ext_mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, -1, self.q)
        if self.q <= _EXPLOG_ORDER_LIMIT:
            exp, log = self._tables
            return exp[self.q - 1 - log[a]]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m > 1 and self.q <= _EXPLOG_ORDER_LIMIT and a:
            exp, log = self._tables
            return exp[log[a] * e % (self.q - 1)]
        return self._pow_raw(a, e)

    def _pow_raw(self, a: int, e: int) -> int:
        # Table-free powering: prime fields, and extension fields above 2^16.
        if self.m == 1:
            return pow(a, e, self.q)
        return self.from_digits(_ppowmod(make_field(self.p), self.digits(a), e, self._mod_digits))

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero symbol: the least divisor of
        q-1 that :meth:`pow` reaches, one prime factor of q-1 at a time.
        TypeError for a non-integer, ValueError for 0 or a value outside
        [0, q)."""
        a = self.check(a)
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        order = self.q - 1
        for f in _prime_factors(order):
            while order % f == 0 and self.pow(a, order // f) == 1:
                order //= f
        return order

    @cached_property
    def primitive(self) -> int:
        """Smallest element generating the multiplicative group: the
        generator the exp/log tables walk where they exist, else the first
        element of order q - 1."""
        if self.m > 1 and self.q <= _EXPLOG_ORDER_LIMIT:
            return self._tables[0][1]
        return next(g for g in range(1, self.q) if self.element_order(g) == self.q - 1)

    def _times(self, g: int) -> list[int]:
        """The successor list a -> a * g over every symbol, by linearity:
        the image of d p^j + i, for i < p^j, is the image of i plus d g x^j.
        Each step over j is one array add per digit value d."""
        succ, row = np.zeros(1, dtype=np.int64), list(self.digits(g))  # row: g x^j
        for _ in range(self.m):
            succ = np.concatenate([self.add(succ, self.from_digits(d * c for c in row)) for d in range(self.p)])
            row = _times_x(row, self._mod_digits, self.p)
        return succ.tolist()

    @cached_property
    def _tables(self) -> tuple[list[int], list[int]]:
        """exp/log lists with exp[log[a] + log[b]] == a * b for every a, b.

        exp runs twice round the cycle of powers of the primitive element,
        then a run of zeros; log[0] = 2(q-1) points into that run, so a
        product with 0 needs neither a zero test nor a modulus.  Extension
        fields of order <= 2^16 only: prime fields multiply mod q.

        The powers come from one walk 1, g, g^2, ... along the successor
        list of g (:meth:`_times`).  The primitive element is the first
        candidate g whose walk closes only after q - 1 steps.  Candidates
        below p lie in the prime field, and an element met on a shorter
        walk generates a smaller group, so neither is walked.
        """
        cycle, skip = self.q - 1, set()
        for g in range(self.p, self.q):
            if g in skip:
                continue
            times_g, walk, acc = self._times(g), [1], g
            while acc != 1:
                walk.append(acc)
                acc = times_g[acc]
            if len(walk) == cycle:
                break
            skip.update(walk)
        log = [2 * cycle] * self.q
        for i, a in enumerate(walk):
            log[a] = i
        return walk * 2 + [0] * (2 * cycle + 1), log

    def _check_arrays(self) -> None:
        """BudgetExceeded unless the array products work over this field:
        an extension field needs exp/log arrays of q entries."""
        if self.m > 1 and self.q > _EXPLOG_ORDER_LIMIT:
            raise BudgetExceeded(f"array arithmetic over {self!r} needs order <= {_EXPLOG_ORDER_LIMIT}")

    @cached_property
    def _explog(self) -> tuple[np.ndarray, np.ndarray]:
        """The :attr:`_tables` layout as int64 arrays, for the array products."""
        self._check_arrays()
        exp, log = self._tables
        return np.array(exp, dtype=np.int64), np.array(log, dtype=np.int64)

    def _digitwise(self, a, b, sign: int):
        """a + sign * b computed on base-p digits, for ints and int64 arrays."""
        out, scale = 0, 1
        for _ in range(self.m):
            out += (a // scale + sign * (b // scale)) % self.p * scale
            scale *= self.p
        return out

    def add_table(self) -> np.ndarray:
        """q x q numpy addition table, q <= 1024.  The library does not read it:
        the benchmark builds read-back words with it, and tests check axioms."""
        if self.q > _TABLE_ORDER_LIMIT:
            raise ValueError(f"dense tables limited to q <= {_TABLE_ORDER_LIMIT}")
        if self._add_table is None:
            idx = np.arange(self.q)
            self._add_table = self._digitwise(idx[:, None], idx[None, :], 1)
        return self._add_table

    # -- array products (element-wise, numpy broadcasting) --------------------

    def vmul(self, a, b) -> np.ndarray:
        if self.m == 1:
            return np.multiply(a, b) % self.q
        exp, log = self._explog
        return exp[log[a] + log[b]]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of 2-D int64 symbol matrices.

        Prime fields take one integer product and one reduction mod q.
        Extension fields take every product of a block of rows of a with
        b in one :meth:`vmul` pass, then sum along the inner axis: one
        XOR reduction in characteristic 2, ceil(log2 k) halving
        :meth:`add` passes for odd p.  Blocks hold about
        ``_MATMUL_BLOCK`` products (rows x k x columns), which caps the
        temporary however many rows a has.
        """
        if self.m == 1:
            return a @ b % self.q
        rows, k = a.shape
        cols = b.shape[1]
        if k == 0:
            return np.zeros((rows, cols), dtype=np.int64)
        step = max(1, _MATMUL_BLOCK // max(1, k * cols))
        if rows <= step:
            return self._inner_sum(self.vmul(a[:, :, None], b[None, :, :]))
        # Writing each block out at once frees its temporary for the next.
        out = np.empty((rows, cols), dtype=np.int64)
        for start in range(0, rows, step):
            block = a[start : start + step, :, None]
            out[start : start + step] = self._inner_sum(self.vmul(block, b[None, :, :]))
        return out

    def _inner_sum(self, products: np.ndarray) -> np.ndarray:
        """Field sum of a fresh (..., k, cols) array along axis -2, k >= 1.

        Odd p folds the upper half of the inner axis onto the lower half in
        place, ceil(log2 k) times; an odd k leaves its middle column for
        the next pass.
        """
        if self.p == 2:
            return np.bitwise_xor.reduce(products, axis=-2)
        k = products.shape[-2]
        while k > 1:
            half = (k + 1) // 2
            products[..., : k - half, :] = self.add(products[..., : k - half, :], products[..., half:k, :])
            k = half
        return products[..., 0, :]

    # -- identity -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.p == other.p and self.m == other.m

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


_FIELDS: dict[tuple[int, int], Alphabet] = {}


def make_field(p: int, m: int = 1) -> Alphabet:
    """Return GF(p^m) with the fixed deterministic modulus.

    Raises TypeError for a non-integer p or m, ValueError for non-prime
    p or m < 1, and BudgetExceeded for p^m above ``MAX_ORDER``.
    """
    p, m = index(p), index(m)
    key = (p, m)
    if key not in _FIELDS:
        if _prime_factors(p) != [p]:
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** m > MAX_ORDER:
            raise BudgetExceeded(f"GF({p}{f'^{m}' if m > 1 else ''}) is above the supported order 2^20")
        _FIELDS[key] = Alphabet(p, m)
    return _FIELDS[key]


def field_of_order(q: int) -> Alphabet:
    """GF(q) for a prime power q; TypeError for a non-integer q, ValueError
    for any other q, and BudgetExceeded for q above ``MAX_ORDER``."""
    q = index(q)
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p, m = factors[0], 0
    while q > 1:
        q //= p
        m += 1
    return make_field(p, m)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Dense univariate polynomial over an :class:`Alphabet`.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple and degree -inf.
    """

    alphabet: Alphabet
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip([self.alphabet.check(c) for c in self.coeffs]))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _of(cls, alphabet: Alphabet, coeffs: tuple[int, ...]) -> "Polynomial":
        """Wrap a kernel result, which is already checked and stripped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "alphabet", alphabet)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    @classmethod
    def one(cls, alphabet: Alphabet) -> "Polynomial":
        return cls(alphabet, (1,))

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def vector(self, n: int) -> np.ndarray:
        """Coefficients padded with zeros to length n."""
        if len(self.coeffs) > n:
            raise ValueError(f"degree {self.degree} does not fit in length {n}")
        out = np.zeros(n, dtype=np.int64)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def _same(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.alphabet != self.alphabet:
            raise ValueError(f"alphabet mismatch: {self.alphabet!r} vs {other.alphabet!r}")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same(other)
        return Polynomial._of(self.alphabet, _pzip(self.alphabet.add, self.coeffs, other.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._same(other)
        return Polynomial._of(self.alphabet, _pzip(self.alphabet.sub, self.coeffs, other.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same(other)
        return Polynomial._of(self.alphabet, _pmul(self.alphabet, self.coeffs, other.coeffs))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._same(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quot, rem = _pdivmod(self.alphabet, self.coeffs, other.coeffs)
        return Polynomial._of(self.alphabet, quot), Polynomial._of(self.alphabet, rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __call__(self, point: int) -> int:
        A = self.alphabet
        point = A.check(point)
        acc = 0
        for c in reversed(self.coeffs):
            acc = A.add(A.mul(acc, point), c)
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({self.alphabet!r}, {list(self.coeffs)})"


def format_poly(poly: Polynomial) -> str:
    """Comma-separated coefficients, lowest degree first, as the CLI prints
    them: x + 2 over GF(3) is "2,1" and the zero polynomial is "0"."""
    if poly.is_zero:
        return "0"
    return ",".join(str(c) for c in poly.coeffs)


def poly_pretty(poly: Polynomial) -> str:
    """Human-readable form, highest degree first, e.g. ``x^2 + 2x + 2``."""
    if poly.is_zero:
        return "0"
    parts = []
    for k in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coeff(k)
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            xs = "x" if k == 1 else f"x^{k}"
            parts.append(xs if c == 1 else f"{c}{xs}")
    return " + ".join(parts)
