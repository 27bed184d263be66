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

Scalar arithmetic covers every field of order up to ``MAX_ORDER`` (2^20).
Fields with q <= 2^16 build exp/log tables on first multiplication;
larger fields multiply digit vectors directly.

One set of polynomial kernels on coefficient tuples (add/sub, mul,
divmod, gcd, power mod f) works over any :class:`Alphabet`.
:class:`Polynomial` wraps them, and an extension field is bootstrapped
with them over its prime field: Rabin's irreducibility test (the only
user of gcd) picks the modulus, and the primitive element and the
exp/log tables are found by multiplying digit tuples modulo it.

The array operations (:meth:`Alphabet.vadd`, ``vsub``, ``vneg``, ``vmul``
and :meth:`Alphabet.matmul`) act element-wise on int64 arrays of symbols
and are the only place that knows how symbols are represented: prime
fields reduce mod q, characteristic 2 adds by XOR, other extension fields
index dense q x q tables up to q = 1024 and add base-p digits above, and
extension-field products use exp/log arrays up to q = 2^16.  Codes and
everything built on them therefore support every prime field up to 2^20
and extension fields up to 2^16.

All objects in this module are immutable after construction and all
operations are pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

MAX_ORDER = 1 << 20

_TABLE_ORDER_LIMIT = 1 << 10  # dense q x q add/mul tables only below this
_EXPLOG_ORDER_LIMIT = 1 << 16


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


def _pmul(A: "Alphabet", a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    add, mul = A.add, A.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
    return _strip(out)


def _pdivmod(A: "Alphabet", a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by b; b must be nonzero with no trailing zeros."""
    dd = len(b) - 1
    rem = list(a)
    if len(rem) <= dd:
        return (), _strip(rem)
    sub, mul, inv_lc = A.sub, A.mul, A.inv(b[-1])
    quot = [0] * (len(rem) - dd)
    for shift in range(len(rem) - dd - 1, -1, -1):
        c = rem[shift + dd]
        if c:
            f = mul(c, inv_lc)
            quot[shift] = f
            for i, bc in enumerate(b):
                rem[shift + i] = sub(rem[shift + i], mul(f, bc))
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


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin test for a monic polynomial of degree >= 2 over GF(p)."""
    m = len(f) - 1
    F, x = make_field(p), (0, 1)
    if _ppowmod(F, x, p ** m, f) != x:
        return False
    for d in _prime_factors(m):
        if len(_pgcd(F, _pzip(F.sub, _ppowmod(F, x, p ** (m // d), f), x), f)) > 1:
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
    """

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p ** m
        self._mod_digits = _find_modulus(p, m) if m > 1 else None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._explog_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._primitive: int | None = None
        self._add_table: np.ndarray | None = None
        self._mul_table: np.ndarray | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def modulus(self) -> "Polynomial | None":
        """Reducing polynomial of an extension field, over the prime field."""
        if self._mod_digits is None:
            return None
        return Polynomial(make_field(self.p), self._mod_digits)

    def check(self, a: int) -> int:
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

    # -- scalar arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.q
        return self.from_digits((x + y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.q
        return self.from_digits((x - y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.q
        return self.from_digits((-x) % self.p for x in self.digits(a))

    def _ext_mul_raw(self, a: int, b: int) -> int:
        # Table-free product of digit tuples modulo the field's modulus.
        F = make_field(self.p)
        prod = _pmul(F, _strip(list(self.digits(a))), _strip(list(self.digits(b))))
        return self.from_digits(_pdivmod(F, prod, self._mod_digits)[1])

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.q
        if a == 0 or b == 0:
            return 0
        if self.q <= _EXPLOG_ORDER_LIMIT:
            exp, log = self._tables()
            return exp[(log[a] + log[b]) % (self.q - 1)]
        return self._ext_mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, -1, self.q)
        if self.q <= _EXPLOG_ORDER_LIMIT:
            exp, log = self._tables()
            return exp[(self.q - 1 - log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m > 1 and self.q <= _EXPLOG_ORDER_LIMIT and a:
            exp, log = self._tables()
            return exp[log[a] * e % (self.q - 1)]
        return self._pow_raw(a, e)

    def _pow_raw(self, a: int, e: int) -> int:
        # Table-free powering, usable while exp/log tables are being built.
        if self.m == 1:
            return pow(a, e, self.q)
        return self.from_digits(_ppowmod(make_field(self.p), self.digits(a), e, self._mod_digits))

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero field element."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.q - 1
        order = n
        for f in _prime_factors(n):
            while order % f == 0 and self._pow_raw(a, order // f) == 1:
                order //= f
        return order

    @property
    def primitive(self) -> int:
        """Smallest element generating the multiplicative group."""
        if self._primitive is None:
            for g in range(1, self.q):
                if self.element_order(g) == self.q - 1:
                    self._primitive = g
                    break
        return self._primitive

    def _tables(self) -> tuple[list[int], list[int]]:
        # Extension fields only: prime fields multiply mod q.
        if self._exp is None:
            g = self.primitive
            exp = [1] * (self.q - 1)
            log = [0] * self.q
            acc = 1
            for i in range(self.q - 1):
                exp[i] = acc
                log[acc] = i
                acc = self._ext_mul_raw(acc, g)
            self._exp, self._log = exp, log
        return self._exp, self._log

    def _explog(self) -> tuple[np.ndarray, np.ndarray]:
        """exp/log arrays with exp[log[a] + log[b]] == a * b for every a, b.

        log[0] points past the doubled exp cycle into a run of zeros, so a
        product with 0 needs neither a modulus nor a mask.  Extension
        fields of order <= 2^16 only.
        """
        if self._explog_arrays is None:
            exp, log = self._tables()
            cycle = 2 * (self.q - 1)
            e = np.zeros(2 * cycle + 1, dtype=np.int64)
            e[:cycle] = exp + exp
            l = np.array(log, dtype=np.int64)
            l[0] = cycle
            self._explog_arrays = e, l
        return self._explog_arrays

    def _digitwise(self, a, b, sign: int) -> np.ndarray:
        """a + sign * b computed on base-p digits, element-wise."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        scale = 1
        for _ in range(self.m):
            out += (a // scale + sign * (b // scale)) % self.p * scale
            scale *= self.p
        return out

    def _check_table_order(self) -> None:
        if self.q > _TABLE_ORDER_LIMIT:
            raise ValueError(f"dense tables limited to q <= {_TABLE_ORDER_LIMIT}")

    def add_table(self) -> np.ndarray:
        """q x q numpy addition table; only for q <= 1024."""
        self._check_table_order()
        if self._add_table is None:
            idx = np.arange(self.q)
            self._add_table = self._digitwise(idx[:, None], idx[None, :], 1)
        return self._add_table

    def mul_table(self) -> np.ndarray:
        """q x q numpy multiplication table; only for q <= 1024."""
        self._check_table_order()
        if self._mul_table is None:
            idx = np.arange(self.q, dtype=np.int64)
            if self.m == 1:
                self._mul_table = idx[:, None] * idx[None, :] % self.q
            else:
                exp, log = self._explog()
                self._mul_table = exp[log[:, None] + log[None, :]]
        return self._mul_table

    # -- array arithmetic (element-wise, numpy broadcasting) ------------------

    def vadd(self, a, b) -> np.ndarray:
        if self.m == 1:
            return np.add(a, b) % self.q
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.q <= _TABLE_ORDER_LIMIT:
            return self.add_table()[a, b]
        return self._digitwise(a, b, 1)

    def vsub(self, a, b) -> np.ndarray:
        if self.m == 1:
            return np.subtract(a, b) % self.q
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self.vadd(a, self.vneg(b))

    def vneg(self, a) -> np.ndarray:
        if self.m == 1:
            return np.negative(a) % self.q
        if self.p == 2:
            return np.array(a, dtype=np.int64)
        return self._digitwise(0, a, -1)

    def vmul(self, a, b) -> np.ndarray:
        if self.m == 1:
            return np.multiply(a, b) % self.q
        if self.q <= _TABLE_ORDER_LIMIT:
            return self.mul_table()[a, b]
        if self.q <= _EXPLOG_ORDER_LIMIT:
            exp, log = self._explog()
            return exp[log[a] + log[b]]
        raise ValueError(
            f"array arithmetic over {self!r} needs an extension field of order <= {_EXPLOG_ORDER_LIMIT}"
        )

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of 2-D int64 symbol matrices."""
        if self.m == 1:
            return a @ b % self.q
        acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for i in range(a.shape[1]):
            acc = self.vadd(acc, self.vmul(a[:, i, None], b[i]))
        return acc

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

    Raises ValueError for non-prime p, m < 1, or p^m > 2^20.
    """
    key = (p, m)
    if key not in _FIELDS:
        if _prime_factors(p) != [p]:
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** m > MAX_ORDER:
            raise ValueError(f"field order {p}^{m} exceeds supported bound 2^20")
        _FIELDS[key] = Alphabet(p, m)
    return _FIELDS[key]


def field_of_order(q: int) -> Alphabet:
    """GF(q) for a prime power q; ValueError for any other q."""
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

NEG_INF = -math.inf


class Polynomial:
    """Dense univariate polynomial over an :class:`Alphabet`.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple and degree -inf.
    """

    __slots__ = ("alphabet", "coeffs")

    def __init__(self, alphabet: Alphabet, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "coeffs", _strip([alphabet.check(int(c)) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

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
        A.check(point)
        acc = 0
        for c in reversed(self.coeffs):
            acc = A.add(A.mul(acc, point), c)
        return acc

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.alphabet == other.alphabet
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({self.alphabet!r}, {list(self.coeffs)})"


def format_poly(poly: Polynomial) -> str:
    """Comma-separated coefficients, lowest degree first, as the CLI prints
    them: x + 2 over GF(3) is "2,1" and the zero polynomial is "0"."""
    if poly.is_zero:
        return "0"
    return ",".join(str(c) for c in poly.coeffs)


def poly_pretty(poly: Polynomial, var: str = "x") -> str:
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
            xs = var if k == 1 else f"{var}^{k}"
            parts.append(xs if c == 1 else f"{c}{xs}")
    return " + ".join(parts)
