"""Cyclotomic cosets, minimal polynomials, and cyclic-code construction.

A length-n cyclic code over GF(q) (gcd(n, q) = 1) is described by its
defining set, a union of cyclotomic cosets mod n under multiplication by
q.  The primitive n-th root of unity used throughout is fixed
deterministically: the smallest primitive element of GF(q^m) raised to
the power (q^m - 1)/n, where m is the smallest extension degree with
n | q^m - 1.  Coset labels therefore depend only on (n, q), never on the
run.

The BCH lower bound reported for a defining set counts the longest run of
cyclically consecutive members (a run may wrap n-1 -> 0) plus one, which
covers runs starting at any offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

import numpy as np

from .alphabet import Alphabet, Polynomial, make_field


@dataclass(frozen=True)
class CyclotomicCoset:
    representative: int
    members: tuple[int, ...]
    n: int
    q: int


def cyclotomic_coset(a: int, n: int, q: int) -> CyclotomicCoset:
    """Orbit of a under multiplication by q mod n; representative = minimum."""
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) must be 1")
    if not 0 <= a < n:
        raise ValueError(f"coset seed {a} out of range [0, {n})")
    members = set()
    x = a
    while x not in members:
        members.add(x)
        x = x * q % n
    return CyclotomicCoset(min(members), tuple(sorted(members)), n, q)


def all_cosets(n: int, q: int) -> list[CyclotomicCoset]:
    """All cyclotomic cosets mod n, ordered by representative."""
    seen: set[int] = set()
    out = []
    for a in range(n):
        if a not in seen:
            c = cyclotomic_coset(a, n, q)
            seen.update(c.members)
            out.append(c)
    return out


def extension_degree(n: int, q: int) -> int:
    """Smallest m with n | q^m - 1."""
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) must be 1")
    m, acc = 1, q % n
    while acc != 1:
        m += 1
        acc = acc * q % n
    return m


# ---------------------------------------------------------------------------
# root-of-unity context and subfield embedding
# ---------------------------------------------------------------------------

class _RootContext:
    """GF(q^m) together with a fixed order-n root and GF(q) embedding."""

    def __init__(self, n: int, base: Alphabet):
        m = extension_degree(n, base.q)
        self.n = n
        self.base = base
        self.m = m
        self.ext = base if m == 1 else make_field(base.p, base.m * m)
        self._embed, self._project = self._subfield_maps()
        self.alpha = self.ext.pow(self.ext.primitive, (self.ext.q - 1) // n)

    def _subfield_maps(self):
        base, ext = self.base, self.ext
        if ext is base:
            ident = {a: a for a in base.elements()}
            return ident, dict(ident)
        if base.m == 1:
            # Prime subfield: constants of the polynomial basis.
            emb = {a: a for a in range(base.p)}
            return emb, {v: k for k, v in emb.items()}
        # Proper subfield GF(p^e) inside GF(p^(e*m)): send the small
        # generator to a root (in the big field) of its minimal polynomial
        # over GF(p); the first root in power order fixes the map.
        gamma = base.primitive
        minpoly = _minpoly_over_prime(base, gamma)
        step = (ext.q - 1) // (base.q - 1)
        delta = None
        for i in range(1, base.q):
            cand = ext.pow(ext.primitive, step * i)
            if _eval_prime_poly(ext, minpoly, cand) == 0:
                delta = cand
                break
        if delta is None:
            raise RuntimeError("subfield embedding not found")  # unreachable
        emb = {0: 0}
        small_pow, big_pow = 1, 1
        for _ in range(base.q - 1):
            emb[small_pow] = big_pow
            small_pow = base.mul(small_pow, gamma)
            big_pow = ext.mul(big_pow, delta)
        return emb, {v: k for k, v in emb.items()}

    def embed(self, a: int) -> int:
        return self._embed[a]

    def project(self, a: int) -> int:
        try:
            return self._project[a]
        except KeyError:
            raise ArithmeticError(
                f"element {a} of {self.ext!r} is not in the base field {self.base!r}"
            ) from None


def _minpoly_over_prime(field: Alphabet, a: int) -> tuple[int, ...]:
    """Minimal polynomial of a over GF(p), as a coefficient tuple."""
    orbit = []
    x = a
    while x not in orbit:
        orbit.append(x)
        x = field.pow(x, field.p)
    poly = Polynomial.one(field)
    xvar = Polynomial.x(field)
    for b in orbit:
        poly = poly * (xvar - Polynomial(field, (b,)))
    coeffs = tuple(poly.coeffs)
    if any(c >= field.p for c in coeffs):
        raise ArithmeticError("minimal polynomial has non-prime-field coefficient")
    return coeffs


def _eval_prime_poly(field: Alphabet, coeffs: tuple[int, ...], point: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, point), c)
    return acc


_CONTEXTS: dict[tuple[int, int, int], _RootContext] = {}


def root_context(n: int, base: Alphabet) -> _RootContext:
    key = (n, base.p, base.m)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = _RootContext(n, base)
    return _CONTEXTS[key]


def minimal_polynomial(a: int, n: int, base: Alphabet) -> Polynomial:
    """Monic minimal polynomial of alpha^a over the base field.

    Its roots among the powers of alpha are exactly alpha^b for b in the
    cyclotomic coset of a, and its coefficients lie in the base field.
    """
    ctx = root_context(n, base)
    coset = cyclotomic_coset(a, n, base.q)
    ext = ctx.ext
    poly = Polynomial.one(ext)
    xvar = Polynomial.x(ext)
    for b in coset.members:
        poly = poly * (xvar - Polynomial(ext, (ext.pow(ctx.alpha, b),)))
    return Polynomial(base, (ctx.project(c) for c in poly.coeffs))


def bch_bound_from_defining_set(defining_set, n: int) -> int:
    """Longest cyclically consecutive run in the defining set, plus one."""
    members = set(defining_set)
    if not members:
        return 1
    if len(members) >= n:
        raise ValueError("defining set covers all of [0, n)")
    longest = run = 0
    for i in range(2 * n):
        if i % n in members:
            run += 1
            longest = max(longest, run)
        else:
            run = 0
    return longest + 1


def bch_redundancy_bound(m: int, delta1: int) -> int:
    """Generator-degree budget sufficient for designed distance delta1."""
    if m < 1 or delta1 < 1:
        raise ValueError("need m >= 1 and delta1 >= 1")
    return m * -(-(delta1 - 1) // 2)


@dataclass
class CyclicCodeSpec:
    """A built cyclic code; treat as immutable.

    g * h = x^n - 1 exactly; the defining set is the union of the
    cyclotomic cosets of the requested representatives.
    """

    n: int
    alphabet: Alphabet
    ext_degree: int
    defining_set: tuple[int, ...]
    g: Polynomial
    h: Polynomial
    bch_bound: int

    @property
    def k(self) -> int:
        return self.n - len(self.defining_set)

    def generator_matrix(self) -> np.ndarray:
        """k x n matrix whose rows are the cyclic shifts of g."""
        gvec = self.g.vector(self.n)
        rows = [np.roll(gvec, i) for i in range(self.k)]
        return np.array(rows, dtype=np.int64)

    def to_linear_code(self):
        from .linear import LinearCode

        return LinearCode(self.generator_matrix(), self.alphabet)


def build_cyclic_code(n: int, base: Alphabet, coset_representatives) -> CyclicCodeSpec:
    """Cyclic code whose defining set is the union of the given cosets."""
    cosets = []
    seen: set[int] = set()
    for a in coset_representatives:
        c = cyclotomic_coset(a, n, base.q)
        if c.representative not in seen:
            seen.add(c.representative)
            cosets.append(c)
    defining = sorted(set().union(*(c.members for c in cosets)) if cosets else set())
    if len(defining) >= n:
        raise ValueError("defining set covers [0, n); the code would be zero")
    g = reduce(
        lambda acc, c: acc * minimal_polynomial(c.representative, n, base),
        cosets,
        Polynomial.one(base),
    )
    xn_minus_1 = Polynomial(base, (base.neg(1),) + (0,) * (n - 1) + (1,))
    h, rem = divmod(xn_minus_1, g)
    if not rem.is_zero:
        raise ArithmeticError("generator polynomial does not divide x^n - 1")
    return CyclicCodeSpec(
        n=n,
        alphabet=base,
        ext_degree=extension_degree(n, base.q),
        defining_set=tuple(defining),
        g=g,
        h=h,
        bch_bound=bch_bound_from_defining_set(defining, n),
    )
