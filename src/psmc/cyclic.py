"""Cyclotomic cosets, minimal polynomials, and cyclic-code construction.

A length-n cyclic code over GF(q) (gcd(n, q) = 1) is described by its
defining set, a union of cyclotomic cosets mod n under multiplication by
q.  The primitive n-th root of unity used throughout is fixed
deterministically: the smallest primitive element of GF(q^m) raised to
the power (q^m - 1)/n, where m is the smallest extension degree with
n | q^m - 1.  Coset labels therefore depend only on (n, q), never on the
run.

GF(q^m) is built by :func:`psmc.alphabet.make_field`, which bootstraps
every extension field over its prime field.  GF(q) sits inside GF(q^m)
through a fixed embedding: a prime field embeds as the constants of the
polynomial basis, and a larger GF(q) sends its primitive element to the
first root, in power order, of that element's minimal polynomial over the
prime field.  Minimal polynomials are products of linear factors x - b
over a Frobenius orbit.

Cosets are cached per (a, n, q), root contexts per (n, base field) by
``functools.cache`` and minimal polynomials per coset in their context; a
prime base field maps in and out by identity, with no per-symbol table.
Roots in a field above 2^20 raise BudgetExceeded from
:func:`psmc.alphabet.make_field`.

A code's defining set is one n-bit mask, the OR of its cosets' members;
the sorted set is read off its set bits.  The BCH lower bound is the
longest run of cyclically consecutive members (a run may wrap n-1 -> 0)
plus one: the longest run of set bits in the doubled mask, found by
repeating ``x &= x >> 1`` until x is 0.  The generator g is one product of
the cosets' minimal polynomials by ``psmc.alphabet._pprod``, a chain of
packed ints over a prime field, and h and the exactness check are one
division of x^n - 1 by g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from math import gcd
from operator import index, or_

import numpy as np

from .alphabet import Alphabet, Polynomial, _pdivmod, _pmul, _pprod, make_field
from .linear import LinearCode


@dataclass(frozen=True)
class CyclotomicCoset:
    representative: int
    members: tuple[int, ...]
    n: int
    q: int

    @cached_property
    def mask(self) -> int:
        """The members as one int, bit b set for member b."""
        return sum(1 << b for b in self.members)


def cyclotomic_coset(a: int, n: int, q: int) -> CyclotomicCoset:
    """Orbit of a under multiplication by q mod n; representative = minimum.
    TypeError for a non-integer a, n or q, checked before the cache, so a
    float never keys an entry that an int would then read."""
    return _coset(index(a), index(n), index(q))


@cache
def _coset(a: int, n: int, q: int) -> CyclotomicCoset:
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


def _check_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"length n = {n} must be >= 1")


def all_cosets(n: int, q: int) -> list[CyclotomicCoset]:
    """All cyclotomic cosets mod n, ordered by representative."""
    _check_length(n)
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
    _check_length(n)
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) must be 1")
    m, acc = 1, q % n
    while acc != 1 % n:  # for n = 1 both sides are 0, and m = 1
        m += 1
        acc = acc * q % n
    return m


# ---------------------------------------------------------------------------
# root-of-unity context and subfield embedding
# ---------------------------------------------------------------------------

class _RootContext:
    """GF(q^m) together with a fixed order-n root and GF(q) embedding."""

    def __init__(self, n: int, base: Alphabet):
        self.base = base
        self.ext = make_field(base.p, base.m * extension_degree(n, base.q))
        self._embed, self._project = self._subfield_maps()
        self.alpha = self.ext.pow(self.ext.primitive, (self.ext.q - 1) // n)
        # coset representative -> minimal polynomial over the base field
        self.minimal_polynomials: dict[int, Polynomial] = {}

    def _subfield_maps(self):
        base, ext = self.base, self.ext
        if base.m == 1:
            # Prime subfield: constants of the polynomial basis, by identity.
            return range(base.p), range(base.p)
        # GF(p^e) inside GF(p^(e*m)): send the small generator to a root
        # (in the big field) of its minimal polynomial over GF(p); the
        # first root in power order fixes the map.  For m = 1 that root is
        # the generator itself, so the map is the identity.
        gamma = base.primitive
        minpoly = Polynomial(ext, _minpoly_over_prime(base, gamma))
        step = (ext.q - 1) // (base.q - 1)
        roots = (ext.pow(ext.primitive, step * i) for i in range(1, base.q))
        delta = next(c for c in roots if minpoly(c) == 0)
        emb = {0: 0} | {base.pow(gamma, i): ext.pow(delta, i) for i in range(base.q - 1)}
        return emb, {v: k for k, v in emb.items()}

    def embed(self, a: int) -> int:
        return self._embed[a]

    def project(self, a: int) -> int:
        try:
            return self._project[a]
        except (KeyError, IndexError):
            raise ArithmeticError(
                f"element {a} of {self.ext!r} is not in the base field {self.base!r}"
            ) from None


def _linear_product(field: Alphabet, roots) -> tuple[int, ...]:
    """Coefficients of the monic polynomial whose roots are the given field elements."""
    return reduce(lambda acc, b: _pmul(field, acc, (field.neg(b), 1)), roots, (1,))


def _minpoly_over_prime(field: Alphabet, a: int) -> tuple[int, ...]:
    """Minimal polynomial of a over GF(p): the product over its conjugates a^(p^i)."""
    coeffs = _linear_product(field, {field.pow(a, field.p ** i) for i in range(field.m)})
    if any(c >= field.p for c in coeffs):
        raise ArithmeticError("minimal polynomial has non-prime-field coefficient")
    return coeffs


@cache
def root_context(n: int, base: Alphabet) -> _RootContext:
    return _RootContext(n, base)


def minimal_polynomial(a: int, n: int, base: Alphabet) -> Polynomial:
    """Monic minimal polynomial of alpha^a over the base field.

    Its roots among the powers of alpha are exactly alpha^b for b in the
    cyclotomic coset of a, and its coefficients lie in the base field.
    Built once per coset and root context.
    """
    return _minimal(root_context(n, base), cyclotomic_coset(a, n, base.q))


def _minimal(ctx: _RootContext, coset: CyclotomicCoset) -> Polynomial:
    """A coset's minimal polynomial, built on first use and cached in its context."""
    poly = ctx.minimal_polynomials.get(coset.representative)
    if poly is None:
        roots = (ctx.ext.pow(ctx.alpha, b) for b in coset.members)
        poly = Polynomial(ctx.base, (ctx.project(c) for c in _linear_product(ctx.ext, roots)))
        ctx.minimal_polynomials[coset.representative] = poly
    return poly


def _longest_run(mask: int, n: int) -> int:
    """Longest cyclic run of set bits in an n-bit mask that is not all ones:
    the longest run of the doubled mask, as each ``x &= x >> 1`` shortens
    every run by one."""
    x, run = mask | mask << n, 0
    while x:
        x &= x >> 1
        run += 1
    return run


def bch_bound_from_defining_set(defining_set, n: int) -> int:
    """Longest cyclically consecutive run in the defining set, plus one.
    TypeError for a non-integer member or n, ValueError for n < 1, a member
    outside [0, n) or a set that covers it."""
    defining_set, n = list(map(index, defining_set)), index(n)
    _check_length(n)
    bad = next((a for a in defining_set if not 0 <= a < n), None)
    if bad is not None:
        raise ValueError(f"defining-set member {bad} is outside [0, {n})")
    mask = reduce(or_, (1 << a for a in defining_set), 0)
    if mask == (1 << n) - 1:
        raise ValueError("defining set covers all of [0, n)")
    return _longest_run(mask, n) + 1


@dataclass
class CyclicCodeSpec:
    """A built cyclic code; treat as immutable.

    g * h = x^n - 1 exactly; the defining set is the union of the
    cyclotomic cosets of the requested representatives.
    """

    n: int
    alphabet: Alphabet
    defining_set: tuple[int, ...]
    g: Polynomial
    h: Polynomial
    bch_bound: int

    @property
    def k(self) -> int:
        return self.n - len(self.defining_set)

    def generator_matrix(self) -> np.ndarray:
        """k x n matrix whose row i is g shifted cyclically by i: one gather
        of g's coefficient vector at (j - i) mod n."""
        n = self.n
        return self.g.vector(n)[(np.arange(n) - np.arange(self.k)[:, None]) % n]

    def to_linear_code(self) -> LinearCode:
        return LinearCode(self.generator_matrix(), self.alphabet)


def build_cyclic_code(n: int, base: Alphabet, coset_representatives) -> CyclicCodeSpec:
    """Cyclic code whose defining set is the union of the given cosets."""
    n = index(n)
    _check_length(n)
    requested = (cyclotomic_coset(a, n, base.q) for a in coset_representatives)
    cosets = {c.representative: c for c in requested}  # distinct, in first-requested order
    mask = reduce(or_, [c.mask for c in cosets.values()], 0)
    if mask == (1 << n) - 1:
        raise ValueError("defining set covers [0, n); the code would be zero")
    defining = tuple([i for i in range(n) if mask >> i & 1])
    g = (1,)
    if cosets:
        ctx = root_context(n, base)
        g = _pprod(base, [_minimal(ctx, c).coeffs for c in cosets.values()])
    h, rem = _pdivmod(base, (base.neg(1),) + (0,) * (n - 1) + (1,), g)
    if rem:
        raise ArithmeticError("generator polynomial does not divide x^n - 1")
    return CyclicCodeSpec(
        n=n,
        alphabet=base,
        defining_set=defining,
        g=Polynomial._of(base, g),
        h=Polynomial._of(base, h),
        bch_bound=_longest_run(mask, n) + 1,
    )
