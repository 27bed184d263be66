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
Roots in a field above ``MAX_ORDER`` raise BudgetExceeded.

The BCH lower bound reported for a defining set counts the longest run of
cyclically consecutive members (a run may wrap n-1 -> 0) plus one, which
covers runs starting at any offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain
from math import gcd

import numpy as np

from .alphabet import MAX_ORDER, Alphabet, Polynomial, _pdivmod, _pmul, make_field
from .linear import BudgetExceeded, LinearCode


@dataclass(frozen=True)
class CyclotomicCoset:
    representative: int
    members: tuple[int, ...]
    n: int
    q: int


@cache
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
        m = base.m * extension_degree(n, base.q)
        if base.p ** m > MAX_ORDER:
            raise BudgetExceeded(f"x^{n} - 1 over {base!r} splits in GF({base.p}^{m}), above 2^20")
        self.ext = make_field(base.p, m)
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


def bch_bound_from_defining_set(defining_set, n: int) -> int:
    """Longest cyclically consecutive run in the defining set, plus one: one
    turn round the cycle from just after a non-member, where every run ends.
    ValueError for a member outside [0, n) or a set that covers it."""
    defining_set = list(defining_set)
    members = set(defining_set)
    if members and (min(members) < 0 or max(members) >= n):
        bad = next(a for a in defining_set if not 0 <= a < n)
        raise ValueError(f"defining-set member {bad} is outside [0, {n})")
    if not members:
        return 1
    if len(members) >= n:
        raise ValueError("defining set covers all of [0, n)")
    start = next(i for i in range(n) if i not in members)
    longest = run = 0
    for i in chain(range(start + 1, n), range(start + 1)):
        if i in members:
            run += 1
        else:
            longest, run = max(longest, run), 0
    return longest + 1


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
        """k x n matrix whose rows are the cyclic shifts of g."""
        gvec = self.g.vector(self.n)
        rows = [np.roll(gvec, i) for i in range(self.k)]
        return np.array(rows, dtype=np.int64)

    def to_linear_code(self) -> LinearCode:
        return LinearCode(self.generator_matrix(), self.alphabet)


def build_cyclic_code(n: int, base: Alphabet, coset_representatives) -> CyclicCodeSpec:
    """Cyclic code whose defining set is the union of the given cosets."""
    requested = (cyclotomic_coset(a, n, base.q) for a in coset_representatives)
    cosets = {c.representative: c for c in requested}  # distinct, in first-requested order
    defining = sorted(set().union(*(c.members for c in cosets.values())))
    if len(defining) >= n:
        raise ValueError("defining set covers [0, n); the code would be zero")
    g = (1,)
    if cosets:
        ctx = root_context(n, base)
        g = reduce(partial(_pmul, base), [_minimal(ctx, c).coeffs for c in cosets.values()])
    h, rem = _pdivmod(base, (base.neg(1),) + (0,) * (n - 1) + (1,), g)
    if rem:
        raise ArithmeticError("generator polynomial does not divide x^n - 1")
    return CyclicCodeSpec(
        n=n,
        alphabet=base,
        defining_set=tuple(defining),
        g=Polynomial._of(base, g),
        h=Polynomial._of(base, h),
        bch_bound=bch_bound_from_defining_set(defining, n),
    )
