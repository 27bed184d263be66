"""Masking codes for partially-stuck-at-1 cells with error correction.

A cell that is partially stuck at level 1 can store any value >= 1 but
not 0.  All constructions here are one coset-shift scheme.  The stored
word is

    c = m G1 + z H0,

where the k1 x n matrix G1 carries the message m and the l x n masking
matrix H0 turns the masking vector z into a shift of the whole word.
The encoder takes the first of the q^l candidates in a fixed order
(z = -v, v lexicographic) whose shift leaves every stuck cell nonzero,
without trying each: for each prefix of v, a stuck cell rules out one
value of the last coordinate (or all).  The search keeps to the box
[0, s)^l, s = min(n + 1, q), by the box argument of :class:`_MaskingCode`,
and each z the encoder picks has its shift z H0 built once, on first
pick, never a row per candidate.  The stacked code [G1 ; H0] corrects t
substitution errors on read-back, and the decoder reads [m | z] back off
an information set of the stacked generator.

The three constructors differ only in G1 and H0:

* :class:`PsmcMatrixCode`: G1 = [0 | I | P] over the all-ones row.  A
  single redundancy symbol masks any u < q stuck cells: the values of
  m G1 at u < q positions cannot cover the whole alphabet, so adding a
  suitable constant to every cell avoids 0 everywhere needed.
* :class:`PsmcCyclicCode`: the partitioned cyclic variant, codewords
  m(x) g1(x) + z0 g0(x) with g0 = 1 + x + ... + x^(n-1) (whose
  coefficient vector is the all-ones row) and g1 a degree-r divisor of
  g0; G1 holds the first k1 cyclic shifts of g1.  The BCH bound of g1's
  defining set bounds the error correction.
* :class:`PsmcExtendedCode`: G1 = [0 | I | P] over a systematic l x n
  parity-check matrix H0 of an [n, n-l, d0] code, which pushes the
  guaranteed number of maskable cells up to q + d0 - 3 at the cost of l
  masking symbols.

Guaranteed mode rejects u above the construction's guarantee up front;
callers may opt into probabilistic mode, where :class:`MaskingImpossible`
is a legal outcome whose likelihood for uniform messages is
:func:`masking_probability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb, floor, log
from operator import index
from typing import NamedTuple

import numpy as np

from .alphabet import Alphabet
from .cyclic import CyclicCodeSpec, build_cyclic_code
from .linear import BudgetExceeded, LinearCode, _distance, _integers, _product, _word, min_distance


class MaskingImpossible(Exception):
    """Raised when no masking value keeps every stuck cell nonzero.

    :meth:`at` keeps only the cells; their text, the same one a campaign
    logs, is built when the exception is read, not when it is raised.
    """

    cells: tuple[int, ...] | None = None

    @classmethod
    def at(cls, cells: tuple[int, ...]) -> "MaskingImpossible":
        """The failure at the sorted stuck cells ``cells``."""
        exc = cls()
        exc.cells = cells
        return exc

    def __str__(self) -> str:
        if self.cells is None:
            return super().__str__()
        return f"no masking vector z for positions {self.cells}"

    def __repr__(self) -> str:
        return super().__repr__() if self.cells is None else f"{type(self).__name__}({str(self)!r})"


class DecodingFailure(Exception):
    """Raised when bounded-distance decoding cannot identify a codeword."""


def _stuck_cells(positions) -> tuple[int, ...]:
    """Stuck cells as a sorted tuple of ints, checked to be distinct and
    non-negative; encode checks them against the word length."""
    cells = sorted(map(index, positions))
    if len(set(cells)) != len(cells) or (cells and cells[0] < 0):
        raise ValueError("stuck positions must be distinct and non-negative")
    return tuple(cells)


@dataclass(frozen=True)
class StuckCellProfile:
    """Positions of partially-stuck-at-1 cells, sorted, distinct and
    non-negative.  ``encode`` takes a profile's positions as they are and
    checks only that they lie in the word; any other iterable of cells
    goes through the same check as a profile's, once."""

    positions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", _stuck_cells(self.positions))

    @classmethod
    def _of(cls, positions: tuple[int, ...]) -> "StuckCellProfile":
        """Wrap cells that are already sorted, distinct and non-negative ints,
        such as a campaign's draws, without checking them again."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "positions", positions)
        return profile

    @property
    def u(self) -> int:
        return len(self.positions)


class MaskingOutcome(NamedTuple):
    """Encoder output: the stored int64 word, the masking vector z, and v.

    v is the masking value (z = (-v,)) when there is one masking symbol,
    and None when there are several.
    """

    codeword: np.ndarray
    z: tuple[int, ...]
    v: int | None


def _systematic_g1(n: int, l: int, ecc_columns) -> tuple[np.ndarray, int]:
    """G1 = [0 | I_k1 | P] with l leading zero columns; returns (G1, r)."""
    P = np.zeros((max(n - l, 0), 0), dtype=np.int64) if ecc_columns is None else _integers(ecc_columns)
    if P.ndim != 2:
        raise ValueError(f"ecc_columns must be a k1 x r matrix, k1 = n - l - r, got shape {P.shape}")
    k1 = n - l - P.shape[1]
    if k1 < 1:
        raise ValueError("no room for information symbols")
    if P.shape[0] != k1:
        raise ValueError(f"ecc_columns must have {k1} rows, got {P.shape[0]}")
    return np.hstack([np.zeros((k1, l), dtype=np.int64), np.eye(k1, dtype=np.int64), P]), P.shape[1]


def _least_free(ruled: set[int]) -> int:
    """The least x >= 0 not in ``ruled``: at most len(ruled)."""
    x = 0
    while x in ruled:
        x += 1
    return x


class _MaskingCode:
    """The coset-shift scheme c = m G1 + z H0 shared by all constructions.

    Subclasses build G1 and H0 and call :meth:`_build`, which sets, for
    all three, d0, the minimum distance of the code H0 checks (2 for the
    all-ones row), and the guarantee u_max = min(n, q + d0 - 3); at
    d0 = 1 a zero column of H0 leaves its cell unmasked, so u_max is 0.

    The box argument: the masking search keeps to the box [0, s)^l,
    s = min(n + 1, q), because no coordinate of the first masking vector
    v in lexicographic order exceeds u <= n.  Take the coordinates in
    turn.  A stuck cell rules out at most one value of a coordinate, and
    a whole slice of it only when its H0 column is parallel to that
    coordinate, so one of the first u + 1 slices survives.  For u < q
    the other cells, each ruling out a proper affine hyperplane at most,
    cannot cover a surviving slice.  For u >= q, s = q.  So on the last
    coordinate, for a prefix in the box, fewer than s ruled-out values
    leave a free one among the first min(u + 1, q), and s or more mean
    s = q and none is free.  A zero column at a stuck cell with w_j = 0
    rules out every v, in the box as outside it.
    """

    def _build(self, alphabet: Alphabet, G1: np.ndarray, H0: np.ndarray, t: int | None) -> None:
        self.alphabet = alphabet
        self.G1, self.H0 = G1, H0
        self.k1, self.n = G1.shape
        self.l = H0.shape[0]
        self._ones = H0.tolist() == [[1] * self.n]
        self._s = min(self.n + 1, alphabet.q)  # side of the masking search box
        self.base = LinearCode(np.vstack([G1, H0]), alphabet)
        # d0, the minimum distance of the code H0 checks.  For one row
        # (1, h_1, ..., h_(n-1)), n >= 2, a zero h_j makes the unit word e_j
        # a codeword, and otherwise h_j e_0 - e_j is one of weight 2.  For
        # H0 = [I | A], [-A^T | I] generates that code.
        if self.l == 1:
            self.d0 = 1 if 0 in H0[0].tolist() else 2
        else:
            checked = np.hstack([alphabet.neg(H0[:, self.l :].T), np.eye(self.n - self.l, dtype=np.int64)])
            self.d0 = _distance(checked, H0, alphabet)
        self.u_max = min(self.n, alphabet.q + self.d0 - 3) if self.d0 > 1 else 0
        self._masks: dict[int, tuple] = {}  # masking index -> (z, shift), see _mask
        if t is not None:
            self.t = index(t)
            if self.t < 0:
                raise ValueError(f"t = {self.t} must be >= 0")

    @cached_property
    def t(self) -> int:
        """Errors corrected on read-back; unless given, derived on first use
        from the exact minimum distance of the stacked code."""
        return min_distance(self.base).t

    @cached_property
    def _rule(self) -> tuple[list[int], list[list[int]]]:
        """Built by the first encode: each last H0 entry's inverse (0 for 0)
        and the rows p H0[:-1] of the s^(l-1) prefixes p in the box, in
        lexicographic order (one zero row at l = 1)."""
        A = self.alphabet
        inv = [A.inv(h) if h else 0 for h in self.H0[-1].tolist()]
        prefixes = np.array(list(product(range(self._s), repeat=self.l - 1)), dtype=np.int64)
        return inv, A.matmul(prefixes, self.H0[:-1]).tolist()

    def _first_mask(self, values: bytes | np.ndarray, cells) -> int | None:
        """Index of the first v in lexicographic order with (v H0)_j != w_j
        at every stuck cell j (v in base s), or None.  For each prefix p of
        v, cell j rules out the last coordinate
        x = (w_j - p H0[:-1, j]) / H0[-1, j], or every x when H0[-1, j] = 0
        and p H0[:-1, j] = w_j.  By the box argument
        (:class:`_MaskingCode`), fewer than s ruled-out values leave a free
        x in [0, s), and s or more leave none."""
        if self._ones:  # l = 1 and v H0 = (v, ..., v): v must differ from every stuck value
            ruled = set(map(values.__getitem__, cells))
            return _least_free(ruled) if len(ruled) < self._s else None
        sub, mul = self.alphabet.sub, self.alphabet.mul
        inv, prefixes = self._rule
        for i, row in enumerate(prefixes):
            ruled = set()
            for j in cells:
                a = sub(values[j], row[j])
                if inv[j]:
                    ruled.add(mul(a, inv[j]))
                elif not a:
                    break  # every x is ruled out
            else:
                if len(ruled) < self._s:
                    return i * self._s + _least_free(ruled)
        return None

    def _maskable(self, messages: np.ndarray, stuck: np.ndarray) -> np.ndarray:
        """Whether encode finds a masking vector, for each row of a block of
        messages and their sorted stuck cells: :meth:`_first_mask` over the
        block at once.  For each prefix row of the box, a cell rules out
        one last coordinate x, or every x, or none.  A row masks when some
        x in 0..min(u, q-1) is ruled out at none of its cells, which by the
        box argument (:class:`_MaskingCode`) is where a free x lies if any
        does.  The prefix rows are walked only until every row has a
        candidate."""
        A = self.alphabet
        trials, u = stuck.shape
        inv, prefixes = self._rule
        w = np.take_along_axis(A.matmul(messages, self.G1), stuck, axis=1)
        inv = np.array(inv, dtype=np.int64)[stuck]
        unset = inv == 0  # cells whose last coordinate leaves their value alone
        span = min(u + 1, A.q)
        rows = np.arange(trials)[:, None]
        found = np.zeros(trials, dtype=bool)
        for prefix in np.array(prefixes, dtype=np.int64):
            a = A.sub(w, prefix[stuck])
            # The spare column span takes unset cells and x beyond the candidates.
            x = np.where(unset, span, np.minimum(A.vmul(a, inv), span))
            ruled = np.zeros((trials, span + 1), dtype=bool)
            ruled[rows, x] = True
            found |= ~ruled[:, :span].all(axis=1) & ~(unset & (a == 0)).any(axis=1)
            if found.all():
                break
        return found

    @cached_property
    def _g1(self):
        """The word-product object of G1 (:func:`psmc.linear._product`),
        built by the first encode."""
        return _product(self.G1, self.alphabet)

    def _mask(self, i: int) -> tuple[tuple[int, ...], int | np.ndarray]:
        """(z, z H0) of the i-th candidate v (i in base s, most significant
        digit first), z = -v, built on its first pick, with the shift in
        the form G1's product object adds."""
        A, s = self.alphabet, self._s
        z = tuple(A.neg(i // s**e % s) for e in range(self.l - 1, -1, -1))
        self._masks[i] = entry = z, self._g1.row(A.matmul(np.array([z], dtype=np.int64), self.H0)[0])
        return entry

    def encode(self, message, profile=(), *, probabilistic: bool = False) -> MaskingOutcome:
        """Mask the stuck positions and attach the ECC structure.

        The intermediate word is w = m G1, and the stored word is w + z H0
        for the first masking vector z (in the order z = -v, v
        lexicographic) that leaves every stuck cell nonzero.
        """
        cells = profile.positions if isinstance(profile, StuckCellProfile) else _stuck_cells(profile)
        if cells and cells[-1] >= self.n:
            raise ValueError(f"stuck position {cells[-1]} outside word length {self.n}")
        u = len(cells)
        if not probabilistic and u > self.u_max:
            raise ValueError(
                f"u={u} exceeds the guaranteed bound {self.u_max}; "
                "pass probabilistic=True to attempt masking anyway"
            )
        G1 = self._g1
        acc = G1.product(_word(message, self.alphabet, self.k1))
        i = self._first_mask(G1.reduced(acc), cells)
        if i is None:
            if u <= self.u_max:
                raise AssertionError("guaranteed regime violated: no masking vector found")
            raise MaskingImpossible.at(cells)
        z, shift = self._masks.get(i) or self._mask(i)
        return MaskingOutcome(G1.plus(acc, shift), z, i if self.l == 1 else None)

    def decode(self, word) -> np.ndarray:
        """Correct up to t errors and return the message m."""
        x = self.base._decode_word(_word(word, self.alphabet, self.n), self.t, self.k1)
        if x is None:
            raise DecodingFailure(f"no unique codeword within distance {self.t}")
        return x


class PsmcMatrixCode(_MaskingCode):
    """Masking code with generator [G1 ; all-ones], G1 = [0 | I_k1 | P].

    Stores k1 = n - 1 - r information symbols; masks any u <= min(n, q-1)
    partially stuck cells with one redundancy symbol; corrects t errors
    through the stacked [n, k1+1] code.  If ``t`` is omitted it is derived
    from the exact minimum distance of the stacked code.
    """

    def __init__(self, n: int, alphabet: Alphabet, ecc_columns=None, *, t: int | None = None):
        G1, self.r = _systematic_g1(n, 1, ecc_columns)
        self._build(alphabet, G1, np.ones((1, n), dtype=np.int64), t)

    def __repr__(self) -> str:
        return f"PsmcMatrixCode(n={self.n}, k1={self.k1}, r={self.r}, t={self.t}, {self.alphabet!r})"


class PsmcCyclicCode(_MaskingCode):
    """Partitioned cyclic masking code: c(x) = m(x) g1(x) + z0 g0(x).

    g0 = 1 + x + ... + x^(n-1), so the z0 term shifts every cell by z0,
    exactly like the all-ones row of the matrix construction.  g1 is the
    product of the minimal polynomials of the given coset representatives
    and must divide g0 (equivalently, 0 must not be in its defining set).
    Messages are coefficient vectors of length k1 = n - r - 1.  The
    stacked code ``base`` is the [n, n-r] cyclic code g1 generates.
    """

    def __init__(self, n: int, alphabet: Alphabet, g1_coset_reps=(), *, t: int | None = None):
        spec = build_cyclic_code(n, alphabet, g1_coset_reps)
        if 0 in spec.defining_set:
            raise ValueError("g1 must divide g0: coset of 0 (root 1) is not allowed")
        self.spec: CyclicCodeSpec = spec
        self.g1 = spec.g
        self.r = len(spec.defining_set)
        k1 = n - self.r - 1
        if k1 < 1:
            raise ValueError("no room for information symbols (deg g1 too large)")
        self.delta1 = spec.bch_bound
        self._build(alphabet, spec.generator_matrix()[:k1], np.ones((1, n), dtype=np.int64), t)

    def __repr__(self) -> str:
        return (
            f"PsmcCyclicCode(n={self.n}, k1={self.k1}, r={self.r}, "
            f"delta1>={self.delta1}, t={self.t}, {self.alphabet!r})"
        )


class PsmcExtendedCode(_MaskingCode):
    """Masking code [G1 ; H0] with H0 a systematic l x n parity check.

    H0 checks an [n, n-l, d0] code; with u <= q + d0 - 3 a valid masking
    vector always exists.  l = 1 with H0 = all-ones is the matrix
    construction, codeword for codeword.
    """

    def __init__(self, alphabet: Alphabet, masking_check, ecc_columns=None, *, t: int | None = None):
        H0 = _integers(masking_check)
        if H0.ndim != 2:
            raise ValueError("masking check must be an l x n matrix")
        l, n = H0.shape
        if l > n:
            raise ValueError(f"masking check must be an l x n matrix with l <= n, got {l} x {n}")
        if (H0[:, :l] != np.eye(l, dtype=np.int64)).any():
            raise ValueError("masking check must be systematic in its first l columns")
        G1, self.r = _systematic_g1(n, l, ecc_columns)
        self._build(alphabet, G1, H0, t)

    def __repr__(self) -> str:
        return (
            f"PsmcExtendedCode(n={self.n}, k1={self.k1}, l={self.l}, r={self.r}, "
            f"d0={self.d0}, t={self.t}, {self.alphabet!r})"
        )


# ---------------------------------------------------------------------------
# masking probability and fractional-redundancy accounting
# ---------------------------------------------------------------------------

# Max q * u * bit_length(q) of an exact masking probability for u >= q, whose
# q terms have about u log2(q) bits: q = u = 2053 computes, 4099 raises.
PROB_BUDGET = 1 << 26


def masking_probability(q: int, u: int) -> Fraction:
    """Probability that u uniform symbols do not cover the whole alphabet.

    Exact by inclusion-exclusion:
    sum_{i=1}^{q} (-1)^(i+1) C(q, i) (q-i)^u / q^u.  Equals 1 for u < q,
    and is the masking success probability of the single-symbol
    constructions for uniform messages when the stuck positions index
    linearly independent generator columns.  BudgetExceeded for u >= q
    when q * u * bit_length(q) exceeds ``PROB_BUDGET``, and TypeError for
    a non-integer q or u.
    """
    q, u = index(q), index(u)
    if q < 2 or u < 0:
        raise ValueError("need q >= 2 and u >= 0")
    if u < q:  # u symbols cannot cover q values; the sum has q big terms
        return Fraction(1)
    if q * u * q.bit_length() > PROB_BUDGET:
        raise BudgetExceeded(f"masking probability for q = {q}, u = {u} exceeds budget {PROB_BUDGET}")
    num = sum((-1) ** (i + 1) * comb(q, i) * (q - i) ** u for i in range(1, q + 1))
    return Fraction(num, q**u)


def redundancy_gain(q: int, u: int, k1: int) -> tuple[float, float]:
    """Fractional-redundancy improvement (k1*, l*) from narrowing v to [u+1].

    Restricting the masking value v to u+1 residues frees
    log_q(floor(q / (u+1))) information symbols, so
    k1* = k1 + log_q(floor(q/(u+1))) and l* = 1 - log_q(floor(q/(u+1))).
    TypeError for a non-integer q or u, ValueError for q < 2 or unless
    0 <= u < q.
    """
    if index(q) < 2:
        raise ValueError(f"requires q >= 2, got q = {q}")
    if not 0 <= index(u) < q:
        raise ValueError(f"requires 0 <= u < q, got u = {u}, q = {q}")
    gain = log(floor(q / (u + 1))) / log(q)
    return k1 + gain, 1.0 - gain


def stuck_redundancy_lower_bound(u: int) -> int:
    """Singleton-bound floor on redundancy for masking u fully stuck cells.

    Masking u stuck-at cells needs a code with d > u, and the Singleton
    bound gives n - k >= d - 1 >= u; partially stuck cells need only a
    single symbol whenever u < q.  TypeError for a non-integer u.
    """
    u = index(u)
    if u < 0:
        raise ValueError("u must be >= 0")
    return u
