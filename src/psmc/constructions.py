"""Masking codes for partially-stuck-at-1 cells with error correction.

A cell that is partially stuck at level 1 can store any value >= 1 but
not 0.  All constructions here are one coset-shift scheme.  The stored
word is

    c = m G1 + z H0,

where the k1 x n matrix G1 carries the message m and the l x n masking
matrix H0 turns the masking vector z into a shift of the whole word.
The encoder scans the q^l candidates in a fixed order (z = -v, v
lexicographic) and keeps the first whose shift leaves every stuck cell
nonzero.  The stacked code [G1 ; H0] corrects up to t substitution errors
on read-back, and the decoder reads [m | z] back off an information set
of the stacked generator.

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

import numpy as np

from .alphabet import Alphabet, Polynomial
from .cyclic import CyclicCodeSpec, build_cyclic_code
from .linear import LinearCode, as_word, mat_mul, min_distance, parity_check_matrix


class MaskingImpossible(Exception):
    """Raised when no masking value keeps every stuck cell nonzero."""


class DecodingFailure(Exception):
    """Raised when bounded-distance decoding cannot identify a codeword."""


@dataclass(frozen=True)
class StuckCellProfile:
    """Positions of partially-stuck-at-1 cells, sorted."""

    positions: tuple[int, ...]

    def __post_init__(self):
        pos = tuple(sorted(int(p) for p in self.positions))
        if len(set(pos)) != len(pos) or (pos and pos[0] < 0):
            raise ValueError("stuck positions must be distinct and non-negative")
        object.__setattr__(self, "positions", pos)

    @property
    def u(self) -> int:
        return len(self.positions)

    def check_length(self, n: int) -> None:
        if self.positions and self.positions[-1] >= n:
            raise ValueError(f"stuck position {self.positions[-1]} outside word length {n}")


def _coerce_profile(profile) -> StuckCellProfile:
    if isinstance(profile, StuckCellProfile):
        return profile
    return StuckCellProfile(tuple(profile))


@dataclass(frozen=True)
class MaskingOutcome:
    """Encoder output: the stored word, the masking vector z, and v.

    v is the masking value (z = (-v,)) when there is one masking symbol,
    and None when there are several.
    """

    codeword: np.ndarray
    z: tuple[int, ...]
    v: int | None

    def __post_init__(self):
        object.__setattr__(self, "codeword", np.asarray(self.codeword, dtype=np.int64))


def _systematic_g1(n: int, l: int, ecc_columns) -> tuple[np.ndarray, int]:
    """G1 = [0 | I_k1 | P] with l leading zero columns; returns (G1, r)."""
    P = None if ecc_columns is None else np.asarray(ecc_columns, dtype=np.int64)
    r = 0 if P is None else P.shape[1]
    k1 = n - l - r
    if k1 < 1:
        raise ValueError("no room for information symbols")
    if P is None:
        P = np.zeros((k1, 0), dtype=np.int64)
    if P.shape[0] != k1:
        raise ValueError(f"ecc_columns must have {k1} rows, got {P.shape[0]}")
    return np.hstack([np.zeros((k1, l), dtype=np.int64), np.eye(k1, dtype=np.int64), P]), r


class _MaskingCode:
    """The coset-shift scheme c = m G1 + z H0 shared by all constructions.

    Subclasses build G1 and H0 and call :meth:`_build`.  d0 is the
    minimum distance of the code H0 checks; the all-ones row checks a
    code of distance 2.
    """

    d0 = 2

    def _build(self, alphabet: Alphabet, G1: np.ndarray, H0: np.ndarray, t: int | None) -> None:
        self.alphabet = alphabet
        self.G1, self.H0 = G1, H0
        self.k1, self.n = G1.shape
        self.l = H0.shape[0]
        self.base = LinearCode(np.vstack([G1, H0]), alphabet)
        if t is not None:
            self.t = int(t)

    @cached_property
    def t(self) -> int:
        """Errors corrected on read-back; unless given, derived on first use
        from the exact minimum distance of the stacked code."""
        return min_distance(self.base).t

    @cached_property
    def _candidates(self) -> tuple[np.ndarray, list, list, list]:
        """The masking candidates in scan order, built by the first encode.

        Returns the shift z H0, z and v of each candidate, and
        zeroing[j][w]: the candidates that leave cell j at 0 when m G1
        holds w there.
        """
        A, q = self.alphabet, self.alphabet.q
        v = np.array(list(product(range(q), repeat=self.l)), dtype=np.int64)
        # z H0 = -(v H0), so candidate i drops cell j to 0 iff m G1 holds hits[i, j].
        hits = mat_mul(v, self.H0, A)
        zeroing = [[[] for _ in range(q)] for _ in range(self.n)]
        for i, row in enumerate(hits.tolist()):
            for j, w in enumerate(row):
                zeroing[j][w].append(i)
        zs = [tuple(row) for row in A.vneg(v).tolist()]
        vs = [row[0] if self.l == 1 else None for row in v.tolist()]
        return A.vneg(hits), zs, vs, zeroing

    @property
    def u_max(self) -> int:
        return min(self.n, self.alphabet.q + self.d0 - 3)

    def encode(self, message, profile=(), *, probabilistic: bool = False) -> MaskingOutcome:
        """Mask the stuck positions and attach the ECC structure.

        The intermediate word is w = m G1, and the stored word is w + z H0
        for the first masking vector z (in the order z = -v, v
        lexicographic) that leaves every stuck cell nonzero.
        """
        prof = _coerce_profile(profile)
        prof.check_length(self.n)
        if not probabilistic and prof.u > self.u_max:
            raise ValueError(
                f"u={prof.u} exceeds the guaranteed bound {self.u_max}; "
                "pass probabilistic=True to attempt masking anyway"
            )
        m = as_word(message, self.alphabet, self.k1)
        w = mat_mul(m[None, :], self.G1, self.alphabet)[0]
        shifts, zs, vs, zeroing = self._candidates
        values = w.tolist()
        zeroed: set[int] = set()
        for j in prof.positions:
            zeroed.update(zeroing[j][values[j]])
        i = next((i for i in range(len(zs)) if i not in zeroed), None)
        if i is None:
            if prof.u <= self.u_max:
                raise AssertionError("guaranteed regime violated: no masking vector found")
            raise MaskingImpossible(f"no masking vector z for positions {prof.positions}")
        c = self.alphabet.vadd(w, shifts[i])
        return MaskingOutcome(codeword=c, z=zs[i], v=vs[i])

    def decode(self, word) -> np.ndarray:
        """Correct up to t errors and return the message m."""
        c = self.base.decode_bounded(word, self.t)
        if c is None:
            raise DecodingFailure(f"no unique codeword within distance {self.t}")
        return self.base.message_of(c)[: self.k1]


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

    @classmethod
    def from_linear(cls, code: LinearCode, *, t: int | None = None) -> tuple["PsmcMatrixCode", tuple[int, ...]]:
        """Build from any linear code containing the all-ones vector.

        Returns the masking code together with the column permutation that
        was applied to reach the required generator form.
        """
        from .linear import systematize

        M, perm = systematize(code.G, code.alphabet)
        k1 = code.k - 1
        P = M[:k1, k1 + 1 :]
        return cls(code.n, code.alphabet, P if P.size else None, t=t), perm

    def __repr__(self) -> str:
        return f"PsmcMatrixCode(n={self.n}, k1={self.k1}, r={self.r}, t={self.t}, {self.alphabet!r})"


class PsmcCyclicCode(_MaskingCode):
    """Partitioned cyclic masking code: c(x) = m(x) g1(x) + z0 g0(x).

    g0 = 1 + x + ... + x^(n-1), so the z0 term shifts every cell by z0,
    exactly like the all-ones row of the matrix construction.  g1 is the
    product of the minimal polynomials of the given coset representatives
    and must divide g0 (equivalently, 0 must not be in its defining set).
    Messages are coefficient vectors of length k1 = n - r - 1.  The
    stacked code is the cyclic code g1 generates, also available as
    ``ecc``.
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
        self.g0 = Polynomial(alphabet, (1,) * n)
        self.delta0 = 2
        self.delta1 = spec.bch_bound
        # Sanity: g1 | g0 exactly.
        if not (self.g0 % self.g1).is_zero:
            raise ArithmeticError("g1 does not divide g0")
        self._build(alphabet, spec.generator_matrix()[:k1], self.g0.vector(n)[None, :], t)
        self.ecc = self.base  # the [n, n-r] code generated by g1

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
        H0 = np.asarray(masking_check, dtype=np.int64)
        if H0.ndim != 2:
            raise ValueError("masking check must be an l x n matrix")
        l, n = H0.shape
        if (H0[:, :l] != np.eye(l, dtype=np.int64)).any():
            raise ValueError("masking check must be systematic in its first l columns")
        G1, self.r = _systematic_g1(n, l, ecc_columns)
        self._build(alphabet, G1, H0, t)
        # d0 is the exact minimum distance of the code H0 checks.
        self.masked_code = LinearCode(parity_check_matrix(H0, alphabet), alphabet)
        self.d0 = min_distance(self.masked_code).d

    def __repr__(self) -> str:
        return (
            f"PsmcExtendedCode(n={self.n}, k1={self.k1}, l={self.l}, r={self.r}, "
            f"d0={self.d0}, t={self.t}, {self.alphabet!r})"
        )


# ---------------------------------------------------------------------------
# masking probability and fractional-redundancy accounting
# ---------------------------------------------------------------------------

def masking_probability(q: int, u: int) -> Fraction:
    """Probability that u uniform symbols do not cover the whole alphabet.

    Exact by inclusion-exclusion:
    sum_{i=1}^{q} (-1)^(i+1) C(q, i) (q-i)^u / q^u.  Equals 1 for u < q,
    and is the masking success probability of the single-symbol
    constructions for uniform messages when the stuck positions index
    linearly independent generator columns.
    """
    if q < 2 or u < 0:
        raise ValueError("need q >= 2 and u >= 0")
    num = sum((-1) ** (i + 1) * comb(q, i) * (q - i) ** u for i in range(1, q + 1))
    return Fraction(num, q**u)


def redundancy_gain(q: int, u: int, k1: int) -> tuple[float, float]:
    """Fractional-redundancy improvement (k1*, l*) from narrowing v to [u+1].

    Restricting the masking value v to u+1 residues frees
    log_q(floor(q / (u+1))) information symbols, so
    k1* = k1 + log_q(floor(q/(u+1))) and l* = 1 - log_q(floor(q/(u+1))).
    """
    if u + 1 > q:
        raise ValueError("requires u + 1 <= q")
    gain = log(floor(q / (u + 1))) / log(q)
    return k1 + gain, 1.0 - gain


def improved_masking_value(word, positions, q: int, u: int | None = None) -> tuple[int, int]:
    """Masking pair (v, z0) with v drawn from [0, u+1) instead of [0, q).

    v is the smallest element of [0, u+1) that differs from every stuck
    value mod (u+1); since u values cannot occupy u+1 residues, v always
    exists, and adding z0 = -v mod q keeps each stuck cell nonzero:
    a stuck cell could only land on 0 if its value equaled v exactly,
    which the residue condition rules out.
    """
    pos = list(positions)
    if u is None:
        u = len(pos)
    if u + 1 > q:
        raise ValueError("requires u + 1 <= q")
    if len(pos) > u:
        raise ValueError(f"{len(pos)} stuck positions but u = {u}")
    w = np.asarray(word, dtype=np.int64)
    residues = {int(w[p]) % (u + 1) for p in pos}
    v = next(v for v in range(u + 1) if v not in residues)
    return v, (-v) % q


def stuck_redundancy_lower_bound(u: int) -> int:
    """Singleton-bound floor on redundancy for masking u fully stuck cells.

    Masking u stuck-at cells needs a code with d > u, and the Singleton
    bound gives n - k >= d - 1 >= u; partially stuck cells need only a
    single symbol whenever u < q.
    """
    if u < 0:
        raise ValueError("u must be >= 0")
    return u
