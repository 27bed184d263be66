"""Generic linear codes: matrices, syndromes, decoding, exact distance.

Everything here works at desk scale (lengths in the tens, exhaustive
enumeration bounded by an explicit budget) and is meant to serve both as
the production decode path and as the brute-force oracle that validates
the masking constructions.

The exact minimum distance of an [n, k] code enumerates the smaller of
the code (q^k words) and its dual (q^(n-k) words).  From the dual's
weight distribution the code's own follows by the MacWilliams identity
(MacWilliams & Sloane, *The Theory of Error-Correcting Codes*, ch. 5).

Decoding failure is an explicit result (``None``), not an exception, so
simulation campaigns can count failures cheaply.  When the caller asks
for a radius t beyond the code's true capability, syndromes reachable
from two error patterns of equal weight are marked ambiguous and decode
as failures rather than an arbitrary pick.  Decoding looks the syndrome
up in a table of the error patterns of weight <= t, whatever the
redundancy n - k, and enumerates codewords only when those patterns
exceed their budget.  Work that would exceed an explicit budget raises
:class:`BudgetExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .alphabet import Alphabet

ENUM_BUDGET = 10_000_000  # max codewords a brute-force enumeration may touch
CHUNK_WORDS = 8192        # codewords enumerated per matrix product
# Max error patterns of weight <= t in one syndrome table, whatever q^(n-k);
# at n = 14..40 each pattern holds 0.5-0.8 KB once built and peaks near 1 KB.
TABLE_BUDGET = 1 << 21


class BudgetExceeded(Exception):
    """Raised when exact enumeration or table building would exceed its budget."""


def as_word(values, alphabet: Alphabet, n: int | None = None) -> np.ndarray:
    """Validate and convert to an int64 symbol vector."""
    w = np.asarray(values, dtype=np.int64)
    if w.ndim != 1:
        raise ValueError("expected a 1-D symbol vector")
    if n is not None and w.size != n:
        raise ValueError(f"expected length {n}, got {w.size}")
    if w.size and (w.min() < 0 or w.max() >= alphabet.q):
        raise ValueError(f"symbols out of range for {alphabet!r}")
    return w


def mat_mul(a: np.ndarray, b: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """Matrix product over the alphabet."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    b = np.atleast_2d(np.asarray(b, dtype=np.int64))
    return alphabet.matmul(a, b)


def rref(matrix: np.ndarray, alphabet: Alphabet) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of a symbol matrix; returns (R, pivot columns)."""
    R = np.array(matrix, dtype=np.int64)
    rows, cols = R.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        col = R[:, c].tolist()
        pivot = next((i for i in range(r, rows) if col[i]), None)
        if pivot is None:
            continue
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
            col[r], col[pivot] = col[pivot], col[r]
        if col[r] != 1:
            R[r] = alphabet.vmul(R[r], alphabet.inv(col[r]))
        col[r] = 0
        if any(col):
            R = alphabet.vsub(R, alphabet.vmul(np.array(col)[:, None], R[r]))
        pivots.append(c)
    return R, tuple(pivots)


def _reduce_generator(generator: np.ndarray, alphabet: Alphabet):
    """Row-reduce [G | I] once: (R, pivots, T) with T G = R and R[:, pivots] = I.

    The pivots are an information set of G, and T recovers a message
    from the codeword symbols on it: x = c[pivots] T.
    """
    G = np.asarray(generator, dtype=np.int64)
    k, n = G.shape
    R, pivots = rref(np.hstack([G, np.eye(k, dtype=np.int64)]), alphabet)
    if pivots and pivots[-1] >= n:
        raise ValueError("generator matrix is not full rank")
    return R[:, :n], pivots, R[:, n:]


def _check_from_rref(R: np.ndarray, pivots: tuple[int, ...], alphabet: Alphabet) -> np.ndarray:
    k, n = R.shape
    nonpivots = [c for c in range(n) if c not in pivots]
    H = np.zeros((n - k, n), dtype=np.int64)
    for t, c in enumerate(nonpivots):
        H[t, c] = 1
        for i, pc in enumerate(pivots):
            H[t, pc] = alphabet.neg(int(R[i, c]))
    return H


def parity_check_matrix(generator: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """An (n-k) x n matrix H with G H^T = 0, in systematic-complement form."""
    R, pivots, _ = _reduce_generator(generator, alphabet)
    return _check_from_rref(R, pivots, alphabet)


class LinearCode:
    """An [n, k] linear code over a field, held as generator G and check H."""

    def __init__(self, generator, alphabet: Alphabet):
        G = np.asarray(generator, dtype=np.int64)
        if G.ndim != 2:
            raise ValueError("generator must be a 2-D matrix")
        if G.size and (G.min() < 0 or G.max() >= alphabet.q):
            raise ValueError(f"generator entries out of range for {alphabet!r}")
        self.alphabet = alphabet
        self.G = G
        self.k, self.n = G.shape
        R, pivots, self._info_inverse = _reduce_generator(G, alphabet)
        self._info_set = np.array(pivots, dtype=np.intp)
        self.H = _check_from_rref(R, pivots, alphabet)
        # t -> syndrome table, or None where decoding enumerates codewords
        self._tables: dict[int, dict[bytes, tuple[int, np.ndarray | None]] | None] = {}

    def __repr__(self) -> str:
        return f"LinearCode([{self.n}, {self.k}] over {self.alphabet!r})"

    def encode(self, message) -> np.ndarray:
        m = as_word(message, self.alphabet, self.k)
        return mat_mul(m[None, :], self.G, self.alphabet)[0]

    def syndrome(self, word) -> np.ndarray:
        return self._syndromes(as_word(word, self.alphabet, self.n)[None, :])[0]

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        """Syndromes of the rows of a 2-D symbol array."""
        if self.H.shape[0] == 0:
            return np.zeros((words.shape[0], 0), dtype=np.int64)
        return mat_mul(words, self.H.T, self.alphabet)

    def message_of(self, codeword) -> np.ndarray:
        """The message x with x G = codeword, read off an information set."""
        c = np.asarray(codeword, dtype=np.int64)
        return self.alphabet.matmul(c[None, self._info_set], self._info_inverse)[0]

    # -- bounded-distance decoding -----------------------------------------

    def _syndrome_table(self, t: int) -> dict[bytes, tuple[int, np.ndarray | None]] | None:
        """Syndrome -> (weight, leader) over the patterns of weight <= t.

        None when the pattern count exceeds ``TABLE_BUDGET``; decoding then
        enumerates codewords.  Decided and built once per t.
        """
        if t not in self._tables:
            if t < 0:
                raise ValueError("t must be >= 0")
            q, n = self.alphabet.q, self.n
            count = sum(comb(n, w) * (q - 1) ** w for w in range(t + 1))
            if count > TABLE_BUDGET:
                self._tables[t] = None
                return None
            patterns = [
                (w, pos, vals)
                for w in range(t + 1)
                for pos in combinations(range(n), w)
                for vals in product(range(1, q), repeat=w)
            ]
            E = np.zeros((len(patterns), n), dtype=np.int64)
            for row, (_, pos, vals) in zip(E, patterns):
                row[list(pos)] = vals
            S = self._syndromes(E)
            table: dict[bytes, tuple[int, np.ndarray | None]] = {}
            for (w, _, _), e, s in zip(patterns, E, S):
                key = s.tobytes()
                prev = table.get(key)
                if prev is None:
                    table[key] = (w, e)
                elif prev[0] == w:
                    table[key] = (w, None)  # tie at equal weight
            self._tables[t] = table
        return self._tables[t]

    def decode_bounded(self, word, t: int) -> np.ndarray | None:
        """Unique codeword within Hamming distance t of word, or None.

        Uses a precomputed syndrome table when the error patterns of weight
        <= t fit the budget, otherwise falls back to nearest-codeword
        enumeration.
        """
        y = as_word(word, self.alphabet, self.n)
        table = self._syndrome_table(t)
        if table is None:
            return self._decode_by_enumeration(y, t)
        entry = table.get(self._syndromes(y[None, :])[0].tobytes())
        if entry is None or entry[1] is None:
            return None
        return self.alphabet.vsub(y, entry[1])

    def _decode_by_enumeration(self, y: np.ndarray, t: int) -> np.ndarray | None:
        """decode_bounded by a scan of every codeword for the nearest ones."""
        best_d = self.n + 1
        best_cw = None
        best_count = 0
        for chunk in _codeword_chunks(self.G, self.alphabet):
            dist = (chunk != y[None, :]).sum(axis=1)
            dmin = int(dist.min())
            if dmin < best_d:
                best_d = dmin
                best_count = int((dist == dmin).sum())
                best_cw = chunk[int(dist.argmin())].copy()
            elif dmin == best_d:
                best_count += int((dist == dmin).sum())
        if best_d > t or best_count != 1:
            return None
        return best_cw


def _message_block(start: int, stop: int, k: int, q: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, k), dtype=np.int64)
    for i in range(k):
        out[:, i] = idx % q
        idx = idx // q
    return out


def _codeword_chunks(generator: np.ndarray, alphabet: Alphabet):
    """Every word of the row space of ``generator``, the zero word first."""
    q, k = alphabet.q, generator.shape[0]
    total = q ** k
    if total > ENUM_BUDGET:
        raise BudgetExceeded(f"enumeration of {total} codewords exceeds budget {ENUM_BUDGET}")
    for start in range(0, total, CHUNK_WORDS):
        stop = min(start + CHUNK_WORDS, total)
        yield mat_mul(_message_block(start, stop, k, q), generator, alphabet)


@dataclass(frozen=True)
class DistanceReport:
    """Exact minimum distance, optional BCH lower bound, and t capability."""

    d: int
    bch_lower_bound: int | None
    t: int


def min_distance(code: LinearCode, *, bch_lower_bound: int | None = None) -> DistanceReport:
    """Exact minimum Hamming weight over the nonzero codewords.

    Enumerates the smaller of the code (the rows of G, q^k words) and its
    dual (the rows of H, q^(n-k) words); ``BudgetExceeded`` is raised
    only when that smaller side exceeds ``ENUM_BUDGET``.  From the dual,
    the code's weight distribution follows by the MacWilliams identity
    q^(n-k) A_i = sum_j B_j K_i(j), with K_i the q-ary Krawtchouk
    polynomial (MacWilliams & Sloane, ch. 5); d is the first i >= 1 with
    A_i != 0.
    """
    if code.k <= code.n - code.k:
        best = code.n
        first = True
        for chunk in _codeword_chunks(code.G, code.alphabet):
            w = np.count_nonzero(chunk, axis=1)
            if first:
                w = w[1:]  # skip the zero codeword
                first = False
            if w.size:
                best = min(best, int(w.min()))
    else:
        best = _distance_from_dual(code)
    return DistanceReport(d=best, bch_lower_bound=bch_lower_bound, t=(best - 1) // 2)


def _distance_from_dual(code: LinearCode) -> int:
    """First i >= 1 with A_i != 0, from the dual's weight distribution B."""
    q, n = code.alphabet.q, code.n
    B = np.zeros(n + 1, dtype=np.int64)
    for chunk in _codeword_chunks(code.H, code.alphabet):
        B += np.bincount(np.count_nonzero(chunk, axis=1), minlength=n + 1)
    dual_size = q ** (n - code.k)
    support = [(j, int(b)) for j, b in enumerate(B) if b]
    for i in range(1, n + 1):
        total = sum(b * _krawtchouk(i, j, n, q) for j, b in support)
        if total:
            assert total % dual_size == 0, "MacWilliams transform is not integral"
            return i
    raise ArithmeticError("a nonzero code has no nonzero codeword")


def _krawtchouk(i: int, j: int, n: int, q: int) -> int:
    """K_i(j) = sum_s (-1)^s (q-1)^(i-s) C(j, s) C(n-j, i-s)."""
    return sum(
        (-1) ** s * (q - 1) ** (i - s) * comb(j, s) * comb(n - j, i - s) for s in range(i + 1)
    )


def systematize(generator, alphabet: Alphabet) -> tuple[np.ndarray, tuple[int, ...]]:
    """Equivalent generator of the form [0 | I | P] stacked over all-ones.

    Returns the new k x n matrix together with the column permutation that
    was applied (entry j gives the original index of new column j).  The
    input's row space must contain the all-ones vector.
    """
    G = np.asarray(generator, dtype=np.int64)
    k, n = G.shape
    R, pivots = rref(G, alphabet)
    if len(pivots) != k:
        raise ValueError("generator matrix is not full rank")
    perm = tuple(pivots) + tuple(c for c in range(n) if c not in pivots)
    Rp = R[:, perm]
    ones = np.ones(n, dtype=np.int64)
    if (mat_mul(ones[None, :k], Rp, alphabet)[0] != ones).any():
        raise ValueError("the all-ones vector is not in the code")
    out = np.vstack([Rp[1:], ones[None, :]])
    return out, perm
