"""Generic linear codes: matrices, syndromes, decoding, exact distance.

Everything here works at desk scale (lengths in the tens, exhaustive
enumeration bounded by an explicit budget) and is meant to serve both as
the production decode path and as the brute-force oracle that validates
the masking constructions.

One helper, :func:`_distance`, finds the exact minimum distance of the
code with a given generator G and check matrix H: it enumerates G's row
space (q^k words) or H's, the dual (q^(n-k) words), whichever is smaller,
and from the dual's weight distribution gets the code's by the MacWilliams
identity (MacWilliams & Sloane, *The Theory of Error-Correcting Codes*, ch. 5).

Decoding reads the syndrome and the message in one product.  The read
matrix K = [H^T | R] stacks the check matrix with an n x k matrix R
whose rows at an information set hold the inverse of G there and whose
other rows are zero, so a word y = x G + e gives

    y K = [e H^T | x + e R].

The syndrome table maps each syndrome of the error patterns E of weight
<= t to a row of the corrections array -E R, the row of the lightest
pattern e that has it, and the decoder adds that row to the second
half, x = y R + (-e R), as the encoder adds a masking shift.  A syndrome
whose lightest patterns are two or more of equal weight maps to the tie
marker :data:`TIE` instead, and a syndrome that no pattern has is
absent.  Both decode as failures rather than an arbitrary pick, and a
caller can tell a tie from a word beyond the radius.  The table holds
the patterns of weight <= t whatever the redundancy n - k; past their
budget, decoding enumerates codewords.  The first decode at radius t
builds the table, and the first table builds K, so constructing a code
builds neither.  A key is the syndrome in the narrowest unsigned dtype
that holds q - 1 (one byte a symbol up to q = 256, see
:func:`_syndrome_key`), and the corrections are stored in that dtype
too.

A fixed matrix, K for decoding and G1 for the encoders' m G1, gets one
word-product object, its form chosen once, by :func:`_product`.  A word
enters as the list of Python ints :func:`_word` checked, once, and that
list is the only word argument either form takes.  Both forms offer the
same five members, so encode and decode run one path whatever the form:

* ``product(symbols)``, the word's product, and ``reduced(acc)``, that
  product with every symbol below q;
* ``row(shift)``, a masking shift in the form's own representation,
  built once per masking index;
* ``plus(acc, row)``, the int64 symbols of a product plus a stored row,
  the last step of an encode;
* ``read(symbols, table, r, keep)``, a whole table decode of one word:
  the product, the syndrome key, the lookup and the correction, giving
  the ``keep`` message symbols, or None for ``TIE`` or an absent key.

Where no byte can carry (:func:`_packs`: characteristic 2 with q <= 256,
or a prime q with (rows + 1)(q - 1) <= 255), the matrix is held packed
(:class:`_PackedMatrix`): one Python int per (row, symbol) with one byte
a column, so a word's product is a sum of one int per symbol (XOR in
characteristic 2), indexed by the list, and one ``bytes.translate``
reduces every byte mod q.  The syndrome key is then the product's first
n - k bytes, and a stored row, a shift or a correction, is one more int
added before the translate.  Every other field (q > 256,
odd-characteristic extension fields, prime fields whose sums would
carry) multiplies the word as a batch of one (:class:`_BatchOfOne`): it
builds a one-row int64 array from the list, multiplies it by
``Alphabet.matmul``, casts the product's first n - k symbols to the key
dtype and adds a correction on the kept message symbols only.

:meth:`LinearCode.encode`, :meth:`~LinearCode.syndrome` and
:meth:`~LinearCode.message_of` stay on ``Alphabet.matmul`` by G, H^T and
the information-set inverse, not on the product objects: they are the
independent references the tests check the table decode against, and
``bench/`` reads syndromes through them, so they must not share the
code they check.

Decoding failure is an explicit result (``None``), not an exception, so
simulation campaigns can count failures cheaply.  Work that would
exceed an explicit budget raises :class:`BudgetExceeded`, the class
:mod:`psmc.alphabet` raises for the field-order limits it owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations, islice, product
from math import comb
from operator import add, xor
from typing import NamedTuple

import numpy as np

from .alphabet import Alphabet, BudgetExceeded, _byte_tables

ENUM_BUDGET = 10_000_000  # max codewords a brute-force enumeration may touch
BLOCK_ROWS = 8192         # rows per matrix product: codewords or error patterns
# Max error patterns of weight <= t in one syndrome table, whatever q^(n-k).
# Each syndrome a table holds keeps its key (a bytes object of n - k symbols,
# one byte each up to q = 256), a k-symbol correction row in the same dtype and
# a dict entry: 139 B at n = 40 over GF(3), where a table at the budget would
# need about 0.3 GB.  Building adds one block of BLOCK_ROWS patterns and,
# until it ends, a correction row for every pattern.
TABLE_BUDGET = 1 << 21
TIE = -1                  # table entry of a syndrome whose lightest patterns tie
_ABSENT = -2              # lookup result of a syndrome no pattern reaches


class SyndromeTable(NamedTuple):
    """Syndrome key (:func:`_syndrome_key`) -> row of ``offsets`` holding
    the correction -e R for the lightest pattern e with that syndrome, or
    ``TIE``; a key no pattern reaches is absent.  Row 0 is the zero
    pattern's.  A decode adds the row, as an encode adds its masking
    shift.  The corrections are stored in the key dtype,
    :func:`_symbol_dtype`."""

    rows: dict[bytes, int]
    offsets: np.ndarray


def _symbol_dtype(q: int) -> np.dtype:
    """The narrowest unsigned dtype that holds q - 1."""
    return np.dtype(np.uint8 if q <= 1 << 8 else np.uint16 if q <= 1 << 16 else np.uint32)


def _syndrome_key(syndrome: np.ndarray, alphabet: Alphabet) -> bytes:
    """A syndrome as the syndrome table keys it: its symbols in the
    narrowest dtype that holds them, one byte each up to q = 256."""
    return syndrome.astype(_symbol_dtype(alphabet.q)).tobytes()


def _packs(alphabet: Alphabet, rows: int) -> bool:
    """Whether one-word products by a fixed matrix of ``rows`` rows run
    packed (:class:`_PackedMatrix`): whether no byte can carry.  XOR never
    carries, and a prime field's byte sums ``rows`` products and one more
    symbol, each at most q - 1."""
    if alphabet.p == 2:
        return alphabet.q <= 1 << 8
    return alphabet.m == 1 and (rows + 1) * (alphabet.q - 1) <= 255


@cache
def _byte_maps(alphabet: Alphabet) -> tuple[tuple[bytes, ...], bytes | None]:
    """``bytes.translate`` tables of a packed field, built once per field:
    ``times[s]`` maps each symbol b to the field product s b, and
    ``reduce`` maps each byte to itself mod q, or is None, the identity,
    in characteristic 2."""
    q, mul = alphabet.q, alphabet.mul
    times = tuple(bytes(mul(s, b) for b in range(q)) + bytes(256 - q) for s in range(q))
    return times, None if alphabet.p == 2 else _byte_tables(q)[0]


_U8, _I64 = np.dtype(np.uint8), np.dtype(np.int64)


class _PackedMatrix:
    """A fixed matrix b held for one-word products where :func:`_packs`
    allows: ``_rows[i][s]`` is the field product s b[i] packed as one int,
    column j in byte j, so a word's symbol list y gives the packed y b as
    the sum of ``_rows[i][y[i]]`` under ``_add`` (XOR in characteristic 2,
    int addition over a prime field), and :meth:`reduced` then brings
    every byte below q.  The list is all a product reads.  ``_add`` and
    ``product``, the sum over a word, are chosen once, when built."""

    __slots__ = ("_rows", "_cols", "_add", "_reduce", "product")

    def __init__(self, matrix: np.ndarray, alphabet: Alphabet):
        times, self._reduce = _byte_maps(alphabet)
        rows = map(bytes, matrix.tolist())  # each row of symbols below 256 as bytes
        self._rows = [[int.from_bytes(row.translate(t), "little") for t in times] for row in rows]
        self._cols = matrix.shape[1]
        self._add, self.product = (xor, self._xor_product) if alphabet.p == 2 else (add, self._sum_product)

    def _sum_product(self, symbols: list[int]) -> int:
        """The packed product of a word, bytes not yet reduced: the sum of
        one int per symbol."""
        return sum(map(list.__getitem__, self._rows, symbols))

    def _xor_product(self, symbols: list[int]) -> int:
        """The same in characteristic 2, where the ints are XORed."""
        return reduce(xor, map(list.__getitem__, self._rows, symbols), 0)

    def reduced(self, acc: int) -> bytes:
        """A packed row, a product plus stored rows, as one symbol a byte."""
        return acc.to_bytes(self._cols, "little").translate(self._reduce)

    def row(self, shift: np.ndarray) -> int:
        """A reduced symbol row, such as a masking shift, packed to add."""
        return int.from_bytes(bytes(shift.tolist()), "little")

    def plus(self, acc: int, row: int) -> np.ndarray:
        """The int64 symbols of a product plus a stored row."""
        return np.frombuffer(self.reduced(self._add(acc, row)), _U8).astype(_I64)

    def read(self, symbols: list[int], table: SyndromeTable, r: int, keep: int) -> np.ndarray | None:
        """Symbols r .. r + keep of the word's product, corrected by the
        table's row for the syndrome key, its first r bytes; None for
        ``TIE`` or an absent key.  A correction is added, packed past the
        syndrome bytes, as one more int."""
        acc = self.product(symbols)
        raw = self.reduced(acc)
        i = table.rows.get(raw[:r], _ABSENT)
        if i > 0:  # row 0 is the zero pattern's, which corrects nothing
            return self.plus(acc, int.from_bytes(table.offsets[i].tobytes(), "little") << 8 * r)[r : r + keep]
        return None if i else np.frombuffer(raw[r : r + keep], _U8).astype(_I64)


class _BatchOfOne:
    """A fixed matrix M held for one-word products as a batch of one,
    which every field can run: :meth:`product` builds a one-row int64
    array from the word's symbol list and multiplies it by M through
    ``Alphabet.matmul``.  The product is already reduced, a stored row is
    an int64 row added by ``Alphabet.add``, and a correction is added on
    the kept message symbols only."""

    def __init__(self, matrix: np.ndarray, alphabet: Alphabet):
        self._matrix, self._alphabet, self.plus = matrix, alphabet, alphabet.add

    def product(self, symbols: list[int]) -> np.ndarray:
        return self._alphabet.matmul(np.array([symbols], dtype=np.int64), self._matrix)[0]

    def reduced(self, acc: np.ndarray) -> np.ndarray:
        return acc

    row = reduced

    def read(self, symbols: list[int], table: SyndromeTable, r: int, keep: int) -> np.ndarray | None:
        acc = self.product(symbols)
        i = table.rows.get(_syndrome_key(acc[:r], self._alphabet), _ABSENT)
        if i > 0:
            return self.plus(acc[r : r + keep], table.offsets[i, :keep].astype(_I64))
        return None if i else acc[r : r + keep]


def _product(matrix: np.ndarray, alphabet: Alphabet) -> _PackedMatrix | _BatchOfOne:
    """The one-word product object of a fixed matrix: packed where
    :func:`_packs` allows for its rows, else a batch of one.  The only
    place the form is chosen."""
    return (_PackedMatrix if _packs(alphabet, matrix.shape[0]) else _BatchOfOne)(matrix, alphabet)


def _integers(values) -> np.ndarray:
    """values as an int64 array; a non-integer dtype raises ValueError
    rather than being truncated.  The dtype is compared with the cached
    ``_I64``: a comparison with the type ``np.int64`` builds a dtype."""
    a = np.asarray(values)
    if a.dtype != _I64:
        if a.size and a.dtype.kind not in "iu":
            raise ValueError(f"symbols must be integers, got dtype {a.dtype}")
        a = a.astype(_I64)
    return a


# _BELOW[q] holds the bytes 0..q-1: a word's symbols lie in [0, q) when
# deleting these from its bytes leaves nothing.
_BELOW = tuple(bytes(range(q)) for q in range(257))


def _in_range(symbols: list[int], alphabet: Alphabet) -> bool:
    """Whether every symbol lies in [0, q).  Up to q = 256 this is one C
    pass: ``bytes`` refuses any int outside [0, 256), and ``translate``
    deletes the valid bytes.  Above, a list's min and max beat a numpy
    reduction's call overhead."""
    q = alphabet.q
    if q <= 256:
        try:
            return not bytes(symbols).translate(None, _BELOW[q])
        except ValueError:
            return False
    return not symbols or (min(symbols) >= 0 and max(symbols) < q)


def as_word(values, alphabet: Alphabet, n: int) -> np.ndarray:
    """Validate and convert to an int64 symbol vector of length n, a fresh
    array that never aliases ``values``.

    A non-integer dtype raises ValueError rather than being truncated.
    """
    w = _integers(values)
    _word(w, alphabet, n)
    return w.copy()


def _word(values, alphabet: Alphabet, n: int) -> list[int]:
    """A word of n symbols, checked, as the list of Python ints the
    word-product objects take.  Each check runs once, and in plain Python
    where that beats a numpy call on one word: the dtype against the
    cached ``_I64``, then the shape, then :func:`_in_range` over the
    list."""
    w = _integers(values)
    if w.ndim != 1:
        raise ValueError("expected a 1-D symbol vector")
    if w.size != n:
        raise ValueError(f"expected length {n}, got {w.size}")
    symbols = w.tolist()
    if not _in_range(symbols, alphabet):
        raise ValueError(f"symbols out of range for {alphabet!r}")
    return symbols


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
            R = alphabet.sub(R, alphabet.vmul(np.array(col)[:, None], R[r]))
        pivots.append(c)
    return R, tuple(pivots)


def parity_check_matrix(generator, alphabet: Alphabet) -> np.ndarray:
    """An (n-k) x n matrix H with G H^T = 0, in systematic-complement form:
    ``LinearCode(generator, alphabet).H``, so the generator's dtype, shape,
    range and rank are checked."""
    return LinearCode(generator, alphabet).H


class LinearCode:
    """An [n, k] linear code over a field, held as generator G and check H."""

    def __init__(self, generator, alphabet: Alphabet):
        G = _integers(generator)
        if G.ndim != 2:
            raise ValueError("generator must be a 2-D matrix")
        if not G.shape[0]:
            raise ValueError("generator has no rows: the code has no nonzero word")
        if not _in_range(G.ravel().tolist(), alphabet):
            raise ValueError(f"generator entries out of range for {alphabet!r}")
        alphabet._check_arrays()
        self.alphabet = alphabet
        self.G = G
        self.k, self.n = k, n = G.shape
        # Row-reduce [G | I] once to [R | T], T G = R with R = I on the
        # pivots: they are an information set, and x = c[pivots] T.
        RT, pivots = rref(np.hstack([G, np.eye(k, dtype=np.int64)]), alphabet)
        if pivots[-1] >= n:
            raise ValueError("generator matrix is not full rank")
        self._info_set = np.array(pivots, dtype=np.intp)
        self._info_inverse = RT[:, n:]
        # H is I on the other columns and -R[:, others]^T on the pivots.
        self.H = np.zeros((n - k, n), dtype=np.int64)
        if k < n:  # at k = n there are no check rows: skip the fixed numpy cost
            others = [c for c in range(n) if c not in pivots]
            self.H[np.arange(n - k), others] = 1
            self.H[:, list(pivots)] = alphabet.neg(RT[:, others].T)
        # t -> syndrome table, or None where decoding enumerates codewords
        self._tables: dict[int, SyndromeTable | None] = {}

    def __repr__(self) -> str:
        return f"LinearCode([{self.n}, {self.k}] over {self.alphabet!r})"

    def encode(self, message) -> np.ndarray:
        m = as_word(message, self.alphabet, self.k)
        return self.alphabet.matmul(m[None, :], self.G)[0]

    def syndrome(self, word) -> np.ndarray:
        w = as_word(word, self.alphabet, self.n)
        return self.alphabet.matmul(w[None, :], self.H.T)[0]

    def message_of(self, codeword) -> np.ndarray:
        """The message x with x G = codeword, read off an information set;
        the word is checked as :meth:`syndrome` checks its."""
        c = as_word(codeword, self.alphabet, self.n)
        return self.alphabet.matmul(c[None, self._info_set], self._info_inverse)[0]

    # -- bounded-distance decoding -----------------------------------------

    @cached_property
    def _read_matrix(self) -> np.ndarray:
        """K = [H^T | R]: y K = [syndrome | x + e R] for y = x G + e."""
        R = np.zeros((self.n, self.k), dtype=np.int64)
        R[self._info_set] = self._info_inverse
        return np.hstack([self.H.T, R])

    def _syndrome_table(self, t: int) -> SyndromeTable | None:
        """The syndrome table of the error patterns of weight <= t.

        None when the pattern count exceeds ``TABLE_BUDGET``; decoding then
        enumerates codewords.  Decided and built once per t.
        """
        if t not in self._tables:
            if t < 0:
                raise ValueError("t must be >= 0")
            q, n = self.alphabet.q, self.n
            count = sum(comb(n, w) * (q - 1) ** w for w in range(t + 1))
            self._tables[t] = None if count > TABLE_BUDGET else self._build_table(t, count)
        return self._tables[t]

    def _build_table(self, t: int, count: int) -> SyndromeTable:
        """Patterns in order of weight: the first to reach a syndrome keeps
        it, and its correction -e R, and a second of the same weight turns
        it into a tie."""
        K, r = self._read_matrix, self.n - self.k
        dtype = _symbol_dtype(self.alphabet.q)
        width = dtype.itemsize * r  # bytes of a key
        rows = {bytes(width): 0}  # the zero pattern: zero syndrome, zero correction
        offsets = np.zeros((count, self.k), dtype=dtype)
        kept = 1
        for w in range(1, t + 1):
            first = kept  # rows below this one belong to lighter patterns
            for E in _patterns(self.n, self.alphabet.q, w):
                raw = self.alphabet.matmul(E, K)
                keys = raw[:, :r].astype(dtype).tobytes()
                start, keep = kept, []
                for i in range(E.shape[0]):
                    key = keys[i * width : (i + 1) * width]
                    j = rows.setdefault(key, kept)
                    if j == kept:
                        keep.append(i)
                        kept += 1
                    elif j >= first:
                        rows[key] = TIE
                offsets[start:kept] = self.alphabet.neg(raw[keep, r:])
        # Patterns that reach a syndrome already held keep no row; shrinking
        # in place frees their share without a second copy of the kept rows.
        offsets.resize((kept, self.k), refcheck=False)
        return SyndromeTable(rows, offsets)

    @cached_property
    def _read(self) -> _PackedMatrix | _BatchOfOne:
        """The word-product object of K, built by the first decode."""
        return _product(self._read_matrix, self.alphabet)

    def _decode_word(self, symbols: list[int], t: int, keep: int) -> np.ndarray | None:
        """The first ``keep`` symbols of the message of the unique codeword
        within distance t of the word ``symbols``, which :func:`_word`
        checked, or None."""
        table = self._syndrome_table(t)
        if table is None:
            c = self._decode_by_enumeration(np.array(symbols, dtype=np.int64), t)
            return None if c is None else self.message_of(c)[:keep]
        return self._read.read(symbols, table, self.n - self.k, keep)

    def decode_bounded(self, word, t: int) -> np.ndarray | None:
        """Unique codeword within Hamming distance t of word, or None: by
        syndrome table while the patterns of weight <= t fit its budget,
        otherwise by nearest-codeword enumeration.  The word is checked
        once; its decoded message is re-encoded without a second check."""
        x = self._decode_word(_word(word, self.alphabet, self.n), t, self.k)
        return None if x is None else self.alphabet.matmul(x[None, :], self.G)[0]

    def _decode_by_enumeration(self, y: np.ndarray, t: int) -> np.ndarray | None:
        """decode_bounded by a scan of every codeword for the nearest ones."""
        best_d, best_cw, best_count = self.n + 1, None, 0
        for chunk in _codeword_chunks(self.G, self.alphabet):
            dist = (chunk != y[None, :]).sum(axis=1)
            dmin = int(dist.min())
            if dmin < best_d:
                best_d, best_count, best_cw = dmin, 0, chunk[int(dist.argmin())].copy()
            if dmin == best_d:
                best_count += int((dist == dmin).sum())
        return best_cw if best_d <= t and best_count == 1 else None


def _patterns(n: int, q: int, w: int):
    """The error patterns of weight w >= 1, in blocks of rows.

    Supports in lexicographic order, and on each support the nonzero
    values in lexicographic order.
    """
    values = np.array(list(product(range(1, q), repeat=w)), dtype=np.int64)
    count = len(values)
    supports = combinations(range(n), w)
    while block := list(islice(supports, max(1, BLOCK_ROWS // count))):
        E = np.zeros((len(block), count, n), dtype=np.int64)
        cols = np.array(block, dtype=np.intp)[:, None, :]
        E[np.arange(len(block))[:, None, None], np.arange(count)[:, None], cols] = values
        yield E.reshape(-1, n)


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
    for start in range(0, total, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, total)
        yield mat_mul(_message_block(start, stop, k, q), generator, alphabet)


@dataclass(frozen=True)
class DistanceReport:
    """Exact minimum distance, optional BCH lower bound, and t capability."""

    d: int
    bch_lower_bound: int | None
    t: int


def min_distance(code: LinearCode, *, bch_lower_bound: int | None = None) -> DistanceReport:
    """Exact minimum Hamming weight over the nonzero codewords, by
    :func:`_distance` on the code's G and H."""
    d = _distance(code.G, code.H, code.alphabet)
    return DistanceReport(d=d, bch_lower_bound=bch_lower_bound, t=(d - 1) // 2)


def _distance(G: np.ndarray, H: np.ndarray, alphabet: Alphabet) -> int:
    """Exact minimum distance of the code with full-rank generator G and
    check matrix H.

    Enumerates the smaller row space: G's (q^k words) directly, or H's
    (q^(n-k) words, the dual) through the MacWilliams identity
    q^(n-k) A_i = sum_j B_j K_i(j), with K_i the q-ary Krawtchouk
    polynomial (MacWilliams & Sloane, ch. 5); d is the first i >= 1 with
    A_i != 0.  ``BudgetExceeded`` is raised only when the smaller side
    exceeds ``ENUM_BUDGET``.
    """
    (k, n), q = G.shape, alphabet.q
    if k <= n - k:
        best = n
        for i, chunk in enumerate(_codeword_chunks(G, alphabet)):
            w = np.count_nonzero(chunk[1:] if i == 0 else chunk, axis=1)  # not the zero word
            best = int(w.min(initial=best))
        return best
    B = np.zeros(n + 1, dtype=np.int64)
    for chunk in _codeword_chunks(H, alphabet):
        B += np.bincount(np.count_nonzero(chunk, axis=1), minlength=n + 1)
    support = [(j, int(b)) for j, b in enumerate(B) if b]
    for i in range(1, n + 1):
        total = sum(b * _krawtchouk(i, j, n, q) for j, b in support)
        if total:
            assert total % q ** (n - k) == 0, "MacWilliams transform is not integral"
            return i
    raise ArithmeticError("a nonzero code has no nonzero codeword")


def _krawtchouk(i: int, j: int, n: int, q: int) -> int:
    """K_i(j) = sum_s (-1)^s (q-1)^(i-s) C(j, s) C(n-j, i-s)."""
    return sum(
        (-1) ** s * (q - 1) ** (i - s) * comb(j, s) * comb(n - j, i - s) for s in range(i + 1)
    )
