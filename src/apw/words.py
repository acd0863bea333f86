"""Finite words: factors, primitivity, powers, and repetition exponents.

Words are plain Python strings and the empty string is the empty word.
Public range arguments follow the 1-based inclusive convention, so
``factor(w, 2, 4)`` is the three-letter factor starting at the second
letter and ``factor(w, i, i - 1)`` is empty.  Exponents of repetitions are
exact ``fractions.Fraction`` values; nothing in this module compares
through floating point.

Repetition scans.  The scanners (``find_square``, ``is_k_power_free``,
``max_exponent``, ``find_power_geq``) and the anti-power checker all ask
one question: is there an equality run of ``need`` letters at distance p,
positions i .. i+need-1 with w[j] == w[j+p]?  A factor starting at i with
period p and exponent e exists exactly when the run from i reaches
(e - 1) * p.  Words shorter than ``_VECTOR_THRESHOLD`` answer it by
comparing slices.  Longer words use two pieces:

* The factor-name index (Karp, Miller and Rosenberg, 1972):
  ``names[r, i]`` names the factor w[i:i+4**r], so equal names mean equal
  factors.  Round j of the build names the factors of length 2**j by
  ranking pairs of round j-1 names by sorting, floor(log2 n) + 1 rounds in
  all; the table keeps the even rounds.  It answers capped
  longest-common-extension queries, forward and backward, by lifting in
  base 4 (up to three steps per row), vectorised over a batch of queries.
* The sampled-run search over a stream of (p, need) pairs.  A run of at
  least need letters covers a multiple of need, so only those positions q
  are sampled.  A sample hits when its backward extension, capped at
  need - 1, plus its forward one, capped at need, reaches need.  The first
  hit of a pair gives that pair's least run start exactly, as q minus the
  backward extension.  Proof: the least start s opens the first run of at
  least need letters; the multiple q of need in [s, s + need) lies in that
  run and hits with backward extension q - s < need, while every earlier
  sample sees only shorter runs and misses.

A scan for exponent >= t thus costs O(n log^2 n / (t - 1)), and the
k-anti-power check O(k n log^2 n), against O(n^2) for a run table per
period.  Memory: the index is one (floor(log2 n) // 2 + 1) x (n + 1)
table in the smallest unsigned type that holds n (two bytes an entry up
to 65,535 letters), built on each call and never cached; keeping every
other round halves it at the cost of more lifting steps.  The stream is
cut into chunks of ``_CHUNK`` samples, and the search holds little more
than one chunk's arrays at a time.  Every result of this path is
confirmed by direct letter comparison before it is returned; a mismatch
raises RuntimeError.

All operations are pure functions over immutable values, so concurrent
use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

RationalLike = Union[Fraction, int, str]
# pair ids -> (distance p, need, sample stop) arrays; see ``_samples``
Pairs = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]


class Alphabet:
    """An ordered alphabet of distinct single-character letters.

    Construct from a string (``Alphabet("abc")``) or any iterable of
    one-character strings.  Letters are printable, non-whitespace and not
    ``#``, which the morphism file format reserves for comments.
    Declaration order is significant: it fixes the lexicographic order
    used by enumeration.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must contain at least one letter")
        seen = set()
        for ch in letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"letter must be a single character, got {ch!r}")
            if ch.isspace() or not ch.isprintable():
                raise ValueError(f"letter must be printable and non-whitespace, got {ch!r}")
            if ch == "#":
                raise ValueError("'#' cannot be a letter: it starts a comment in morphism files")
            if ch in seen:
                raise ValueError(f"duplicate letter {ch!r} in alphabet")
            seen.add(ch)
        self.letters = letters

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, ch: object) -> bool:
        return ch in self.letters

    def index(self, ch: str) -> int:
        return self.letters.index(ch)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"


def as_alphabet(letters: Union[Alphabet, str, Iterable[str]]) -> Alphabet:
    """Coerce a string or iterable of letters to an Alphabet."""
    if isinstance(letters, Alphabet):
        return letters
    return Alphabet(letters)


def validate_word(w: str, alphabet: Optional[Alphabet] = None) -> str:
    """Check that every character of ``w`` is a legal letter.

    Letters must be printable and non-whitespace; when ``alphabet`` is given
    they must also belong to it.  Returns ``w`` unchanged.  The empty string
    (the empty word) is always valid.
    """
    for pos, ch in enumerate(w, start=1):
        if ch.isspace() or not ch.isprintable():
            raise ValueError(f"illegal letter {ch!r} at position {pos}")
        if alphabet is not None and ch not in alphabet:
            raise ValueError(f"letter {ch!r} at position {pos} is not in the alphabet")
    return w


@dataclass(frozen=True, slots=True)
class FractionalPowerOccurrence:
    """A repetition ``w[start .. start+span-1]`` with period ``period``.

    The factor is a fractional power of exponent ``span/period`` > 1: it is
    (xy)^e x for some x, y with |xy| = period.  ``start`` is 1-based.
    """

    start: int
    period: int
    span: int

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError("occurrence start must be >= 1")
        if self.period < 1:
            raise ValueError("occurrence period must be >= 1")
        if self.span <= self.period:
            raise ValueError("occurrence span must exceed the period")

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.span, self.period)

    def factor(self, w: str) -> str:
        return w[self.start - 1 : self.start - 1 + self.span]

    def verify(self, w: str) -> bool:
        """Re-check the claimed periodicity by direct letter comparison."""
        i = self.start - 1
        if i < 0 or i + self.span > len(w):
            return False
        for t in range(self.span - self.period):
            if w[i + t] != w[i + t + self.period]:
                return False
        return True


def factor(w: str, i: int, j: int) -> str:
    """The factor w[i..j], 1-based inclusive; j = i - 1 gives the empty word."""
    if not (0 <= i - 1 <= j <= len(w)):
        raise ValueError(f"factor indices out of range: i={i}, j={j}, |w|={len(w)}")
    return w[i - 1 : j]


def is_primitive(w: str) -> bool:
    """True iff w is not a power u^e with e >= 2.

    Uses the doubled-word test: a non-empty word is primitive exactly when
    it occurs in ww only as a prefix and as a suffix.
    """
    if not w:
        raise ValueError("primitivity of the empty word is undefined")
    n = len(w)
    return (w + w).find(w, 1, 2 * n - 1) == -1


def primitive_root(w: str) -> Tuple[str, int]:
    """The unique primitive u and exponent e >= 1 with w = u^e.

    Scans candidate period lengths in increasing order; the smallest divisor
    d of |w| with w = w[1..d]^(|w|/d) gives the root.
    """
    if not w:
        raise ValueError("primitive root of the empty word is undefined")
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d
    raise AssertionError("unreachable: d = |w| always matches")


# Words at least this long take the name-index path of every repetition scan,
# here and in ``antipower``; shorter words compare slices.
_VECTOR_THRESHOLD = 192
# Samples per vectorised batch of the sampled-run search.  It bounds the
# search's working memory, and how far it runs past the hit that ends it.
_CHUNK = 4096


def _names(w: str) -> np.ndarray:
    """The factor-name index of w, one row per power-of-four length.

    ``names[r, i] == names[r, i2]`` exactly when ``w[i:i+4**r]`` and
    ``w[i2:i2+4**r]`` are equal, for i, i2 <= len(w) - 4**r.  Names of
    length 2**j rank the letters (j = 0) or the pairs of length-2**(j-1)
    names at i and i + 2**(j-1); the odd rounds are dropped once used.
    The rest of each row and the extra column len(w) are padding, read by
    capped queries but never counted.
    """
    codes = np.frombuffer(w.encode("utf-32-le"), dtype="<u4")
    n = codes.size
    names = np.zeros(((n.bit_length() + 1) // 2, n + 1), dtype=np.min_scalar_type(n))
    # pair keys below (n + 1)**2; unsigned 32 bits while names fit in 16
    wide = np.promote_types(np.min_scalar_type((n + 1) ** 2), np.uint32)
    for j in range(n.bit_length()):
        if j:
            half, m = 1 << (j - 1), n - (1 << j) + 1
            key = row[:m].astype(wide)
            key *= n + 1
            key += row[half : half + m]
        else:
            m, key = n, codes.astype(wide)
        # dense ranks: sort, then count the changes of key along the order
        order = np.argsort(key, kind="stable")
        key = key[order]
        row = names[j // 2] if j % 2 == 0 else np.zeros(n + 1, names.dtype)
        row[order[1:]] = np.cumsum(key[1:] != key[:-1], dtype=names.dtype)
        del key, order  # only the table and the last round outlive a round
    return names


def _lce(
    names: np.ndarray, x: np.ndarray, y: np.ndarray, cap: np.ndarray, backward: bool = False
) -> np.ndarray:
    """Capped longest common extensions by lifting in base 4, one per query.

    Forward: the largest L <= cap with w[x:x+L] == w[y:y+L]; backward: with
    w[x-L:x] == w[y-L:y].  Each cap must keep the compared factors inside w.
    """
    ext = np.zeros_like(cap)
    for r in reversed(range((int(cap.max(initial=0)).bit_length() + 1) // 2)):
        size = 1 << (2 * r)
        row = names[r]
        for _ in range(3):  # the base-4 digit of the answer
            if backward:
                same = row[x - ext - size] == row[y - ext - size]
            else:
                same = row[x + ext] == row[y + ext]
            step = same & (ext + size <= cap)
            if not step.any():
                break
            ext += size * step
    return ext


def _samples(n: int, count: int, pairs: Pairs) -> Iterator[Tuple[np.ndarray, ...]]:
    """The samples of pairs 0..count-1, in chunks of at most ``_CHUNK``.

    ``pairs(ids)`` gives the arrays (p, need, stop) of those pair ids; the
    samples of a pair are the multiples q of need with q < stop.  It is
    called again for every chunk, so need and stop may follow the hits seen
    so far, except that a pair already begun keeps its need.  Yields
    (p, need, q), one entry per sample, by pair and then by q.
    """
    first, done, kept = 0, 0, 0  # next pair, its samples already yielded, its need
    while first < count:
        p, need, stop = pairs(np.arange(first, min(count, first + _CHUNK)))
        if done:
            need[0] = kept
        left = (stop + need - 1) // need
        left[0] = max(int(left[0]) - done, 0)
        ends = np.cumsum(left)
        m = min(np.count_nonzero(ends < _CHUNK) + 1, ends.size)  # pairs this chunk reaches
        starts = ends[:m] - left[:m]
        over = max(int(ends[m - 1]) - _CHUNK, 0)
        left[m - 1] -= over
        pair = np.repeat(np.arange(m), left[:m])
        q = np.arange(pair.size) - starts[pair]
        q[: left[0]] += done
        p, need = p[pair], need[pair]
        q *= need
        if over:
            first, done, kept = first + m - 1, int(left[m - 1]) + (done if m == 1 else 0), int(need[-1])
        else:
            first, done = first + m, 0
        del stop, left, ends, starts, pair  # hold only the chunk while the caller works
        if q.size:
            yield p, need, q


def _sampled_runs(names: np.ndarray, count: int, pairs: Pairs) -> Iterator[Tuple[np.ndarray, ...]]:
    """Search the samples of ``pairs`` for equality runs of ``need`` letters.

    A sample q of the pair (p, need) hits when the run of positions i with
    w[i] == w[i+p] through q has at least need of them, measured as a
    forward extension capped at need plus a backward one capped at need - 1.
    Yields (p, need, q, start) for the hits of each chunk that has any, in
    stream order, where start = q - backward extension.
    """
    n = names.shape[1] - 1
    for p, need, q in _samples(n, count, pairs):
        live = np.flatnonzero(names[0, q] == names[0, q + p])
        p, need, q = p[live], need[live], q[live]
        fwd = _lce(names, q, q + p, np.minimum(need, n - q - p))
        bwd = _lce(names, q, q + p, np.minimum(need - 1, q), backward=True)
        hit = np.flatnonzero(bwd + fwd >= need)
        if hit.size:
            yield p[hit], need[hit], q[hit], q[hit] - bwd[hit]


def _checked(w: str, occ: FractionalPowerOccurrence) -> FractionalPowerOccurrence:
    """occ, after direct letter comparison confirms it (a long-path self-check)."""
    if not occ.verify(w):
        raise RuntimeError(f"name-index scan produced a bad repetition {occ}")
    return occ


def _first_power(w: str, t: Fraction) -> Optional[FractionalPowerOccurrence]:
    """find_power_geq without the threshold check: least (start, period) with exponent >= t."""
    n = len(w)
    # exponent (p + run)/p >= t  <=>  den*run >= num*p
    num, den = t.numerator - t.denominator, t.denominator
    if n < _VECTOR_THRESHOLD:
        needs = [-(-num * p // den) for p in range(n)]
        for i in range(n):
            j = w.find(w[i], i + 1)  # periods p = j - i where the first letters agree
            while j > 0:
                need = needs[j - i]
                if j + need > n:
                    break  # p + need only grows with p
                if w[i : i + need] == w[j : j + need]:
                    run = need
                    while j + run < n and w[i + run] == w[j + run]:
                        run += 1
                    return FractionalPowerOccurrence(start=i + 1, period=j - i, span=j - i + run)
                j = w.find(w[i], j + 1)
        return None
    names = _names(w)
    exact = max(num, den) * n < 2**62  # else need in Python integers
    limit, period = n, 0  # least start so far; only an earlier one can win

    def pairs(ids):
        p = ids + 1
        need = -(-num * (p if exact else p.astype(object)) // den)
        need = np.minimum(need, n).astype(np.int64)
        stop = np.minimum(n - p, limit + need - 1)  # no start before limit otherwise
        return p, need, np.where(need <= n - p, stop, 0)

    for p, need, q, start in _sampled_runs(names, n - 1, pairs):
        i = int(np.argmin(start))  # the least start, and the least period among ties
        if start[i] < limit:
            limit, period = int(start[i]), int(p[i])
            if limit == 0:
                break
    if not period:
        return None
    run = _lce(names, np.array([limit]), np.array([limit + period]), np.array([n - limit - period]))
    return _checked(w, FractionalPowerOccurrence(start=limit + 1, period=period, span=period + int(run[0])))


def find_square(w: str) -> Optional[FractionalPowerOccurrence]:
    """First square uu in w, smallest start then smallest period; None if square-free."""
    occ = _first_power(w, Fraction(2))
    return None if occ is None else replace(occ, span=2 * occ.period)


def is_k_power_free(w: str, k: int) -> bool:
    """True iff no factor of w is a k-power u^k with u non-empty."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return _first_power(w, Fraction(k)) is None


def max_exponent(w: str) -> Fraction:
    """The critical exponent of w: the largest exponent of any factor.

    Words with no repetition at all (including single letters) have
    exponent 1/1.  Exact rational arithmetic throughout.
    """
    if not w:
        raise ValueError("max exponent of the empty word is undefined")
    n = len(w)
    top, bottom = 1, 1  # the best exponent so far, top/bottom
    # a run of `need` letters at distance p beats it: (p + run)/p > top/bottom
    if n < _VECTOR_THRESHOLD:
        for p in range(1, n):
            i = 0
            while True:
                need = (top - bottom) * p // bottom + 1
                if i + p + need > n:
                    break
                if w[i : i + need] == w[i + p : i + p + need]:
                    run = need
                    while i + p + run < n and w[i + run] == w[i + p + run]:
                        run += 1
                    top, bottom = p + run, p
                    i += run
                else:
                    i += 1
        return Fraction(top, bottom)
    names = _names(w)
    witness = None

    def pairs(ids):
        p = ids + 1
        need = (top - bottom) * p // bottom + 1
        return p, need, np.where(need <= n - p, n - p, 0)

    for p, _, q, _ in _sampled_runs(names, n - 1, pairs):
        # the whole run through each hit, uncapped
        back = _lce(names, q, q + p, q, backward=True)
        run = back + _lce(names, q, q + p, n - q - p)
        for i in np.flatnonzero(run * bottom > (top - bottom) * p).tolist():
            period, length = int(p[i]), int(run[i])
            if length * bottom > (top - bottom) * period:
                top, bottom = period + length, period
                witness = FractionalPowerOccurrence(start=int(q[i] - back[i]) + 1, period=period, span=top)
    if witness is not None:
        _checked(w, witness)
    return Fraction(top, bottom)


def find_power_geq(w: str, threshold: RationalLike) -> Optional[FractionalPowerOccurrence]:
    """First occurrence of a factor with exponent >= threshold (> 1).

    Ordered by smallest start, then smallest period; the reported span is
    the maximal extension at that start and period.  Returns None when every
    factor of w has exponent below the threshold.
    """
    t = Fraction(threshold)
    if t <= 1:
        raise ValueError("threshold must exceed 1")
    return _first_power(w, t)
