"""Finite words: factors, primitivity, powers, and repetition exponents.

Words are plain Python strings and the empty string is the empty word.
Public range arguments follow the 1-based inclusive convention, so
``factor(w, 2, 4)`` is the three-letter factor starting at the second
letter and ``factor(w, i, i - 1)`` is empty.  Exponents of repetitions are
exact ``fractions.Fraction`` values; nothing in this module compares
through floating point.

The repetition scanners (``find_square``, ``is_k_power_free``,
``max_exponent``, ``find_power_geq``) are thresholds on one table per
period p: the equality run at distance p, that is, for each position i
the number of consecutive positions j >= i with w[j] = w[j+p].  A factor
starting at i with period p and exponent e exists exactly when that run
reaches (e - 1) * p.  The anti-power checker reads the same tables.

All operations are pure functions over immutable values, so concurrent
use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

RationalLike = Union[Fraction, int, str]


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


@dataclass(frozen=True)
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


def _codes(w: str) -> np.ndarray:
    """The code points of w as an array, for the equality-run tables."""
    return np.frombuffer(w.encode("utf-32-le"), dtype="<u4")


def _equality_runs(arr: np.ndarray, p: int) -> np.ndarray:
    """runs[i] = number of consecutive positions j >= i with arr[j] == arr[j+p]."""
    eq = arr[:-p] == arr[p:]
    m = eq.size
    idx = np.arange(m, dtype=np.int64)
    # next mismatch at or after i, with m as sentinel
    breaks = np.where(eq, m, idx)
    next_false = np.minimum.accumulate(breaks[::-1])[::-1]
    return next_false - idx


def _first_run(arr: np.ndarray, p: int, need: int, limit: int) -> Optional[Tuple[int, int]]:
    """Least i < limit with runs[i] >= need at distance p, and runs[i]; None if none."""
    runs = _equality_runs(arr, p)[:limit]
    hits = np.flatnonzero(runs >= need)
    if not hits.size:
        return None
    i = int(hits[0])
    return i, int(runs[i])


def _first_power(w: str, t: Fraction) -> Optional[FractionalPowerOccurrence]:
    """find_power_geq without the threshold check: least (start, period) with exponent >= t."""
    arr = _codes(w)
    n = arr.size
    num, den = t.numerator, t.denominator
    best = None
    limit = n
    for p in range(1, n):
        # exponent (p + run)/p >= num/den  <=>  den*run >= (num - den)*p
        need = max(1, -(-(num - den) * p // den))
        if need > n - p or limit == 0:
            break  # need only grows with p while the room for a run shrinks
        hit = _first_run(arr, p, need, limit)
        if hit is not None:
            limit, run = hit  # a longer period wins only with an earlier start
            best = FractionalPowerOccurrence(start=limit + 1, period=p, span=p + run)
    return best


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
    arr = _codes(w)
    n = arr.size
    best = Fraction(1)
    for p in range(1, n):
        if Fraction(n, p) <= best:
            break  # even a repetition spanning all of w cannot beat the best
        best = max(best, Fraction(p + int(_equality_runs(arr, p).max()), p))
    return best


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
