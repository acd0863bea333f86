"""Shared brute-force oracles and corpus builders for the test suite.

Everything here is deliberately written from the definitions, with plain
letter-by-letter loops and no reuse of the library's scanning code, so the
tests compare two genuinely independent implementations.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator, Optional

from apw import Morphism, parse_morphism


def all_words(letters: str, max_len: int) -> Iterator[str]:
    """Every word over `letters` of length 0..max_len, shortest first."""
    for n in range(max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            yield "".join(tup)


def oracle_find_square(w: str) -> Optional[tuple[int, int]]:
    """(start, period) of the least square factor, 1-based; None if square-free."""
    n = len(w)
    for start in range(n):
        for period in range(1, (n - start) // 2 + 1):
            if all(w[start + t] == w[start + period + t] for t in range(period)):
                return start + 1, period
    return None


def oracle_max_exponent(w: str) -> Fraction:
    """Largest span/period over all periodic factors, by exhaustive scan."""
    best = Fraction(1)
    n = len(w)
    for start in range(n):
        for period in range(1, n - start):
            span = period
            while start + span < n and w[start + span] == w[start + span - period]:
                span += 1
            if span > period:
                best = max(best, Fraction(span, period))
    return best


def oracle_find_power_geq(w: str, t: Fraction) -> Optional[tuple[int, int, int]]:
    """(start, period, span) of the least factor with exponent >= t, 1-based.

    Least start first, then least period; the span is the longest factor
    with that period at that start.  None if every exponent is below t.
    """
    n = len(w)
    for start in range(n):
        for period in range(1, n - start):
            span = period
            while start + span < n and w[start + span] == w[start + span - period]:
                span += 1
            if span > period and Fraction(span, period) >= t:
                return start + 1, period, span
    return None


def oracle_extension(w: str, x: int, y: int, cap: int, backward: bool = False) -> int:
    """Largest L <= cap with w[x:x+L] == w[y:y+L], letter by letter.

    Backward: the largest L <= cap with w[x-L:x] == w[y-L:y].
    """
    length = 0
    while length < cap:
        if backward:
            same = w[x - length - 1] == w[y - length - 1]
        else:
            same = w[x + length] == w[y + length]
        if not same:
            break
        length += 1
    return length


def oracle_is_k_anti_power(w: str, k: int) -> bool:
    """The recursive definition, followed literally.

    Length <= 1 words qualify by convention; words of length n with
    2 <= n < k are tested as n-anti-power words; k = 2 means square-free;
    otherwise the word must be (k-1)-anti-power and every window of length
    k*l must split into k pairwise distinct blocks.
    """
    n = len(w)
    if n <= 1:
        return True
    if n < k:
        return oracle_is_k_anti_power(w, n)
    if k == 2:
        return oracle_find_square(w) is None
    if not oracle_is_k_anti_power(w, k - 1):
        return False
    for ell in range(1, n // k + 1):
        for start in range(n - k * ell + 1):
            blocks = [w[start + t * ell : start + (t + 1) * ell] for t in range(k)]
            if len(set(blocks)) != k:
                return False
    return True


def power_avoiding_words(letters: str, threshold: Fraction, max_len: int) -> list[str]:
    """All words of length <= max_len containing no power of exponent >= threshold.

    The avoidance language is closed under prefixes, so a depth-first search
    that checks only repetitions ending at the freshly appended letter
    enumerates it completely.
    """
    num, den = threshold.numerator, threshold.denominator

    def suffix_clean(w: str) -> bool:
        n = len(w)
        for period in range(1, n):
            span = period
            i = n - period - 1
            while i >= 0 and w[i] == w[i + period]:
                span += 1
                i -= 1
            if span > period and den * span >= num * period:
                return False
        return True

    out: list[str] = []

    def grow(w: str) -> None:
        out.append(w)
        if len(w) == max_len:
            return
        for ch in letters:
            ext = w + ch
            if suffix_clean(ext):
                grow(ext)

    grow("")
    return out


def count_sequences_by_enumeration(letters: str, k: int, n: int) -> int:
    """Count (k, n)-anti-power sequences over `letters` by listing them.

    Small cases walk every word of length k*n and test the blocks directly;
    larger ones enumerate ordered selections of distinct blocks, which lists
    exactly the same words without visiting the non-sequences.
    """
    alpha = len(letters)
    total_words = alpha ** (k * n)
    if total_words <= 600_000:
        count = 0
        for tup in itertools.product(letters, repeat=k * n):
            w = "".join(tup)
            blocks = [w[t * n : (t + 1) * n] for t in range(k)]
            if len(set(blocks)) == k:
                count += 1
        return count
    blocks = ["".join(t) for t in itertools.product(letters, repeat=n)]
    return sum(1 for _ in itertools.permutations(blocks, k))


def random_word(rng: random.Random, letters: str, length: int) -> str:
    return "".join(rng.choice(letters) for _ in range(length))


def random_uniform_morphism(
    rng: random.Random, domain: str, codomain: str, length: int
) -> Morphism:
    lines = [f"alphabet: {codomain}"]
    for a in domain:
        lines.append(f"{a} -> {random_word(rng, codomain, length)}")
    return parse_morphism("\n".join(lines))


def is_abcab_shaped(w: str) -> bool:
    """True for words x y z x y with x, y, z pairwise distinct letters."""
    return (
        len(w) == 5
        and w[0] == w[3]
        and w[1] == w[4]
        and len({w[0], w[1], w[2]}) == 3
    )
