"""Anti-power predicates, checkers, enumeration, and counting.

A word of length k*ell splits into k consecutive blocks of length ell; it
is a (k, ell)-anti-power sequence when those blocks are pairwise distinct.
A word is a 2-anti-power word when it is square-free, and a k-anti-power
word (k >= 3) when it is a (k-1)-anti-power word and every factor of
length k*ell, 1 <= ell <= |w|/k, is a (k, ell)-anti-power sequence.  Words
of length n with 2 <= n < k are judged as n-anti-power words, and words of
length at most 1 are anti-powers by convention.  Unrolling the recursion:
w is a k-anti-power word iff no level-m window (factor of length m*ell,
2 <= m <= k) has two equal blocks.

``check_k_anti_power`` and ``check_k_anti_power_naive`` implement the same
contract through disjoint block-equality code: the fast checker compares
slices on short words and queries the factor-name index of ``words`` on
long ones, while the naive checker compares letters one at a time.  Either
serves as an oracle for the other.  Both report the least violation under
the ordering (level, block length, window start, first block, second
block), all components 1-based.

Least-level pair rule: in a violation at the least failing level m the
equal blocks are always blocks 1 and m.  Proof: if blocks t1 < t2 with
d = t2 - t1 < m - 1 were equal, the level-(d+1) window starting at block
t1 would already fail.  So the fast checker compares one pair of blocks
per window, at distance (m-1)*ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .words import _VECTOR_THRESHOLD, Alphabet, _names, _sampled_runs, as_alphabet


@dataclass(frozen=True, slots=True)
class AntiPowerViolation:
    """Two equal blocks inside one window of an anti-power scan.

    The window is the factor of length ``level * block_len`` starting at
    ``window_start`` (1-based); its blocks numbered 1..level include equal
    blocks ``first_block`` and ``second_block``.
    """

    window_start: int
    block_len: int
    first_block: int
    second_block: int
    level: int

    def __post_init__(self) -> None:
        if self.level < 2:
            raise ValueError("violation level must be >= 2")
        if self.block_len < 1 or self.window_start < 1:
            raise ValueError("violation indices must be >= 1")
        if not (1 <= self.first_block < self.second_block <= self.level):
            raise ValueError("violation blocks must satisfy 1 <= i < j <= level")

    def blocks(self, w: str) -> tuple[str, str]:
        base = self.window_start - 1
        a = base + (self.first_block - 1) * self.block_len
        b = base + (self.second_block - 1) * self.block_len
        return w[a : a + self.block_len], w[b : b + self.block_len]

    def verify(self, w: str) -> bool:
        """Re-check the claimed equality by direct letter comparison."""
        base = self.window_start - 1
        if base + self.level * self.block_len > len(w):
            return False
        a = base + (self.first_block - 1) * self.block_len
        b = base + (self.second_block - 1) * self.block_len
        for t in range(self.block_len):
            if w[a + t] != w[b + t]:
                return False
        return True


def is_anti_power_sequence(w: str, k: int) -> bool:
    """True iff |w| = k*ell and the k consecutive blocks are pairwise distinct."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = len(w)
    if n == 0 or n % k:
        raise ValueError(f"word length {n} is not a positive multiple of k={k}")
    ell = n // k
    blocks = [w[t * ell : (t + 1) * ell] for t in range(k)]
    return len(set(blocks)) == k


def _scan_slices(w: str, k: int) -> Optional[AntiPowerViolation]:
    """Least violation via direct slice comparisons (small words)."""
    n = len(w)
    for level in range(2, k + 1):
        for ell in range(1, n // level + 1):
            gap = (level - 1) * ell
            for start in range(n - level * ell + 1):
                if w[start : start + ell] == w[start + gap : start + gap + ell]:
                    return AntiPowerViolation(
                        window_start=start + 1,
                        block_len=ell,
                        first_block=1,
                        second_block=level,
                        level=level,
                    )
    return None


def _scan_runs(w: str, k: int) -> Optional[AntiPowerViolation]:
    """Least violation via the factor-name index (large words).

    Blocks 1 and level of the window at 0-based start i are equal exactly
    when the equality run at distance (level-1)*ell from i lasts at least
    ell positions, so each level is one sampled-run search over the pairs
    ((level-1)*ell, ell) in ell order; its first hit is the least violation.
    """
    n = len(w)
    names = _names(w)
    for level in range(2, k + 1):

        def pairs(ids, level=level):
            ell = ids + 1
            return (level - 1) * ell, ell, n - (level - 1) * ell

        for _, ell, _, start in _sampled_runs(names, n // level, pairs):
            v = AntiPowerViolation(
                window_start=int(start[0]) + 1,
                block_len=int(ell[0]),
                first_block=1,
                second_block=level,
                level=level,
            )
            if not v.verify(w):  # confirm before reporting
                raise RuntimeError(f"name-index scan produced a bad witness {v}")
            return v
    return None


def check_k_anti_power(w: str, k: int) -> Optional[AntiPowerViolation]:
    """Least violation of the k-anti-power property, or None if w is k-anti-power.

    Violations are ordered by (level, block length, window start); by the
    pair rule the equal blocks are always 1 and level.  A witness from the
    long-word path is confirmed by direct letter comparison before being
    returned.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(w) < _VECTOR_THRESHOLD:
        return _scan_slices(w, k)
    return _scan_runs(w, k)


def check_k_anti_power_naive(w: str, k: int) -> Optional[AntiPowerViolation]:
    """Same contract as check_k_anti_power, by brute-force letter comparison."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = len(w)
    for level in range(2, k + 1):
        for ell in range(1, n // level + 1):
            span = level * ell
            for start in range(n - span + 1):
                for t1 in range(level - 1):
                    for t2 in range(t1 + 1, level):
                        a = start + t1 * ell
                        b = start + t2 * ell
                        equal = True
                        for t in range(ell):
                            if w[a + t] != w[b + t]:
                                equal = False
                                break
                        if equal:
                            return AntiPowerViolation(
                                window_start=start + 1,
                                block_len=ell,
                                first_block=t1 + 1,
                                second_block=t2 + 1,
                                level=level,
                            )
    return None


def enumerate_k_anti_power(
    alphabet: Union[Alphabet, str, Iterable[str]], k: int, max_len: int
) -> Iterator[str]:
    """All k-anti-power words over the alphabet with |w| <= max_len.

    Yields in length order, lexicographic (by declared letter order) within
    each length, starting with the empty word.  Because the k-anti-power
    language is closed under factors, only anti-power words are extended.
    """
    alphabet = as_alphabet(alphabet)
    if k < 2:
        raise ValueError("k must be at least 2")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    yield ""
    frontier = [""]
    for _ in range(max_len):
        grown = []
        for w in frontier:
            for letter in alphabet:
                cand = w + letter
                if check_k_anti_power(cand, k) is None:
                    grown.append(cand)
                    yield cand
        if not grown:
            return
        frontier = grown


def count_anti_power_sequences(alpha: int, k: int, n: int) -> int:
    """Number of (k, n)-anti-power sequences over an alpha-letter alphabet.

    Counts words of length k*n whose k blocks of length n are pairwise
    distinct: falling factorial (alpha^n)! / (alpha^n - k)!, and 0 when
    alpha^n < k.  Exact integer arithmetic.
    """
    if alpha < 2:
        raise ValueError("alpha must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.perm(alpha**n, k)
