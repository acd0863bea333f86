"""Answer checks for the benchmark that share no code with the apw library.

Nothing here imports ``apw``.  Every function re-derives what it needs
(morphism files, fixed points, anti-power and square checks, enumeration)
by direct letter comparison, so a fault in the library's fast paths cannot
also hide in the check that judges it.  Expected verdicts for morphisms
come from the finite criterion the library implements: a uniform morphism
on three or more letters is a 3-anti-power morphism exactly when its image
length is odd, it is square-free, and the 3-anti-power words of length at
most 5 map to 3-anti-power words; a uniform morphism is square-free
exactly when the square-free words of length at most 3 map to square-free
words.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Rules = Tuple[str, Dict[str, str]]  # (domain letters in declared order, images)


def parse_rules(text: str) -> Rules:
    """Domain order and images of a morphism file (``a -> image`` lines)."""
    order: List[str] = []
    images: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("alphabet:"):
            continue
        lhs, rhs = (part.strip() for part in line.split("->", 1))
        order.append(lhs)
        images[lhs] = rhs
    return "".join(order), images


def image(images: Dict[str, str], w: str) -> str:
    return "".join(images[ch] for ch in w)


def fixed_point(images: Dict[str, str], letter: str, n: int) -> str:
    """Length-n prefix of the fixed point from ``letter``, by plain iteration."""
    w = letter
    while len(w) < n:
        w = image(images, w)
    return w[:n]


def _equal(w: str, a: int, b: int, ell: int) -> bool:
    for t in range(ell):
        if w[a + t] != w[b + t]:
            return False
    return True


def violation_holds(w: str, v) -> bool:
    """True when the reported anti-power violation really is two equal blocks of w."""
    if not (2 <= v.level and 1 <= v.first_block < v.second_block <= v.level):
        return False
    base = v.window_start - 1
    if base < 0 or v.block_len < 1 or base + v.level * v.block_len > len(w):
        return False
    a = base + (v.first_block - 1) * v.block_len
    b = base + (v.second_block - 1) * v.block_len
    return _equal(w, a, b, v.block_len)


def square_holds(w: str, occ) -> bool:
    """True when the reported occurrence is a square uu inside w."""
    i, p = occ.start - 1, occ.period
    return occ.span == 2 * p and p >= 1 and i >= 0 and i + 2 * p <= len(w) and _equal(w, i, i + p, p)


def _window_repeats(w: str, start: int, level: int, ell: int) -> bool:
    for t1 in range(level - 1):
        for t2 in range(t1 + 1, level):
            if _equal(w, start + t1 * ell, start + t2 * ell, ell):
                return True
    return False


def _violated_at_end(w: str, k: int) -> bool:
    """A level-m window (2 <= m <= k) ending at the last letter has two equal blocks."""
    n = len(w)
    for level in range(2, k + 1):
        for ell in range(1, n // level + 1):
            if _window_repeats(w, n - level * ell, level, ell):
                return True
    return False


def is_k_anti_power(w: str, k: int) -> bool:
    """Every prefix passes the end-window test, so no window anywhere repeats a block."""
    return not any(_violated_at_end(w[:end], k) for end in range(2, len(w) + 1))


def is_square_free(w: str) -> bool:
    return is_k_anti_power(w, 2)


def anti_power_words(letters: str, k: int, max_len: int) -> List[str]:
    """All k-anti-power words up to max_len, by length then declared letter order.

    Extends only anti-power words (the language is factor-closed) and tests
    each extension with the windows that end at its new last letter.
    """
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + a for w in frontier for a in letters if not _violated_at_end(w + a, k)]
        if not frontier:
            break
        out.extend(frontier)
    return out


def max_exponent(w: str) -> Fraction:
    """Largest (p + run) / p over periods p, run = longest stretch with w[i] = w[i + p]."""
    n = len(w)
    best = Fraction(1)
    for p in range(1, n):
        if Fraction(n, p) <= best:
            break
        run = longest = 0
        for i in range(n - p):
            run = run + 1 if w[i] == w[i + p] else 0
            longest = max(longest, run)
        best = max(best, Fraction(p + longest, p))
    return best


def first_power_geq(w: str, threshold: Fraction) -> Optional[Tuple[int, int, int]]:
    """(start, period, span) of the first factor with exponent >= threshold, 1-based start."""
    n = len(w)
    for i in range(n):
        for p in range(1, n - i):
            run = 0
            while i + p + run < n and w[i + run] == w[i + p + run]:
                run += 1
            if run and Fraction(p + run, p) >= threshold:
                return i + 1, p, p + run
    return None


def profile_flags(rules: Rules) -> Dict[str, object]:
    """What ``apw profile`` reports: uniformity, erasure, code flags and the ps condition."""
    letters, images = rules
    imgs = [images[a] for a in letters]
    pairs = [(x, y) for i, x in enumerate(imgs) for j, y in enumerate(imgs) if i != j]
    prefix = not any(y.startswith(x) for x, y in pairs)
    suffix = not any(y.endswith(x) for x, y in pairs)
    ps = True
    for i, x in enumerate(imgs):
        others = imgs[:i] + imgs[i + 1 :]
        for cut in range(len(x) + 1):
            if any(o.startswith(x[:cut]) for o in others) and any(o.endswith(x[cut:]) for o in others):
                ps = False
    lengths = {len(x) for x in imgs}
    uniform = lengths.pop() if len(lengths) == 1 and 0 not in lengths else None
    return {"uniform_length": uniform, "non_erasing": all(imgs), "prefix": prefix,
            "suffix": suffix, "bifix": prefix and suffix, "ps": ps}


def profile_line(rules: Rules) -> str:
    return " ".join(
        f"{k}={'yes' if v else 'no'}" if isinstance(v, bool) else f"{k}={v}"
        for k, v in profile_flags(rules).items()
    )


def square_free_morphism(rules: Rules) -> bool:
    """Uniform morphism: square-free iff square-free words of length <= 3 map square-free."""
    letters, images = rules
    return all(is_square_free(image(images, w)) for w in anti_power_words(letters, 2, 3))


def anti_power_morphism(rules: Rules) -> bool:
    """Uniform morphism on >= 3 letters: odd length, square-free, clean up to length 5."""
    letters, images = rules
    lengths = {len(images[a]) for a in letters}
    if len(lengths) != 1 or len(letters) < 3:
        raise ValueError("the finite criterion needs a uniform morphism on >= 3 letters")
    if lengths.pop() % 2 == 0 or not square_free_morphism(rules):
        return False
    return all(is_k_anti_power(image(images, w), 3) for w in anti_power_words(letters, 3, 5))


def morphism_decision_error(rules: Rules, f, decision, expected: str) -> Optional[str]:
    """Why a Decision disagrees with the expected verdict, or None when it is right.

    A "no" must carry a witness that re-verifies, both through the library's
    own ``verify`` and through the letter comparisons above.  An
    "inconclusive" is accepted only where the expected verdict is "no".
    """
    verdict = decision.verdict
    if verdict == "yes":
        if expected != "yes":
            return f"said yes, expected {expected}"
        return None if decision.certificate else "yes without a certificate"
    if verdict == "inconclusive":
        return None if expected == "no" else f"inconclusive, expected {expected}"
    if verdict != "no":
        return f"unknown verdict {verdict!r}"
    if expected != "no":
        return f"said no, expected {expected}"
    witness = decision.witness
    if witness is None:
        return "no without a witness"
    img = image(rules[1], witness.word)
    if witness.violation is not None:
        holds = violation_holds(img, witness.violation)
    else:
        holds = square_holds(img, witness.square)
    if not (holds and witness.verify(f)):
        return f"witness on {witness.word!r} does not re-verify"
    return None

