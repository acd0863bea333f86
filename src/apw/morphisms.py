"""Morphisms between free monoids: parsing, application, classification.

A morphism is determined by the images of its domain letters.  The text
format, one rule per line:

    # comment, blank lines ignored
    alphabet: abcde        (optional, declares the codomain)
    a -> abceacd
    b -> abecaed

Left-hand sides are single letters; images are non-empty runs of letters.
Without an ``alphabet:`` header the codomain is inferred from the images,
in order of first appearance.  Parse errors carry the 1-based line number.

Everything here is pure; Morphism values are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional

from .words import Alphabet


class MorphismParseError(ValueError):
    """A malformed morphism description; ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=True)
class Morphism:
    """A morphism f: domain* -> codomain*, given by letter images.

    ``images`` is stored as a read-only copy in domain order, so a Morphism
    cannot change after validation and equal morphisms hash equal.
    """

    domain: Alphabet
    codomain: Alphabet
    images: Mapping[str, str]

    def __post_init__(self) -> None:
        if set(self.images) != set(self.domain):
            raise ValueError("images must cover exactly the domain letters")
        for a in self.domain:
            for ch in self.images[a]:
                if ch not in self.codomain:
                    raise ValueError(f"image of {a!r} uses letter {ch!r} outside the codomain")
        images = MappingProxyType({a: self.images[a] for a in self.domain})
        object.__setattr__(self, "images", images)

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, tuple(self.images.items())))

    def image(self, letter: str) -> str:
        try:
            return self.images[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} is not in the domain") from None

    @property
    def uniform_length(self) -> Optional[int]:
        """Common image length L >= 1 if f is L-uniform, else None."""
        lengths = {len(self.images[a]) for a in self.domain}
        if len(lengths) == 1:
            (length,) = lengths
            if length >= 1:
                return length
        return None

    @property
    def is_non_erasing(self) -> bool:
        return all(self.images[a] for a in self.domain)

    @property
    def is_endomorphism(self) -> bool:
        """True when every codomain letter lies in the domain, so f can be iterated."""
        return set(self.codomain.letters) <= set(self.domain.letters)

    def __repr__(self) -> str:
        rules = ", ".join(f"{a}->{self.images[a]}" for a in self.domain)
        return f"Morphism({rules})"


def parse_morphism(text: str) -> Morphism:
    """Parse the rule format above; raises MorphismParseError with a line number."""
    declared: Optional[Alphabet] = None
    order: list[str] = []
    images: Dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if declared is not None:
                raise MorphismParseError("duplicate alphabet header", line_no)
            if images:
                raise MorphismParseError("alphabet header must precede the rules", line_no)
            letters = line[len("alphabet:") :].strip()
            try:
                declared = Alphabet(letters)
            except ValueError as exc:
                raise MorphismParseError(str(exc), line_no) from None
            continue
        if "->" not in line:
            raise MorphismParseError(f"malformed rule {line!r} (expected '<letter> -> <image>')", line_no)
        lhs, rhs = line.split("->", 1)
        lhs = lhs.strip()
        rhs = rhs.strip()
        if len(lhs) != 1:
            raise MorphismParseError(f"left-hand side must be a single letter, got {lhs!r}", line_no)
        if not rhs:
            raise MorphismParseError(f"empty image for letter {lhs!r}", line_no)
        if any(ch.isspace() or not ch.isprintable() for ch in rhs):
            raise MorphismParseError(f"image {rhs!r} must be a run of printable letters", line_no)
        if lhs in images:
            raise MorphismParseError(f"duplicate rule for letter {lhs!r}", line_no)
        if declared is not None:
            for ch in rhs:
                if ch not in declared:
                    raise MorphismParseError(
                        f"image letter {ch!r} is not in the declared alphabet", line_no
                    )
        order.append(lhs)
        images[lhs] = rhs
    if not order:
        raise MorphismParseError("no rules found", line_no if text else 1)
    if declared is None:
        inferred: list[str] = []
        for a in order:
            for ch in images[a]:
                if ch not in inferred:
                    inferred.append(ch)
        declared = Alphabet(inferred)
    return Morphism(domain=Alphabet(order), codomain=declared, images=images)


def serialize_morphism(f: Morphism) -> str:
    """Render f in the parse format; parse_morphism round-trips to an equal value."""
    lines = [f"alphabet: {''.join(f.codomain)}"]
    lines.extend(f"{a} -> {f.images[a]}" for a in f.domain)
    return "\n".join(lines) + "\n"


def load_morphism(path: str) -> Morphism:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_morphism(handle.read())


def apply(f: Morphism, w: str) -> str:
    """The image f(w); letters outside the domain are reported with their position."""
    images = f.images
    pieces = []
    for pos, ch in enumerate(w, start=1):
        img = images.get(ch)
        if img is None:
            raise ValueError(f"letter {ch!r} at position {pos} is not in the domain")
        pieces.append(img)
    return "".join(pieces)


@dataclass(frozen=True)
class MorphismProfile:
    """Structural flags of a morphism.

    ``prefix``: no image is a prefix of another letter's image (such a
    morphism is injective on words); ``suffix`` dually; ``bifix`` = both.
    ``ps``: no letter's image factors as p*s such that some other letter's
    image starts with p and some other letter's image (possibly the same
    other letter) ends with s.  A ps-morphism is a necessary condition for
    mapping square-free words to square-free words.
    """

    uniform_length: Optional[int]
    non_erasing: bool
    prefix: bool
    suffix: bool
    bifix: bool
    ps: bool


def _is_ps(f: Morphism) -> bool:
    letters = list(f.domain)
    for a in letters:
        fa = f.images[a]
        for cut in range(len(fa) + 1):
            p, s = fa[:cut], fa[cut:]
            has_b = any(b != a and f.images[b].startswith(p) for b in letters)
            if not has_b:
                continue
            has_c = any(c != a and f.images[c].endswith(s) for c in letters)
            if has_c:
                return False
    return True


def profile(f: Morphism) -> MorphismProfile:
    """Classify f: uniformity, erasure, prefix/suffix/bifix codes, ps condition."""
    letters = list(f.domain)
    images = [f.images[a] for a in letters]
    prefix = not any(
        i != j and images[j].startswith(images[i])
        for i in range(len(letters))
        for j in range(len(letters))
    )
    suffix = not any(
        i != j and images[j].endswith(images[i])
        for i in range(len(letters))
        for j in range(len(letters))
    )
    return MorphismProfile(
        uniform_length=f.uniform_length,
        non_erasing=f.is_non_erasing,
        prefix=prefix,
        suffix=suffix,
        bifix=prefix and suffix,
        ps=_is_ps(f),
    )


def iterate(f: Morphism, w: str, n: int) -> str:
    """The n-th iterate f^n(w); n = 0 returns w itself."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    for pos, ch in enumerate(w, start=1):
        if ch not in f.domain:
            raise ValueError(f"letter {ch!r} at position {pos} is not in the domain")
    if n >= 2 and not f.is_endomorphism:
        raise ValueError("codomain letters must lie in the domain to iterate more than once")
    result = w
    for _ in range(n):
        result = apply(f, result)
    return result


def fixed_point_prefix(f: Morphism, letter: str, n: int) -> str:
    """The length-n prefix of the fixed point f^w(letter).

    Requires a non-erasing endomorphism prolongable on ``letter`` (the image
    of ``letter`` starts with it and is longer than one letter); otherwise the
    infinite fixed point need not exist.  Works by iterating and truncating,
    so no more than n + max image length letters are ever materialised.
    """
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    if letter not in f.domain:
        raise ValueError(f"letter {letter!r} is not in the domain")
    if not f.is_endomorphism:
        raise ValueError("fixed point requires an endomorphism")
    if not f.is_non_erasing:
        raise ValueError("fixed point prefix requires a non-erasing morphism")
    start_image = f.images[letter]
    if not start_image.startswith(letter) or len(start_image) < 2:
        raise ValueError(f"morphism is not prolongable on {letter!r}")
    if n == 0:
        return ""
    prefix = letter
    while len(prefix) < n:
        pieces = []
        total = 0
        for ch in prefix:
            img = f.images[ch]
            pieces.append(img)
            total += len(img)
            if total >= n:
                break
        prefix = "".join(pieces)
    return prefix[:n]
