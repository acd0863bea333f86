import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from apw import Morphism, antipower, fixed_point_prefix, load_morphism, parse_morphism, words

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

H_PREFIX_84 = (
    "abceacdabecaedacbaecdacebcedabceacdacbaecdacbeabd"
    "abceacdabecaedacebcedacbaecdabceacd"
)


@pytest.fixture(scope="session")
def h() -> Morphism:
    """The bundled 7-uniform endomorphism on five letters."""
    return load_morphism(str(DATA_DIR / "h.mor"))


@pytest.fixture(scope="session")
def fstar() -> Morphism:
    """A 4-uniform square-free morphism; even length, so not 3-anti-power."""
    return parse_morphism("alphabet: abcd\na -> cdbc\nb -> acbd\nc -> abad\n")


@pytest.fixture(scope="session")
def identity_ab() -> Morphism:
    return parse_morphism("a -> a\nb -> b\n")


@pytest.fixture(scope="session")
def identity_abc() -> Morphism:
    return parse_morphism("a -> a\nb -> b\nc -> c\n")


@pytest.fixture(scope="session")
def planted_factors(h) -> list[str]:
    """Seeded factors of h's fixed point, 192-320 letters: long-path inputs.

    The fixed point is 3-anti-power, so a factor fails only at level 4 or
    above.  In three of every four factors a block of length ell is copied
    over the block ell, 2*ell or 3*ell letters later, which plants a
    violation at level 2, 3 or 4 and a repetition of exponent 2, 3/2 or 4/3.
    """
    rng = random.Random(2401)
    source = fixed_point_prefix(h, "a", 7**5)
    words = []
    for i in range(40):
        length = rng.randint(192, 320)
        at = rng.randrange(len(source) - length + 1)
        w = source[at : at + length]
        gap = i % 4
        if gap:
            ell = rng.randint(1, length // 5)
            last = length - (gap + 1) * ell
            # half of the copies end the factor: the last window at their level
            a = last if i % 8 >= 4 else rng.randrange(last + 1)
            b = a + gap * ell
            w = w[:b] + w[a : a + ell] + w[b + ell :]
        words.append(w)
    return words


@pytest.fixture
def index_path(monkeypatch):
    """Send every word, however short, down the name-index path in 5-sample chunks.

    Tiny chunks make even small words span several chunks and split one
    pair's samples between chunks.
    """
    monkeypatch.setattr(words, "_VECTOR_THRESHOLD", 0)
    monkeypatch.setattr(antipower, "_VECTOR_THRESHOLD", 0)
    monkeypatch.setattr(words, "_CHUNK", 5)


@pytest.fixture
def lying_index(monkeypatch):
    """A name index whose extensions claim every capped match in full."""

    def lie(names, x, y, cap, backward=False):
        return cap.copy()

    monkeypatch.setattr(words, "_lce", lie)
