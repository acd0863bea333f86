"""Morphism parsing, application, classification, iteration, fixed points."""

import random

import pytest
from hypothesis import given, strategies as st

from apw import (
    Alphabet,
    Morphism,
    MorphismParseError,
    apply,
    fixed_point_prefix,
    iterate,
    load_morphism,
    parse_morphism,
    profile,
    serialize_morphism,
)
from apw.decide import test_square_free_morphism
from conftest import DATA_DIR, H_PREFIX_84
from helpers import random_uniform_morphism

H_TEXT = (
    "a -> abceacd\n"
    "b -> abecaed\n"
    "c -> acbaecd\n"
    "d -> acbeabd\n"
    "e -> acebced\n"
)

H_SQUARED_A = (
    "abceacd" "abecaed" "acbaecd" "acebced" "abceacd" "acbaecd" "acbeabd"
)


class TestParse:
    def test_h_from_rules(self):
        f = parse_morphism(H_TEXT)
        assert list(f.domain) == ["a", "b", "c", "d", "e"]
        assert f.images["a"] == "abceacd"
        assert f.images["e"] == "acebced"
        assert f.uniform_length == 7
        # codomain inferred in order of first appearance in the images
        assert list(f.codomain) == ["a", "b", "c", "e", "d"]

    def test_identity(self):
        f = parse_morphism("a -> a\nb -> b")
        assert f.images == {"a": "a", "b": "b"}
        assert f.uniform_length == 1

    def test_comments_and_blank_lines_skipped(self):
        f = parse_morphism("# heading\n\n  # indented comment\na -> ab\n\nb -> ba\n")
        assert f.images == {"a": "ab", "b": "ba"}

    def test_alphabet_header_fixes_codomain(self):
        f = parse_morphism("alphabet: abcd\na -> ab\nb -> ba\n")
        assert list(f.codomain) == ["a", "b", "c", "d"]

    def test_duplicate_rule_reports_line(self):
        with pytest.raises(MorphismParseError, match="duplicate rule") as exc:
            parse_morphism("# c\na -> ab\na -> ba\n")
        assert exc.value.line == 3

    def test_malformed_rule(self):
        with pytest.raises(MorphismParseError, match="malformed rule"):
            parse_morphism("a => ab\n")

    def test_multi_letter_lhs(self):
        with pytest.raises(MorphismParseError, match="single letter"):
            parse_morphism("ab -> a\n")

    def test_empty_image(self):
        with pytest.raises(MorphismParseError, match="empty image") as exc:
            parse_morphism("a -> ab\nb ->\n")
        assert exc.value.line == 2

    def test_image_outside_declared_alphabet(self):
        with pytest.raises(MorphismParseError, match="not in the declared alphabet"):
            parse_morphism("alphabet: ab\na -> ac\n")

    def test_header_placement(self):
        with pytest.raises(MorphismParseError, match="precede"):
            parse_morphism("a -> ab\nalphabet: ab\n")
        with pytest.raises(MorphismParseError, match="duplicate alphabet"):
            parse_morphism("alphabet: ab\nalphabet: ab\na -> ab\n")

    def test_no_rules(self):
        with pytest.raises(MorphismParseError, match="no rules"):
            parse_morphism("# only a comment\n")


class TestSerializeAndLoad:
    def test_round_trip_h(self, h):
        text = serialize_morphism(h)
        assert text.startswith("alphabet: ")
        assert parse_morphism(text) == h

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(25):
            f = random_uniform_morphism(rng, "abc", "abcd", rng.randint(1, 4))
            assert parse_morphism(serialize_morphism(f)) == f

    @given(st.data())
    def test_round_trip_any_legal_letters(self, data):
        letter = st.characters(
            codec="utf-8", exclude_characters="#"
        ).filter(lambda ch: ch.isprintable() and not ch.isspace())
        letters = st.lists(letter, min_size=1, max_size=6, unique=True)
        domain = data.draw(letters)
        codomain = data.draw(letters)
        image = st.text(alphabet=codomain, min_size=1, max_size=8)
        f = Morphism(
            Alphabet(domain),
            Alphabet(codomain),
            {a: data.draw(image) for a in domain},
        )
        assert parse_morphism(serialize_morphism(f)) == f

    def test_load_bundled_file(self, h):
        assert h == parse_morphism("alphabet: abced\n" + H_TEXT)

    def test_load_from_path(self, tmp_path):
        p = tmp_path / "f.mor"
        p.write_text("a -> ab\nb -> ba\n", encoding="utf-8")
        assert load_morphism(str(p)).images == {"a": "ab", "b": "ba"}

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_morphism(str(DATA_DIR / "nope.mor"))


class TestConstruction:
    def test_images_must_cover_domain(self):
        with pytest.raises(ValueError, match="cover"):
            Morphism(Alphabet("ab"), Alphabet("ab"), {"a": "ab"})

    def test_images_must_stay_in_codomain(self):
        with pytest.raises(ValueError, match="outside the codomain"):
            Morphism(Alphabet("ab"), Alphabet("ab"), {"a": "ab", "b": "ac"})

    def test_comment_letter_rejected(self):
        # '#' would be read back as a comment, silently dropping letters
        with pytest.raises(ValueError, match="'#'"):
            Morphism(Alphabet("a#"), Alphabet("a#"), {"a": "a#", "#": "#a"})

    def test_immutable_and_hashable(self):
        images = {"a": "ab", "b": "ba"}
        f = Morphism(Alphabet("ab"), Alphabet("ab"), images)
        g = Morphism(Alphabet("ab"), Alphabet("ab"), {"b": "ba", "a": "ab"})
        assert f == g and hash(f) == hash(g)
        assert len({f, g, parse_morphism("a -> ab\nb -> ba\n")}) == 1
        with pytest.raises(TypeError):
            f.images["a"] = "b"
        images["a"] = "bb"
        assert f.image("a") == "ab"

    def test_uniform_length_absent_cases(self):
        f = Morphism(Alphabet("ab"), Alphabet("ab"), {"a": "ab", "b": "a"})
        assert f.uniform_length is None
        g = Morphism(Alphabet("ab"), Alphabet("ab"), {"a": "", "b": ""})
        assert g.uniform_length is None
        assert not g.is_non_erasing


class TestApply:
    def test_h_image_of_ab(self, h):
        assert apply(h, "ab") == "abceacdabecaed"

    def test_empty_word(self, h):
        assert apply(h, "") == ""

    def test_identity(self, identity_abc):
        assert apply(identity_abc, "abcab") == "abcab"

    def test_out_of_domain_letter_reported(self, h):
        with pytest.raises(ValueError, match="'z' at position 2"):
            apply(h, "az")

    @given(st.text(alphabet="abcde", max_size=15), st.text(alphabet="abcde", max_size=15))
    def test_homomorphism_law(self, u, v):
        f = parse_morphism(H_TEXT)
        assert apply(f, u + v) == apply(f, u) + apply(f, v)


class TestProfile:
    def test_h_is_a_uniform_bifix_ps_morphism(self, h):
        p = profile(h)
        assert p.uniform_length == 7
        assert p.non_erasing
        assert p.prefix and p.suffix and p.bifix and p.ps

    def test_prefix_overlap_detected(self):
        p = profile(parse_morphism("a -> ab\nb -> a\n"))
        assert p.uniform_length is None
        assert p.non_erasing
        assert not p.prefix
        assert p.suffix
        assert not p.bifix
        assert not p.ps

    def test_identity_profile(self, identity_abc):
        p = profile(identity_abc)
        assert p.uniform_length == 1
        assert p.prefix and p.suffix and p.bifix and p.ps

    def test_flag_relations_on_random_corpus(self):
        rng = random.Random(29)
        for _ in range(60):
            f = random_uniform_morphism(
                rng, "abc"[: rng.randint(2, 3)], "abcd", rng.randint(1, 4)
            )
            p = profile(f)
            assert p.bifix == (p.prefix and p.suffix)
            if p.ps:
                assert p.bifix
            if p.uniform_length is not None:
                assert p.non_erasing

    def test_non_ps_morphism_is_not_square_free(self):
        # f(a) = (a)(b) with f(c) starting "a" and f(c) ending "b"
        f = parse_morphism("a -> ab\nb -> ba\nc -> ab\n")
        assert not profile(f).ps
        assert test_square_free_morphism(f).verdict == "no"


class TestIterate:
    def test_small_powers(self, h):
        assert iterate(h, "a", 0) == "a"
        assert iterate(h, "a", 1) == "abceacd"
        assert iterate(h, "a", 2) == H_SQUARED_A
        assert len(H_SQUARED_A) == 49

    def test_single_application_without_endomorphism(self):
        f = parse_morphism("a -> ab\nb -> ac\n")
        assert iterate(f, "ab", 1) == "abac"
        with pytest.raises(ValueError, match="domain"):
            iterate(f, "a", 2)

    def test_negative_count(self, h):
        with pytest.raises(ValueError):
            iterate(h, "a", -1)

    def test_out_of_domain_letter(self, h):
        with pytest.raises(ValueError, match="position 1"):
            iterate(h, "z", 1)


class TestFixedPointPrefix:
    def test_displayed_prefix(self, h):
        assert fixed_point_prefix(h, "a", 84) == H_PREFIX_84
        assert fixed_point_prefix(h, "a", 7) == "abceacd"
        assert fixed_point_prefix(h, "a", 0) == ""

    def test_agrees_with_plain_iteration(self, h):
        assert fixed_point_prefix(h, "a", 2401) == iterate(h, "a", 4)

    def test_prefix_monotone(self, h):
        long = fixed_point_prefix(h, "a", 400)
        for n in (1, 7, 49, 100, 399):
            assert fixed_point_prefix(h, "a", n) == long[:n]

    def test_requires_prolongable_letter(self, h):
        with pytest.raises(ValueError, match="prolongable"):
            fixed_point_prefix(h, "b", 10)

    def test_requires_endomorphism(self):
        f = parse_morphism("a -> ab\nb -> ac\n")
        with pytest.raises(ValueError):
            fixed_point_prefix(f, "a", 10)

    def test_requires_non_erasing(self):
        f = Morphism(Alphabet("ab"), Alphabet("ab"), {"a": "ab", "b": ""})
        with pytest.raises(ValueError):
            fixed_point_prefix(f, "a", 10)

    def test_unknown_letter(self, h):
        with pytest.raises(ValueError):
            fixed_point_prefix(h, "z", 10)


def _prefix_factorizations(f, target, p1):
    """All (v, p2) with f(v)+p2 == target and p2 a prefix of some image,
    minus the pairs the uniqueness lemma excludes for the given p1."""
    domain = list(f.domain)
    full_images = set(f.images.values())
    found = set()

    def rec(v, image):
        if not target.startswith(image):
            return
        p2 = target[len(image):]
        if any(f.images[b].startswith(p2) for b in domain):
            excluded = (p1 == "" and p2 in full_images) or (
                p1 in full_images and p2 == ""
            )
            if not excluded:
                found.add((v, p2))
        if len(image) < len(target):
            for ch in domain:
                rec(v + ch, image + f.images[ch])

    rec("", "")
    return found


def _suffix_factorizations(f, target, s1):
    domain = list(f.domain)
    full_images = set(f.images.values())
    found = set()

    def rec(v, image):
        if not target.endswith(image):
            return
        s2 = target[: len(target) - len(image)]
        if any(f.images[b].endswith(s2) for b in domain):
            excluded = (s1 == "" and s2 in full_images) or (
                s1 in full_images and s2 == ""
            )
            if not excluded:
                found.add((s2, v))
        if len(image) < len(target):
            for ch in domain:
                rec(ch + v, f.images[ch] + image)

    rec("", "")
    return found


class TestUniqueFactorization:
    """The cancellation lemmas behind injectivity of prefix/suffix morphisms."""

    @pytest.fixture(params=["h", "identity", "g"])
    def bifix_fixture(self, request, h):
        if request.param == "h":
            return h
        if request.param == "identity":
            return parse_morphism("a -> a\nb -> b\nc -> c\n")
        return parse_morphism("a -> ab\nb -> cb\n")

    def test_prefix_side(self, bifix_fixture):
        f = bifix_fixture
        assert profile(f).prefix
        rng = random.Random(61)
        domain = list(f.domain)
        for _ in range(20):
            u = "".join(rng.choice(domain) for _ in range(rng.randint(0, 2)))
            a = rng.choice(domain)
            p1 = f.images[a][: rng.randint(0, len(f.images[a]))]
            target = apply(f, u) + p1
            pair = (u, p1)
            candidates = _prefix_factorizations(f, target, p1)
            assert candidates == {pair}, (u, p1, candidates)

    def test_suffix_side(self, bifix_fixture):
        f = bifix_fixture
        assert profile(f).suffix
        rng = random.Random(67)
        domain = list(f.domain)
        for _ in range(20):
            u = "".join(rng.choice(domain) for _ in range(rng.randint(0, 2)))
            a = rng.choice(domain)
            s1 = f.images[a][rng.randint(0, len(f.images[a])):]
            target = s1 + apply(f, u)
            candidates = _suffix_factorizations(f, target, s1)
            assert candidates == {(s1, u)}, (u, s1, candidates)

    def test_prefix_morphisms_injective_on_samples(self, h):
        g = parse_morphism("a -> ab\nb -> cb\n")
        rng = random.Random(71)
        for f in (h, g):
            domain = list(f.domain)
            for _ in range(100):
                u = "".join(rng.choice(domain) for _ in range(rng.randint(0, 6)))
                v = "".join(rng.choice(domain) for _ in range(rng.randint(0, 6)))
                if u != v:
                    assert apply(f, u) != apply(f, v)
