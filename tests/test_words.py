"""Word primitives: factors, alphabets, powers, primitivity, exponents."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from apw import (
    Alphabet,
    FractionalPowerOccurrence,
    as_alphabet,
    factor,
    find_power_geq,
    find_square,
    is_k_power_free,
    is_primitive,
    max_exponent,
    primitive_root,
    validate_word,
)
from helpers import (
    all_words,
    oracle_find_power_geq,
    oracle_find_square,
    oracle_max_exponent,
    random_word,
)

THRESHOLDS = (Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(5, 2), Fraction(3))


def occurrence_tuple(occ):
    return None if occ is None else (occ.start, occ.period, occ.span)


class TestAlphabet:
    def test_order_and_membership(self):
        ab = as_alphabet("bac")
        assert list(ab) == ["b", "a", "c"]
        assert ab.index("a") == 1
        assert "c" in ab and "z" not in ab
        assert len(ab) == 3

    def test_as_alphabet_passthrough(self):
        ab = Alphabet("ab")
        assert as_alphabet(ab) is ab
        assert as_alphabet(["a", "b"]) == ab

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            Alphabet("aba")
        with pytest.raises(ValueError):
            Alphabet("")
        with pytest.raises(ValueError):
            Alphabet("a b")
        with pytest.raises(ValueError):
            Alphabet(["ab"])
        with pytest.raises(ValueError, match="'#' cannot be a letter"):
            Alphabet("a#")

    def test_equality_and_hash(self):
        assert Alphabet("abc") == Alphabet("abc")
        assert Alphabet("abc") != Alphabet("acb")
        assert hash(Alphabet("ab")) == hash(Alphabet("ab"))


class TestValidateWord:
    def test_accepts_clean_words(self):
        assert validate_word("abcab") == "abcab"
        assert validate_word("") == ""
        assert validate_word("ab", Alphabet("ab")) == "ab"

    def test_rejects_whitespace_with_position(self):
        with pytest.raises(ValueError, match="position 3"):
            validate_word("ab cd")

    def test_rejects_letters_outside_alphabet(self):
        with pytest.raises(ValueError, match="'c'.*position 3"):
            validate_word("abc", Alphabet("ab"))


class TestFactor:
    def test_basic(self):
        assert factor("abcab", 1, 3) == "abc"
        assert factor("anchorman", 1, 9) == "anchorman"

    def test_empty_when_j_is_i_minus_1(self):
        assert factor("abcab", 2, 1) == ""
        assert factor("abcab", 6, 5) == ""

    def test_out_of_range(self):
        for i, j in [(0, 2), (1, 6), (4, 2), (7, 6)]:
            with pytest.raises(ValueError):
                factor("abcab", i, j)

    @given(st.text(alphabet="abc", max_size=25), st.data())
    def test_concatenation(self, w, data):
        i = data.draw(st.integers(min_value=0, max_value=len(w)))
        assert factor(w, 1, i) + factor(w, i + 1, len(w)) == w


class TestPrimitivity:
    def test_examples(self):
        assert primitive_root("abab") == ("ab", 2)
        assert primitive_root("aaa") == ("a", 3)
        # brute force over all divisors of 5 confirms abcab is primitive
        assert primitive_root("abcab") == ("abcab", 1)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            primitive_root("")
        with pytest.raises(ValueError):
            is_primitive("")

    def test_power_law(self):
        # primitive_root(w^e) = (root of w, e * exponent of w)
        for w in all_words("ab", 6):
            if not w:
                continue
            root, exp = primitive_root(w)
            for e in (1, 2, 3):
                assert primitive_root(w * e) == (root, e * exp)

    def test_internal_factor_equivalence_binary(self):
        # w is primitive iff w does not occur strictly inside ww
        for w in all_words("ab", 12):
            if not w:
                continue
            internal = w in (w + w)[1:-1]
            assert (primitive_root(w)[1] == 1) == (not internal)
            assert is_primitive(w) == (not internal)

    def test_internal_factor_equivalence_ternary(self):
        for w in all_words("abc", 9):
            if not w:
                continue
            assert is_primitive(w) == (w not in (w + w)[1:-1])


class TestFindSquare:
    def test_examples(self):
        occ = find_square("abab")
        assert (occ.start, occ.period, occ.span) == (1, 2, 4)
        occ = find_square("aababbab")
        assert (occ.start, occ.period, occ.span) == (1, 1, 2)
        assert find_square("abcaba") is None

    def test_against_oracle_exhaustive(self):
        for letters, max_len in (("ab", 10), ("abc", 8)):
            for w in all_words(letters, max_len):
                expected = oracle_find_square(w)
                got = find_square(w)
                if expected is None:
                    assert got is None, w
                else:
                    assert got is not None, w
                    assert (got.start, got.period) == expected, w
                    assert got.span == 2 * got.period

    def test_against_oracle_random(self):
        rng = random.Random(41)
        for _ in range(200):
            w = random_word(rng, rng.choice(["abc", "abcd"]), rng.randint(0, 60))
            expected = oracle_find_square(w)
            got = find_square(w)
            assert (None if got is None else (got.start, got.period)) == expected

    def test_returned_occurrence_verifies(self):
        w = "abcabcab"
        occ = find_square(w)
        assert occ.verify(w)
        assert occ.exponent == 2
        assert occ.factor(w) == "abcabc"


class TestIsKPowerFree:
    def test_examples(self):
        assert not is_k_power_free("abab", 2)
        assert is_k_power_free("abcab", 2)
        assert not is_k_power_free("aaa", 3)
        assert is_k_power_free("aa", 3)

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            is_k_power_free("ab", 1)

    def test_matches_max_exponent(self):
        for w in all_words("ab", 10):
            if not w:
                continue
            exp = max_exponent(w)
            for k in (2, 3):
                assert is_k_power_free(w, k) == (exp < k), (w, k)


class TestMaxExponent:
    def test_worked_examples(self):
        assert max_exponent("anchorman") == Fraction(9, 7)
        assert max_exponent("abaabaa") == Fraction(7, 3)
        assert max_exponent("antman") == Fraction(3, 2)

    def test_repetition_free_words(self):
        assert max_exponent("a") == 1
        assert max_exponent("ab") == 1
        assert max_exponent("abc") == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_exponent("")

    def test_against_oracle_exhaustive(self):
        for letters, max_len in (("ab", 9), ("abc", 7)):
            for w in all_words(letters, max_len):
                if not w:
                    continue
                assert max_exponent(w) == oracle_max_exponent(w), w

    def test_against_oracle_random(self):
        rng = random.Random(43)
        for _ in range(150):
            w = random_word(rng, rng.choice(["ab", "abc", "abcd"]), rng.randint(1, 28))
            assert max_exponent(w) == oracle_max_exponent(w), w

    def test_exact_fraction_type(self):
        exp = max_exponent("abaabaa")
        assert isinstance(exp, Fraction)
        assert (exp.numerator, exp.denominator) == (7, 3)


class TestFindPowerGeq:
    def test_worked_examples(self):
        occ = find_power_geq("abcaba", Fraction(3, 2))
        assert (occ.start, occ.period, occ.span) == (1, 3, 5)
        assert occ.exponent == Fraction(5, 3)
        assert occ.factor("abcaba") == "abcab"

        occ = find_power_geq("abcab", Fraction(3, 2))
        assert (occ.start, occ.period, occ.span) == (1, 3, 5)

        assert find_power_geq("abc", Fraction(3, 2)) is None

    def test_threshold_met_exactly(self):
        occ = find_power_geq("aba", Fraction(3, 2))
        assert (occ.start, occ.period, occ.span) == (1, 2, 3)
        assert occ.exponent == Fraction(3, 2)

    def test_threshold_must_exceed_one(self):
        for bad in (Fraction(1), Fraction(2, 3), Fraction(0)):
            with pytest.raises(ValueError):
                find_power_geq("abab", bad)

    def test_against_oracle_exhaustive(self):
        for letters, max_len in (("ab", 10), ("abc", 7)):
            for w in all_words(letters, max_len):
                for t in THRESHOLDS:
                    got = occurrence_tuple(find_power_geq(w, t))
                    assert got == oracle_find_power_geq(w, t), (w, t)

    def test_agrees_with_find_square_at_two(self):
        for letters, max_len in (("ab", 10), ("abc", 7)):
            for w in all_words(letters, max_len):
                assert (find_square(w) is None) == (
                    find_power_geq(w, Fraction(2)) is None
                ), w

    def test_occurrences_verify_and_meet_threshold(self):
        rng = random.Random(47)
        threshold = Fraction(3, 2)
        for _ in range(200):
            w = random_word(rng, "abc", rng.randint(0, 40))
            occ = find_power_geq(w, threshold)
            if occ is None:
                assert max_exponent(w) < threshold if w else True
            else:
                assert occ.verify(w)
                assert occ.exponent >= threshold


class TestLongWords:
    def test_scanners_against_oracles(self, planted_factors):
        for w in planted_factors:
            square = find_square(w)
            expected = oracle_find_square(w)
            assert (None if square is None else (square.start, square.period)) == expected, w
            exponent = oracle_max_exponent(w)
            assert max_exponent(w) == exponent, w
            for k in (2, 3):
                assert is_k_power_free(w, k) == (exponent < k), (w, k)
            for t in (Fraction(4, 3), Fraction(3, 2), Fraction(2)):
                got = occurrence_tuple(find_power_geq(w, t))
                assert got == oracle_find_power_geq(w, t), (w, t)


class TestFractionalPowerOccurrence:
    def test_exponent_in_lowest_terms(self):
        occ = FractionalPowerOccurrence(start=1, period=4, span=8)
        assert occ.exponent == Fraction(2)
        assert occ.exponent.denominator == 1

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            FractionalPowerOccurrence(start=0, period=1, span=2)
        with pytest.raises(ValueError):
            FractionalPowerOccurrence(start=1, period=0, span=2)
        with pytest.raises(ValueError):
            FractionalPowerOccurrence(start=1, period=3, span=3)

    def test_verify_rejects_wrong_claims(self):
        occ = FractionalPowerOccurrence(start=1, period=1, span=2)
        assert occ.verify("aab")
        assert not occ.verify("abc")

    @given(st.text(alphabet="ab", min_size=1, max_size=12))
    def test_square_presence_matches_exponent(self, w):
        assert (find_square(w) is not None) == (max_exponent(w) >= 2)
