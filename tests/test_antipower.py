"""Anti-power predicates: sequences, word checkers, enumeration, counting."""

import itertools
import random

import pytest

from apw import (
    Alphabet,
    AntiPowerViolation,
    check_k_anti_power,
    check_k_anti_power_naive,
    count_anti_power_sequences,
    enumerate_k_anti_power,
    find_square,
    is_anti_power_sequence,
)
from helpers import all_words, oracle_is_k_anti_power, random_word


def assert_least_level_pair(v):
    # at the least failing level m only blocks 1 and m can be equal
    assert v is None or (v.first_block, v.second_block) == (1, v.level), v


class TestAntiPowerViolation:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            AntiPowerViolation(window_start=0, block_len=1, first_block=1, second_block=2, level=2)
        with pytest.raises(ValueError):
            AntiPowerViolation(window_start=1, block_len=0, first_block=1, second_block=2, level=2)
        with pytest.raises(ValueError):
            AntiPowerViolation(window_start=1, block_len=1, first_block=2, second_block=2, level=2)
        with pytest.raises(ValueError):
            AntiPowerViolation(window_start=1, block_len=1, first_block=1, second_block=3, level=2)
        with pytest.raises(ValueError):
            AntiPowerViolation(window_start=1, block_len=1, first_block=1, second_block=2, level=1)

    def test_blocks_and_verify(self):
        v = AntiPowerViolation(window_start=2, block_len=1, first_block=1, second_block=3, level=3)
        assert v.blocks("abcbab") == ("b", "b")
        assert v.verify("abcbab")
        assert not v.verify("abcdef")


class TestIsAntiPowerSequence:
    def test_worked_examples(self):
        assert is_anti_power_sequence("aababbab", 4)
        assert not is_anti_power_sequence("abababab", 4)
        assert is_anti_power_sequence("ababababbaaa", 4)

    def test_length_constraints(self):
        with pytest.raises(ValueError):
            is_anti_power_sequence("abcde", 2)
        with pytest.raises(ValueError):
            is_anti_power_sequence("", 3)
        with pytest.raises(ValueError):
            is_anti_power_sequence("abab", 1)


class TestCheckKAntiPower:
    def test_three_anti_power_examples(self):
        assert check_k_anti_power("abcab", 3) is None
        assert check_k_anti_power("ab", 3) is None
        assert check_k_anti_power("abcbab", 3) == AntiPowerViolation(
            window_start=2, block_len=1, first_block=1, second_block=3, level=3
        )
        assert check_k_anti_power("abcac", 3) == AntiPowerViolation(
            window_start=3, block_len=1, first_block=1, second_block=3, level=3
        )

    def test_short_word_clause(self):
        # words shorter than k are tested as |w|-anti-power words
        assert check_k_anti_power("ab", 5) is None
        assert check_k_anti_power("aba", 4) == AntiPowerViolation(
            window_start=1, block_len=1, first_block=1, second_block=3, level=3
        )
        assert check_k_anti_power("aa", 7) == AntiPowerViolation(
            window_start=1, block_len=1, first_block=1, second_block=2, level=2
        )

    def test_trivial_words(self):
        for k in (2, 3, 7):
            assert check_k_anti_power("", k) is None
            assert check_k_anti_power("a", k) is None

    def test_level_is_recorded_where_found(self):
        # raising k does not change the least violation
        assert check_k_anti_power("abcbab", 5) == AntiPowerViolation(
            window_start=2, block_len=1, first_block=1, second_block=3, level=3
        )

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            check_k_anti_power("ab", 1)
        with pytest.raises(ValueError):
            check_k_anti_power_naive("ab", 0)

    def test_violations_verify(self):
        rng = random.Random(53)
        seen = 0
        while seen < 60:
            w = random_word(rng, "abc", rng.randint(4, 30))
            v = check_k_anti_power(w, 3)
            if v is not None:
                assert v.verify(w)
                seen += 1


class TestNaiveChecker:
    def test_examples(self):
        assert check_k_anti_power_naive("abcab", 3) is None
        assert check_k_anti_power_naive("", 5) is None
        # the 4-power fails already at level 2: blocks "ab" at offsets 1 and 3
        assert check_k_anti_power_naive("abababab", 4) == AntiPowerViolation(
            window_start=1, block_len=2, first_block=1, second_block=2, level=2
        )


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        for letters, max_len in (("ab", 9), ("abc", 9)):
            for w in all_words(letters, max_len):
                for k in (2, 3, 4, 5):
                    fast = check_k_anti_power(w, k)
                    naive = check_k_anti_power_naive(w, k)
                    assert fast == naive, (w, k)
                    assert (fast is None) == oracle_is_k_anti_power(w, k), (w, k)
                    assert_least_level_pair(fast)

    def test_random_long_words_hit_vector_path(self):
        rng = random.Random(20250814)
        for _ in range(60):
            letters = rng.choice(["ab", "abc", "abcd"])
            w = random_word(rng, letters, rng.randint(150, 260))
            k = rng.choice([2, 3, 4, 5])
            assert check_k_anti_power(w, k) == check_k_anti_power_naive(w, k)

    def test_planted_factors_hit_vector_path(self, planted_factors):
        levels = set()
        for w in planted_factors:
            for k in (2, 3, 4, 5):
                fast = check_k_anti_power(w, k)
                assert fast == check_k_anti_power_naive(w, k), (w, k)
                assert_least_level_pair(fast)
                if fast is not None:
                    levels.add(fast.level)
        assert levels == {2, 3, 4}

    def test_dispatch_threshold_straddle(self):
        rng = random.Random(7)
        for length in range(185, 200):
            w = random_word(rng, "ab", length)
            assert check_k_anti_power(w, 3) == check_k_anti_power_naive(w, 3)


class TestDefinitionStructure:
    def test_monotone_in_k(self):
        for w in all_words("abc", 7):
            if check_k_anti_power(w, 4) is None:
                assert check_k_anti_power(w, 3) is None
                assert check_k_anti_power(w, 2) is None

    def test_level_two_agrees_with_square_freeness(self):
        for w in all_words("ab", 10):
            assert (check_k_anti_power(w, 2) is None) == (find_square(w) is None)


class TestEnumerate:
    def test_binary_square_free_words(self):
        words = list(enumerate_k_anti_power(Alphabet("ab"), 2, 5))
        assert words == ["", "a", "b", "ab", "ba", "aba", "bab"]
        # the language is finite; a larger bound adds nothing
        assert list(enumerate_k_anti_power(Alphabet("ab"), 2, 12)) == words

    def test_binary_three_anti_power_words(self):
        assert list(enumerate_k_anti_power(Alphabet("ab"), 3, 4)) == [
            "",
            "a",
            "b",
            "ab",
            "ba",
        ]

    def test_ternary_three_anti_power_closed_form(self):
        words = list(enumerate_k_anti_power(Alphabet("abc"), 3, 12))
        assert len(words) == 28
        assert max(len(w) for w in words) == 5
        length5 = [w for w in words if len(w) == 5]
        assert length5 == ["abcab", "acbac", "bacba", "bcabc", "cabca", "cbacb"]
        assert [w for w in words if len(w) == 6] == []
        # every word in the language is a factor of one of the six
        for w in words:
            assert any(w in full for full in length5) or len(w) <= 1

    def test_prefix_closed(self):
        words = set(enumerate_k_anti_power(Alphabet("abc"), 3, 8))
        for w in words:
            if w:
                assert w[:-1] in words

    def test_respects_declared_alphabet_order(self):
        words = list(enumerate_k_anti_power(Alphabet("bac"), 2, 2))
        assert words == ["", "b", "a", "c", "ba", "bc", "ab", "ac", "cb", "ca"]

    def test_max_len_zero(self):
        assert list(enumerate_k_anti_power(Alphabet("ab"), 3, 0)) == [""]

    def test_every_emitted_word_checks_clean(self):
        for k in (2, 3, 4):
            for w in enumerate_k_anti_power(Alphabet("ab"), k, 8):
                assert check_k_anti_power(w, k) is None


class TestCounting:
    def test_worked_examples(self):
        assert count_anti_power_sequences(2, 4, 2) == 24
        assert count_anti_power_sequences(2, 5, 2) == 0
        assert count_anti_power_sequences(3, 2, 1) == 6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            count_anti_power_sequences(1, 2, 2)
        with pytest.raises(ValueError):
            count_anti_power_sequences(2, 0, 2)
        with pytest.raises(ValueError):
            count_anti_power_sequences(2, 2, 0)

    def test_small_counts_by_direct_enumeration(self):
        for alpha, letters in ((2, "ab"), (3, "abc")):
            for n in (1, 2):
                for k in range(1, min(alpha**n, 4) + 1):
                    brute = 0
                    for tup in itertools.product(letters, repeat=k * n):
                        w = "".join(tup)
                        blocks = [w[t * n : (t + 1) * n] for t in range(k)]
                        brute += len(set(blocks)) == k
                    assert count_anti_power_sequences(alpha, k, n) == brute

    def test_large_values_exact(self):
        base = 10**6
        assert count_anti_power_sequences(10, 3, 6) == base * (base - 1) * (base - 2)
        assert count_anti_power_sequences(2, 2**20 + 1, 20) == 0
