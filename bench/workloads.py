"""Seeded inputs and operations of the benchmark's three workloads.

``build(name, seed, root)`` imports nothing but ``apw`` and returns a
``Workload``: its inputs (a pure function of the seed) and its ops.  An op
is one library call or one ``apw`` command; it calls the library through
the ``apw`` package at call time, so the tracer's wrappers see it.  Each op
carries a check that judges its answer with ``gate`` code, which shares
nothing with the library.

Workloads, and why each is in the benchmark:

* ``cli-readme``: every command of the README's usage block, plain and
  ``--json``, as ``python -m apw`` child processes.  This is what users
  run; interpreter start, ``import apw`` and CLI formatting dominate here
  and nowhere else.
* ``long-words``: factors of h^6(a) (117,649 letters) through the
  long-word anti-power path and the repetition scanners in ``words.py``;
  enumeration never runs.
* ``morphism-decide``: the decision procedures on h, its letter-renamed
  conjugates, all one-letter mutants of one conjugate, h∘h, one clean
  image scan and two enumerations.  Nearly all time is in the short-word
  checker called from enumeration and image scans.  ``BENCHMARK.json``
  does not gate it, because its pure-Python run time swings too far
  between runs on a shared host (see ``STEADINESS.md``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import apw

import gate

WORKLOADS = ("cli-readme", "long-words", "morphism-decide")

FACTOR = 2401  # 7^4, the README's verify-prefix length
BIG_FACTOR = 16807  # 7^5
# 2401-letter factors per round.  The counts put the median latency inside
# the unplanted k = 2 checks and the 90th percentile inside the unplanted
# k = 3 and k = 4 checks, away from the edges between kinds of op.
UNPLANTED = 12
PLANTED = 10
CONJUGATES = 4
ENUMERATIONS = ((5, 3, 8), (4, 3, 9))  # (letters, k, max_len)

Check = Callable[[object], Optional[str]]


@dataclass
class Op:
    """One timed call.  ``argv`` marks an ``apw`` command; otherwise ``call`` runs it."""

    kind: str
    check: Check
    call: Optional[Callable[[], object]] = None
    argv: Optional[List[str]] = None
    stdin: Optional[Callable[[], str]] = None  # text for --stdin, read when the op runs
    letters: int = 0  # letters of word input the op scans
    enumerates: bool = False  # result is a list of enumerated words
    last: object = None  # the op's latest result, set by the runner


@dataclass
class Workload:
    name: str
    seed: int
    units: List[List[Op]]  # a unit's ops run back to back; rounds shuffle the units
    inputs: Dict[str, object]
    extra_checks: List[Callable[[], Optional[str]]] = field(default_factory=list)

    @property
    def ops(self) -> List[Op]:
        return [op for unit in self.units for op in unit]

    def round_order(self, round_index: int) -> List[Op]:
        units = list(self.units)
        random.Random(f"{self.name}:{self.seed}:round:{round_index}").shuffle(units)
        return [op for unit in units for op in unit]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _h_rules(root: Path) -> gate.Rules:
    return gate.parse_rules((root / "data" / "h.mor").read_text(encoding="utf-8"))


def _expect(expected) -> Check:
    return lambda got: None if got == expected else f"got {got!r}, expected {expected!r}"


def _expect_derived(derive: Callable[[], object]) -> Check:
    """Like _expect, with the expected value derived on first use (outside the timed region)."""
    memo: list = []

    def check(got) -> Optional[str]:
        if not memo:
            memo.append(derive())
        return _expect(memo[0])(got)

    return check


def _expect_violation(w: str, level: int) -> Check:
    def check(v) -> Optional[str]:
        if v is None:
            return "no violation reported"
        if v.level != level:
            return f"least violation at level {v.level}, expected level {level}"
        if not (gate.violation_holds(w, v) and v.verify(w)):
            return f"witness {v} does not re-verify"
        return None

    return check


# ---------------------------------------------------------------- long-words


def _long_words(seed: int, root: Path) -> Workload:
    rng = _rng("long-words", seed)
    h = apw.load_morphism(str(root / "data" / "h.mor"))
    w_full = apw.fixed_point_prefix(h, "a", 7**6)
    n = len(w_full)

    unplanted = [rng.randrange(n - FACTOR + 1) for _ in range(UNPLANTED)]
    planted = []
    for i in range(PLANTED):
        # Duplicate the aligned block h^j(x) in place, j = 1, 2, 3 in turn, so
        # "no" answers need level-2 scans to different block lengths.
        block = 7 ** (1 + i % 3)
        start = rng.randrange(n - FACTOR + 1)
        first = -(-start // block) * block
        last = start + FACTOR - 2 * block
        at = first + block * rng.randrange((last - first) // block + 1)
        planted.append((start, at, block))
    scan_at = rng.randrange(n - FACTOR + 1)
    big_at = rng.randrange(n - BIG_FACTOR + 1)
    naive = [(rng.randrange(n - 150), rng.randrange(40, 150)) for _ in range(6)]

    def planted_word(start: int, at: int, block: int) -> str:
        return w_full[start : at + block] + w_full[at : start + FACTOR - block]

    units: List[List[Op]] = []
    for start in unplanted:
        w = w_full[start : start + FACTOR]
        for k in (2, 3, 4):
            expected = _expect(None) if k <= 3 else _expect_violation(w, 4)
            units.append([Op(f"check.k{k}", expected, lambda w=w, k=k: apw.check_k_anti_power(w, k), letters=FACTOR)])
    for start, at, block in planted:
        w = planted_word(start, at, block)
        for k in (2, 3, 4):
            units.append([Op(f"check.k{k}.planted", _expect_violation(w, 2), lambda w=w, k=k: apw.check_k_anti_power(w, k), letters=FACTOR)])

    w = w_full[scan_at : scan_at + FACTOR]
    scanners = [
        ("max_exponent", lambda: apw.max_exponent(w), _expect_derived(lambda: gate.max_exponent(w))),
        ("find_square", lambda: apw.find_square(w), _expect(None)),
        ("find_power_geq", lambda: apw.find_power_geq(w, Fraction(2)), _expect(None)),
        ("is_k_power_free", lambda: apw.is_k_power_free(w, 2), _expect(True)),
    ]
    for name, call, check in scanners:
        units.append([Op(f"words.{name}", check, call, letters=FACTOR)])
    big = w_full[big_at : big_at + BIG_FACTOR]
    units.append([Op("check.k3.big", _expect(None), lambda: apw.check_k_anti_power(big, 3), letters=BIG_FACTOR)])

    def fixed_point_is_right() -> Optional[str]:
        if w_full != gate.fixed_point(_h_rules(root)[1], "a", n):
            return "fixed-point prefix of h differs from plain iteration"
        return None

    def naive_agrees() -> Optional[str]:
        # A seeded set of shorter words, some with a planted square, against
        # the library's brute-force oracle.
        for offset, length in naive:
            word = w_full[offset : offset + length]
            for candidate in (word, word[: length // 2] + word[length // 2 - 7 : length - 7]):
                for k in (2, 3, 4):
                    if apw.check_k_anti_power(candidate, k) != apw.check_k_anti_power_naive(candidate, k):
                        return f"fast and naive checkers disagree on a {len(candidate)}-letter word, k={k}"
        return None

    inputs = {"unplanted": unplanted, "planted": planted, "scan": scan_at, "big": big_at, "naive": naive}
    return Workload("long-words", seed, units, inputs, [fixed_point_is_right, naive_agrees])


# ----------------------------------------------------------- morphism-decide


def _renamed(rules: gate.Rules, perm: str) -> gate.Rules:
    """The conjugate pi h pi^-1 for the letter renaming letters[i] -> perm[i]."""
    letters, images = rules
    table = str.maketrans(letters, perm)
    return perm, {a.translate(table): img.translate(table) for a, img in images.items()}


def _mutants(rules: gate.Rules) -> List[gate.Rules]:
    letters, images = rules
    out = []
    for a in letters:
        for pos, old in enumerate(images[a]):
            for new in letters:
                if new != old:
                    changed = dict(images)
                    changed[a] = images[a][:pos] + new + images[a][pos + 1 :]
                    out.append((letters, changed))
    return out


def _morphism(rules: gate.Rules):
    letters, images = rules
    alphabet = apw.Alphabet(letters)
    return apw.Morphism(domain=alphabet, codomain=alphabet, images=dict(images))


def _decision_ops(rules: gate.Rules, f, expected: Optional[str], tag: str) -> List[List[Op]]:
    """decide_3_anti_power and test_square_free_morphism on f.

    ``expected`` None means the expected verdicts are derived by the gate
    (once per morphism, outside the timed region).
    """
    memo: Dict[str, str] = {}

    def verdict(prop: str) -> str:
        if expected is not None:
            return expected
        if prop not in memo:
            holds = gate.anti_power_morphism(rules) if prop == "3ap" else gate.square_free_morphism(rules)
            memo[prop] = "yes" if holds else "no"
        return memo[prop]

    def checker(prop: str) -> Check:
        return lambda d: gate.morphism_decision_error(rules, f, d, verdict(prop))

    return [
        [Op(f"decide.{tag}", checker("3ap"), lambda: apw.decide_3_anti_power(f))],
        [Op(f"square_free.{tag}", checker("sf"), lambda: apw.test_square_free_morphism(f))],
    ]


def _morphism_decide(seed: int, root: Path) -> Workload:
    rng = _rng("morphism-decide", seed)
    h_rules = _h_rules(root)
    letters = h_rules[0]
    perms = set()
    while len(perms) < CONJUGATES + 3:
        perm = "".join(rng.sample(letters, len(letters)))
        if perm != letters:
            perms.add(perm)
    perms = sorted(perms)
    rng.shuffle(perms)
    conjugates, (mutant_base, square_base, scan_base) = perms[:CONJUGATES], perms[CONJUGATES:]
    alphabets = [
        "".join(rng.sample(letters, size)) for size, _, _ in ENUMERATIONS
    ]

    h = apw.load_morphism(str(root / "data" / "h.mor"))
    units: List[List[Op]] = _decision_ops(h_rules, h, "yes", "h")
    for perm in conjugates:
        rules = _renamed(h_rules, perm)
        units += _decision_ops(rules, _morphism(rules), "yes", "conjugate")
    mutants = _mutants(_renamed(h_rules, mutant_base))
    for rules in mutants:
        units += _decision_ops(rules, _morphism(rules), None, "mutant")

    g_rules = _renamed(h_rules, square_base)
    g = _morphism(g_rules)
    gg = apw.Morphism(
        domain=g.domain, codomain=g.codomain, images={a: apw.apply(g, g.images[a]) for a in g.domain}
    )
    gg_rules = (g_rules[0], {a: gate.image(g_rules[1], img) for a, img in g_rules[1].items()})
    units += _decision_ops(gg_rules, gg, "yes", "squared")

    scanned = _morphism(_renamed(h_rules, scan_base))
    units.append([Op("anti_power_up_to", _expect(None), lambda: apw.anti_power_up_to(scanned, 3, 7))])
    for alphabet, (_, k, max_len) in zip(alphabets, ENUMERATIONS):
        check = _expect_derived(lambda a=alphabet, k=k, m=max_len: gate.anti_power_words(a, k, m))
        call = lambda a=alphabet, k=k, m=max_len: list(apw.enumerate_k_anti_power(a, k, m))
        units.append([Op(f"enumerate.{len(alphabet)}", check, call, enumerates=True)])

    def h_is_yes() -> Optional[str]:
        return None if gate.anti_power_morphism(h_rules) else "gate finds h is not a 3-anti-power morphism"

    def squared_images_agree() -> Optional[str]:
        return None if gg.images == gg_rules[1] else "library h∘h images differ from plain composition"

    inputs = {
        "conjugates": conjugates,
        "mutants": [sorted(r[1].items()) for r in mutants],
        "squared": square_base,
        "scan": scan_base,
        "alphabets": alphabets,
    }
    return Workload("morphism-decide", seed, units, inputs, [h_is_yes, squared_images_agree])


# ---------------------------------------------------------------- cli-readme


def _cli_op(argv: List[str], check: Check, stdin: Optional[Callable[[], str]] = None) -> Op:
    kind = argv[0] + (".json" if "--json" in argv else "")
    return Op(f"cli.{kind}", check, argv=argv, stdin=stdin)


def _cli_expect(code: int, plain: Optional[str] = None, json_check: Optional[Callable[[dict], bool]] = None) -> Check:
    """Check (exit code, stdout): plain text exactly, or a predicate on the parsed report."""

    def check(result) -> Optional[str]:
        got_code, out = result
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if plain is not None and out != plain + "\n":
            return f"stdout {out[:120]!r}, expected {plain[:120]!r}"
        if json_check is not None:
            try:
                report = json.loads(out)
            except ValueError:
                return f"stdout is not one JSON report: {out[:120]!r}"
            if not json_check(report):
                return f"report fails its check: {out[:200]!r}"
        return None

    return check


def _cli_readme(seed: int, root: Path) -> Workload:
    rng = _rng("cli-readme", seed)
    offset = rng.randrange(FACTOR)
    h_rules = _h_rules(root)
    images = h_rules[1]
    prefix84 = gate.fixed_point(images, "a", 84)
    piped = gate.fixed_point(images, "a", offset + FACTOR)
    abcab_yes = gate.is_k_anti_power("abcab", 3)
    enumerated = gate.anti_power_words("abc", 3, 5)
    exponent = gate.max_exponent("anchorman")
    start, period, span = gate.first_power_geq("abcaba", Fraction(3, 2))
    found = "abcaba"[start - 1 : start - 1 + span]
    power = Fraction(span, period)
    count = math.perm(2**2, 4)  # (4, 2)-anti-power sequences over 2 letters
    mor = "data/h.mor"

    def ok(verdict) -> Callable[[dict], bool]:
        return lambda r: r["verdict"] == verdict

    word_code = 0 if abcab_yes else 1
    commands = [
        (["check-morphism", "--k", "3", mor], 0, "yes: a 3-anti-power morphism",
         lambda r: r["verdict"] == "yes" and r["certificate"] is not None),
        (["check-morphism", "--k", "2", mor], 0, "yes: a square-free morphism",
         lambda r: r["verdict"] == "yes" and r["certificate"] is not None),
        (["generate", mor, "--start", "a", "--length", "84"], 0, prefix84, lambda r: r["word"] == prefix84),
        (["verify-prefix", mor, "--start", "a", "--length", str(FACTOR), "--k", "3"], 0,
         f"yes: prefix of length {FACTOR} is a 3-anti-power word", ok(True)),
        (["check-word", "--k", "3", "abcab"], word_code,
         "yes: a 3-anti-power word" if abcab_yes else None, ok(abcab_yes)),
        (["profile", mor], 0, gate.profile_line(h_rules),
         lambda r: r["profile"] == gate.profile_flags(h_rules)),
        (["exponent", "anchorman"], 0, f"{exponent.numerator}/{exponent.denominator}",
         lambda r: r["exponent"] == f"{exponent.numerator}/{exponent.denominator}"),
        (["find-power", "--threshold", "3/2", "abcaba"], 1,
         f"found: {power.numerator}/{power.denominator}-power {found!r} at {start} (period {period}, span {span})",
         lambda r: r["verdict"] is False and (r["witness"]["start"], r["witness"]["period"], r["witness"]["span"]) == (start, period, span)),
        (["enumerate", "--alphabet", "abc", "--k", "3", "--max-len", "5"], 0, "\n".join(enumerated),
         lambda r: r["words"] == enumerated),
        (["count", "--alpha", "2", "--k", "4", "--n", "2"], 0, str(count), lambda r: r["count"] == count),
    ]
    units: List[List[Op]] = []
    for argv, code, plain, json_check in commands:
        units.append([_cli_op(argv, _cli_expect(code, plain=plain))])
        units.append([_cli_op(argv + ["--json"], _cli_expect(code, json_check=json_check))])

    # generate | check-word --stdin, run one process after the other; the
    # seed picks where in the generated prefix the checked word starts.
    for json_flag in ([], ["--json"]):
        generate = _cli_op(["generate", mor, "--start", "a", "--length", str(offset + FACTOR)], _cli_expect(0, plain=piped))
        check_word = _cli_op(
            ["check-word", "--k", "3", "--stdin"] + json_flag,
            _cli_expect(0, plain=None if json_flag else "yes: a 3-anti-power word", json_check=ok(True) if json_flag else None),
            stdin=lambda g=generate: g.last[1][offset:],
        )
        units.append([generate, check_word])
    return Workload("cli-readme", seed, units, {"offset": offset})


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "cli-readme":
        return _cli_readme(seed, root)
    if name == "long-words":
        return _long_words(seed, root)
    if name == "morphism-decide":
        return _morphism_decide(seed, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
