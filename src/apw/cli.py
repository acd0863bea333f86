"""Command-line front end: the ``apw`` tool.

One verb per concept: check-word, check-morphism, profile, generate,
verify-prefix, enumerate, count, exponent, find-power.  Every subcommand
accepts ``--json`` to emit a single machine-readable Report object on
standard output instead of the human-readable text.  Exit codes are a
function of the verdict only: 0 = property holds / yes, 1 = fails / no,
2 = inconclusive, 3 = usage or parse error.  Exit code 4 means an
internal error: an unexpected exception (a failed self-check, an
exhausted memory) that is not a verdict.

JSON reports are byte-stable for identical inputs; the wall-clock
``timing_ms`` sibling field is the only exception.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction
from typing import Optional

from .antipower import (
    AntiPowerViolation,
    check_k_anti_power,
    check_k_anti_power_naive,
    count_anti_power_sequences,
    enumerate_k_anti_power,
)
from .decide import (
    Decision,
    anti_power_up_to,
    decide_3_anti_power,
    MorphismWitness,
    test_square_free_morphism,
)
from .morphisms import (
    Morphism,
    MorphismParseError,
    apply,
    fixed_point_prefix,
    load_morphism,
    profile,
)
from .words import (
    Alphabet,
    FractionalPowerOccurrence,
    find_power_geq,
    max_exponent,
    validate_word,
)

_WORD_ECHO_LIMIT = 200


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _violation_dict(v: AntiPowerViolation) -> dict:
    return {
        "type": "anti-power-violation",
        "window_start": v.window_start,
        "block_len": v.block_len,
        "first_block": v.first_block,
        "second_block": v.second_block,
        "level": v.level,
    }


def _occurrence_dict(o: FractionalPowerOccurrence, w: Optional[str] = None) -> dict:
    out = {
        "type": "power-occurrence",
        "start": o.start,
        "period": o.period,
        "span": o.span,
        "exponent": _fraction_str(o.exponent),
    }
    if w is not None:
        out["factor"] = o.factor(w)
    return out


def _word_echo(word: str) -> dict:
    echo = {"word_length": len(word)}
    if len(word) <= _WORD_ECHO_LIMIT:
        echo["word"] = word
    return echo


def _exit_code(verdict) -> int:
    if verdict is True or verdict == "yes":
        return 0
    if verdict is False or verdict == "no":
        return 1
    if verdict == "inconclusive":
        return 2
    raise AssertionError(f"unmapped verdict {verdict!r}")


def _read_word(args) -> str:
    if args.stdin:
        if args.word is not None:
            raise ValueError("give a word argument or --stdin, not both")
        text = sys.stdin.read()
        if text.endswith("\n"):
            text = text[:-1]
        return validate_word(text)
    if args.word is None:
        raise ValueError("a word argument (or --stdin) is required")
    return validate_word(args.word)


def _violation_line(v: AntiPowerViolation) -> str:
    return (
        f"level {v.level} window at {v.window_start} with block length {v.block_len} "
        f"repeats block {v.first_block} as block {v.second_block}"
    )


def _cmd_check_word(args):
    word = _read_word(args)
    checker = check_k_anti_power_naive if args.naive else check_k_anti_power
    violation = checker(word, args.k)
    verdict = violation is None
    payload = {
        "witness": None if violation is None else _violation_dict(violation),
        "inputs": {**_word_echo(word), "k": args.k, "naive": bool(args.naive)},
    }
    if verdict:
        human = f"yes: a {args.k}-anti-power word"
    else:
        human = f"no: {_violation_line(violation)}"
    return verdict, payload, human


def _witness_dict(f: Morphism, witness: MorphismWitness) -> dict:
    image = apply(f, witness.word)
    out = {"word": witness.word, "image": image}
    if witness.violation is not None:
        out["violation"] = _violation_dict(witness.violation)
    else:
        out["square"] = _occurrence_dict(witness.square, image)
    return out


def _decision_payload(f: Morphism, decision: Decision) -> dict:
    return {
        "certificate": decision.certificate,
        "witness": None if decision.witness is None else _witness_dict(f, decision.witness),
        "reason": decision.reason,
        "evidence": decision.evidence,
    }


def _decision_line(decision: Decision, property_name: str) -> str:
    if decision.verdict == "yes":
        return f"yes: a {property_name}"
    if decision.verdict == "no":
        w = decision.witness
        kind = "square in image" if w.square is not None else "anti-power violation in image"
        return f"no: word {w.word!r} fails ({kind})"
    detail = f" (no counterexample up to length {decision.evidence['checked_up_to']})"
    return f"inconclusive: {decision.reason}{detail}"


def _cmd_check_morphism(args):
    if args.k < 2:
        raise ValueError("k must be at least 2")
    f = load_morphism(args.file)
    if args.k == 2:
        decision = test_square_free_morphism(f, limit=args.evidence)
        name = "square-free morphism"
    elif args.k == 3:
        decision = decide_3_anti_power(f, evidence_ell=args.evidence)
        name = "3-anti-power morphism"
    else:
        # No decision procedure is known for k >= 4; report bounded evidence.
        hit = anti_power_up_to(f, args.k, args.evidence)
        if hit is not None:
            word, violation = hit
            decision = Decision(
                "no", witness=MorphismWitness(word=word, violation=violation)
            )
        else:
            decision = Decision(
                "inconclusive",
                reason="no-decision-procedure",
                evidence={"checked_up_to": args.evidence},
            )
        name = f"{args.k}-anti-power morphism"
    payload = _decision_payload(f, decision)
    payload["inputs"] = {"file": args.file, "k": args.k, "evidence": args.evidence}
    return decision.verdict, payload, _decision_line(decision, name)


def _cmd_profile(args):
    f = load_morphism(args.file)
    p = profile(f)
    flags = {
        "uniform_length": p.uniform_length,
        "non_erasing": p.non_erasing,
        "prefix": p.prefix,
        "suffix": p.suffix,
        "bifix": p.bifix,
        "ps": p.ps,
    }
    payload = {
        "profile": flags,
        "domain": "".join(f.domain),
        "codomain": "".join(f.codomain),
        "inputs": {"file": args.file},
    }
    human = " ".join(
        f"{key}={'yes' if value else 'no'}" if isinstance(value, bool) else f"{key}={value}"
        for key, value in flags.items()
    )
    return True, payload, human


def _cmd_generate(args):
    f = load_morphism(args.file)
    word = fixed_point_prefix(f, args.start, args.length)
    payload = {
        "word": word,
        "inputs": {"file": args.file, "start": args.start, "length": args.length},
    }
    return True, payload, word


def _cmd_verify_prefix(args):
    f = load_morphism(args.file)
    word = fixed_point_prefix(f, args.start, args.length)
    checker = check_k_anti_power_naive if args.naive else check_k_anti_power
    violation = checker(word, args.k)
    verdict = violation is None
    payload = {
        "witness": None if violation is None else _violation_dict(violation),
        "inputs": {
            "file": args.file,
            "start": args.start,
            "length": args.length,
            "k": args.k,
            "naive": bool(args.naive),
        },
    }
    if verdict:
        human = f"yes: prefix of length {args.length} is a {args.k}-anti-power word"
    else:
        human = f"no: {_violation_line(violation)}"
    return verdict, payload, human


def _cmd_enumerate(args):
    alphabet = Alphabet(args.alphabet)
    words = list(enumerate_k_anti_power(alphabet, args.k, args.max_len))
    payload = {
        "words": words,
        "count": len(words),
        "inputs": {"alphabet": args.alphabet, "k": args.k, "max_len": args.max_len},
    }
    return True, payload, "\n".join(words)


def _cmd_count(args):
    value = count_anti_power_sequences(args.alpha, args.k, args.n)
    payload = {
        "count": value,
        "inputs": {"alpha": args.alpha, "k": args.k, "n": args.n},
    }
    return True, payload, str(value)


def _cmd_exponent(args):
    word = validate_word(args.word)
    if not word:
        raise ValueError("the exponent of the empty word is undefined")
    value = max_exponent(word)
    payload = {
        "exponent": _fraction_str(value),
        "inputs": _word_echo(word),
    }
    return True, payload, _fraction_str(value)


def _cmd_find_power(args):
    word = validate_word(args.word)
    threshold = Fraction(args.threshold)
    occurrence = find_power_geq(word, threshold)
    verdict = occurrence is None
    payload = {
        "witness": None if occurrence is None else _occurrence_dict(occurrence, word),
        "inputs": {**_word_echo(word), "threshold": args.threshold},
    }
    if occurrence is None:
        human = f"none: no factor with exponent >= {args.threshold}"
    else:
        human = (
            f"found: {_fraction_str(occurrence.exponent)}-power "
            f"{occurrence.factor(word)!r} at {occurrence.start} "
            f"(period {occurrence.period}, span {occurrence.span})"
        )
    return verdict, payload, human


def build_parser() -> _Parser:
    parser = _Parser(prog="apw", description="Anti-power words and morphisms toolbox.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    p = add("check-word", _cmd_check_word, "check whether a word is a k-anti-power word")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--naive", action="store_true", help="use the brute-force checker")
    p.add_argument("--stdin", action="store_true", help="read the word from standard input")
    p.add_argument("word", nargs="?")

    p = add("check-morphism", _cmd_check_morphism, "decide a morphism property (k=2 square-free, k=3 anti-power)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--evidence", type=int, default=9, help="bounded-evidence word length (default 9)")
    p.add_argument("file")

    p = add("profile", _cmd_profile, "show structural flags of a morphism")
    p.add_argument("file")

    p = add("generate", _cmd_generate, "emit a prefix of the fixed point of a morphism")
    p.add_argument("file")
    p.add_argument("--start", required=True, metavar="LETTER")
    p.add_argument("--length", type=int, required=True)

    p = add("verify-prefix", _cmd_verify_prefix, "generate a fixed-point prefix and check it")
    p.add_argument("file")
    p.add_argument("--start", required=True, metavar="LETTER")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--naive", action="store_true")

    p = add("enumerate", _cmd_enumerate, "list all k-anti-power words up to a length")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)

    p = add("count", _cmd_count, "count (k,n)-anti-power sequences over alpha letters")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("exponent", _cmd_exponent, "print the critical exponent of a word")
    p.add_argument("word")

    p = add("find-power", _cmd_find_power, "find a factor with exponent >= threshold")
    p.add_argument("--threshold", required=True, metavar="P/Q")
    p.add_argument("word")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    start = time.monotonic()
    try:
        verdict, payload, human = args.handler(args)
    except MorphismParseError as exc:
        print(f"apw: parse error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"apw: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"apw: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # A fault in apw itself must not exit 1, which reads as a "no" verdict.
        traceback.print_exc()
        print(f"apw: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    elapsed_ms = round((time.monotonic() - start) * 1000.0, 3)
    if args.json:
        report = {"command": args.command, "verdict": verdict}
        report.update(payload)
        report["timing_ms"] = elapsed_ms
        print(json.dumps(report, sort_keys=True))
    else:
        print(human)
    return _exit_code(verdict)


if __name__ == "__main__":
    sys.exit(main())
