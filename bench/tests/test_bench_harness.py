"""Tests of the benchmark harness itself: inputs, percentiles, spans and the gate."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import apw  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _inputs(name, seed):
    w = workloads.build(name, seed, ROOT)
    order = [op.kind + repr(op.argv) for op in w.round_order(0)]
    return json.dumps(w.inputs, sort_keys=True), order


def test_inputs_are_seed_deterministic():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 7) == _inputs(name, 7)
    lw7 = workloads.build("long-words", 7, ROOT).inputs
    lw8 = workloads.build("long-words", 8, ROOT).inputs
    assert lw7["unplanted"] != lw8["unplanted"]
    assert [p[:2] for p in lw7["planted"]] != [p[:2] for p in lw8["planted"]]
    md7 = workloads.build("morphism-decide", 7, ROOT).inputs
    md8 = workloads.build("morphism-decide", 8, ROOT).inputs
    assert md7["conjugates"] != md8["conjugates"]
    assert md7["mutants"] != md8["mutants"]
    offsets = {workloads.build("cli-readme", seed, ROOT).inputs["offset"] for seed in range(5)}
    assert len(offsets) > 1


def test_planted_factors_hold_a_square_of_the_planted_block():
    w = workloads.build("long-words", 3, ROOT)
    planted = [op for op in w.ops if op.kind == "check.k2.planted"]
    assert len(planted) == workloads.PLANTED
    for op in planted:
        assert op.check(op.call()) is None


def test_tail_level_keeps_ten_samples_beyond():
    assert stats.tail_level(100) == 90
    assert stats.tail_level(1000) == 90
    assert stats.tail_level(99) == 90
    assert stats.tail_level(91) == 89
    assert stats.tail_level(20) == 52
    assert stats.tail_level(19) is None
    for n in range(20, 300):
        xs = list(range(n))
        q = stats.tail_level(n)

        def beyond(level):
            return sum(1 for x in xs if x > stats.percentile(xs, level))

        assert beyond(q) >= 10
        assert q == 90 or beyond(q + 1) < 10


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50.5
    assert stats.percentile(xs, 90) == 90.1
    assert stats.percentile([3.0], 90) == 3.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == 1.0  # quartiles 1.5 and 4.5


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = Clock()
    tracer = spans.Tracer(clock)
    a = tracer.open("a")
    clock.now = 1
    b = tracer.open("b")
    clock.now = 3
    tracer.close(b)
    clock.now = 4
    c = tracer.open("c")
    clock.now = 5
    d = tracer.open("d")
    clock.now = 5.5
    tracer.close(d)
    tracer.close(c)
    clock.now = 10
    tracer.close(a)
    # a: 0..10 with children b (1..3) and c (4..5.5); c holds d (5..5.5)
    assert spans.self_times(tracer.spans) == [6.5, 2.0, 1.0, 0.5]
    assert spans.layer_totals(tracer.spans) == {"a": 6.5, "b": 2.0, "c": 1.0, "d": 0.5}


def test_accounted_time_misses_work_no_layer_covers():
    clock = Clock()
    tracer = spans.Tracer(clock)
    covered = tracer.open("op.covered")  # 0..4, all of it inside a layer
    layer = tracer.open("words.find_square")
    clock.now = 4
    tracer.close(layer)
    tracer.close(covered)
    clock.now = 5  # the benchmark's own second between ops
    bare = tracer.open("op.bare")  # 5..8, one second of it in a layer
    layer = tracer.open("words.max_exponent")
    clock.now = 6
    tracer.close(layer)
    clock.now = 8
    tracer.close(bare)
    own = spans.self_times(tracer.spans)
    assert spans.accounted(tracer.spans, own, 8.0) == (5.0, 1.0)  # 2 s of op.bare is unaccounted


def test_generator_span_counts_time_inside_between_yields():
    clock = Clock()
    tracer = spans.Tracer(clock)

    def inner(word):
        clock.now += 0.5
        return None

    wrapped_inner = tracer.wrap("antipower", "check_k_anti_power", inner)

    def generate(alphabet, k, max_len):
        clock.now += 1
        wrapped_inner("ab")
        yield "a"
        clock.now += 2
        yield "b"

    wrapped = tracer.wrap("antipower", "enumerate_k_anti_power", generate)
    outer = tracer.open("decide.caller")
    for _ in wrapped("ab", 2, 2):
        clock.now += 10  # the consumer's own work is not the generator's
    tracer.close(outer)
    totals = spans.layer_totals(tracer.spans)
    assert totals["antipower.enumerate"] == 3.0
    assert totals["antipower.check.short"] == 0.5
    assert totals["decide.caller"] == 20.0
    assert tracer.counts["antipower.enumerate.calls"] == 1
    assert tracer.counts["antipower.enumerate.yields"] == 2
    assert spans.count_within(tracer.spans, "antipower.check.", "antipower.enumerate") == 1


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import apw.decide

    original = apw.check_k_anti_power
    tracer = spans.Tracer()
    tracer.install(apw)
    try:
        assert apw.decide.check_k_anti_power is not original
        assert apw.antipower.check_k_anti_power is not original
        f = apw.parse_morphism("a -> abc\nb -> acb\nc -> bca\n")
        apw.decide_3_anti_power(f)
    finally:
        tracer.uninstall()
    assert apw.check_k_anti_power is original and apw.decide.check_k_anti_power is original
    assert tracer.counts["decide.decide_3_anti_power.calls"] == 1
    assert spans.count_within(tracer.spans, "antipower.check.", "decide.") > 0
    assert spans.count_within(tracer.spans, "morphisms.apply", "decide.") > 0


def test_gate_fails_on_a_wrong_anti_power_answer(monkeypatch):
    w = workloads.build("long-words", 1, ROOT)
    monkeypatch.setattr(apw, "check_k_anti_power", lambda word, k: None)
    records = [run.execute(apw, op) for op in w.ops if op.kind in ("check.k2.planted", "check.k4")]
    failed, gate_errors, messages = run.check_answers(records, w)
    assert failed == len(records)
    assert any("naive" in e for e in gate_errors)
    assert "no violation reported" in messages[0]


def test_gate_fails_on_a_wrong_morphism_verdict():
    rules = ("abc", {"a": "aab", "b": "bca", "c": "cab"})  # image of a holds a square
    f = apw.Morphism(apw.Alphabet("abc"), apw.Alphabet("abc"), dict(rules[1]))
    assert not gate.square_free_morphism(rules)
    said_yes = SimpleNamespace(verdict="yes", certificate={"method": "fake"}, witness=None)
    assert gate.morphism_decision_error(rules, f, said_yes, "no") == "said yes, expected no"
    bogus = apw.MorphismWitness(word="b", square=SimpleNamespace(start=1, period=1, span=2, verify=lambda w: True))
    said_no = SimpleNamespace(verdict="no", certificate=None, witness=bogus)
    assert "does not re-verify" in gate.morphism_decision_error(rules, f, said_no, "no")
    right = apw.test_square_free_morphism(f)
    assert gate.morphism_decision_error(rules, f, right, "no") is None


def test_gate_fails_on_a_wrong_cli_answer():
    check = workloads._cli_expect(0, plain="24")
    assert check((0, "24\n")) is None
    assert "exit code" in check((1, "24\n"))
    assert "stdout" in check((0, "25\n"))


def test_gate_enumeration_matches_known_counts():
    assert gate.anti_power_words("ab", 2, 5) == ["", "a", "b", "ab", "ba", "aba", "bab"]
    assert gate.anti_power_words("abc", 3, 12) == list(apw.enumerate_k_anti_power("abc", 3, 12))
