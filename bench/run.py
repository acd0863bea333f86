"""The apw benchmark: one command, seeded workloads, every answer checked.

    python3 bench/run.py --workload long-words --seed 1 --seconds 50 --trace 0

Workloads are ``cli-readme``, ``long-words`` and ``morphism-decide`` (see
``workloads.py`` for what each runs and why).  ``BENCHMARK.json`` gates the
first two.  ``morphism-decide`` runs on request only: on a shared host its
pure-Python run time swings too far from run to run to gate (see
``STEADINESS.md``).  The load is a closed loop
with one client: one benchmark process, no threads, and for
``cli-readme`` one ``python -m apw`` child process at a time.  Ops run in
rounds; a round is every op of the workload in a seeded order, and rounds
repeat until ``--seconds`` have passed and at least 100 ops have run, so
the 90th percentile always has 10 samples beyond it.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
fresh processes that import apw and build the inputs, run PROBES_PER_ROUND
after each round (and at least SETUP_PROBES in all), so they meet the host
over the whole run as the ops do; their time is left out of the ops' wall
time.

``--trace 1`` runs one untraced round, then one round with every public
library function wrapped (``spans.py``), and prints the per-layer metrics;
spans are written to ``bench/out/``.  Answers are checked after the timed phase by ``gate.py``,
which shares no code with the library.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import spans as sp
import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_SAMPLES = 100
SETUP_PROBES = 15
PROBES_PER_ROUND = 3
ACCOUNTED_TOLERANCE = 0.01  # layer self times plus time between ops must cover the traced wall within 1%

SETUP_PROBE = (
    "import sys, pathlib; root = pathlib.Path(sys.argv[1]); "
    "sys.path[:0] = [str(root / 'src'), str(root / 'bench')]; "
    "import workloads; workloads.build(sys.argv[2], int(sys.argv[3]), root)"
)


@dataclass
class Record:
    op: object
    latency: float
    result: object = None
    error: Optional[str] = None
    peak_rss_mb: float = 0.0  # of the op's child process, if it ran one


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def timed_child(args: List[str], stdin: str = "") -> tuple:
    """(seconds, exit code, stdout, peak RSS in MB) of one child python process, run to completion.

    The child is reaped with ``os.wait4``, so its own peak RSS is known and the
    setup probes do not mix into the CLI commands' figure.  ``stdin`` is written
    whole before stdout is read, so it must fit in a pipe buffer (64 KiB on
    Linux); the longest here is 2401 letters.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        with proc.stdin:
            proc.stdin.write(stdin.encode())
    except BrokenPipeError:  # the child exited without reading its input
        pass
    with proc.stdout:
        out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen never waits on it
    return time.perf_counter() - start, proc.returncode, out, usage.ru_maxrss / 1024.0


def cli_in_process(apw, argv: List[str], stdin: Optional[str], tracer) -> tuple:
    """(exit code, stdout) of ``apw.cli.main(argv)`` run inside this process."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    index = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                index = tracer.open("cli.main")
            try:
                code = apw.cli.main(argv)
            finally:
                if index is not None:
                    tracer.close(index)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def execute(apw, op, tracer=None, in_process: bool = False) -> Record:
    """Run one op; ``apw`` commands run as a child process unless ``in_process``."""
    start = time.perf_counter()
    root_span = None
    rss = 0.0
    try:
        stdin = op.stdin() if op.stdin else ""
        if tracer is not None:
            tracer.op = op.kind
            root_span = tracer.open(f"op.{op.kind}")
        if op.argv is None:
            result = op.call()
        elif in_process:
            result = cli_in_process(apw, op.argv, stdin, tracer)
        else:
            _, code, out, rss = timed_child(["-m", "apw", *op.argv], stdin)
            result = (code, out)
    except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
        return Record(op, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    finally:
        if root_span is not None:
            tracer.close(root_span)
    op.last = result
    return Record(op, time.perf_counter() - start, result, peak_rss_mb=rss)


def run_rounds(apw, workload, seconds: float = 0.0, rounds: Optional[int] = None, tracer=None,
               in_process: bool = False, between: Optional[Callable[[], None]] = None) -> tuple:
    """Whole rounds: ``rounds`` of them, or until ``seconds`` and MIN_SAMPLES ops are both reached.

    ``between`` runs after each round; its time is left out of the wall time.
    """
    records: List[Record] = []
    start = time.perf_counter()
    paused = 0.0
    index = 0

    def wall() -> float:
        return time.perf_counter() - start - paused

    def done() -> bool:
        if rounds is not None:
            return index >= rounds
        return wall() >= seconds and len(records) >= MIN_SAMPLES

    while not done():
        for op in workload.round_order(index):
            records.append(execute(apw, op, tracer, in_process))
        index += 1
        if between is not None:
            mark = time.perf_counter()
            between()
            paused += time.perf_counter() - mark
    return records, wall(), index


def check_answers(records: List[Record], workload) -> tuple:
    """(failed op count, gate errors, first messages) after the timed phase."""
    failed = 0
    messages = []
    for record in records:
        problem = record.error or record.op.check(record.result)
        if problem:
            failed += 1
            messages.append(f"{record.op.kind}: {problem}")
    gate_errors = [e for e in (check() for check in workload.extra_checks) if e]
    return failed, gate_errors, messages[:5] + gate_errors


def end_to_end(apw, workload, seconds: float) -> tuple:
    probes = []

    def setup_probes(count: int = PROBES_PER_ROUND) -> None:
        """Time fresh processes that import apw and build the inputs."""
        for _ in range(count):
            probes.append(timed_child(["-c", SETUP_PROBE, str(ROOT), workload.name, str(workload.seed)])[:2])

    records, wall, rounds = run_rounds(apw, workload, seconds, between=setup_probes)
    setup_probes(SETUP_PROBES - len(probes))
    setup_s = statistics.median(elapsed for elapsed, _ in probes)
    probe_failures = [code for _, code in probes if code != 0]
    if workload.name == "cli-readme":
        peak_rss_mb = max(r.peak_rss_mb for r in records)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies = [r.latency for r in records]
    level = stats.tail_level(len(latencies))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / wall, "1/s"),
        "op_p50_ms": (stats.percentile(latencies, 50) * 1000.0, "ms"),
        "op_p90_ms": (stats.percentile(latencies, level) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    letter_ops = [r for r in records if r.op.letters]
    if letter_ops:
        print(f"letters_per_s = {sum(r.op.letters for r in letter_ops) / sum(r.latency for r in letter_ops):.6g} 1/s")
    enum_ops = [r for r in records if r.op.enumerates and r.error is None]
    if enum_ops:
        print(f"enum_words_per_s = {sum(len(r.result) for r in enum_ops) / sum(r.latency for r in enum_ops):.6g} 1/s")
    print(f"samples = {len(records)} in {rounds} rounds over {wall:.2f} s; op_p90_ms is the p{level}; "
          f"setup_s is the median of {len(probes)} probes")
    started = time.perf_counter()
    failed, gate_errors, messages = check_answers(records, workload)
    print(f"answers checked in {time.perf_counter() - started:.2f} s")
    if probe_failures:
        gate_errors.append(f"setup probe exited with {probe_failures}")
        messages.append(gate_errors[-1])
    return records, failed, gate_errors, messages, metrics


def per_layer(apw, workload_name: str, seed: int) -> tuple:
    import workloads

    tracer = sp.Tracer()
    tracer.install(apw)
    try:
        tracer.op = "setup"
        index = tracer.open("setup")
        workload = workloads.build(workload_name, seed, ROOT)
        tracer.close(index)
    finally:
        tracer.uninstall()
    # Both rounds run apw commands inside this process, so the ratio of
    # their wall times is the cost of tracing alone.
    plain, plain_wall, _ = run_rounds(apw, workload, rounds=1, in_process=True)
    tracer.install(apw)
    try:
        start_span = len(tracer.spans)
        traced, traced_wall, _ = run_rounds(apw, workload, rounds=1, tracer=tracer, in_process=True)
    finally:
        tracer.uninstall()

    spans = tracer.spans
    own_all = sp.self_times(spans)
    totals = sp.layer_totals(spans, own_all)
    counts = tracer.counts

    round_spans = spans[start_span:]
    own = own_all[start_span:]
    layer_self, between_ops = sp.accounted(round_spans, own, traced_wall)
    accounted = (layer_self + between_ops) / traced_wall

    def total(name: str) -> float:
        return totals.get(name, 0.0)

    checks = counts["antipower.check.short.calls"] + counts["antipower.check.long.calls"]
    words = counts["antipower.enumerate.yields"]
    candidates = sp.count_within(spans, "antipower.check.", "antipower.enumerate")
    long_self = total("antipower.check.long")
    cli_self = [t * 1000.0 for s, t in zip(spans, own_all) if s.name == "cli.main"]
    interpreter = statistics.median(timed_child(["-c", "pass"])[0] for _ in range(SETUP_PROBES))
    with_import = statistics.median(timed_child(["-c", "import apw"])[0] for _ in range(SETUP_PROBES))

    metrics = {
        "antipower.check.short.calls": (counts["antipower.check.short.calls"], "count"),
        "antipower.check.short.self_s": (total("antipower.check.short"), "s"),
        "antipower.check.long.calls": (counts["antipower.check.long.calls"], "count"),
        "antipower.check.long.self_s": (long_self, "s"),
        "antipower.check.long.letters_per_s": (
            counts["antipower.check.long.letters"] / long_self if long_self else 0.0, "1/s"),
        "antipower.check.no_ratio": (counts["antipower.check.no"] / checks if checks else 0.0, "ratio"),
        "antipower.enumerate.self_s": (total("antipower.enumerate"), "s"),
        "antipower.enumerate.words": (words, "count"),
        "antipower.enumerate.candidate_checks": (candidates, "count"),
        "antipower.enumerate.yield_ratio": (words / candidates if candidates else 0.0, "ratio"),
    }
    for layer in (
        "words.max_exponent", "words.find_square", "words.find_power_geq", "words.is_k_power_free",
        "morphisms.apply", "morphisms.fixed_point_prefix", "morphisms.load_morphism",
        "decide.decide_3_anti_power", "decide.test_square_free_morphism", "decide.anti_power_up_to",
    ):
        metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_s"] = (total(layer), "s")
    metrics["morphisms.apply.letters_out"] = (counts["morphisms.apply.letters_out"], "count")
    metrics["decide.images_scanned"] = (sp.count_within(spans, "morphisms.apply", "decide."), "count")
    for verdict in ("yes", "no", "inconclusive"):
        metrics[f"decide.verdicts.{verdict}"] = (counts[f"decide.verdicts.{verdict}"], "count")
    metrics["cli.interpreter_ms"] = (interpreter * 1000.0, "ms")
    metrics["cli.import_ms"] = ((with_import - interpreter) * 1000.0, "ms")
    metrics["cli.main.self_ms"] = (statistics.median(cli_self) if cli_self else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics["trace.accounted_ratio"] = (accounted, "ratio")

    print(f"traced round {traced_wall:.3f} s, untraced round {plain_wall:.3f} s")
    print(f"trace adds up within {ACCOUNTED_TOLERANCE:.0%}: {'yes' if abs(accounted - 1) <= ACCOUNTED_TOLERANCE else 'NO'}"
          f" (layers {layer_self:.3f} s + between ops {between_ops:.3f} s of {traced_wall:.3f} s; "
          f"untraced code inside ops {traced_wall - layer_self - between_ops:.4f} s)")
    shares = {}
    for s, t in zip(round_spans, own):
        if s.parent is not None:
            shares[s.name] = shares.get(s.name, 0.0) + t
    for name, t in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"  self share {t / traced_wall:7.2%}  {name}")
    print(f"  self share {between_ops / traced_wall:7.2%}  benchmark (between ops)")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload_name}-{seed}.jsonl", "w", encoding="utf-8") as handle:
        for i, s in enumerate(spans):
            handle.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")

    records = plain + traced
    failed, gate_errors, messages = check_answers(records, workload)
    return records, failed, gate_errors, messages, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "apw" / "__init__.py").is_file() or not (ROOT / "data" / "h.mor").is_file():
        print(f"bench: {ROOT} is not an apw checkout (src/apw and data/h.mor are required)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import apw
    import apw.cli
    import numpy
    import workloads

    if Path(apw.__file__).resolve().parent != SRC / "apw":
        print(f"bench: imported apw from {apw.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    children = "one python -m apw child at a time" if args.workload == "cli-readme" else "no children"
    print(f"# apw benchmark workload={args.workload} seed={args.seed} trace={args.trace}; "
          f"closed loop, 1 client, 1 process, no threads, {children}; "
          f"machine={platform.machine()} cpus={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    if args.trace:
        records, failed, gate_errors, messages, metrics = per_layer(apw, args.workload, args.seed)
    else:
        workload = workloads.build(args.workload, args.seed, ROOT)
        records, failed, gate_errors, messages, metrics = end_to_end(apw, workload, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    for message in messages:
        print(f"FAIL {message}", file=sys.stderr)
    report = {
        "correct": failed == 0 and not gate_errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
