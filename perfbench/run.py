"""Benchmark of the revprime CLI: end-to-end times and a traced per-module run.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Every workload is a closed loop: one client in this process calls
``revprime.cli.main`` for one op after another until ``--seconds`` have
passed, and runs at least one op.  The workloads (see BENCHMARK.json for
why each was chosen):

- ``census``: two census commands, base 2 (L = 20, 22, 24) and base 10
  (L = 6, 7), threads=1, sieve cache off.  The seed does not change them.
- ``verify``: ``verify`` over all 13 suites, threads=1, ``--seed <seed>``.
- ``verify-t2``: the same with ``--threads 2``; its records must equal a
  threads=1 run at the same seed.  It is the only path through the
  verify thread pool.  BENCHMARK.json leaves it out so that its run
  budget buys longer runs of the other two; run it by hand to compare
  threads against one thread.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-module metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds diagnostics (host,
reference probe, per-op walls, spans file).  ``--write-reference``
regenerates ``perfbench/reference.json`` from the current program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from checks import (
    census_problems,
    census_rows,
    digest,
    string_reversal_counts,
    verify_problems,
    verify_records,
)
from spans import SPAN_END, SPAN_GROUP, SPAN_NAME, SPAN_OP, SPAN_START, SPAN_WORK, Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

CENSUS_COMMANDS = (
    ("census", "--g", "2", "--L", "20,22,24", "--q", "3,5,7",
     "--sieve-limit", "16777216", "--threads", "1"),
    ("census", "--g", "10", "--L", "6,7", "--q", "3,7,9,11,13,37,41",
     "--sieve-limit", "10000000", "--threads", "1"),
)
SUITES = (
    "product-formula", "linf", "l1-moment", "psi", "vdc", "sin-sum", "truncation",
    "vaughan", "monotonicity", "type-i", "type-ii", "prime-exp-sum", "hybrid",
)
# suites whose reports do not depend on --seed
SEED_INDEPENDENT = ("truncation", "vaughan", "type-i", "type-ii", "prime-exp-sum", "hybrid")
SEED_DEPENDENT = tuple(s for s in SUITES if s not in SEED_INDEPENDENT)

SETUP_REPEATS = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import revprime.cli; "
    "print(time.perf_counter() - t)"
)


# --- the traced run: which names to wrap, and the metrics they give -------

def _limit(args, kwargs):
    return args[0] if args else kwargs["limit"]


def _direct_terms(args, kwargs):
    es, lam = args[0], args[1]
    return es.ctx.g**lam


def _l1_points(args, kwargs):
    es, lam, _j, k, delta, a = args[:6]
    step = k * es.ctx.g**delta
    return len(range(a % step, es.ctx.g**lam, step))


_EXPSUM_OTHER = (
    "sigma", "theta_i", "eta_tilde", "gamma_upper_bound", "expsum_context",
    "make_report", "hybrid_bound_shape",
)
_PRIMESUM = (
    "type_i_sum", "type_ii_sum", "prime_exp_sum", "truncation_set_size",
    "vdc_lhs_rhs", "sin_sum_check",
)

# (module, attribute, kind, group, label, work): the names each caller
# imported from the next module, wrapped where the caller looks them up
PLAN = (
    ("revprime.cli", "build_table", "timed", "arith.build_table", None, _limit),
    ("revprime.cli", "census_grid", "timed", "revcount.census_grid",
     lambda a, k: f"g{a[0]}", None),
    ("revprime.cli", "run_suite", "timed", "verify.suite", lambda a, k: a[0], None),
    # 1.35M calls per census op: counted, not timed, so the wrapper's own
    # cost stays out of the reversal time
    ("revprime.revcount", "reverse", "counted", "basedigits.reverse", None, None),
    ("revprime.verify", "_map_cells", "adopt", None, None, None),
    ("revprime.verify", "build_table", "timed", "arith.build_table", None, _limit),
    ("revprime.verify", "vaughan_terms", "timed", "arith.vaughan_terms", None, None),
    ("revprime.verify", "mangoldt_tail", "timed", "arith.mangoldt_tail", None, None),
    ("revprime.verify", "mobius_mangoldt_window", "timed",
     "arith.mobius_mangoldt_window", None, None),
    ("revprime.verify", "F_direct", "timed", "expsum.F_direct", None, _direct_terms),
    ("revprime.verify", "l1_moment", "timed", "expsum.l1_moment", None, _l1_points),
    ("revprime.verify", "l1_moment_bound", "timed", "expsum.l1_moment_bound", None, None),
    ("revprime.verify", "psi", "timed", "expsum.psi", None, None),
    ("revprime.verify", "hybrid_sum", "timed", "expsum.hybrid_sum", None, None),
    ("revprime.verify", "F_abs_product", "timed", "expsum.F_abs_product", None, None),
    *(("revprime.verify", n, "timed", "expsum.other", None, None) for n in _EXPSUM_OTHER),
    *(("revprime.verify", n, "timed", f"primesum.{n}", None, None) for n in _PRIMESUM),
)

# per-layer metric -> (unit, better, span groups or counters it is built from)
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "revcount.census_grid.g2.s": ("s", "lower", ("revcount.census_grid",)),
    "revcount.census_grid.g10.s": ("s", "lower", ("revcount.census_grid",)),
    "revcount.census_grid.calls": ("count", "lower", ("revcount.census_grid",)),
    "revcount.primes_per_s": ("1/s", "higher", ("revcount.census_grid", "basedigits.reverse")),
    "basedigits.reverse.calls": ("count", "lower", ("basedigits.reverse",)),
    "arith.build_table.s": ("s", "lower", ("arith.build_table",)),
    "arith.build_table.calls": ("count", "lower", ("arith.build_table",)),
    "arith.sieve.n_per_s": ("1/s", "higher", ("arith.build_table",)),
    **{
        f"arith.{n}.{k}": (u, "lower", (f"arith.{n}",))
        for n in ("vaughan_terms", "mangoldt_tail", "mobius_mangoldt_window")
        for k, u in (("s", "s"), ("calls", "count"))
    },
    "expsum.F_direct.s": ("s", "lower", ("expsum.F_direct",)),
    "expsum.F_direct.calls": ("count", "lower", ("expsum.F_direct",)),
    "expsum.F_direct.terms_per_s": ("1/s", "higher", ("expsum.F_direct",)),
    "expsum.l1_moment.s": ("s", "lower", ("expsum.l1_moment",)),
    "expsum.l1_moment.calls": ("count", "lower", ("expsum.l1_moment",)),
    "expsum.l1_moment.points_per_s": ("1/s", "higher", ("expsum.l1_moment",)),
    "expsum.l1_moment_bound.s": ("s", "lower", ("expsum.l1_moment_bound",)),
    **{
        f"expsum.{n}.{k}": (u, "lower", (f"expsum.{n}",))
        for n in ("psi", "hybrid_sum", "F_abs_product")
        for k, u in (("s", "s"), ("calls", "count"))
    },
    "expsum.other.s": ("s", "lower", ("expsum.other",)),
    **{f"primesum.{n}.s": ("s", "lower", (f"primesum.{n}",)) for n in _PRIMESUM},
    **{f"verify.suite.{n}.s": ("s", "lower", ("verify.suite",)) for n in SUITES},
    "verify.self_s": ("s", "lower", ("verify.suite",)),
    "verify.reports": ("count", "higher", ()),
    "verify.failed_reports": ("count", "lower", ()),
    "cli.self_s": ("s", "lower", ()),
    "cli.report_bytes": ("bytes", "lower", ()),
    "fail_ratio": ("ratio", "lower", ()),
    "probe.s": ("s", "lower", ()),
    "trace.wall_s": ("s", "lower", ()),
    "trace.untraced_wall_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.self_sum_s": ("s", "lower", ()),
}

# --- ops ----------------------------------------------------------------

@dataclass
class Op:
    wall: float = 0.0
    problems: list[str] = field(default_factory=list)
    records: dict = field(default_factory=dict)
    report_bytes: int = 0
    reports: int = 0
    failed_reports: int = 0
    traced: bool = False


def run_command(call, argv: list[str], out: str, op: Op) -> str | None:
    """Run one CLI command into out; add its wall time to op.

    Returns the text written, or None after recording why the command
    failed (it raised, exited non-zero, or wrote nothing).
    """
    if os.path.exists(out):
        os.unlink(out)
    start = time.perf_counter()
    try:
        rc = call([*argv, "--out", out])
    except Exception:
        op.wall += time.perf_counter() - start
        op.problems.append(f"{argv[0]} raised: {traceback.format_exc(limit=3)}")
        return None
    op.wall += time.perf_counter() - start
    if rc != 0:
        op.problems.append(f"{' '.join(argv[:3])}: exit code {rc}")
    try:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        op.problems.append(f"{argv[0]} wrote no report: {exc}")
        return None
    op.report_bytes += len(text.encode())
    return text


def census_op(call, out_dir: str, reference: dict, recount: dict) -> Op:
    op = Op()
    for i, argv in enumerate(CENSUS_COMMANDS):
        text = run_command(call, list(argv), os.path.join(out_dir, f"census{i}.csv"), op)
        if text is not None:
            op.problems += census_problems(text, reference["census"][i], recount)
    return op


def verify_op(
    call, out_dir: str, seed: int, threads: int, expected: dict,
    suites: tuple[str, ...] = SUITES,
) -> Op:
    op = Op()
    argv = ["verify", *suites, "--seed", str(seed), "--threads", str(threads)]
    text = run_command(call, argv, os.path.join(out_dir, f"verify-t{threads}.jsonl"), op)
    if text is None:
        return op
    try:
        op.records, op.failed_reports = verify_records(text)
    except (ValueError, KeyError) as exc:
        op.problems.append(f"unreadable verify output: {exc}")
        return op
    op.reports = sum(count for count, _ in op.records.values())
    op.problems += verify_problems(op.records, op.failed_reports, suites, expected)
    return op


def verify_expected(reference: dict, seed: int) -> dict:
    """Reference records a verify op at this seed must reproduce."""
    if seed == reference["seed"]:
        return reference["verify"]
    return {n: reference["verify"][n] for n in SEED_INDEPENDENT}


@dataclass
class Workload:
    threads: int = 1
    census: bool = False


WORKLOADS = {
    "census": Workload(census=True),
    "verify": Workload(threads=1),
    "verify-t2": Workload(threads=2),
}


# --- measurement ----------------------------------------------------------

def import_cli():
    """revprime.cli from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import revprime.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"revprime imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds to import revprime.cli in a fresh interpreter, repeats times."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REVPRIME_CACHE_DIR", None)
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def reference_probe(repeats: int = 3) -> float:
    """Median seconds of a fixed Python-loop plus numpy task.

    It never changes with the program, so its spread across runs is the
    host's speed drift: compare it across runs before blaming the code.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc * 31 + i) % 1_000_003
        values = np.random.default_rng(acc).random(1_000_000)
        np.sort(values)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "census_sieve_limits": [int(c[c.index("--sieve-limit") + 1]) for c in CENSUS_COMMANDS],
    }


def _duration(spans) -> float:
    return sum(s[SPAN_END] - s[SPAN_START] for s in spans)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_values(spans: list[tuple], selfs: dict, reverse_calls: int, op: Op) -> dict:
    """Per-layer metrics of one traced op from its spans and counters."""
    groups = defaultdict(list)
    for s in spans:
        groups[s[SPAN_GROUP]].append(s)
    names = defaultdict(list)
    for s in spans:
        names[s[SPAN_NAME]].append(s)

    def self_of(group):
        return sum(selfs[s[0]] for s in groups[group])

    grid = _duration(groups["revcount.census_grid"])
    sieve = groups["arith.build_table"]
    direct = groups["expsum.F_direct"]
    l1 = groups["expsum.l1_moment"]
    values = {
        "revcount.census_grid.g2.s": _duration(names["revcount.census_grid.g2"]),
        "revcount.census_grid.g10.s": _duration(names["revcount.census_grid.g10"]),
        "revcount.census_grid.calls": len(groups["revcount.census_grid"]),
        "revcount.primes_per_s": _rate(reverse_calls, grid),
        "basedigits.reverse.calls": reverse_calls,
        "arith.build_table.s": _duration(sieve),
        "arith.build_table.calls": len(sieve),
        "arith.sieve.n_per_s": _rate(sum(s[SPAN_WORK] or 0 for s in sieve), _duration(sieve)),
        "expsum.F_direct.terms_per_s": _rate(
            sum(s[SPAN_WORK] or 0 for s in direct), _duration(direct)
        ),
        "expsum.l1_moment.points_per_s": _rate(sum(s[SPAN_WORK] or 0 for s in l1), _duration(l1)),
        "expsum.l1_moment_bound.s": _duration(groups["expsum.l1_moment_bound"]),
        "expsum.other.s": _duration(groups["expsum.other"]),
        "verify.self_s": self_of("verify.suite"),
        "verify.reports": op.reports,
        "verify.failed_reports": op.failed_reports,
        "cli.self_s": self_of("cli"),
        "cli.report_bytes": op.report_bytes,
        "trace.wall_s": op.wall,
        "trace.self_sum_s": sum(selfs[s[0]] for s in spans),
    }
    for group in (
        "arith.vaughan_terms", "arith.mangoldt_tail", "arith.mobius_mangoldt_window",
        "expsum.F_direct", "expsum.l1_moment", "expsum.psi", "expsum.hybrid_sum",
        "expsum.F_abs_product",
    ):
        values[f"{group}.s"] = _duration(groups[group])
        values[f"{group}.calls"] = len(groups[group])
    for n in _PRIMESUM:
        values[f"primesum.{n}.s"] = _duration(groups[f"primesum.{n}"])
    for n in SUITES:
        values[f"verify.suite.{n}.s"] = _duration(names[f"verify.suite.{n}"])
    return values


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> int:
    try:
        cli = import_cli()
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (ImportError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: cannot start: {exc}\n")
        return 2
    # no persisted sieve cache: every op builds its sieve, as the CLI does by default
    os.environ.pop("REVPRIME_CACHE_DIR", None)
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    probe_s = reference_probe()
    setup = measure_setup()
    recount = string_reversal_counts() if workload.census else None
    expected = verify_expected(reference, args.seed)
    tracer = Tracer()

    def one_op(call) -> Op:
        if workload.census:
            return census_op(call, OUT_DIR, reference, recount)
        return verify_op(call, OUT_DIR, args.seed, workload.threads, expected)

    ops: list[Op] = []
    reverse_counts: dict[int, int] = {}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            tracer.install(PLAN)
            tracer.take_count("basedigits.reverse")
            try:
                op = one_op(lambda argv: tracer.span("cli", cli.main, argv))
            finally:
                tracer.uninstall()
            reverse_counts[len(ops)] = tracer.take_count("basedigits.reverse")
        else:
            op = one_op(cli.main)
        op.traced = traced
        ops.append(op)
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or any(o.traced for o in ops)):
            break

    if workload.threads > 1:
        # records under threads must equal a threads=1 run at the same seed
        base = verify_op(cli.main, OUT_DIR, args.seed, 1, {}, SEED_DEPENDENT)
        for op in ops:
            if base.problems:
                op.problems.append("threads=1 comparison run failed: " + "; ".join(base.problems))
            op.problems += verify_problems(
                {n: op.records[n] for n in SEED_DEPENDENT if n in op.records},
                0, SEED_DEPENDENT, base.records,
            )

    attempted = len(ops)
    failed = sum(1 for op in ops if op.problems)
    for i, op in enumerate(ops):
        for problem in op.problems[:5]:
            sys.stderr.write(f"perfbench: op {i} failed: {problem}\n")

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "probe_s": probe_s,
        "setup_samples_s": setup,
        "op_walls_s": [op.wall for op in ops],
        "traced": [op.traced for op in ops],
    }
    if args.trace:
        metrics = traced_metrics(tracer, ops, reverse_counts, probe_s, attempted, failed)
        diagnostics["absent"] = tracer.absent
        diagnostics["spans_file"] = write_spans(tracer, args.workload)
    else:
        walls = [op.wall for op in ops]
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "op_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
            ),
            "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def traced_metrics(tracer, ops, reverse_counts, probe_s, attempted, failed) -> dict:
    selfs = self_times(tracer.spans)
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s[SPAN_OP]].append(s)
    per_op = [
        layer_values(by_op[i], selfs, reverse_counts[i], op)
        for i, op in enumerate(ops)
        if op.traced
    ]
    untraced = statistics.median(op.wall for op in ops if not op.traced)
    present = {g for m, a, _kind, g, *_ in PLAN if f"{m}.{a}" not in tracer.absent}
    metrics = {}
    for name, (unit, _better, sources) in LAYER_METRICS.items():
        if any(g not in present for g in sources):
            continue
        if name in per_op[0]:
            metrics[name] = _metric(statistics.median(v[name] for v in per_op), unit)
    traced_wall = metrics["trace.wall_s"]["value"]
    metrics["trace.untraced_wall_s"] = _metric(untraced, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced, "s")
    metrics["fail_ratio"] = _metric(failed / attempted, "ratio")
    metrics["probe.s"] = _metric(probe_s, "s")
    return {name: metrics[name] for name in LAYER_METRICS if name in metrics}


def write_spans(tracer: Tracer, workload: str) -> str:
    """All spans of the run, one JSON array per line:
    [id, parent, group, name, start, end, op, work]."""
    path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in tracer.spans)
    return os.path.relpath(path, ROOT)


def write_reference() -> int:
    """Record this program's outputs as the reference the checks compare to."""
    cli = import_cli()
    from revprime.config import DEFAULT_RNG_SEED

    os.makedirs(OUT_DIR, exist_ok=True)
    census = []
    for i, argv in enumerate(CENSUS_COMMANDS):
        op = Op()
        text = run_command(cli.main, list(argv), os.path.join(OUT_DIR, f"census{i}.csv"), op)
        if op.problems:
            raise SystemExit("; ".join(op.problems))
        census.append(digest(census_rows(text)[1]))
    op = verify_op(cli.main, OUT_DIR, DEFAULT_RNG_SEED, 1, {})
    if op.problems:
        raise SystemExit("; ".join(op.problems))
    payload = {
        "seed": DEFAULT_RNG_SEED,
        "census": census,
        "verify": {name: list(rec) for name, rec in op.records.items()},
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(write_reference() if arguments.write_reference else run(arguments))
