"""Tests of the benchmark itself: failure accounting, self time, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench``.  The
smoke tests run every workload once in each trace mode, a few minutes
in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import run as bench
from checks import census_rows, digest, verify_records
from spans import SPAN_ID, SPAN_NAME, SPAN_PARENT, Tracer, self_times

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

CENSUS_TEXT = (
    "# config_hash=0123456789abcdef\n"
    "g,L,a,q,observed,main_term,relative_dev,sharp_observed,modulus_sharp\n"
    "2,20,1,3,100,90.0,0.1,100,3\n"
    "2,20,2,3,120,90.0,0.3,120,3\n"
    "10,6,1,3,500,480.0,0.04,500,3\n"
)
RECOUNT = {(1, 3): 100, (2, 3): 120}


def _writer(text: str, rc: int = 0):
    """A stand-in for cli.main that writes text to --out and returns rc."""

    def main(argv):
        with open(argv[argv.index("--out") + 1], "w", encoding="utf-8") as fh:
            fh.write(text)
        return rc

    return main


def _census_reference(text: str) -> dict:
    return {"census": [digest(census_rows(text)[1])] * len(bench.CENSUS_COMMANDS)}


def test_census_op_accepts_the_reference_output(tmp_path):
    op = bench.census_op(_writer(CENSUS_TEXT), str(tmp_path), _census_reference(CENSUS_TEXT), RECOUNT)
    assert op.problems == []
    assert op.report_bytes == 2 * len(CENSUS_TEXT)


@pytest.mark.parametrize(
    "old,new",
    [("10,6,1,3,500", "10,6,1,3,501"), ("2,20,1,3,100", "2,20,1,3,101")],
    ids=["digest-only", "digest-and-recount"],
)
def test_tampered_census_row_fails_the_op(tmp_path, old, new):
    tampered = CENSUS_TEXT.replace(old, new)
    op = bench.census_op(_writer(tampered), str(tmp_path), _census_reference(CENSUS_TEXT), RECOUNT)
    assert op.problems
    assert any("reference digest" in p for p in op.problems)


def test_recount_mismatch_fails_even_with_a_matching_digest(tmp_path):
    op = bench.census_op(
        _writer(CENSUS_TEXT), str(tmp_path), _census_reference(CENSUS_TEXT), {(1, 3): 99, (2, 3): 120}
    )
    assert op.problems == ["g=2 L=20 a=1 q=3: observed 100, recount 99"] * 2


def test_config_hash_line_is_not_compared(tmp_path):
    rehashed = CENSUS_TEXT.replace("0123456789abcdef", "fedcba9876543210")
    op = bench.census_op(_writer(rehashed), str(tmp_path), _census_reference(CENSUS_TEXT), RECOUNT)
    assert op.problems == []


@pytest.mark.parametrize("rc", [1, 2])
def test_unexpected_exit_code_fails_the_op(tmp_path, rc):
    op = bench.census_op(_writer(CENSUS_TEXT, rc), str(tmp_path), _census_reference(CENSUS_TEXT), RECOUNT)
    assert op.problems == [f"census --g 2: exit code {rc}", f"census --g 10: exit code {rc}"]


def test_raising_command_fails_the_op(tmp_path):
    def main(argv):
        raise RuntimeError("boom")

    op = bench.census_op(main, str(tmp_path), _census_reference(CENSUS_TEXT), RECOUNT)
    assert len(op.problems) == 2 and all("boom" in p for p in op.problems)


def _verify_text(passed: bool = True) -> str:
    lines = []
    for name in bench.SUITES:
        lines.append(json.dumps({"suite": name, "config_hash": "0", "reports": 1}))
        lines.append(json.dumps({"lhs": 0.5, "rhs": 1.0, "pass": True, "params": {"s": name}}))
    if not passed:
        lines[-1] = lines[-1].replace("true", "false")
    return "\n".join(lines) + "\n"


def test_verify_op_checks_pass_flags_exit_code_and_records(tmp_path):
    good = _verify_text()
    expected = {n: list(rec) for n, rec in verify_records(good)[0].items()}
    run_op = lambda main: bench.verify_op(main, str(tmp_path), 1, 1, expected)  # noqa: E731

    assert run_op(_writer(good)).problems == []
    assert run_op(_writer(good)).reports == len(bench.SUITES)
    failing = run_op(_writer(_verify_text(passed=False)))
    assert "1 report(s) with pass != true" in failing.problems
    assert "hybrid: records differ from the reference" in failing.problems
    assert run_op(_writer(good, rc=2)).problems == ["verify product-formula linf: exit code 2"]
    header_only = good.replace('"config_hash": "0"', '"config_hash": "1", "extra": 3')
    assert run_op(_writer(header_only)).problems == []


def _span(sid, parent, start, end, op=0):
    return (sid, parent, "g", f"s{sid}", start, end, op, None)


def test_self_time_on_a_nested_tree_across_two_threads():
    spans = [
        _span(1, None, 0.0, 10.0),  # root
        _span(2, 1, 1.0, 4.0),  # child on thread A
        _span(3, 1, 3.0, 8.0),  # child on thread B, overlapping 2
        _span(4, 2, 2.0, 3.0),  # grandchild under 2
        _span(5, 3, 7.0, 9.0),  # grandchild under 3, clipped at 3's end
        _span(6, 3, 4.0, 5.0),
    ]
    assert self_times(spans) == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 2.0, 6: 1.0})


def test_tracer_nests_pool_cells_under_the_submitting_span():
    tracer = Tracer()

    def leaf(x):
        time.sleep(0.02)
        return x

    def pool_map(fn, cells, threads):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, cells))

    traced_leaf = tracer.timed(leaf, "leaf")
    traced_map = tracer.adopt(pool_map)
    seen_threads = set()

    def cell(x):
        seen_threads.add(threading.get_ident())
        return traced_leaf(x) + traced_leaf(x)

    def suite():
        return traced_map(cell, list(range(6)), 2)

    assert tracer.span("suite", suite) == [2 * x for x in range(6)]
    assert len(seen_threads) == 2
    root = next(s for s in tracer.spans if s[SPAN_NAME] == "suite")
    leaves = [s for s in tracer.spans if s[SPAN_NAME] == "leaf"]
    assert len(leaves) == 12
    assert {s[SPAN_PARENT] for s in leaves} == {root[SPAN_ID]}
    selfs = self_times(tracer.spans)
    # two threads keep the suite covered almost all the time
    assert 0.0 <= selfs[root[SPAN_ID]] < 0.05
    assert sum(selfs[s[SPAN_ID]] for s in leaves) > root[5] - root[4]


def test_counted_calls_are_taken_per_op():
    tracer = Tracer()
    f = tracer.counted(lambda x: x, "f")
    for i in range(5):
        f(i)
    assert tracer.take_count("f") == 5
    f(0)
    assert tracer.take_count("f") == 1
    assert tracer.take_count("f") == 0


def test_missing_name_is_reported_absent_and_the_rest_installed():
    tracer = Tracer()
    plan = (
        ("revprime.cli", "no_such_function", "timed", "x.missing", None, None),
        ("revprime.cli", "run_suite", "timed", "verify.suite", None, None),
    )
    bench.import_cli()
    import revprime.cli as cli

    original = cli.run_suite
    tracer.install(plan)
    try:
        assert tracer.absent == ["revprime.cli.no_such_function"]
        assert cli.run_suite is not original
    finally:
        tracer.uninstall()
    assert cli.run_suite is original


def test_benchmark_json_lists_the_metrics_the_run_computes():
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert per_layer == {n: (u, b) for n, (u, b, _src) in bench.LAYER_METRICS.items()}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(bench.WORKLOADS)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_prints_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
