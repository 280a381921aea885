import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import revprime
from revprime import cli, verify
from revprime.cli import atomic_write, main
from revprime.arith import SieveBudgetError
from revprime.config import (
    DEFAULT_C_CAL,
    RunConfig,
    load_config,
    make_rng,
)
from revprime.verify import CALIBRATED, SUITES, SuiteOptions, UsageError, run_suite

from oracles import primes_upto, window_reverse


def run_cli(argv, cwd, timeout):
    """The CLI in a fresh interpreter on this tree's src, as a CompletedProcess."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run(
        [sys.executable, "-m", "revprime.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


class TestRunConfig:
    def test_hash_ignores_threads(self):
        cfg = RunConfig()
        assert cfg.config_hash() == replace(cfg, threads=8).config_hash()
        assert len(cfg.config_hash()) == 16

    def test_hash_tracks_seed_and_constants(self):
        cfg = RunConfig()
        assert cfg.config_hash() != replace(cfg, rng_seed=1).config_hash()
        assert cfg.config_hash() != replace(cfg, c_cal={}).config_hash()

    def test_hash_reads_ceilings_as_floats(self):
        # every gate reads a ceiling as a float, so its int and float
        # spellings are one configuration
        for name in DEFAULT_C_CAL:
            as_int = RunConfig(c_cal={name: 1}).config_hash()
            assert as_int == RunConfig(c_cal={name: 1.0}).config_hash(), name
        assert RunConfig(c_cal={"truncation": 1}).config_hash() == "5fa40b2e1780493f"

    def test_default_hash_is_pinned(self):
        # the header of every default report carries this value
        assert RunConfig().config_hash() == "c7f32585766f14d4"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(rng_seed=-1)
        with pytest.raises(ValueError):
            RunConfig(rng_seed=2**64)
        with pytest.raises(ValueError):
            RunConfig(threads=0)
        with pytest.raises(ValueError):
            RunConfig(census_tolerance=0.0)
        # the sieve limit's one rule, arith.check_sieve_limit
        with pytest.raises(ValueError, match="at least 2"):
            RunConfig(sieve_limit=1)
        with pytest.raises(SieveBudgetError):
            RunConfig(sieve_limit=2**26 + 1)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rng_seed": 7, "sieve_limit": 5000}))
        cfg = load_config(str(path))
        assert cfg.rng_seed == 7
        assert cfg.sieve_limit == 5000
        assert cfg.c_cal == DEFAULT_C_CAL

    def test_load_accepts_every_field(self, tmp_path):
        want = RunConfig(rng_seed=9, sieve_limit=4000, threads=3, census_tolerance=0.1,
                         c_cal={"hybrid": 0.5})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(want)))
        assert load_config(str(path)) == want

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rng_sed": 7}))
        with pytest.raises(ValueError, match="rng_sed"):
            load_config(str(path))

    def test_config_naming_rng_algorithm_is_usage_error(self, tmp_path, capsys):
        # every stream is PCG64 (config.RNG_ALGORITHM), so the key is not a
        # setting, even at its one value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rng_algorithm": "pcg64"}))
        out = tmp_path / "r.jsonl"
        assert main(["verify", "vdc", "--config", str(path), "--out", str(out)]) == 1
        assert "unknown config keys: ['rng_algorithm']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"sieve_limit": "100000"},
            {"census_tolerance": "0.2"},
            {"sieve_limit": 1e5},
            {"c_cal": []},
            {"c_cal": {"hybrid": "x"}},
            {"threads": 1.5},
            {"rng_seed": True},
            {"c_cal": {"bogus": 1.0}},
            {"c_cal": {"hybrid": 10**400}},
        ],
    )
    def test_load_rejects_wrong_value_types(self, tmp_path, fields):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=next(iter(fields))):
            load_config(str(path))

    def test_flags_override_the_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"rng_seed": 7, "sieve_limit": 5000, "threads": 3, "census_tolerance": 0.1}
        ))
        stored = load_config(str(path))
        census = ["census", "--g", "10", "--L", "2", "--q", "3", "--config", str(path)]

        def loaded(*flags):
            return cli._load_run_config(cli.build_parser().parse_args([*census, *flags]))

        # an unset flag keeps the file's value
        assert loaded() == stored
        assert loaded("--seed", "9", "--sieve-limit", "4000") == replace(
            stored, rng_seed=9, sieve_limit=4000
        )
        assert loaded("--threads", "2", "--tolerance", "0.2") == replace(
            stored, threads=2, census_tolerance=0.2
        )
        # verify has no --tolerance; its header carries the merged config
        out = tmp_path / "r.jsonl"
        argv = ["verify", "vdc", "--cases", "4", "--config", str(path), "--out", str(out)]
        assert main([*argv, "--seed", "9"]) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["rng_seed"] == 9
        assert header["config_hash"] == replace(stored, rng_seed=9).config_hash()

    def test_rng_streams(self):
        cfg = RunConfig()
        a = make_rng(cfg, 3, 1).random(5)
        b = make_rng(cfg, 3, 1).random(5)
        c = make_rng(cfg, 3, 2).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCensusCommand:
    def test_two_digit_window(self, capsys):
        assert main(["census", "--g", "10", "--L", "2", "--q", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("g,L,a,q,observed")
        assert lines[2].startswith("10,2,0,1,21,")

    def test_single_class_within_tolerance(self):
        assert main(["census", "--g", "10", "--L", "5", "--q", "3", "--a", "1"]) == 0

    def test_missing_base_is_usage_error(self, capsys):
        assert main(["census", "--L", "2", "--q", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_modulus(self, capsys):
        assert main(["census", "--g", "10", "--L", "2", "--q", "0"]) == 1

    def test_every_window_is_checked_before_any_is_sieved(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a window was sieved")

        monkeypatch.setattr(cli, "census_grid", refuse)
        out = tmp_path / "census.csv"
        argv = ["census", "--g", "10", "--L", "3,7", "--q", "3", "--sieve-limit", "100000"]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "census: error: window end 10^7 - 1 beyond sieve limit 100000\n"
        )
        assert not out.exists()

    def test_overlong_window_is_refused_before_its_end_is_formed(self, tmp_path):
        # 10^(10^8) has 10^8 digits: forming it would take far past the timeout
        out = tmp_path / "census.csv"
        argv = ["census", "--g", "10", "--L", "100000000", "--q", "3", "--out", str(out)]
        proc = run_cli(argv, tmp_path, 10)
        assert proc.returncode == 1
        assert proc.stderr == (
            "census: error: window end 10^100000000 - 1 beyond sieve limit 100000\n"
        )
        assert not out.exists()

    def test_tolerance_failure_still_writes_report(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        code = main(
            ["census", "--g", "10", "--L", "2", "--q", "1",
             "--tolerance", "0.01", "--out", str(out)]
        )
        assert code == 2
        assert "tolerance failure" in capsys.readouterr().err
        text = out.read_text()
        assert text.startswith("# config_hash=")
        assert "10,2,0,1,21," in text
        assert not (tmp_path / "census.csv.tmp").exists()

    def test_json_format_round_trips(self, tmp_path):
        out = tmp_path / "census.json"
        assert main(
            ["census", "--g", "10", "--L", "2,3", "--q", "1,3",
             "--format", "json", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert "config_hash" in payload
        recs = payload["records"]
        assert {r["L"] for r in recs} == {2, 3}
        total_q1 = [r for r in recs if r["q"] == 1 and r["L"] == 2]
        assert total_q1[0]["observed"] == 21

    def test_json_zero_density_cell_is_null(self, tmp_path):
        # a = 0 mod 3 has density zero in base 2, so its deviation is NaN,
        # which strict JSON cannot hold
        out = tmp_path / "census.json"
        assert main(
            ["census", "--g", "2", "--L", "5", "--q", "3", "--tolerance", "0.5",
             "--format", "json", "--out", str(out)]
        ) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        recs = json.loads(out.read_text(), parse_constant=reject)["records"]
        assert [r["relative_dev"] is None for r in recs] == [True, False, False]
        assert recs[0]["main_term"] == 0.0

    @pytest.mark.parametrize("q, a, code", [
        (2**64, "2", 0),
        (2**63, "0,2", 0),
        (2**63 - 1, "1,17", 2),
        (2**64, "1,17,29", 2),
        (f"3,{2**63},{2**64},5", "1,2,17", 2),
    ])
    def test_moduli_beyond_int64(self, tmp_path, q, a, code):
        out = tmp_path / "c.csv"
        assert main(["census", "--g", "2", "--L", "7", "--q", str(q), "--a", a,
                     "--out", str(out)]) == code
        # oracle recount of the 7-bit primes
        revs = [window_reverse(p, 2, 7) for p in primes_upto(127) if p >= 64]
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == len(str(q).split(",")) * len(a.split(","))
        for row in rows:
            _, _, a_, q_, observed, _, _, sharp, m = row.split(",")
            a_, q_, m = int(a_), int(q_), int(m)
            assert int(observed) == sum(r % q_ == a_ % q_ for r in revs), row
            assert int(sharp) == sum(r % m == a_ % m for r in revs), row

    def test_table_format_matches_csv(self, tmp_path):
        argv = ["census", "--g", "2", "--L", "6,8", "--q", "3,5,7", "--tolerance", "0.5"]
        csv_out, table_out = tmp_path / "c.csv", tmp_path / "c.txt"
        csv_code = main([*argv, "--out", str(csv_out)])
        table_code = main([*argv, "--format", "table", "--out", str(table_out)])
        assert table_code == csv_code
        csv_lines = csv_out.read_text().splitlines()
        table = table_out.read_text().splitlines()
        assert table[0] == csv_lines[0]
        records = [dict(zip(cli.CENSUS_COLUMNS, row.split(","))) for row in csv_lines[2:]]
        gap = table.index("")
        rows = [line.split() for line in table[3:gap]]
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert row[:5] == [rec["g"], rec["L"], rec["q"], rec["a"], rec["observed"]]
        worst = {}
        for rec in records:
            dev = float(rec["relative_dev"])
            if not math.isnan(dev):
                key = (rec["L"], rec["q"])
                worst[key] = max(worst.get(key, 0.0), abs(dev))
        summary = [line.split() for line in table[gap + 2:]]
        assert {(L, q): float(dev) for L, q, dev in summary} == {
            key: float(f"{dev:.4f}") for key, dev in worst.items()
        }
        assert len(summary) == len(worst) == 6

    def test_table_format_keeps_a_failing_exit_code(self, tmp_path):
        argv = ["census", "--g", "10", "--L", "2", "--q", "1,3", "--tolerance", "0.01"]
        assert main([*argv, "--out", str(tmp_path / "c.csv")]) == 2
        assert main([*argv, "--format", "table", "--out", str(tmp_path / "c.txt")]) == 2

    def test_zero_density_cell_of_a_huge_modulus_is_exact(self, tmp_path):
        # 3 divides both a and q, so the cell's density is zero; the gate
        # factors only g^2 - 1, never q
        out = tmp_path / "c.csv"
        t0 = time.perf_counter()
        code = main(["census", "--g", "2", "--L", "5", "--q", "13835058055282163709",
                     "--a", "3", "--out", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        assert out.read_text().splitlines()[2].startswith("2,5,3,13835058055282163709,0,")

    @pytest.mark.parametrize("argv", [
        ["--q", str(10**20)],
        ["--q", "1025", "--L", ",".join(["5"] * 1024)],
        ["--q", ",".join(["3"] * 600), "--a", ",".join(["1"] * 600), "--L", "5,6,7"],
    ])
    def test_too_many_cells_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "c.csv"
        args = {"--g": "2", "--L": "5", **dict(zip(argv[::2], argv[1::2]))}
        t0 = time.perf_counter()
        code = main(["census", *[x for item in args.items() for x in item], "--out", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert "census cells requested" in capsys.readouterr().err
        assert not out.exists()

    def test_cell_bound_admits_its_limit(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "MAX_CENSUS_CELLS", 6)
        argv = ["census", "--g", "2", "--L", "5,6", "--q", "3", "--tolerance", "0.9"]
        assert main([*argv, "--out", str(tmp_path / "c.csv")]) == 0
        assert main([*argv, "--a", "0,1,2,0", "--out", str(tmp_path / "d.csv")]) == 1

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        paths = []
        for t in ("1", "8"):
            p = tmp_path / f"census_{t}.csv"
            assert main(
                ["census", "--g", "2", "--L", "8,10", "--q", "3,5",
                 "--tolerance", "0.9", "--threads", t, "--out", str(p)]
            ) == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("flag", ["--L", "--q", "--a"])
    def test_empty_list_is_usage_error(self, tmp_path, capsys, flag):
        argv = {"--L": "3", "--q": "3", "--a": "1"}
        argv[flag] = ","
        out = tmp_path / "c.csv"
        args = [part for item in argv.items() for part in item]
        assert main(["census", "--g", "2", *args, "--out", str(out)]) == 1
        assert "expected comma-separated integers" in capsys.readouterr().err
        assert not out.exists()

    def test_config_of_wrong_type_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sieve_limit": "100000"}))
        out = tmp_path / "c.csv"
        code = main(["census", "--g", "10", "--L", "2", "--q", "3",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "census: error: sieve_limit must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_c_cal_is_usage_error(self, tmp_path, capsys):
        # 10**400 overflows a float, so math.isfinite raises on it
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"c_cal": {"hybrid": 10**400}}))
        out = tmp_path / "c.csv"
        code = main(["census", "--g", "2", "--L", "4", "--q", "3",
                     "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "census: error: c_cal['hybrid'] must be a finite number\n"
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_cache_dir_env_has_no_effect(self, tmp_path, monkeypatch):
        # no sieve is persisted, so REVPRIME_CACHE_DIR changes neither the
        # bytes written nor the directory it names
        argv = ["census", "--g", "10", "--L", "2", "--q", "1,3", "--sieve-limit", "4000"]
        plain, with_env = tmp_path / "plain.csv", tmp_path / "env.csv"
        assert main([*argv, "--out", str(plain)]) == 0
        cache = tmp_path / "cache"
        monkeypatch.setenv("REVPRIME_CACHE_DIR", str(cache))
        assert main([*argv, "--out", str(with_env)]) == 0
        assert with_env.read_bytes() == plain.read_bytes()
        assert not cache.exists() or list(cache.iterdir()) == []


# SHA-256 of each census output byte for byte: perfbench's two census
# commands and README's three examples, pinned as they stood before the
# census sieved only its windows
CENSUS_DIGESTS = {
    "perfbench-g2": (
        ["census", "--g", "2", "--L", "20,22,24", "--q", "3,5,7",
         "--sieve-limit", "16777216", "--threads", "1"],
        "63b2009e11b1c5e0b4a1e6bd5152b1443e06c66bd604a40bac2e1921924d926e",
    ),
    "perfbench-g10": (
        ["census", "--g", "10", "--L", "6,7", "--q", "3,7,9,11,13,37,41",
         "--sieve-limit", "10000000", "--threads", "1"],
        "d54256a6a7f562f7729e6b71da4fe36509d92f822d4b20d702e14f21c136dd84",
    ),
    "readme-csv": (
        ["census", "--g", "10", "--L", "4,5", "--q", "1,3,9", "--format", "csv"],
        "8ec73041df4a4dbe97cf79ff0301414c91f98034cedce50824837600b03a3d37",
    ),
    "readme-json": (
        ["census", "--g", "2", "--L", "16", "--q", "7", "--a", "5", "--format", "json"],
        "13cba2fd6a9ab59727a6d0e8cd669eac9b94d9e3ffdc8dba9d0d2761246b7e49",
    ),
    "readme-table": (
        ["census", "--g", "10", "--L", "4,5", "--q", "1,3,7,9", "--format", "table"],
        "6e1ce63dc97a2d91084516b8b26a9833c708e2279c7c23b6255db639505541b6",
    ),
}


class TestCensusBytes:
    @pytest.mark.parametrize("name", CENSUS_DIGESTS)
    def test_output_digest(self, tmp_path, name):
        argv, digest = CENSUS_DIGESTS[name]
        out = tmp_path / "census.out"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestVerifyCommand:
    def test_product_formula_example(self, tmp_path):
        out = tmp_path / "pf.jsonl"
        code = main(
            ["verify", "product-formula", "--g", "2", "--lambda-max", "10",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["suite"] == "product-formula"
        assert header["reports"] == len(lines) - 1
        assert all(json.loads(l)["pass"] for l in lines[1:])

    def test_l1_moment_example(self):
        assert main(["verify", "l1-moment", "--g", "6", "--lambda-max", "4"]) == 0

    def test_vaughan_example(self, tmp_path):
        out = tmp_path / "v.jsonl"
        assert main(
            ["verify", "vaughan", "--limit", "2000", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        reports = [json.loads(l) for l in lines[1:]]
        assert all(r["pass"] for r in reports)
        zs = {r["params"]["z"] for r in reports}
        assert 2.0 in zs and 50.0 in zs

    def test_vaughan_limit_one_reports_zeros(self, tmp_path):
        out = tmp_path / "v1.jsonl"
        assert main(["verify", "vaughan", "--limit", "1", "--out", str(out)]) == 0
        reports = [json.loads(l) for l in out.read_text().splitlines()[1:]]
        assert len(reports) == 8
        assert [r["params"]["z"] for r in reports[::2]] == [2.0, 5.0, 50.0, 1.0]
        for r in reports:
            assert r["lhs"] == 0.0 and r["ratio"] == 0.0 and r["pass"] is True
        assert all(r["params"]["worst_n"] == 1 for r in reports[::2])

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_vaughan_limit_below_one_is_usage_error(self, tmp_path, capsys, limit):
        out = tmp_path / "v.jsonl"
        assert main(["verify", "vaughan", "--limit", limit, "--out", str(out)]) == 1
        assert "--limit must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["vdc", "--cases", "0"],
            ["vdc", "--cases", "-3"],
            ["linf", "--g", "2", "--lambda-max", "0"],
        ],
    )
    def test_count_options_below_one_are_usage_errors(self, tmp_path, capsys, argv):
        # 0 is a value, not "absent": it must not fall back to the default
        out = tmp_path / "r.jsonl"
        assert main(["verify", *argv, "--out", str(out)]) == 1
        assert f"{argv[-2]} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_header_records_suite_options(self, tmp_path):
        headers = {}
        for label, extra in (("default", []), ("cases", ["--cases", "10"])):
            out = tmp_path / f"{label}.jsonl"
            assert main(["verify", "vdc", *extra, "--out", str(out)]) == 0
            headers[label] = json.loads(out.read_text().splitlines()[0])
        assert headers["default"]["options"] == {
            "g": None, "lambda_max": None, "limit": None, "cases": None, "seed_family": None,
        }
        assert headers["cases"]["options"]["cases"] == 10
        for header in headers.values():
            assert header["version"] == revprime.__version__
        assert headers["default"]["config_hash"] == headers["cases"]["config_hash"]

    @pytest.mark.parametrize(
        "argv, suite, flag",
        [
            (
                ["vaughan", "--limit", "50", "--g", "7", "--seed-family", "diagonal"],
                "vaughan",
                "--g",
            ),
            (["vdc", "--cases", "8", "--g", "7", "--seed-family", "zero"], "vdc", "--g"),
            (["vdc", "sin-sum", "--cases", "8", "--lambda-max", "3"], "vdc", "--lambda-max"),
            (["truncation", "--seed-family", "reverse"], "truncation", "--seed-family"),
            (["type-i", "--limit", "500"], "type-i", "--limit"),
        ],
    )
    def test_option_the_suite_does_not_read_is_usage_error(
        self, tmp_path, capsys, argv, suite, flag
    ):
        out = tmp_path / "r.jsonl"
        assert main(["verify", *argv, "--out", str(out)]) == 1
        assert f"suite '{suite}' does not read {flag};" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_rejects_an_option_no_calibrated_suite_reads(self, capsys):
        assert main(["calibrate", "--cases", "5"]) == 1
        assert "does not read --cases" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        assert main(["verify", "laplace"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["verify", "type-i", "--g", "7"]) == 1
        err = capsys.readouterr().err
        assert "grid" in err

    def test_unknown_seed_family(self):
        assert main(["verify", "linf", "--seed-family", "chaotic"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "type-i", "hybrid", "--seed-family", "diagonal"],
            ["calibrate", "type-i", "--seed-family", "diagonal"],
            ["verify", "prime-exp-sum", "--seed-family", "zero"],
        ],
    )
    def test_family_that_empties_a_suite_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "r.out"
        assert main([*argv, "--out", str(out)]) == 1
        assert "seed family" in capsys.readouterr().err
        assert not out.exists()

    def test_prime_exp_sum_reverse_family_is_the_default_run(self, tmp_path):
        lines = {}
        for label, extra in (("default", []), ("reverse", ["--seed-family", "reverse"])):
            out = tmp_path / f"{label}.jsonl"
            assert main(["verify", "prime-exp-sum", *extra, "--out", str(out)]) == 0
            lines[label] = out.read_text().splitlines()
        assert json.loads(lines["reverse"][0])["options"]["seed_family"] == "reverse"
        assert len(lines["default"]) == 10
        assert lines["reverse"][1:] == lines["default"][1:]

    def test_multiple_suites_concatenate(self, tmp_path):
        out = tmp_path / "multi.jsonl"
        assert main(
            ["verify", "vdc", "sin-sum", "--cases", "64", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        suites = [
            json.loads(l)["suite"] for l in lines if "suite" in json.loads(l)
        ]
        assert suites == ["vdc", "sin-sum"]

    def test_regression_gate_trips_on_lowered_ceiling(self, tmp_path, capsys):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({"c_cal": {"type-i": 1e-9}}))
        code = main(["verify", "type-i", "--config", str(cfg)])
        assert code == 2
        assert "failing report" in capsys.readouterr().err

    def test_reports_carry_config_hash(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert main(["verify", "vdc", "--cases", "16", "--out", str(out)]) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["config_hash"] == RunConfig().config_hash()


class TestSieveBudget:
    """A sieve limit over the budget is a usage error on every command,
    whether or not it sieves, and not a crash."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--g", "2", "--L", "3", "--q", "3"],
            ["verify", "vaughan"],
            ["verify", "vdc"],
            ["calibrate", "type-i"],
        ],
    )
    def test_over_budget_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "r.out"
        proc = run_cli([*argv, "--sieve-limit", "100000000", "--out", str(out)], tmp_path, 120)
        assert proc.returncode == 1
        assert f"{argv[0]}: error: sieve limit 100000000 exceeds" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_over_budget_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sieve_limit": 2**26 + 1}))
        out = tmp_path / "r.out"
        assert main(["verify", "vdc", "--config", str(config), "--out", str(out)]) == 1
        assert "verify: error: sieve limit 67108865 exceeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, reach",
        [
            (["vaughan", "--limit", "300"], 300),
            (["type-ii"], 32),  # 2M = 2N = 32 on the g = 2 cell
            (["prime-exp-sum"], 10**4),  # x = 10^4 on the g = 10 cell
        ],
    )
    def test_sieved_cells_must_fit_under_the_limit(self, tmp_path, capsys, argv, reach):
        # --sieve-limit is a ceiling on what a cell sieves, checked before any work
        out = tmp_path / "r.jsonl"
        argv = ["verify", *argv, "--out", str(out)]
        assert main([*argv, "--sieve-limit", str(reach - 1)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verify: error: ") and str(reach - 1) in err
        assert not out.exists()
        assert main([*argv, "--sieve-limit", str(reach)]) == 0
        assert out.exists()


# a run whose last suite reaches past the sieve limit (vaughan's default
# --limit is 10000)
LATE_REACH = ["verify", "product-formula", "linf", "l1-moment", "psi", "monotonicity",
              "hybrid", "vaughan", "--sieve-limit", "9999"]


class TestWholeRunAdmission:
    """verify and calibrate admit every named suite before any cell of any
    suite runs, so a bad later suite costs no work."""

    @pytest.fixture
    def no_cell(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran")

        for name, suite in SUITES.items():
            monkeypatch.setitem(SUITES, name, suite._replace(cell=refuse))

    @pytest.mark.parametrize(
        "argv, says",
        [
            (LATE_REACH, "suite 'vaughan' sieves up to 10000 > the least of sieve_limit 9999"),
            (["verify", "linf", "l1-moment", "vaughan", "--lambda-max", "3"],
             "suite 'vaughan' does not read --lambda-max"),
            (["calibrate", "type-i", "hybrid", "linf"], "'linf' is not a calibrated verifier"),
        ],
        ids=["reach", "unread-option", "uncalibrated"],
    )
    def test_a_later_suite_refuses_the_run_before_any_cell(
        self, tmp_path, capsys, no_cell, argv, says
    ):
        out = tmp_path / "r.out"
        assert main([*argv, "--out", str(out)]) == 1
        assert says in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_vaughan_limit_is_held_to_the_work_budget(self, tmp_path, capsys, monkeypatch):
        # vaughan_arrays holds about 80 bytes per n: 2^20 is the last limit
        # admitted, and a refused one builds nothing
        def refuse(*args, **kwargs):
            raise AssertionError("vaughan_arrays ran")

        monkeypatch.setattr(verify, "vaughan_arrays", refuse)
        budget = verify.WORK_BUDGET
        assert budget == 2**20
        out = tmp_path / "v.jsonl"
        over = str(budget + 1)
        argv = ["verify", "vaughan", "--limit", over, "--sieve-limit", over, "--out", str(out)]
        assert main(argv) == 1
        assert f"and the work budget {budget}" in capsys.readouterr().err
        assert not out.exists()
        _, cells = verify.admit(
            "vaughan", RunConfig(sieve_limit=budget), SuiteOptions(limit=budget)
        )
        assert {cell[0] for cell in cells.values()} == {budget}


class TestCalibrateCommand:
    def test_repeat_is_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["calibrate", "type-i", "--out", str(a)]) == 0
        assert main(["calibrate", "type-i", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        table = json.loads(a.read_text())
        assert table["constants"]["type-i"] > 0
        assert table["rng_algorithm"] == "pcg64"

    def test_empty_grid(self):
        assert main(["calibrate", "type-ii", "--g", "3"]) == 1

    def test_non_calibrated_suite_rejected(self, capsys):
        assert main(["calibrate", "linf"]) == 1
        assert "not a calibrated verifier" in capsys.readouterr().err

    def test_default_suites_are_the_calibrated_ones(self, monkeypatch, tmp_path):
        seen = []

        def fake(names, cfg, opts):
            seen.extend(names)
            return {name: 1.0 for name in names}

        monkeypatch.setattr(cli, "calibrate", fake)
        assert main(["calibrate", "--out", str(tmp_path / "c.json")]) == 0
        assert tuple(seen) == CALIBRATED

    def test_x_flag_removed(self):
        assert main(["calibrate", "type-i", "--x", "100"]) == 1
        assert main(["verify", "vdc", "--x", "100"]) == 1

    def test_package_table_is_what_calibrate_writes(self, monkeypatch, tmp_path):
        # the header (hash of the bare config, seed, algorithm), the key set
        # and the layout of the shipped file are those `calibrate` writes;
        # criterion 11 checks the constants against a fresh calibration
        def frozen(names, cfg, opts):
            return {name: DEFAULT_C_CAL[name] for name in names}

        monkeypatch.setattr(cli, "calibrate", frozen)
        out = tmp_path / "c.json"
        assert main(["calibrate", "--out", str(out)]) == 0
        shipped = Path(revprime.__file__).with_name("calibration.json")
        assert out.read_bytes() == shipped.read_bytes()


class TestAtomicWrite:
    def test_concurrent_writers_to_one_path(self, tmp_path):
        # two runs sharing --out: each must land whole, and no temp file
        # of either may survive
        out = tmp_path / "report.txt"
        texts = ["a" * 300_000 + "\n", "b" * 200_000 + "\n"]
        errors = []

        def writer(text):
            try:
                for _ in range(25):
                    cli._emit(text, str(out))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert out.read_text() in texts
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]

    def test_failure_leaves_old_file_and_no_temp(self, tmp_path, monkeypatch):
        out = tmp_path / "report.txt"
        atomic_write(str(out), "old\n")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write(str(out), "new\n")
        assert out.read_text() == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_text_into_new_directory(self, tmp_path):
        out = tmp_path / "sub" / "f"
        atomic_write(str(out), "\u00e9\u2211\n")
        assert out.read_bytes() == "\u00e9\u2211\n".encode("utf-8")

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask):
        # the mode a plain open(path, "w") gives
        old = os.umask(umask)
        try:
            atomic_write(str(tmp_path / "new.txt"), "x\n")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "new.txt").st_mode & 0o777
        assert mode == os.stat(tmp_path / "plain.txt").st_mode & 0o777 == 0o666 & ~umask

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "report.txt"
        out.write_text("old\n")
        os.chmod(out, 0o664)
        atomic_write(str(out), "new\n")
        assert out.read_text() == "new\n"
        assert os.stat(out).st_mode & 0o777 == 0o664


UNWRITABLE_COMMANDS = [
    ["census", "--g", "2", "--L", "6", "--q", "3", "--a", "1"],
    ["verify", "vdc", "--cases", "8"],
    ["calibrate", "hybrid"],
]


# what each command runs once its --out is accepted; one name per command
# (census_grid sieves the census windows itself)
WORK = {"census": "census_grid", "verify": "run_suite", "calibrate": "calibrate"}


class TestUnwritableOut:
    """An --out that cannot be written is a usage error, not a traceback,
    and is refused before any sieve or suite runs."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        for name in WORK.values():
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv", UNWRITABLE_COMMANDS, ids=lambda a: a[0])
    def test_out_naming_a_directory(self, tmp_path, capsys, no_work, argv):
        target = tmp_path / "reports"
        target.mkdir()
        assert main([*argv, "--out", str(target)]) == 1
        assert capsys.readouterr().err == f"{argv[0]}: error: --out {target} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reports"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("argv", UNWRITABLE_COMMANDS, ids=lambda a: a[0])
    def test_out_under_a_regular_file(self, tmp_path, capsys, no_work, argv):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        for out in (blocker / "report.txt", blocker / "sub" / "sub" / "report.txt"):
            assert main([*argv, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"{argv[0]}: error: --out {out} runs through {blocker},")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("argv", UNWRITABLE_COMMANDS, ids=lambda a: a[0])
    def test_empty_out(self, tmp_path, capsys, monkeypatch, no_work, argv):
        # atomic_write would put the temp file of an empty path in the parent
        # of the working directory
        inner = tmp_path / "inner"
        inner.mkdir()
        monkeypatch.chdir(inner)
        assert main([*argv, "--out", ""]) == 1
        assert capsys.readouterr().err == f"{argv[0]}: error: --out names no file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inner"]
        assert list(inner.iterdir()) == []

    @pytest.mark.parametrize("argv", UNWRITABLE_COMMANDS, ids=lambda a: a[0])
    def test_out_turned_into_a_directory_during_the_run(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # the check before the run cannot see a race; the write still fails cleanly
        target = tmp_path / "reports"
        empty = {"census": [], "verify": [], "calibrate": {}}[argv[0]]

        def work(*args, **kwargs):
            target.mkdir()
            return empty

        monkeypatch.setattr(cli, WORK[argv[0]], work)
        assert main([*argv, "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"{argv[0]}: error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reports"]
        assert list(target.iterdir()) == []


class TestReadme:
    """README's command lines parse, and it names no deleted front end."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    def sh_lines(self):
        text = self.README.read_text()
        for block in text.split("```sh\n")[1:]:
            yield from block.split("```")[0].splitlines()

    def test_revprime_lines_parse(self):
        parser = cli.build_parser()
        parsed = 0
        for line in self.sh_lines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["revprime"]:
                args = parser.parse_args(argv[1:])
                assert callable(args.func), line
                parsed += 1
        assert parsed >= 6

    def test_environment_variables_match_src(self):
        # every REVPRIME_ variable README names is read in src, and every
        # one src reads is in README
        pattern = re.compile(r"\bREVPRIME_[A-Z_]+")
        src = self.README.parent / "src"
        in_src = {m for f in src.rglob("*.py") for m in pattern.findall(f.read_text())}
        assert set(pattern.findall(self.README.read_text())) == in_src

    def table(self, header: str) -> dict[str, list[str]]:
        """Each suite of the README table under `header` -> the backticked names of its row."""
        rows = self.README.read_text().split(header + "\n")[1].split("\n\n")[0]
        out = {}
        for row in rows.splitlines()[1:]:
            suites, names = row.strip("|").split("|")
            for suite in re.findall(r"`([^`]+)`", suites):
                out[suite] = re.findall(r"`([^`]+)`", names)
        return out

    def test_options_table_matches_suites(self):
        want = {name: ["--" + f.replace("_", "-") for f in s.reads] for name, s in SUITES.items()}
        assert self.table("| suite | options it reads |") == want

    def test_families_table_matches_pools(self):
        # a family no pool holds empties every grid, and the usage error
        # names the families the suite draws
        pools = {}
        for name, suite in SUITES.items():
            if "seed_family" in suite.reads:
                with pytest.raises(UsageError, match="this suite draws") as err:
                    run_suite(name, RunConfig(), SuiteOptions(seed_family="none"))
                pools[name] = str(err.value).split("this suite draws ")[1].split(", ")
        assert self.table("| suites | families drawn |") == pools

    def test_configuration_examples_load(self, tmp_path):
        # every JSON example under "Configuration" is a config file that
        # loads, so a removed setting cannot stay in the docs
        section = self.README.read_text().split("\n## Configuration\n")[1].split("\n## ")[0]
        blocks = [block.split("```")[0] for block in section.split("```json\n")[1:]]
        assert blocks
        for n, block in enumerate(blocks):
            path = tmp_path / f"example{n}.json"
            path.write_text(block)
            load_config(str(path))

    def test_named_paths_exist(self):
        # a path README names under a repository directory exists, so the
        # text cannot point at a deleted front end (the old scripts among them)
        text = self.README.read_text()
        named = set(re.findall(r"\b(?:configs|perfbench|scripts|src|tests)/[\w./-]*", text))
        assert "src/revprime/calibration.json" in named
        assert [p for p in sorted(named) if not (self.README.parent / p).exists()] == []
