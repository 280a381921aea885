import json
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

import revprime
from revprime import cli
from revprime.cli import main
from revprime.config import (
    DEFAULT_C_CAL,
    RunConfig,
    load_config,
    make_rng,
    merge_overrides,
)
from revprime.fileio import atomic_write
from revprime.verify import CALIBRATED


class TestRunConfig:
    def test_hash_ignores_threads(self):
        cfg = RunConfig()
        assert cfg.config_hash() == replace(cfg, threads=8).config_hash()
        assert len(cfg.config_hash()) == 16

    def test_hash_tracks_seed_and_constants(self):
        cfg = RunConfig()
        assert cfg.config_hash() != replace(cfg, rng_seed=1).config_hash()
        assert cfg.config_hash() != replace(cfg, c_cal={}).config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(rng_seed=-1)
        with pytest.raises(ValueError):
            RunConfig(rng_seed=2**64)
        with pytest.raises(ValueError):
            RunConfig(threads=0)
        with pytest.raises(ValueError):
            RunConfig(rng_algorithm="mt19937")
        with pytest.raises(ValueError):
            RunConfig(census_tolerance=0.0)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rng_seed": 7, "sieve_limit": 5000}))
        cfg = load_config(str(path))
        assert cfg.rng_seed == 7
        assert cfg.sieve_limit == 5000
        assert cfg.c_cal == DEFAULT_C_CAL

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rng_sed": 7}))
        with pytest.raises(ValueError, match="rng_sed"):
            load_config(str(path))

    def test_merge_overrides(self):
        cfg = merge_overrides(RunConfig(), threads=4, census_tolerance=0.1)
        assert cfg.threads == 4
        assert cfg.census_tolerance == 0.1
        assert cfg.rng_seed == RunConfig().rng_seed

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

    def test_cache_dir_env_is_honoured(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REVPRIME_CACHE_DIR", str(cache))
        assert main(
            ["census", "--g", "10", "--L", "2", "--q", "1",
             "--sieve-limit", "4000", "--out", str(tmp_path / "c.csv")]
        ) == 0
        assert (cache / "spf_4000.bin").exists()


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

    def test_unknown_suite(self, capsys):
        assert main(["verify", "laplace"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["verify", "type-i", "--g", "7"]) == 1
        err = capsys.readouterr().err
        assert "grid" in err

    def test_unknown_seed_family(self):
        assert main(["verify", "linf", "--seed-family", "chaotic"]) == 1

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

    def test_committed_table_matches_defaults(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "configs", "calibration.json")) as fh:
            table = json.load(fh)
        assert table["constants"] == DEFAULT_C_CAL
        assert table["rng_seed"] == RunConfig().rng_seed


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

    def test_failure_leaves_old_file_and_no_temp(self, tmp_path):
        out = tmp_path / "cache.bin"
        atomic_write(str(out), b"old")
        with pytest.raises(TypeError):
            atomic_write(str(out), [b"new", object()])
        assert out.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_chunks_and_text(self, tmp_path):
        out = tmp_path / "sub" / "f"
        atomic_write(str(out), [b"ab", np.array([1], dtype="<u4")])
        assert out.read_bytes() == b"ab\x01\x00\x00\x00"
        atomic_write(str(out), "\u00e9")
        assert out.read_bytes() == "\u00e9".encode("utf-8")
