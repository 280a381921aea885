import math

import pytest

from revprime.arith import build_table, mangoldt_tail, mobius_mangoldt_window, vaughan_terms
from revprime.config import RunConfig
from revprime.expsum import make_report
from revprime.verify import (
    CALIBRATED,
    SUITES,
    SuiteOptions,
    UsageError,
    calibrate,
    run_suite,
)


class TestRegistry:
    def test_all_suites_callable(self):
        assert len(SUITES) == 13
        assert set(CALIBRATED) <= set(SUITES)

    def test_unknown_suite(self):
        with pytest.raises(UsageError, match="unknown suite"):
            run_suite("linf2", RunConfig(), SuiteOptions())

    def test_unknown_seed_family(self):
        with pytest.raises(UsageError, match="seed family"):
            run_suite("linf", RunConfig(), SuiteOptions(seed_family="diagonal"))

    def test_g_outside_grid(self):
        with pytest.raises(UsageError, match="outside the declared grid"):
            run_suite("linf", RunConfig(), SuiteOptions(g=7))

    def test_truncation_is_base_2_only(self):
        with pytest.raises(UsageError, match="g = 2"):
            run_suite("truncation", RunConfig(), SuiteOptions(g=10))


class TestDeterminism:
    def test_repeat_is_identical(self):
        opts = SuiteOptions(cases=40)
        first = run_suite("vdc", RunConfig(), opts)
        second = run_suite("vdc", RunConfig(), opts)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_thread_count_changes_nothing(self):
        opts = SuiteOptions(g=3, lambda_max=5, cases=4)
        serial = run_suite("linf", RunConfig(threads=1), opts)
        parallel = run_suite("linf", RunConfig(threads=8), opts)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_seed_changes_reports(self):
        opts = SuiteOptions(cases=40)
        base = run_suite("vdc", RunConfig(), opts)
        moved = run_suite("vdc", RunConfig(rng_seed=7), opts)
        assert [r.to_dict() for r in base] != [r.to_dict() for r in moved]


class TestSmallGrids:
    def test_linf_passes_on_small_grid(self):
        reports = run_suite(
            "linf", RunConfig(), SuiteOptions(g=2, lambda_max=6, cases=3)
        )
        assert reports and all(r.passed for r in reports)
        assert {r.params["j"] for r in reports} == {0, 2}

    def test_monotonicity_forms_present(self):
        reports = run_suite(
            "monotonicity", RunConfig(), SuiteOptions(g=3, lambda_max=12)
        )
        assert all(r.passed for r in reports)
        forms = {r.params["form"] for r in reports}
        assert "window-shift" in forms
        assert "decay-cap" in forms

    def test_seed_family_filter_applies(self):
        reports = run_suite(
            "linf",
            RunConfig(),
            SuiteOptions(g=2, lambda_max=3, cases=2, seed_family="sod"),
        )
        assert reports
        assert {r.params["family"] for r in reports} == {"sod"}


class TestCalibrate:
    def test_rejects_uncalibrated_name(self):
        with pytest.raises(UsageError, match="not a calibrated"):
            calibrate(["linf"], RunConfig(), SuiteOptions())

    def test_recording_mode_ignores_stored_ceilings(self):
        crushing = RunConfig(c_cal={"hybrid": 1e-12})
        opts = SuiteOptions(g=10)
        assert any(
            not r.passed for r in run_suite("hybrid", crushing, opts)
        ), "a tiny ceiling must trip the regression gate"
        table = calibrate(["hybrid"], crushing, opts)
        assert table["hybrid"] > 0


def vaughan_recount(limit, sieve_limit):
    """The vaughan suite's reports, recounted one n at a time from the oracles."""
    pt = build_table(sieve_limit)
    out = []
    for z in (2.0, 5.0, 50.0, float(limit) ** 0.25):
        worst, worst_n, cap_ratio = 0.0, 1, 0.0
        for n in range(1, limit + 1):
            gap = abs(vaughan_terms(n, z, pt).total - pt.mangoldt(n))
            if gap > worst:
                worst, worst_n = gap, n
            if n >= 2:
                ln = math.log(n)
                cap_ratio = max(
                    cap_ratio,
                    mangoldt_tail(n, z, pt) / ln,
                    abs(mobius_mangoldt_window(n, z, pt)) / ln,
                )
        out.append(make_report(worst, 1e-9, {"z": z, "limit": limit, "worst_n": worst_n}))
        out.append(
            make_report(cap_ratio, 1.0, {"z": z, "limit": limit, "form": "coefficient-cap"})
        )
    return out


class TestVaughanSuite:
    @pytest.mark.parametrize("limit", [1, 2, 2000])
    def test_equals_scalar_recount(self, limit):
        cfg = RunConfig()
        got = run_suite("vaughan", cfg, SuiteOptions(limit=limit))
        want = vaughan_recount(limit, cfg.sieve_limit)
        assert [repr(r.to_dict()) for r in got] == [repr(r.to_dict()) for r in want]

    @pytest.mark.parametrize("limit", [0, -5])
    def test_limit_below_one_is_usage_error(self, limit):
        with pytest.raises(UsageError, match="at least 1"):
            run_suite("vaughan", RunConfig(), SuiteOptions(limit=limit))
