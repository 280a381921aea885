import hashlib
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from revprime import expsum, primesum, verify
from revprime.cli import _format_reports
from revprime.config import RunConfig, make_rng
from revprime.basedigits import ilog
from revprime.expsum import WORK_BUDGET, F_abs_product, F_direct, make_report, sigma
from revprime.verify import (
    CALIBRATED,
    SUITES,
    SuiteOptions,
    UsageError,
    _seed_pool,
    calibrate,
    run_suite,
)

from oracles import mangoldt, mangoldt_tail, mobius_mangoldt_window, vaughan_terms


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

    def test_stream_ids_are_pinned(self):
        # the ids are RNG spawn keys: renumbering one moves every report it draws
        assert {name: suite.stream for name, suite in SUITES.items()} == {
            "product-formula": 1,
            "linf": 2,
            "l1-moment": 3,
            "psi": 4,
            "vdc": 5,
            "sin-sum": 6,
            "truncation": 7,
            "vaughan": 8,
            "monotonicity": 9,
            "type-i": 10,
            "type-ii": 11,
            "prime-exp-sum": 12,
            "hybrid": 13,
        }

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_options_a_suite_does_not_read_are_usage_errors(self, name):
        unread = [f.name for f in fields(SuiteOptions) if f.name not in SUITES[name].reads]
        for option in unread:
            value = "sod" if option == "seed_family" else 2
            flag = "--" + option.replace("_", "-")
            with pytest.raises(UsageError, match=f"suite '{name}' does not read {flag};"):
                run_suite(name, RunConfig(), SuiteOptions(**{option: value}))

    def test_read_options_are_declared_per_suite(self):
        seeded = ("g", "seed_family")
        swept = ("g", "lambda_max", "cases", "seed_family")
        assert {name: suite.reads for name, suite in SUITES.items()} == {
            "product-formula": swept,
            "linf": swept,
            "l1-moment": swept,
            "psi": ("g", "cases", "seed_family"),
            "vdc": ("cases",),
            "sin-sum": ("cases",),
            "truncation": ("g",),
            "vaughan": ("limit",),
            "monotonicity": ("g", "lambda_max", "seed_family"),
            "type-i": seeded,
            "type-ii": seeded,
            "prime-exp-sum": seeded,
            "hybrid": seeded,
        }

    @pytest.mark.parametrize(
        "name, family",
        [("linf", "diagonal"), ("type-i", "zero"), ("hybrid", "table"),
         ("type-ii", "reverse-rational"), ("prime-exp-sum", "sod")],
    )
    def test_family_outside_the_pool_is_usage_error(self, name, family):
        with pytest.raises(UsageError, match="seed family"):
            run_suite(name, RunConfig(), SuiteOptions(seed_family=family))

    def test_prime_exp_sum_pool_is_the_reverse_family(self):
        opts = SuiteOptions(g=10)
        default = run_suite("prime-exp-sum", RunConfig(), opts)
        reverse = run_suite("prime-exp-sum", RunConfig(), replace(opts, seed_family="reverse"))
        assert len(default) == 3
        assert [r.to_dict() for r in reverse] == [r.to_dict() for r in default]


class TestDeterminism:
    def test_repeat_is_identical(self):
        opts = SuiteOptions(cases=40)
        first = run_suite("vdc", RunConfig(), opts)
        second = run_suite("vdc", RunConfig(), opts)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_thread_count_changes_nothing(self):
        # the default three bases are three cells, so eight threads run
        # them in a pool; a single cell would run serially at any count
        opts = SuiteOptions(lambda_max=5, cases=4)
        serial = run_suite("linf", RunConfig(threads=1), opts)
        parallel = run_suite("linf", RunConfig(threads=8), opts)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_seed_changes_reports(self):
        opts = SuiteOptions(cases=40)
        base = run_suite("vdc", RunConfig(), opts)
        moved = run_suite("vdc", RunConfig(rng_seed=7), opts)
        assert [r.to_dict() for r in base] != [r.to_dict() for r in moved]


def linf_per_point(opts, rng, g):
    """The linf cell with one scalar F_abs_product call per beta."""
    out = []
    for name, seed in _seed_pool(g, opts.lambda_max, rng, None):
        for lam in range(1, opts.lambda_max + 1):
            for j in (0, 2):
                ceiling = g ** (1 / 20) * g ** -sigma(seed, lam, j)
                for beta in rng.random(opts.cases):
                    value = F_abs_product(seed, lam, j, float(beta))
                    params = {"g": g, "family": name, "lam": lam, "j": j}
                    out.append(make_report(value, ceiling, params))
    return out


def product_formula_per_point(opts, rng, g):
    """The product-formula cell with one scalar F_abs_product call per beta."""
    out = []
    for name, seed in _seed_pool(g, opts.lambda_max, rng, None):
        for lam in range(1, opts.lambda_max + 1):
            for beta in rng.random(opts.cases):
                direct = abs(F_direct(seed, lam, 0, float(beta)))
                prod = F_abs_product(seed, lam, 0, float(beta))
                params = {"g": g, "family": name, "lam": lam, "beta": float(beta)}
                out.append(make_report(abs(direct - prod), 1e-10, params))
    return out


class TestBatchedCells:
    # the pinned SMALL grids draw one beta per cell; these draw several,
    # so a batch that reorders or misaligns its betas shows
    @pytest.mark.parametrize("g", [2, 3, 10])
    @pytest.mark.parametrize(
        "suite, oracle", [("linf", linf_per_point), ("product-formula", product_formula_per_point)]
    )
    def test_batched_cell_equals_per_point_loop(self, suite, oracle, g):
        cfg, opts = RunConfig(), SuiteOptions(lambda_max=3, cases=5)
        stream = SUITES[suite].stream
        got = SUITES[suite].cell(cfg, opts, make_rng(cfg, stream, g), g)
        want = oracle(opts, make_rng(cfg, stream, g), g)
        assert len(got) == 4 * 3 * 5 * (2 if suite == "linf" else 1)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


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

    @pytest.mark.parametrize("g", [2, 3, 10])
    def test_product_formula_stops_at_the_direct_budget(self, g):
        # --lambda-max past the budget: lam stops at the last window
        # F_direct can sum, g^lam <= WORK_BUDGET
        reports = run_suite(
            "product-formula", RunConfig(), SuiteOptions(g=g, lambda_max=40, cases=1)
        )
        lams = sorted({r.params["lam"] for r in reports})
        assert lams == list(range(1, ilog(WORK_BUDGET, g) + 1))
        assert all(r.passed for r in reports)

    def test_l1_moment_stops_at_the_work_budget(self, monkeypatch):
        # the pure form walks g^lam points, so --lambda-max past the
        # budget stops at its last window: 6^3 points at a budget of 6^3
        monkeypatch.setattr(verify, "WORK_BUDGET", 6**3)
        reports = run_suite(
            "l1-moment", RunConfig(), SuiteOptions(g=6, lambda_max=40, cases=1)
        )
        assert sorted({r.params["lam"] for r in reports}) == [1, 2, 3]

    def test_seed_family_filter_applies(self):
        reports = run_suite(
            "linf",
            RunConfig(),
            SuiteOptions(g=2, lambda_max=3, cases=2, seed_family="sod"),
        )
        assert reports
        assert {r.params["family"] for r in reports} == {"sod"}


# Small options that leave every suite at least two cells, so a thread
# pool really splits them; between them they draw every seed family.
SMALL = {
    "product-formula": SuiteOptions(lambda_max=3, cases=1),
    "linf": SuiteOptions(lambda_max=3, cases=1, seed_family="sod"),
    "l1-moment": SuiteOptions(lambda_max=2, cases=1),
    "psi": SuiteOptions(cases=3, seed_family="reverse"),
    "vdc": SuiteOptions(cases=37),
    "sin-sum": SuiteOptions(cases=29),
    "truncation": SuiteOptions(),
    "vaughan": SuiteOptions(limit=300),
    "monotonicity": SuiteOptions(lambda_max=4),
    "type-i": SuiteOptions(seed_family="reverse-rational"),
    "type-ii": SuiteOptions(seed_family="sod"),
    "prime-exp-sum": SuiteOptions(),
    "hybrid": SuiteOptions(seed_family="reverse"),
}

# SHA-256 of each suite's report lines under SMALL at the default seed,
# joined by newlines exactly as `revprime verify` writes them (header
# left out).  A change here means report bytes moved.
REPORT_DIGESTS = {
    "product-formula": "e84527aa53507b828a3648b02adbc301f829a6e162626d85b6dba00383ceb404",
    "linf": "415ecd402d621372a2185ce790e49e8726a0804d24bbe4df0118ba2f0750815b",
    "l1-moment": "7e08291ecccd6f85a4e2ade5dbf0bfe669f7d6cb1088ac7940e843dc235179fe",
    "psi": "ee7af5a0e4b9a91859efc10b394ec9fb7adad5df83fbed9bd404fb08ef624080",
    "vdc": "d9fd999369057ab78532ff350c6fe1c130b3527e5fbf5ad6a268746f5108025a",
    "sin-sum": "4a8401d09357ee2e438993b6f24228ed86c2a1c450dc4d56cc1e072e479e5a0b",
    "truncation": "ab56d07e14958e22306aefdbe602f6c1f3807439f68411771f97ba1cf0e9ec39",
    "vaughan": "80c537a378e196b19c993f961cc7fccd080c62121a6a4a4adbe9dcb74f88a8c2",
    "monotonicity": "cf01bb062b2834c95511b335d46b17a75a44e378487bfbc31683c660e5dad132",
    "type-i": "cf1ab3f08700eed3dd492e61cdaf28ea4e6a5915004859ebb64b101ea32e8eb8",
    "type-ii": "6d5ecb608521981e7771260eb0f1c9349a0f080d0ef0a506a5db8e8ec1e5feb6",
    "prime-exp-sum": "384d2f08ab195ea18b88e10064f84870c6390223615cf3eb7f7642d43906eaba",
    "hybrid": "ef9d5a8eb29a4efab61377a00530d600b99fdc7105b7c041c9e3e664d7f0833b",
}


@pytest.fixture(scope="module")
def small_reports():
    return {name: run_suite(name, RunConfig(threads=1), opts) for name, opts in SMALL.items()}


class TestReportBytes:
    def test_small_grids_cover_every_suite(self):
        assert set(SMALL) == set(REPORT_DIGESTS) == set(SUITES)

    def test_thread_count_changes_no_suite(self, small_reports):
        for name, opts in SMALL.items():
            parallel = run_suite(name, RunConfig(threads=3), opts)
            assert [r.to_dict() for r in parallel] == [
                r.to_dict() for r in small_reports[name]
            ], name

    def test_reports_are_plain_json(self, small_reports):
        # json.dumps needs no default: passed is a bool, never a numpy bool
        for name, reports in small_reports.items():
            for r in reports:
                assert type(r.passed) is bool, (name, r.params)
                json.dumps(r.to_dict())

    def test_report_lines_are_pinned(self, small_reports):
        got = {}
        for name, reports in small_reports.items():
            lines = _format_reports(RunConfig(), SMALL[name], name, reports).splitlines()[1:]
            got[name] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert got == REPORT_DIGESTS


# The 13-suite report at every default, one thread, as `revprime verify
# SUITE...` writes it.  Per suite: the report count and the SHA-256 of
# its report lines joined by newlines (header left out, as in
# REPORT_DIGESTS), so a break names the suite.  SMALL reaches no default
# grid, so only these pins hold the default bytes of the eight suites
# that are not calibrated.
DEFAULT_DIGESTS = {
    "product-formula": (416, "7520e1b67b900f3e4c67f9dfae47ec33480a13cbc1a9686729d66801faa90270"),
    "linf": (1440, "f3ce4ccf5288d786e70fc3991c93ab413121f7358247e5844805c9eccbdd9186"),
    "l1-moment": (1380, "cd927a61b5f9c8aaf1d54150b9711147fdee761cef426d6f9f3f14eb682cdec9"),
    "psi": (320, "e511c24db7067b1d6abe971d3edeea08216810d8e4981d6c017f2bd4d885ebe4"),
    "vdc": (1000, "5c5f700d26454d5d024e15dab36b33039c97745dceba6fcfa1ca7006c17d4bd8"),
    "sin-sum": (1000, "2f547114449f62742f848c2627c20234745358bcf7395769e673e075c5c274f5"),
    "truncation": (280, "ab56d07e14958e22306aefdbe602f6c1f3807439f68411771f97ba1cf0e9ec39"),
    "vaughan": (8, "b4e0860d322accdc02b5f7a5fb21684505a1bf08cf9b2fe2b76c62b2c8610f3a"),
    "monotonicity": (660, "bc2dacd37f8b420cf84d0c85aa5b38dbd1cd3d7759c0fb4fbf2a84e88faba83a"),
    "type-i": (18, "3aa28531b0e227a91526bd7c8597dbe04a689db6b39a970d0caaccb1943c855c"),
    "type-ii": (8, "0c6948554a5416eca41c9002bc2a5d2f3c4f078676e1511ae53d34b082a0e9f5"),
    "prime-exp-sum": (9, "384d2f08ab195ea18b88e10064f84870c6390223615cf3eb7f7642d43906eaba"),
    "hybrid": (10, "907206193b5fdf6cd1f0e325b475f30e7e90fdabaa312f47c00c9189c0d2e9fe"),
}
# every header but its suite, its report count and the package version
DEFAULT_HEADER = {
    "config_hash": "c7f32585766f14d4",
    "options": {"cases": None, "g": None, "lambda_max": None, "limit": None, "seed_family": None},
    "rng_seed": 20260818,
}
# the whole file, 6562 lines: the digest README and CHANGES.md cite.
# The headers carry the package version, so a version bump moves it.
DEFAULT_FILE_DIGEST = "22b037fa4c9ccbf1cf39380b6f769c7b561a7cafb34c96be7ffb8a96b594c57a"


class TestDefaultReportBytes:
    def test_headers_are_pinned(self, default_run):
        _, chunks = default_run
        assert list(chunks) == list(SUITES)
        for name, (header, _) in chunks.items():
            rest = dict(header)
            assert rest.pop("version")
            assert rest == {**DEFAULT_HEADER, "suite": name, "reports": DEFAULT_DIGESTS[name][0]}

    def test_report_lines_are_pinned(self, default_run):
        _, chunks = default_run
        got = {
            name: (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
            for name, (_, lines) in chunks.items()
        }
        assert got == DEFAULT_DIGESTS

    def test_file_is_pinned(self, default_run):
        text, _ = default_run
        assert text.count("\n") == 6562
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_FILE_DIGEST


# (elements, calls) of expsum._cis per suite under SMALL at the default
# seed: every e(.) the package forms goes through it (primesum imports
# the name).  Unlike seconds these counts do not drift with the host.  A
# change that lowers a count updates it here and gives the old and new
# values in CHANGES.md; a change that raises one says why there.
CIS_COST = {
    "product-formula": (5012, 216),
    "linf": (180, 90),
    "l1-moment": (3700, 968),
    "psi": (43354, 956),
    "vdc": (0, 0),
    "sin-sum": (0, 0),
    "truncation": (0, 0),
    "vaughan": (0, 0),
    "monotonicity": (0, 0),
    "type-i": (32572, 6),
    "type-ii": (151128, 8),
    "prime-exp-sum": (74268, 9),
    "hybrid": (178462, 26),
}


class TestCisCost:
    def test_small_grid_counts_are_pinned(self, monkeypatch):
        cis = expsum._cis
        tally = [0, 0]

        def counted(x):
            tally[0] += np.size(x)
            tally[1] += 1
            return cis(x)

        monkeypatch.setattr(expsum, "_cis", counted)
        monkeypatch.setattr(primesum, "_cis", counted)
        got = {}
        for name, opts in SMALL.items():
            tally[:] = [0, 0]
            run_suite(name, RunConfig(threads=1), opts)
            got[name] = tuple(tally)
        assert got == CIS_COST


class TestReportSlack:
    def test_only_the_known_reports_pass_through_the_slack(self, default_run):
        # make_report passes lhs <= rhs (1 + 1e-9); these five are one ulp
        # over an equality, and a sixth such report in any suite of the
        # default run must show up here
        _, chunks = default_run
        slack = [
            (name, r["params"])
            for name, (_, lines) in chunks.items()
            for r in map(json.loads, lines)
            if r["lhs"] > r["rhs"] and r["pass"]
        ]
        caps = [
            ("vaughan", {"z": z, "limit": 10000, "form": "coefficient-cap"})
            for z in (2.0, 5.0, 10.0, 50.0)
        ]
        # params read back from the file have sorted keys: sort on sorted keys
        def order(item):
            return json.dumps(item, sort_keys=True)

        assert sorted(slack, key=order) == sorted([("vdc", {"N": 1, "R": 10}), *caps], key=order)


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


def vaughan_recount(limit):
    """The vaughan suite's reports, recounted one n at a time from the oracles."""
    out = []
    for z in (2.0, 5.0, 50.0, float(limit) ** 0.25):
        worst, worst_n, cap_ratio = 0.0, 1, 0.0
        for n in range(1, limit + 1):
            a1, a2, a3, a4 = vaughan_terms(n, z)
            gap = abs(a1 + a2 + a3 + a4 - mangoldt(n))
            if gap > worst:
                worst, worst_n = gap, n
            if n >= 2:
                ln = math.log(n)
                cap_ratio = max(
                    cap_ratio,
                    mangoldt_tail(n, z) / ln,
                    abs(mobius_mangoldt_window(n, z)) / ln,
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
        want = vaughan_recount(limit)
        assert [repr(r.to_dict()) for r in got] == [repr(r.to_dict()) for r in want]

    @pytest.mark.parametrize("limit", [0, -5])
    def test_limit_below_one_is_usage_error(self, limit):
        with pytest.raises(UsageError, match="at least 1"):
            run_suite("vaughan", RunConfig(), SuiteOptions(limit=limit))
