"""End-to-end command-line behavior on small fixtures."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diftrans
from diftrans import cli, equilibrium, estimators, transport
from diftrans.baseline import did_ols
from diftrans.cli import main
from diftrans.pmf import PeriodFilter, build_pmf

from _oracles import admits, csv_rows

WORKED_EXAMPLE = (
    "city,year,month,price,quantity\n"
    "metro,2010,1,1,6\n"
    "metro,2010,2,2,2\n"
    "metro,2011,1,1,1\n"
    "metro,2011,2,2,3\n"
)

POINT_MASS = (
    "city,year,month,price,quantity\n"
    "metro,2010,1,50000,40\n"
    "metro,2011,1,50000,25\n"
)


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(WORKED_EXAMPLE, encoding="utf-8")
    return path


@pytest.fixture
def uniform_wtp(tmp_path):
    path = tmp_path / "wtp.csv"
    path.write_text("n,v\n0,280000\n700000,0\n", encoding="utf-8")
    return path


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, report


class TestIngest:
    def test_summary(self, tmp_path, worked_csv):
        code, report = run(tmp_path, "ingest", "--input", str(worked_csv))
        assert code == 0
        assert report["rows"] == 4
        assert report["total_units"] == 12
        assert report["cities"] == ["metro"]
        assert report["first_period"] == "2010-01"
        assert report["manifest"]["version"]

    def test_missing_file(self, tmp_path):
        code, _ = run(tmp_path, "ingest", "--input", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_summary_matches_csv_loop(self, tmp_path, synth_csv):
        rows = csv_rows(synth_csv)
        periods = sorted({(year, month) for _, year, month, _, _ in rows})
        code, report = run(tmp_path, "ingest", "--input", str(synth_csv))
        assert code == 0
        assert report["rows"] == len(rows)
        assert report["total_units"] == sum(row[4] for row in rows)
        assert report["cities"] == sorted({row[0] for row in rows})
        assert report["first_period"] == "%04d-%02d" % periods[0]
        assert report["last_period"] == "%04d-%02d" % periods[-1]


MALFORMED = {
    "wtp_short_row": ("wtp", b"n,v\n0,280000\n700000\n"),
    "wtp_non_numeric": ("wtp", b"n,v\n0,280000\n700000,zero\n"),
    "sales_not_utf8": ("sales", b"city,year,month,price,quantity\nm\xe9tro,2010,1,5,1\n"),
    "input_is_directory": ("sales", None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_line_error(tmp_path, capsys, case):
    kind, content = MALFORMED[case]
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if kind == "wtp":
        argv = ["equilibrium", "--wtp", str(path), "--s", "0.1"]
    else:
        argv = ["ingest", "--input", str(path)]
    code, _ = run(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"diftrans {argv[0]}: ")
    assert len(err.splitlines()) == 1


MALFORMED_ARGUMENTS = {
    "trade_shares": ["equilibrium", "--s", "0.1,abc"],
    "grid_step": ["scan", "--d-grid", "0:x:10", "--out-csv", "scan.csv"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARGUMENTS))
def test_malformed_argument_is_one_line_error(tmp_path, capsys, worked_csv, uniform_wtp, case):
    command, *argv = MALFORMED_ARGUMENTS[case]
    if command == "equilibrium":
        argv += ["--wtp", str(uniform_wtp)]
    else:
        argv += ["--input", str(worked_csv), "--city", "metro"]
        argv += ["--pre", "2010-01:2010-12", "--post", "2011-01:2011-12"]
    code, _ = run(tmp_path, command, *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"diftrans {command}: ")
    assert len(err.splitlines()) == 1


class TestTransport:
    def test_worked_example(self, tmp_path, worked_csv):
        code, report = run(
            tmp_path,
            "transport",
            "--input", str(worked_csv),
            "--city", "metro",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--d", "0",
        )
        assert code == 0
        assert report["cost"] == 0.5
        assert report["n_pre"] == 8
        assert report["n_post"] == 4

    def test_same_window_is_free(self, tmp_path, worked_csv):
        code, report = run(
            tmp_path,
            "transport",
            "--input", str(worked_csv),
            "--city", "metro",
            "--pre", "2010-01:2010-12",
            "--post", "2010-01:2010-12",
            "--d", "0",
        )
        assert code == 0
        assert report["cost"] == 0.0

    def test_d_above_span_is_free(self, tmp_path, worked_csv):
        code, report = run(
            tmp_path,
            "transport",
            "--input", str(worked_csv),
            "--city", "metro",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--d", "5",
        )
        assert code == 0
        assert report["cost"] == 0.0

    def test_plan_csv_written(self, tmp_path, worked_csv):
        plan = tmp_path / "plan.csv"
        code, _ = run(
            tmp_path,
            "transport",
            "--input", str(worked_csv),
            "--city", "metro",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--d", "0",
            "--plan", str(plan),
        )
        assert code == 0
        lines = plan.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "i,j,x_i,x_j,mass"
        moved = sum(float(l.split(",")[4]) for l in lines[1:] if l.split(",")[2] != l.split(",")[3])
        assert moved == pytest.approx(0.5)

    def test_plan_imports_no_scipy(self, tmp_path, worked_csv):
        # scipy is a test-only dependency: neither the package nor the CLI imports it.
        plan = tmp_path / "plan.csv"
        script = (
            "import sys\n"
            "import diftrans, diftrans.cli\n"
            "code = diftrans.cli.main(sys.argv[1:])\n"
            "sys.exit(3 if 'scipy' in sys.modules else code)\n"
        )
        env = dict(os.environ)
        src = str(Path(diftrans.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [
                sys.executable, "-c", script,
                "transport",
                "--input", str(worked_csv),
                "--city", "metro",
                "--pre", "2010-01:2010-12",
                "--post", "2011-01:2011-12",
                "--d", "0",
                "--plan", str(plan),
                "--out", str(tmp_path / "report.json"),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert plan.read_text(encoding="utf-8").startswith("i,j,x_i,x_j,mass\n")

    def test_exclude_months(self, tmp_path, worked_csv):
        code, report = run(
            tmp_path,
            "transport",
            "--input", str(worked_csv),
            "--city", "metro",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--exclude", "2010-02,2011-02",
            "--d", "0",
        )
        assert code == 0
        assert report["n_pre"] == 6
        assert report["n_post"] == 1
        assert report["cost"] == 0.0


class TestScan:
    def scan_args(self, csv_path, out_csv):
        return [
            "scan",
            "--input", str(csv_path),
            "--city", "metro",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--d-grid", "0:3:1",
            "--sims", "40",
            "--seed", "9",
            "--out-csv", str(out_csv),
        ]

    def test_point_mass_selects_minimum(self, tmp_path):
        src = tmp_path / "point.csv"
        src.write_text(POINT_MASS, encoding="utf-8")
        out_csv = tmp_path / "scan.csv"
        code, report = run(tmp_path, *self.scan_args(src, out_csv))
        assert code == 0
        assert report["selected_d"] == 0
        rows = out_csv.read_text(encoding="utf-8").splitlines()[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    def test_real_cost_nonincreasing_on_synth(self, tmp_path, synth_csv):
        out_csv = tmp_path / "scan.csv"
        code, _ = run(
            tmp_path,
            "scan",
            "--input", str(synth_csv),
            "--city", "metro",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--d-grid", "0:10000:2000",
            "--sims", "30",
            "--seed", "1",
            "--out-csv", str(out_csv),
        )
        assert code == 0
        costs = [float(l.split(",")[1]) for l in out_csv.read_text().splitlines()[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_repeat_run_identical_bytes(self, tmp_path, worked_csv):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        code1, rep1 = run(tmp_path, *self.scan_args(worked_csv, out1))
        code2, rep2 = run(tmp_path, *self.scan_args(worked_csv, out2))
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        for rep in (rep1, rep2):
            rep["manifest"]["config"].pop("out_csv")
            rep.pop("scan_csv")
        assert rep1 == rep2

    def test_selection_failure_still_writes_scan(self, tmp_path, worked_csv):
        out_csv = tmp_path / "scan.csv"
        args = self.scan_args(worked_csv, out_csv)
        args[args.index("--d-grid") + 1] = "0:0:1"
        out = tmp_path / "report.json"
        code = main([*args, "--threshold", "1e-12", "--out", str(out)])
        assert code == 1
        assert out_csv.exists()
        report = json.loads(out.read_text(encoding="utf-8"))
        assert "selection_error" in report


DIAG_WINDOWS = ["--diag-pre", "2010-01:2010-06", "--diag-post", "2010-07:2010-12"]


class TestDit:
    def dit_args(self, csv_path, tmp_path, extra=()):
        return [
            "dit",
            "--input", str(csv_path),
            "--treated-city", "metro",
            "--control-city", "coastal",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--d-grid", "0:8000:1000",
            "--sims", "40",
            "--seed", "3",
            "--threshold", "0.005",
            "--out-csv", str(tmp_path / "curve.csv"),
            *extra,
        ]

    def test_null_when_control_equals_treated(self, tmp_path, synth_csv):
        out_csv = tmp_path / "curve.csv"
        code, report = run(
            tmp_path,
            "dit",
            "--input", str(synth_csv),
            "--treated-city", "coastal",
            "--control-city", "coastal",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--d-grid", "0:8000:1000",
            "--sims", "40",
            "--seed", "3",
            "--d-min", "0",
            "--out-csv", str(out_csv),
        )
        assert code == 0
        dits = [float(l.split(",")[-1]) for l in out_csv.read_text().splitlines()[1:]]
        assert all(v <= 1e-12 for v in dits)
        assert report["s_dit"] <= 1e-12

    def test_planted_trades_detected(self, tmp_path, synth_csv):
        code, report = run(tmp_path, *self.dit_args(synth_csv, tmp_path))
        assert code == 0
        assert 0 <= report["d_star"] <= 8000
        assert report["s_dit"] > 0.1
        assert report["floors"]["placebo_d"] is not None
        # DiT is a lower bound on the planted share sigma = 0.3 at every d, up
        # to the sampling noise the placebo columns measure.
        with open(tmp_path / "curve.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            assert float(row["dit"]) <= 0.3 + float(row["q975"])

    def test_diagnostic_floor_and_trends_csv(self, tmp_path, synth_csv):
        trends = tmp_path / "trends.csv"
        code, report = run(
            tmp_path,
            *self.dit_args(
                synth_csv,
                tmp_path,
                extra=[
                    "--diag-pre", "2010-01:2010-12",
                    "--diag-post", "2010-01:2010-12",
                    "--trends-csv", str(trends),
                ],
            ),
        )
        assert code == 0
        assert trends.exists()
        assert report["floors"]["displacement_d"] == 0

    @pytest.mark.parametrize("trends_d", [0, 7000])
    def test_floor_is_larger_of_placebo_and_trends(
        self, tmp_path, synth_csv, monkeypatch, trends_d
    ):
        monkeypatch.setattr(estimators, "displacement_floor", lambda curves, tau: trends_d)
        code, report = run(tmp_path, *self.dit_args(synth_csv, tmp_path, extra=DIAG_WINDOWS))
        assert code == 0
        floors = report["floors"]
        assert floors["placebo_d"] < 7000
        assert floors["displacement_d"] == trends_d
        assert floors["d_min"] == max(floors["placebo_d"], trends_d)
        assert report["d_star"] >= floors["d_min"]

    def test_empty_admissible_set_fails(self, tmp_path, synth_csv):
        code, _ = run(
            tmp_path, *self.dit_args(synth_csv, tmp_path, extra=["--d-min", "99000"])
        )
        assert code == 1

    def test_empty_diagnostic_window_is_one_line_error(self, tmp_path, capsys, synth_csv):
        extra = ["--diag-pre", "2015-01:2015-12", "--diag-post", "2010-07:2010-12"]
        code, report = run(tmp_path, *self.dit_args(synth_csv, tmp_path, extra=extra))
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("diftrans dit: ")
        assert len(err.splitlines()) == 1
        # The diagnostic PMFs are built before the sweep, so no curve is written.
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--d-min", "0", *DIAG_WINDOWS, "--trends-csv", "trends.csv"],
            ["--d-min", "0", "--trends-csv", "trends.csv"],
            ["--d-min", "0", *DIAG_WINDOWS],
            ["--d-min", "0", *DIAG_WINDOWS[2:]],
            ["--trends-csv", "trends.csv"],
            [*DIAG_WINDOWS[:2], "--trends-csv", "trends.csv"],
            DIAG_WINDOWS[:2],
            DIAG_WINDOWS[2:],
            ["--tau", "0.01"],
            ["--d-min", "0", "--tau", "0.01"],
        ],
        ids=[
            "trends-d-min",
            "trends-d-min-no-window",
            "windows-d-min",
            "post-d-min",
            "trends-no-window",
            "trends-one-window",
            "pre-only",
            "post-only",
            "tau-no-window",
            "tau-d-min",
        ],
    )
    def test_ignored_diagnostic_flags_are_one_line_errors(
        self, tmp_path, capsys, synth_csv, extra
    ):
        # Each of these runs would otherwise skip the trends floor, its table
        # or its tolerance in silence.
        extra = [str(tmp_path / x) if x == "trends.csv" else x for x in extra]
        code, report = run(tmp_path, *self.dit_args(synth_csv, tmp_path, extra=extra))
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("diftrans dit: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "trends.csv").exists()
        assert not (tmp_path / "curve.csv").exists()

    def test_explicit_floor_rejects_windows_before_ingest(self, tmp_path, synth_csv, monkeypatch):
        # --d-min skips the trends floor, so its diagnostic windows are an
        # error raised before the input is read; without them the explicit
        # floor reads the input once and builds only the scan's four PMFs.
        calls = []
        for fn in (cli.ingest_csv, build_pmf):

            def counted(*args, fn=fn):
                calls.append(fn.__name__)
                return fn(*args)

            monkeypatch.setattr(cli, fn.__name__, counted)
        extra = ["--d-min", "0", *DIAG_WINDOWS]
        code, report = run(tmp_path, *self.dit_args(synth_csv, tmp_path, extra=extra))
        assert (code, report, calls) == (1, None, [])
        code, report = run(tmp_path, *self.dit_args(synth_csv, tmp_path, extra=extra[:2]))
        assert code == 0
        assert report["floors"] == {"placebo_d": None, "displacement_d": None, "d_min": 0}
        assert calls == ["ingest_csv"] + ["build_pmf"] * 4
        # An absent --tau is recorded at its default.
        assert report["manifest"]["config"]["tau"] == 0.005


class TestEquilibrium:
    def test_uniform_closed_form(self, tmp_path, uniform_wtp):
        out_csv = tmp_path / "table.csv"
        code, report = run(
            tmp_path,
            "equilibrium",
            "--wtp", str(uniform_wtp),
            "--s", "0.11",
            "--out-csv", str(out_csv),
        )
        assert code == 0
        row = report["rows"][0]
        assert row["p"] == pytest.approx(146_300.0, abs=1e-6)
        assert row["t"] == pytest.approx(115_500.0, abs=1e-6)
        assert row["comparative_statics"]["dt_ds"] < 0
        assert report["s_notc"] == pytest.approx((700_000 - 260_000) / 700_000)
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("s,p,t,v_seller,v_buyer")

    def test_frictionless_row(self, tmp_path, uniform_wtp):
        code, report = run(
            tmp_path,
            "equilibrium",
            "--wtp", str(uniform_wtp),
            "--s", str((700_000 - 260_000) / 700_000),
        )
        assert code == 0
        assert report["rows"][0]["t"] == pytest.approx(0.0, abs=1e-6)

    def test_infeasible_share_names_bound(self, tmp_path, uniform_wtp, capsys):
        code, _ = run(
            tmp_path, "equilibrium", "--wtp", str(uniform_wtp), "--s", "0.95"
        )
        assert code == 1
        assert "s_notc" in capsys.readouterr().err

    @pytest.mark.parametrize("share", ["nan", "inf", "0.1,nan"])
    def test_non_finite_share_is_one_line_error(self, tmp_path, uniform_wtp, capsys, share):
        code, report = run(tmp_path, "equilibrium", "--wtp", str(uniform_wtp), "--s", share)
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith("diftrans equilibrium: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("share", [",", " , "])
    def test_empty_share_list_is_one_line_error(self, tmp_path, capsys, share):
        # Raised before the curve is read: the curve path does not exist.
        argv = ["equilibrium", "--wtp", str(tmp_path / "missing.csv"), "--s", share]
        code, report = run(tmp_path, *argv)
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        assert err == f"diftrans equilibrium: trade shares {share!r} name no share\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_price_floor_is_one_line_error(self, tmp_path, uniform_wtp, capsys, value):
        argv = ["equilibrium", "--wtp", str(uniform_wtp), "--s", "0.11", "--price-floor", value]
        code, report = run(tmp_path, *argv)
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        assert err == f"diftrans equilibrium: --price-floor must be finite, got {value}\n"
        # Unset, the flag is not checked and no row carries the flag.
        code, report = run(tmp_path, *argv[:-2])
        assert code == 0
        assert "meets_price_floor" not in report["rows"][0]


class TestDid:
    @pytest.mark.parametrize("weighting", ["units", "rows"])
    def test_matches_csv_loop(self, tmp_path, synth_csv, weighting):
        # Overlapping windows (a period in both counts as pre), an exclusion,
        # and a control label the file does not have.
        pre = PeriodFilter(include=(((2010, 1), (2010, 12)),), exclude=frozenset({(2011, 3)}))
        post = PeriodFilter(include=(((2010, 7), (2011, 12)),), exclude=frozenset({(2011, 3)}))
        treated, is_post, price, weight = [], [], [], []
        for city, year, month, p, q in csv_rows(synth_csv):
            if city not in ("metro", "coastal"):
                continue
            if admits(pre, year, month):
                is_post.append(False)
            elif admits(post, year, month):
                is_post.append(True)
            else:
                continue
            treated.append(city == "metro")
            price.append(p)
            weight.append(q)
        want = did_ols(treated, is_post, price, weight, weighting=weighting).as_dict()
        code, report = run(
            tmp_path,
            "did",
            "--input", str(synth_csv),
            "--treated-city", "metro",
            "--control-cities", "coastal,nowhere",
            "--pre", "2010-01:2010-12",
            "--post", "2010-07:2011-12",
            "--exclude", "2011-03",
            "--weighting", weighting,
        )
        assert code == 0
        report.pop("manifest")
        assert report == want

    def test_planted_jump_detected(self, tmp_path, synth_csv):
        code, report = run(
            tmp_path,
            "did",
            "--input", str(synth_csv),
            "--treated-city", "metro",
            "--control-cities", "coastal",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
        )
        assert code == 0
        assert report["alpha3"] > 0.0
        assert report["n_obs"] > 0

    def test_weighting_flag(self, tmp_path, synth_csv):
        _, units = run(
            tmp_path,
            "did",
            "--input", str(synth_csv),
            "--treated-city", "metro",
            "--control-cities", "coastal",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--weighting", "units",
        )
        _, rows = run(
            tmp_path,
            "did",
            "--input", str(synth_csv),
            "--treated-city", "metro",
            "--control-cities", "coastal",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--weighting", "rows",
        )
        assert units["n_obs"] != rows["n_obs"]


class TestCi:
    def ci_args(self, csv_path, extra=()):
        return [
            "ci",
            "--input", str(csv_path),
            "--city", "metro",
            "--pre", "2010-01:2010-12",
            "--post", "2011-01:2011-12",
            "--estimator", "before_after",
            "--d", "2000",
            "--draws", "40",
            "--seed", "21",
            *extra,
        ]

    def test_interval_and_draw_dump(self, tmp_path, synth_csv):
        draws = tmp_path / "draws.csv"
        code, report = run(
            tmp_path, *self.ci_args(synth_csv, extra=["--dump-draws", str(draws)])
        )
        assert code == 0
        assert report["lower"] <= report["upper"]
        header, *rows = draws.read_text().splitlines()
        assert header == "draw_index,value"
        assert len(rows) == report["n_draws"] == 40
        assert report["n_failed"] == 0
        for k, row in enumerate(rows):
            index, value = row.split(",")
            assert int(index) == k
            assert 0.0 <= float(value) <= 1.0

    def test_dit_requires_control(self, tmp_path, synth_csv):
        args = self.ci_args(synth_csv)
        args[args.index("before_after")] = "dit"
        code, _ = run(tmp_path, *args)
        assert code == 1

    def test_mapped_interval(self, tmp_path, synth_csv, uniform_wtp):
        code, report = run(
            tmp_path,
            *self.ci_args(
                synth_csv,
                extra=[
                    "--map", "t",
                    "--wtp", str(uniform_wtp),
                    "--market-size", "50000",
                    "--quota", "20000",
                ],
            ),
        )
        assert code == 0
        assert report["map"] == "t"
        # The wedge falls as the share rises, so the mapped interval flips.
        assert report["lower"] <= report["upper"]

    def test_failed_draws_counted(self, tmp_path, synth_csv, uniform_wtp):
        # s_notc = 0.28 sits inside the share draws (~0.20 to ~0.34), so the
        # draws above it fail the inversion and dump as empty values.
        draws = tmp_path / "draws.csv"
        code, report = run(
            tmp_path,
            *self.ci_args(
                synth_csv,
                extra=[
                    "--map", "t",
                    "--wtp", str(uniform_wtp),
                    "--market-size", "50000",
                    "--quota", "36000",
                    "--dump-draws", str(draws),
                ],
            ),
        )
        assert code == 0
        values = [row.split(",")[1] for row in draws.read_text().splitlines()[1:]]
        assert 0 < report["n_failed"] == values.count("") < report["n_draws"]

    def test_mapped_draws_invert_in_one_array_call(self, tmp_path, synth_csv, uniform_wtp, monkeypatch):
        # The point is checked by one scalar inversion; every estimate, the
        # point first, is mapped by one call of the array core.
        calls = {"invert_from_volume": [], "invert_shares": []}
        for name in calls:
            fn = getattr(equilibrium, name)

            def counted(cfg, curve, s, fn=fn, name=name):
                calls[name].append(s)
                return fn(cfg, curve, s)

            monkeypatch.setattr(equilibrium, name, counted)
        extra = ["--map", "net-gains", "--wtp", str(uniform_wtp), "--market-size", "50000"]
        code, report = run(tmp_path, *self.ci_args(synth_csv, extra=[*extra, "--quota", "20000"]))
        assert code == 0
        # The scalar inversion runs the core on its one share.
        (point,) = calls["invert_from_volume"]
        assert [np.shape(s) for s in calls["invert_shares"]] == [(1,), (41,)]
        assert point == calls["invert_shares"][1][0]
        market = equilibrium.MarketConfig(N=50_000, q=20_000)
        curve = equilibrium.WtpCurve.uniform(700_000, 280_000)
        assert report["point"] == equilibrium.invert_from_volume(market, curve, point).net_gains

    def test_block_fraction_below_one_unit_is_one_line_error(self, tmp_path, capsys, synth_csv):
        code, report = run(tmp_path, *self.ci_args(synth_csv, extra=["--block-fraction", "1e-9"]))
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith("diftrans ci: block fraction 1e-09 of n=")
        assert len(err.splitlines()) == 1

    def test_failing_point_is_one_line_error(self, tmp_path, capsys, synth_csv, uniform_wtp):
        # The full-sample share (~0.24) exceeds s_notc = 0.2, so the point
        # itself has no market inversion.
        code, report = run(
            tmp_path,
            *self.ci_args(
                synth_csv,
                extra=[
                    "--map", "t",
                    "--wtp", str(uniform_wtp),
                    "--market-size", "50000",
                    "--quota", "40000",
                ],
            ),
        )
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("diftrans ci: ")
        assert len(err.splitlines()) == 1


def scan_and_dit_args(synth_csv, tmp_path):
    """`scan`, and `dit` with the trends floor, on the synthetic market."""
    window = ["--pre", "2010-01:2010-12", "--post", "2011-01:2011-12"]
    scan = ["scan", "--input", str(synth_csv), "--city", "metro", *window]
    scan += ["--d-grid", "0:4000:1000", "--sims", "10", "--threshold", "0.5"]
    scan += ["--out-csv", str(tmp_path / "scan.csv")]
    dit = TestDit().dit_args(synth_csv, tmp_path, extra=[
        "--diag-pre", "2010-01:2010-06",
        "--diag-post", "2010-07:2010-12",
        "--tau", "0.5",
        "--trends-csv", str(tmp_path / "trends.csv"),
    ])
    return scan, dit


def test_estimators_run_no_scalar_transport(tmp_path, synth_csv, monkeypatch):
    # Every transport cost of `scan`, `dit` (with the trends floor) and both
    # `ci` estimators goes through the column kernel, never the scalar recurrence.
    def scalar(*args, **kwargs):
        raise AssertionError("scalar transport recurrence called")

    monkeypatch.setattr(transport, "_levels", scalar)
    scan, dit = scan_and_dit_args(synth_csv, tmp_path)
    ci = TestCi().ci_args(synth_csv)
    ci_dit = TestCi().ci_args(synth_csv, extra=["--control-city", "coastal"])
    ci_dit[ci_dit.index("before_after")] = "dit"
    for argv in (scan, dit, ci, ci_dit):
        code, report = run(tmp_path, *argv)
        assert code == 0, argv[0]
    assert report["estimator"] == "dit"
    assert (tmp_path / "trends.csv").exists()


def test_scan_and_dit_make_one_kernel_call(tmp_path, synth_csv, monkeypatch):
    # With the columns in one block, the real, control and trends pairs and
    # every replicate share one pass of the column kernel, as do the full
    # sample and every subsample draw of either `ci` estimator.
    kernel = transport._cost_columns
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(transport, "_cost_columns", counted)
    ci = TestCi().ci_args(synth_csv)
    ci_dit = TestCi().ci_args(synth_csv, extra=["--control-city", "coastal"])
    ci_dit[ci_dit.index("before_after")] = "dit"
    for argv in (*scan_and_dit_args(synth_csv, tmp_path), ci, ci_dit):
        calls.clear()
        code, _ = run(tmp_path, *argv)
        assert code == 0, argv[0]
        assert len(calls) == 1, argv[0]
    assert (tmp_path / "trends.csv").exists()


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("scan", "--seed", "-1"),
        ("dit", "--seed", "-1"),
        ("ci", "--seed", "-1"),
        ("scan", "--threshold", "nan"),
        ("dit", "--threshold", "inf"),
        ("dit", "--tau", "nan"),
        ("dit", "--d-min", "-5"),
    ],
)
def test_bad_numbers_rejected_before_ingest(
    tmp_path, capsys, synth_csv, monkeypatch, command, flag, value
):
    # A negative seed or floor, or a non-finite threshold or tau, is a
    # one-line error that names it, raised before the input is read.
    scan, dit = scan_and_dit_args(synth_csv, tmp_path)
    argv = {"scan": scan, "dit": dit, "ci": TestCi().ci_args(synth_csv)}[command]

    def ingest(*args):
        raise AssertionError("input read before the arguments were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    code, report = run(tmp_path, *argv, flag, value)
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith(f"diftrans {command}: {flag} must be ")
    assert err.endswith(f", got {value}\n")
    assert len(err.splitlines()) == 1


def test_huge_seed_is_valid(tmp_path, synth_csv):
    code, report = run(tmp_path, *TestCi().ci_args(synth_csv), "--seed", HUGE)
    assert code == 0
    assert report["manifest"]["seed"] == int(HUGE)


@pytest.mark.parametrize("estimator", ["before_after", "dit"])
def test_ci_bandwidth_past_int64(tmp_path, synth_csv, estimator):
    # Every move is within a bandwidth past int64, on either side of DiT.
    argv = TestCi().ci_args(synth_csv, extra=["--control-city", "coastal"])
    argv[argv.index("--d") + 1] = HUGE
    argv[argv.index("before_after")] = estimator
    code, report = run(tmp_path, *argv)
    assert code == 0
    assert report["d"] == int(HUGE)
    assert report["point"] == report["lower"] == report["upper"] == 0.0


def test_scan_bandwidth_past_int64(tmp_path, synth_csv):
    scan, _ = scan_and_dit_args(synth_csv, tmp_path)
    scan[scan.index("--d-grid") + 1] = f"0:{HUGE}:{HUGE}"
    assert run(tmp_path, *scan)[0] == 0
    rows = (tmp_path / "scan.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", HUGE]
    assert rows[2].startswith(f"{HUGE},0.0,0.0,0.0,")


def test_grid_length_is_capped(tmp_path, capsys, synth_csv, monkeypatch):
    # A grid longer than the cap is a one-line error.
    monkeypatch.setattr(cli, "MAX_GRID", 4)
    scan, _ = scan_and_dit_args(synth_csv, tmp_path)
    code, report = run(tmp_path, *scan)
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err == "diftrans scan: grid '0:4000:1000' has 5 bandwidths, more than 4\n"
    scan[scan.index("--d-grid") + 1] = "0:3000:1000"
    assert run(tmp_path, *scan)[0] == 0


class TestReport:
    def test_bundle_with_gaps_and_determinism(self, tmp_path, worked_csv):
        transport_json = tmp_path / "transport.json"
        main(
            [
                "transport",
                "--input", str(worked_csv),
                "--city", "metro",
                "--pre", "2010-01:2010-12",
                "--post", "2011-01:2011-12",
                "--d", "0",
                "--out", str(transport_json),
            ]
        )
        scan_json = tmp_path / "scan.json"
        main(
            [
                "scan",
                "--input", str(worked_csv),
                "--city", "metro",
                "--pre", "2010-01:2010-12",
                "--post", "2011-01:2011-12",
                "--d-grid", "0:2:1",
                "--sims", "20",
                "--seed", "1",
                "--out-csv", str(tmp_path / "scan.csv"),
                "--out", str(scan_json),
            ]
        )
        bundle_path = tmp_path / "bundle.json"
        md = tmp_path / "bundle.md"
        argv = [
            "report",
            "--scan", str(scan_json),
            "--markdown", str(md),
            "--out", str(bundle_path),
        ]
        assert main(argv) == 0
        first = bundle_path.read_bytes()
        assert main(argv) == 0
        assert bundle_path.read_bytes() == first
        bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
        assert bundle["gaps"] == ["dit", "equilibrium", "did", "ci"]
        assert bundle["sections"]["equilibrium"] == {"missing": True}
        assert bundle["sections"]["scan"]["selected_d"] == 1
        text = md.read_text(encoding="utf-8")
        assert "Missing sections" in text

    def test_missing_input_file_fails(self, tmp_path):
        code, _ = run(tmp_path, "report", "--scan", str(tmp_path / "ghost.json"))
        assert code == 1
