"""End-to-end command-line behavior on small fixtures."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diftrans
from diftrans import cli, equilibrium, estimators, inference, pmf, transport
from diftrans.baseline import did_ols
from diftrans.cli import main
from diftrans.pmf import PeriodFilter, build_pmf

from _oracles import admits, csv_rows, dict_loop_pmf, uniform_curve
from _synth import two_city_records, write_csv

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

    def test_header_only_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("city,year,month,price,quantity\n", encoding="utf-8")
        code, report = run(tmp_path, "ingest", "--input", str(path))
        assert code == 0
        assert (report["rows"], report["total_units"], report["cities"]) == (0, 0, [])
        assert report["first_period"] is report["last_period"] is None


MALFORMED = {
    "wtp_short_row": ("wtp", b"n,v\n0,280000\n700000\n"),
    "wtp_non_numeric": ("wtp", b"n,v\n0,280000\n700000,zero\n"),
    "wtp_field_past_csv_limit": ("wtp", b"n,v\n0," + b"9" * 200_000 + b"\n700000,0\n"),
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
        # A month cannot be both pre and post, so the two windows are the
        # January of each year, whose prices are the same.
        code, report = run(
            tmp_path,
            "transport",
            "--input", str(worked_csv),
            "--city", "metro",
            "--pre", "2010-01",
            "--post", "2011-01",
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
            "--d-grid", "0:12000:2000",
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

    def test_selection_failure_writes_scan_and_no_report(self, tmp_path, capsys, worked_csv):
        # As in `dit`: the scan CSV is written, then a one-line error and no report.
        out_csv = tmp_path / "scan.csv"
        args = self.scan_args(worked_csv, out_csv)
        args[args.index("--d-grid") + 1] = "0:0:1"
        code, report = run(tmp_path, *args, "--threshold", "1e-12")
        assert (code, report) == (1, None)
        assert out_csv.exists()
        err = capsys.readouterr().err
        assert err.startswith("diftrans scan: no bandwidth in the grid has placebo cost below 1e-12")
        assert len(err.splitlines()) == 1

    def test_placebo_columns_match_dit(self, tmp_path, synth_csv):
        # One placebo base, the treated city's post window: for one city,
        # window pair and seed, `scan` and `dit` write the same placebo columns.
        dit = TestDit().dit_args(synth_csv, tmp_path)
        scan = ["scan", "--input", str(synth_csv), "--city", "metro"]
        for flag in ("--pre", "--post", "--d-grid", "--sims", "--seed", "--threshold"):
            scan += [flag, dit[dit.index(flag) + 1]]
        scan += ["--out-csv", str(tmp_path / "scan.csv")]
        for argv in (scan, dit):
            code, _ = run(tmp_path, *argv)
            assert code == 0, argv[0]

        def placebo_columns(name):
            rows = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            return [row.split(",")[2:9] for row in rows]

        columns = placebo_columns("scan.csv")
        assert columns[0] == ["placebo_mean", "placebo_sd", "q025", "q25", "q50", "q75", "q975"]
        assert len(columns) == 10
        assert columns == placebo_columns("curve.csv")


DIAG_WINDOWS = ["--diag-pre", "2010-01:2010-06", "--diag-post", "2010-07:2010-12"]


class TestDit:
    def dit_args(self, csv_path, tmp_path, extra=()):
        # --d-min skips the noise floor, so its threshold is not given with it.
        threshold = [] if "--d-min" in extra else ["--threshold", "0.005"]
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
            *threshold,
            "--out-csv", str(tmp_path / "curve.csv"),
            *extra,
        ]

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
                extra=[*DIAG_WINDOWS, "--trends-csv", str(trends)],
            ),
        )
        assert code == 0
        assert trends.exists()
        assert report["floors"]["displacement_d"] == 0

    @pytest.mark.parametrize("trends_d", [0, 7000])
    def test_floor_is_larger_of_placebo_and_trends(
        self, tmp_path, synth_csv, monkeypatch, trends_d
    ):
        monkeypatch.setattr(estimators.BandwidthScan, "_trends_floor", lambda scan, tau: trends_d)
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
            ["--d-min", "0", "--threshold", "0.005"],
            ["--diag-pre", ""],
            ["--d-min", "0", "--diag-pre", "", "--diag-post", ""],
            ["--trends-csv", ""],
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
            "threshold-d-min",
            "empty-pre-only",
            "empty-windows-d-min",
            "empty-trends",
        ],
    )
    def test_ignored_diagnostic_flags_are_one_line_errors(
        self, tmp_path, capsys, synth_csv, extra
    ):
        # Each of these runs would otherwise skip the trends floor, its table,
        # its tolerance or the noise floor's threshold in silence.
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
        # The frictionless price is the seller margin there.
        assert report["p_notc"] == report["rows"][0]["v_seller"]
        assert report["p_notc"] == pytest.approx(176_000.0, abs=1e-6)

    def test_rows_are_one_share_inversions(self, tmp_path, uniform_wtp):
        code, report = run(tmp_path, "equilibrium", "--wtp", str(uniform_wtp), "--s", "0.11,0.3")
        assert code == 0
        cfg, curve = equilibrium.MarketConfig(), equilibrium.WtpCurve.from_csv(uniform_wtp)
        for row, s in zip(report["rows"], (0.11, 0.3)):
            sol = dataclasses.asdict(equilibrium.invert_from_volume(cfg, curve, s))
            assert {key: row[key] for key in sol} == sol
            dp_ds, dt_ds = equilibrium.comparative_statics(cfg, curve, s)
            assert row["comparative_statics"] == {"dp_ds": dp_ds, "dt_ds": dt_ds}
        display = report["rows"][0]["display"]
        assert display["p_thousand"] == pytest.approx(146.3)
        assert display["tc_total_billion"] == pytest.approx(6.6066)

    def test_first_unsupported_share_raises(self, tmp_path, uniform_wtp, capsys):
        s_notc = (700_000 - 260_000) / 700_000
        for shares, message in (
            ("0.11,nan,0.9", "trade share must be a number, got nan"),
            ("0.11,0.9,nan", f"trade share 0.9 exceeds the frictionless maximum s_notc={s_notc!r}"),
        ):
            code, report = run(tmp_path, "equilibrium", "--wtp", str(uniform_wtp), "--s", shares)
            assert (code, report) == (1, None)
            assert capsys.readouterr().err == f"diftrans equilibrium: {message}\n"

    def test_price_floor_flag(self, tmp_path, uniform_wtp):
        # p = 146,300 at s = 0.11, and p_notc = 176,000 at s_notc.
        out_csv = tmp_path / "table.csv"
        shares = f"0.11,{(700_000 - 260_000) / 700_000!r}"
        argv = ["equilibrium", "--wtp", str(uniform_wtp), "--s", shares, "--out-csv", str(out_csv)]

        def csv_flags():
            with open(out_csv, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert header[-1] == "meets_price_floor"
            return [row[-1] for row in rows]

        code, report = run(tmp_path, *argv, "--price-floor", "150000")
        assert code == 0
        assert [row["meets_price_floor"] for row in report["rows"]] == [False, True]
        assert csv_flags() == ["false", "true"]
        # Unset, no report row carries the flag and its CSV cells are empty.
        code, report = run(tmp_path, *argv)
        assert code == 0
        assert not any("meets_price_floor" in row for row in report["rows"])
        assert csv_flags() == ["", ""]

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
        # Windows that meet inside a year, and an exclusion.
        pre = PeriodFilter(include=(((2010, 1), (2010, 9)),), exclude=frozenset({(2011, 3)}))
        post = PeriodFilter(include=(((2010, 10), (2011, 12)),), exclude=frozenset({(2011, 3)}))
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
        # `--weighting rows` passes no weights: each row counts once.
        result = did_ols(treated, is_post, price, weight if weighting == "units" else None)
        want = json.loads(json.dumps(dataclasses.asdict(result)))
        code, report = run(
            tmp_path,
            "did",
            "--input", str(synth_csv),
            "--treated-city", "metro",
            "--control-cities", "coastal",
            "--pre", "2010-01:2010-09",
            "--post", "2010-10:2011-12",
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


def test_csv_cells_are_reprs_of_library_values(tmp_path, synth_csv, uniform_wtp):
    # Every CSV kind the CLI writes, read back through `csv`: each number is
    # the repr of the library's value, and a draw without a value is empty.
    def cells(name):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))[1:]

    windows = ["--pre", "2010-01:2010-12", "--post", "2011-01:2011-12"]
    dit = [
        "dit", "--input", str(synth_csv), "--treated-city", "metro", "--control-city", "coastal",
        *windows, "--d-grid", "0:4000:1000", "--sims", "10", "--seed", "3", "--threshold", "0.5",
        "--diag-pre", "2010-01:2010-06", "--diag-post", "2010-07:2010-12", "--tau", "0.5",
        "--out-csv", str(tmp_path / "curve.csv"), "--trends-csv", str(tmp_path / "trends.csv"),
    ]
    plan_argv = ["transport", "--input", str(synth_csv), "--city", "metro", *windows, "--d", "2000"]
    ci = [
        "ci", "--input", str(synth_csv), "--city", "metro", *windows, "--d", "2000", "--draws", "40",
        "--seed", "21", "--map", "p", "--wtp", str(uniform_wtp), "--market-size", "50000",
        "--quota", "36000", "--dump-draws", str(tmp_path / "draws.csv"),
    ]
    for argv in (dit, [*plan_argv, "--plan", str(tmp_path / "plan.csv")], ci):
        assert run(tmp_path, *argv)[0] == 0

    table = pmf.ingest_csv(synth_csv)
    years = [PeriodFilter(include=(((year, 1), (year, 12)),)) for year in (2010, 2011)]
    halves = [PeriodFilter(include=(((2010, lo), (2010, lo + 5)),)) for lo in (1, 7)]
    pre, post, c_pre, c_post = (build_pmf(table, city, w) for city in ("metro", "coastal") for w in years)
    trends = tuple(build_pmf(table, city, w) for city in ("metro", "coastal") for w in halves)
    scan = estimators.bandwidth_scan(
        pre, post, [0, 1000, 2000, 3000, 4000], estimators.PlaceboConfig(n_sims=10, seed=3),
        control=(c_pre, c_post), trends=trends,
    )
    curve = [
        [row.d, row.real_cost, row.placebo_mean, row.placebo_sd, *row.placebo_quantiles, row.dit_value]
        for row in scan.rows
    ]
    assert cells("curve.csv") == [[repr(value) for value in row] for row in curve]
    assert cells("trends.csv") == [[repr(value) for value in row] for row in scan.trends]
    plan = transport.solve_ot(pre, post, 2000)
    src, tgt = plan.src_support.tolist(), plan.tgt_support.tolist()
    assert cells("plan.csv") == [
        [repr(i), repr(j), repr(src[i]), repr(tgt[j]), repr(mass)] for i, j, mass in plan.entries
    ]
    shares = inference.subsample_ci(pre, post, 2000, inference.SubsampleConfig(n_draws=40, seed=21)).draws
    market = equilibrium.MarketConfig(N=50000, q=36000)
    prices = equilibrium.invert_shares(market, equilibrium.WtpCurve.from_csv(uniform_wtp), shares).p
    draws = ["" if np.isnan(p) else repr(p) for p in prices.tolist()]
    assert 0 < draws.count("") < len(draws)
    assert cells("draws.csv") == [[repr(k), value] for k, value in enumerate(draws)]


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
        # After the sweep the point is mapped by one scalar inversion and
        # the draws by one call of the array core.
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
        assert [np.shape(s) for s in calls["invert_shares"]] == [(1,), (40,)]
        assert calls["invert_shares"][0] == [point]
        market = equilibrium.MarketConfig(N=50_000, q=20_000)
        curve = uniform_curve(700_000, 280_000)
        assert report["point"] == equilibrium.invert_from_volume(market, curve, point).net_gains

    @pytest.mark.parametrize("estimator", ["before_after", "dit"])
    def test_mapping_commutes_with_the_interval(self, tmp_path, synth_csv, uniform_wtp, estimator):
        # Mapping after inference: each mapped draw is the inversion of the
        # share draw, NaN where it fails (s_notc = 0.28 lies inside the
        # before-and-after draws), and the interval drops the NaN draws.
        market = ["--wtp", str(uniform_wtp), "--market-size", "50000", "--quota", "36000"]

        def ci(map_):
            dump = tmp_path / f"draws-{map_}.csv"
            extra = ["--map", map_, *(market if map_ != "share" else []), "--dump-draws", str(dump)]
            argv = self.ci_args(synth_csv, extra=extra)
            if estimator == "dit":
                argv[argv.index("before_after")] = "dit"
                argv += ["--control-city", "coastal"]
            code, report = run(tmp_path, *argv)
            assert code == 0
            values = [row.split(",")[1] for row in dump.read_text().splitlines()[1:]]
            return report, np.array([float(v) if v else np.nan for v in values])

        shares_report, shares = ci("share")
        cfg = equilibrium.MarketConfig(N=50_000, q=36_000)
        curve = equilibrium.WtpCurve.from_csv(uniform_wtp)
        point = equilibrium.invert_from_volume(cfg, curve, shares_report["point"])
        mapped = equilibrium.invert_shares(cfg, curve, shares)
        for map_, field in [("p", "p"), ("t", "t"), ("net-gains", "net_gains")]:
            report, draws = ci(map_)
            want = getattr(mapped, field)
            assert np.array_equal(draws, want, equal_nan=True)
            assert report["point"] == getattr(point, field)
            kept = want[~np.isnan(want)]
            assert report["n_failed"] == want.size - kept.size
            assert report["lower"] == np.quantile(kept, 0.025)
            assert report["upper"] == np.quantile(kept, 0.975)
        if estimator == "before_after":
            assert 0 < report["n_failed"] < report["n_draws"]

    def test_explicit_b_is_the_one_size_flag(self, tmp_path, capsys, synth_csv):
        # Each side is subsampled at --b or at floor(n^0.7); a fixed fraction
        # of n is no size rule, so --block-fraction is a usage error.
        code, report = run(tmp_path, *self.ci_args(synth_csv, extra=["--b", "100"]))
        assert code == 0
        assert report["b"] == {"pre": 100, "post": 100}
        with pytest.raises(SystemExit) as exc:
            main(self.ci_args(synth_csv, extra=["--block-fraction", "0.5"]))
        assert exc.value.code == 2
        assert "unrecognized arguments: --block-fraction 0.5" in capsys.readouterr().err

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
        ("scan", "--sims", HUGE),
        ("dit", "--sims", HUGE),
        ("dit", "--sims", "0"),
        ("ci", "--draws", HUGE),
        ("ci", "--draws", "1000000000"),
        ("ci", "--draws", str(cli.MAX_DRAWS + 1)),
        ("ci", "--draws", "-3"),
        ("transport", "--d", "-5"),
        ("ci", "--d", "-5"),
        ("scan", "--d-grid", "-1000:3000:1000"),
        ("dit", "--d-grid", "-1000:3000:1000"),
    ],
)
def test_bad_numbers_rejected_before_ingest(
    tmp_path, capsys, synth_csv, monkeypatch, command, flag, value
):
    # A negative seed, bandwidth, grid start or floor, a non-finite
    # threshold or tau, or a draw count outside [1, MAX_DRAWS] is a
    # one-line error that names it, raised before the input is read.
    scan, dit = scan_and_dit_args(synth_csv, tmp_path)
    argv = {
        "transport": writer_argv("transport", tmp_path, synth_csv, None),
        "scan": scan,
        "dit": dit,
        "ci": TestCi().ci_args(synth_csv),
    }[command]

    def ingest(*args):
        raise AssertionError("input read before the arguments were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    # One argument, so that argparse takes a value such as -1000:3000:1000.
    code, report = run(tmp_path, *argv, f"{flag}={value}")
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith(f"diftrans {command}: {flag} must be ")
    assert err.endswith(f", got {value}\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flag,extra",
    [
        ("--wtp", ["--wtp", "/nonexistent.csv"]),
        ("--market-size", ["--market-size", "50000"]),
        ("--quota", ["--quota", "0"]),
        ("--speculator-share", ["--speculator-share", "0.5"]),
        ("--strictify", ["--strictify"]),
    ],
)
def test_ci_share_rejects_market_flags(tmp_path, capsys, synth_csv, monkeypatch, flag, extra):
    # An unmapped interval reads no market model, so its flags are a
    # one-line error before the input is read.
    def ingest(*args):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    code, report = run(tmp_path, *TestCi().ci_args(synth_csv, extra=["--map", "share", *extra]))
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith(f"diftrans ci: {flag} is read only to map the share")
    assert len(err.splitlines()) == 1


def test_ci_before_after_rejects_control_city(tmp_path, capsys, synth_csv, monkeypatch):
    # Only the dit estimator builds a control city, so naming one for the
    # before-and-after estimator is a one-line error before the input is read.
    def ingest(*args):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    code, report = run(tmp_path, *TestCi().ci_args(synth_csv, extra=["--control-city", "nowhere"]))
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err == "diftrans ci: --control-city is read only by the dit estimator\n"


@pytest.mark.parametrize("command", ["dit", "ci", "did"])
def test_control_naming_treated_city_is_one_line_error_before_input(
    tmp_path, capsys, synth_csv, monkeypatch, command
):
    # A control city that is the treated city compares the city with itself,
    # so it is a one-line error before the input is read; `did` checks every
    # label of its list.
    argv = {
        "dit": TestDit().dit_args(synth_csv, tmp_path, extra=["--control-city", "metro"]),
        "ci": TestCi().ci_args(synth_csv, extra=["--estimator", "dit", "--control-city", "metro"]),
        "did": writer_argv("did", tmp_path, synth_csv, None) + ["--control-cities", "metro,coastal"],
    }[command]

    def ingest(*args):
        raise AssertionError("input read before the cities were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    code, report = run(tmp_path, *argv)
    assert (code, report) == (1, None)
    assert capsys.readouterr().err == f"diftrans {command}: control city 'metro' is the treated city\n"


@pytest.mark.parametrize("command,value", [("dit", " , "), ("ci", ","), ("did", ",")])
def test_empty_control_list_is_one_line_error_before_input(
    tmp_path, capsys, synth_csv, monkeypatch, command, value
):
    # A control list with no label pools no city, so it is a one-line error
    # before the input is read.
    flag = "--control-cities" if command == "did" else "--control-city"
    argv = {
        "dit": TestDit().dit_args(synth_csv, tmp_path),
        "ci": TestCi().ci_args(synth_csv, extra=["--estimator", "dit"]),
        "did": writer_argv("did", tmp_path, synth_csv, None),
    }[command]

    def ingest(*args):
        raise AssertionError("input read before the cities were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    code, report = run(tmp_path, *argv, flag, value)
    assert (code, report) == (1, None)
    assert capsys.readouterr().err == f"diftrans {command}: {flag} names no city\n"


@pytest.mark.parametrize("command", ["dit", "ci", "did"])
def test_control_label_not_in_input_is_one_line_error(tmp_path, capsys, synth_csv, command):
    # A typo in a pooled list would pool the other labels alone, so a label
    # that names no city of the input is an error once the input is read.
    flag = "--control-cities" if command == "did" else "--control-city"
    argv = {
        "dit": TestDit().dit_args(synth_csv, tmp_path),
        "ci": TestCi().ci_args(synth_csv, extra=["--estimator", "dit"]),
        "did": writer_argv("did", tmp_path, synth_csv, None),
    }[command]
    code, report = run(tmp_path, *argv, flag, "coastal,nowhere")
    assert (code, report) == (1, None)
    assert capsys.readouterr().err == f"diftrans {command}: control city 'nowhere' is not in {synth_csv}\n"
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("command", ["transport", "scan", "dit", "did", "ci"])
def test_city_label_not_in_input_is_one_line_error(tmp_path, capsys, synth_csv, command):
    # A treated (or only) city label that names no city of the input is the
    # same error as such a control label, once the input is read.
    flag = "--treated-city" if command in ("dit", "did") else "--city"
    code, report = run(tmp_path, *writer_argv(command, tmp_path, synth_csv, None), flag, "metr0")
    assert (code, report) == (1, None)
    assert capsys.readouterr().err == f"diftrans {command}: city 'metr0' is not in {synth_csv}\n"
    assert not (tmp_path / "curve.csv").exists()


#: The commands that read a pre and a post window.
WINDOW_COMMANDS = ["transport", "scan", "dit", "did", "ci"]


@pytest.mark.parametrize(
    "command,extra,message",
    [
        *[(c, ["--post", "2010-12:2011-12"], "--pre and --post both admit 2010-12") for c in WINDOW_COMMANDS],
        ("dit", DIAG_WINDOWS[:3] + ["2010-06:2010-12"], "--diag-pre and --diag-post both admit 2010-06"),
        ("dit", ["--d-grid", "0:10:0"], "grid '0:10:0' is empty"),
        ("dit", ["--pre", "2010-01:2010"], "period '2010' is not of the form YYYY-MM"),
        ("dit", ["--exclude", "2010-02,2010-13"], "month out of range in period '2010-13'"),
    ],
    ids=[*(f"{c}-overlap" for c in WINDOW_COMMANDS), "dit-diag-overlap", "grid", "pre", "exclude"],
)
def test_row_selection_is_checked_before_input(
    tmp_path, capsys, synth_csv, monkeypatch, command, extra, message
):
    # Windows, exclusions, the grid and the control list are parsed once
    # before the input is read, and a month in both windows of a pair is an
    # error for every command that reads a pair.
    def ingest(*args):
        raise AssertionError("input read before the windows were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    code, report = run(tmp_path, *writer_argv(command, tmp_path, synth_csv, None), *extra)
    assert (code, report) == (1, None)
    assert capsys.readouterr().err == f"diftrans {command}: {message}\n"


@pytest.mark.parametrize("command", ["transport", "did"])
def test_exclusion_covering_the_overlap_is_no_overlap(tmp_path, synth_csv, command):
    # Months that both windows hold and `--exclude` drops are in neither, so
    # the run reads as the one whose windows stop short of them.
    argv = writer_argv(command, tmp_path, synth_csv, None)
    code, overlapping = run(
        tmp_path, *argv, "--post", "2010-11:2011-12", "--exclude", "2010-11,2010-12"
    )
    code_apart, apart = run(tmp_path, *argv, "--pre", "2010-01:2010-10")
    assert code == code_apart == 0
    overlapping.pop("manifest")
    apart.pop("manifest")
    assert overlapping == apart


class TestPooledControl:
    """`dit` and `ci --estimator dit` pool a comma-separated control list."""

    WINDOWS = [PeriodFilter(include=(((year, 1), (year, 12)),)) for year in (2010, 2011)]

    @pytest.fixture
    def three_city_csv(self, tmp_path):
        """The synthetic market with a second control city, `inland`."""
        path = tmp_path / "three.csv"
        table = two_city_records(4000, 1600, 0.3, seed=5, growth=0.03, extra_controls=("inland",))
        write_csv(path, table)
        return path

    def pmfs(self, path):
        """Treated pre and post, then pooled control pre and post, by the dict-loop oracle."""
        rows = csv_rows(path)
        return [
            dict_loop_pmf(rows, city, window)
            for city in ("metro", ("coastal", "inland"))
            for window in self.WINDOWS
        ]

    def test_dit_equals_library_on_pooled_pmfs(self, tmp_path, three_city_csv):
        argv = TestDit().dit_args(three_city_csv, tmp_path, extra=["--control-city", "coastal,inland"])
        code, report = run(tmp_path, *argv)
        assert code == 0
        t_pre, t_post, c_pre, c_post = self.pmfs(three_city_csv)
        placebo = estimators.PlaceboConfig(n_sims=40, seed=3)
        grid = list(range(0, 9000, 1000))
        scan = estimators.bandwidth_scan(t_pre, t_post, grid, placebo, control=(c_pre, c_post))
        chosen = scan.select(0.005)
        assert (report["d_star"], report["s_dit"]) == (chosen.d_star, chosen.value)
        cli._write_scan(str(tmp_path / "want.csv"), scan)
        want = (tmp_path / "want.csv").read_text(encoding="utf-8")
        assert (tmp_path / "curve.csv").read_text(encoding="utf-8") == want

    def test_ci_equals_library_on_pooled_pmfs(self, tmp_path, three_city_csv):
        argv = TestCi().ci_args(
            three_city_csv, extra=["--estimator", "dit", "--control-city", "coastal, inland"]
        )
        code, report = run(tmp_path, *argv)
        assert code == 0
        t_pre, t_post, c_pre, c_post = self.pmfs(three_city_csv)
        cfg = inference.SubsampleConfig(n_draws=40, seed=21)
        want = inference.subsample_ci(t_pre, t_post, 2000, cfg, control=(c_pre, c_post))
        assert (report["point"], report["lower"], report["upper"]) == (
            want.point, want.lower, want.upper
        )

    @pytest.mark.parametrize("command", ["dit", "ci"])
    def test_repeated_label_is_that_city(self, tmp_path, three_city_csv, command):
        def argv(control):
            if command == "dit":
                return TestDit().dit_args(three_city_csv, tmp_path, extra=["--control-city", control])
            extra = ["--estimator", "dit", "--control-city", control]
            return TestCi().ci_args(three_city_csv, extra=extra)

        # A repeated label pools the city with itself: the same rows, once.
        outputs = []
        for control in ("coastal", "coastal,coastal"):
            code, report = run(tmp_path, *argv(control))
            assert code == 0
            report.pop("manifest")
            curve = tmp_path / "curve.csv"
            outputs.append((report, curve.read_bytes() if curve.exists() else None))
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--estimator", "dit"], "--control-city is required by the dit estimator"),
        (["--map", "p"], "--wtp is required to map the share, with --map p, t or net-gains"),
        (["--map", "net-gains"], "--wtp is required to map the share, with --map p, t or net-gains"),
        (["--b", "0"], "subsample size must be at least 1, got 0"),
        (["--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
        (["--map", "p", "--wtp", "WTP", "--quota", "800000"], "quota must be smaller than the market size"),
        (["--map", "t", "--wtp", "WTP", "--speculator-share", "2"], "speculator share must lie in [0, 1], got 2.0"),
        (
            ["--map", "net-gains", "--wtp", "/nonexistent/wtp.csv"],
            "[Errno 2] No such file or directory: '/nonexistent/wtp.csv'",
        ),
    ],
    ids=[
        "dit-no-control", "p-no-wtp", "net-gains-no-wtp", "b-zero", "alpha",
        "quota", "speculator-share", "wtp-missing",
    ],
)
def test_ci_checks_run_before_ingest(tmp_path, capsys, synth_csv, uniform_wtp, monkeypatch, extra, message):
    # A missing flag that the run needs, a subsample rule that no input can
    # satisfy and a market that cannot be built are one-line errors before
    # the input is read.  WTP stands for a valid --wtp file.
    def ingest(*args):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    extra = [str(uniform_wtp) if part == "WTP" else part for part in extra]
    code, report = run(tmp_path, *TestCi().ci_args(synth_csv, extra=extra))
    assert (code, report) == (1, None)
    assert capsys.readouterr().err == f"diftrans ci: {message}\n"


def writer_argv(command, tmp_path, synth_csv, wtp):
    """A valid argument vector of `command`, which writes its report to stdout."""
    window = ["--pre", "2010-01:2010-12", "--post", "2011-01:2011-12"]
    scan, dit = scan_and_dit_args(synth_csv, tmp_path)
    return {
        "ingest": ["ingest", "--input", str(synth_csv)],
        "transport": ["transport", "--input", str(synth_csv), "--city", "metro", *window, "--d", "0"],
        "scan": scan,
        "dit": dit,
        "ci": TestCi().ci_args(synth_csv),
        "equilibrium": ["equilibrium", "--wtp", str(wtp), "--s", "0.1"],
        "did": ["did", "--input", str(synth_csv), "--treated-city", "metro", "--control-cities", "coastal", *window],
        "report": ["report"],
    }[command]


@pytest.mark.parametrize("command", ["ingest", "transport", "scan", "dit", "did", "ci"])
def test_manifest_digests_the_bytes_parsed(tmp_path, synth_csv, uniform_wtp, monkeypatch, command):
    # The input is read once, so a file rewritten after that read (here, as
    # the byte pass starts) keeps the digest of the bytes the run parsed.
    original = synth_csv.read_bytes()
    parse = pmf._parse_plain

    def rewrite(*args):
        synth_csv.write_bytes(original + b"\n")
        return parse(*args)

    monkeypatch.setattr(pmf, "_parse_plain", rewrite)
    code, report = run(tmp_path, *writer_argv(command, tmp_path, synth_csv, uniform_wtp))
    assert code == 0
    assert synth_csv.read_bytes() != original
    assert report["manifest"]["inputs"] == {str(synth_csv): hashlib.sha256(original).hexdigest()}


@pytest.mark.parametrize("command", ["equilibrium", "ci", "report"])
def test_manifest_digests_the_wtp_and_sections_parsed(tmp_path, synth_csv, uniform_wtp, monkeypatch, command):
    # `--wtp` and every report section are read once too: a file rewritten
    # right after its read keeps the digest of the bytes the run parsed.
    if command == "report":
        target = tmp_path / "dit.json"
        target.write_text('{"d_star": 1000, "s_dit": 0.25}\n', encoding="utf-8")
        argv = ["report", "--dit", str(target)]
        owner, name = cli, "_read_section"
    else:
        target = uniform_wtp
        argv = writer_argv(command, tmp_path, synth_csv, uniform_wtp)
        if command == "ci":
            argv += ["--map", "net-gains", "--wtp", str(uniform_wtp)]
            argv += ["--market-size", "50000", "--quota", "20000"]
        owner, name = equilibrium.WtpCurve, "from_csv"
    original = target.read_bytes()
    read = getattr(owner, name)

    def rewrite(*args, **kwargs):
        parsed = read(*args, **kwargs)
        target.write_bytes(original + b"\n")
        return parsed

    monkeypatch.setattr(owner, name, rewrite)
    code, report = run(tmp_path, *argv)
    assert code == 0
    assert target.read_bytes() != original
    assert report["manifest"]["inputs"][str(target)] == hashlib.sha256(original).hexdigest()


#: Every output flag of every command.
OUTPUT_FLAGS = [(command, "--out") for command in cli._COMMANDS] + [
    ("transport", "--plan"),
    ("scan", "--out-csv"),
    ("dit", "--out-csv"),
    ("dit", "--trends-csv"),
    ("ci", "--dump-draws"),
    ("equilibrium", "--out-csv"),
    ("report", "--markdown"),
]


@pytest.mark.parametrize("command,flag", OUTPUT_FLAGS, ids="".join)
@pytest.mark.parametrize("kind", ["empty", "directory", "missing-directory"])
def test_bad_output_path_is_one_line_error_before_input(
    tmp_path, capsys, module_synth_csv, uniform_wtp, monkeypatch, command, flag, kind
):
    # An empty path (which `ci --dump-draws`, `transport --plan`,
    # `equilibrium --out-csv` and `report --markdown` skipped in silence), a
    # directory, or a file in a directory that does not exist is a one-line
    # error that names the flag, before any input is read or output written.
    def read(*args, **kwargs):
        raise AssertionError("input read before the output paths were checked")

    for owner, name in [(cli, "ingest_csv"), (cli, "_read_section"), (equilibrium.WtpCurve, "from_csv")]:
        monkeypatch.setattr(owner, name, read)
    path = {"empty": "", "directory": str(tmp_path), "missing-directory": str(tmp_path / "no" / "f")}[kind]
    before = sorted(tmp_path.iterdir())
    # The last value of a repeated flag is the one parsed.
    assert main([*writer_argv(command, tmp_path, module_synth_csv, uniform_wtp), flag, path]) == 1
    words = "must name a file" if kind != "missing-directory" else "must be in an existing directory"
    assert capsys.readouterr() == ("", f"diftrans {command}: {flag} {words}, got {path!r}\n")
    assert sorted(tmp_path.iterdir()) == before


def clashing_argv(tmp_path, synth_csv, wtp, command, flag, other, link):
    """An argument vector of `command` whose output `flag` names the file of
    `other`, through a symbolic link to it with `link`."""
    section = tmp_path / "scan.json"
    section.write_text("{}", encoding="utf-8")
    inputs = {"--input": synth_csv, "--wtp": wtp, "--scan": section}
    if command == "report":
        argv = ["report", "--scan", str(section)]
    else:
        argv = writer_argv(command, tmp_path, synth_csv, wtp)
    path = inputs.get(other)
    if path is None:
        path = tmp_path / "shared.out"
        argv += [other, str(path)]
    if link:
        (tmp_path / "link").symlink_to(path)
        path = tmp_path / "link"
    return argv + [flag, str(path)]


@pytest.mark.parametrize(
    "command,flag,other,link",
    [
        ("dit", "--out-csv", "--out", False),
        ("dit", "--out-csv", "--input", False),
        ("dit", "--trends-csv", "--out-csv", False),
        ("ci", "--dump-draws", "--out", False),
        ("ci", "--dump-draws", "--input", True),
        ("report", "--markdown", "--out", False),
        ("report", "--markdown", "--scan", False),
        ("equilibrium", "--out-csv", "--wtp", True),
    ],
)
def test_output_naming_another_file_is_one_line_error_before_input(
    tmp_path, capsys, synth_csv, uniform_wtp, monkeypatch, command, flag, other, link
):
    # Two outputs naming one file (the later write would replace the
    # earlier), or an output naming an input (the run would write over its
    # own data), are a one-line error before anything is read or written.
    # Paths are compared as `os.path.realpath` resolves them.
    def read(*args, **kwargs):
        raise AssertionError("input read before the output paths were checked")

    for owner, name in [(cli, "ingest_csv"), (cli, "_read_section"), (equilibrium.WtpCurve, "from_csv")]:
        monkeypatch.setattr(owner, name, read)
    argv = clashing_argv(tmp_path, synth_csv, uniform_wtp, command, flag, other, link)
    inputs = [synth_csv, uniform_wtp, tmp_path / "scan.json"]
    before = [path.read_bytes() for path in inputs]
    listing = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"diftrans {command}: {flag} names the same file as {other}, got ")
    assert len(err.splitlines()) == 1
    assert [path.read_bytes() for path in inputs] == before
    assert sorted(tmp_path.iterdir()) == listing


@pytest.mark.parametrize(
    "command,flags",
    [
        ("dit", ["--out-csv", "--trends-csv"]),
        ("report", ["--markdown"]),
    ],
)
def test_outputs_may_share_a_special_file(tmp_path, synth_csv, uniform_wtp, command, flags):
    # Writing one device twice undoes nothing, so outputs may all name
    # `os.devnull`; only regular files clash.
    argv = writer_argv(command, tmp_path, synth_csv, uniform_wtp)
    for flag in ["--out", *flags]:
        argv += [flag, os.devnull]
    assert main(argv) == 0


def parsed(parse, argv):
    """Exit code, stdout, stderr and parsed arguments of `parse(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    code, args = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


ONE_COMMAND = [[command, "--help"] for command in cli._COMMANDS] + [
    ["--help"],
    [],
    ["bogus"],
    ["--version"],
    ["-h", "ci"],
    ["--version", "ci"],
    ["--input", "x", "ingest"],
    ["ingest", "--input", "x", "extra"],
    ["ingest", "--input", "x", "--out", "y"],
    ["ci", "--input", "x"],
    ["ci", "ci"],
    ["ci", "--input", "x", "--city", "c", "--pre", "p", "--post", "q", "--d", "1", "--version"],
    ["ci", "--input", "x", "--city", "c", "--pre", "p", "--post", "q", "--d", "x"],
    ["dit", "--input", "x", "--pre", "p", "--post", "q", "--treated-city", "t", "--control-city", "c",
     "--d-grid", "0:1:1", "--out-csv", "o"],
    ["equilibrium", "--wtp", "w", "--s", "0.1", "--strictify", "--quota", "3"],
    ["report", "--ci", "x", "--markdown", "m"],
]


@pytest.mark.parametrize("argv", ONE_COMMAND, ids=" ".join)
def test_command_parser_parses_as_the_full_parser(argv):
    # `main` builds the arguments of the command that starts the vector alone;
    # every help text, usage error and parsed vector is the full parser's.
    full = parsed(cli.build_parser().parse_args, argv)
    one = parsed(cli.build_parser(argv[0] if argv and argv[0] in cli._COMMANDS else None).parse_args, argv)
    assert one == full
    if full[0] is not None:
        assert parsed(main, argv)[:3] == full[:3]


@pytest.mark.parametrize("argv", [["--help"], ["ci", "--help"], ["ci"], ["bogus"]], ids=" ".join)
def test_console_script_path_reads_sys_argv(monkeypatch, argv):
    # `main()` with no vector is the console script's call: it reads
    # `sys.argv[1:]`, and only the invoked command's arguments are built.
    built = []
    commands = {
        name: (text, func, lambda sub, add=add, name=name: (built.append(name), add(sub)))
        for name, (text, func, add) in cli._COMMANDS.items()
    }
    full = parsed(cli.build_parser().parse_args, argv)
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    monkeypatch.setattr(sys, "argv", ["diftrans", *argv])
    assert parsed(lambda _: main(), None)[:3] == full[:3]
    assert built == ([argv[0]] if argv[0] in commands else list(commands))


def test_dit_d_min_manifest_records_default_threshold(tmp_path, synth_csv):
    # --d-min reads no threshold, and its manifest records the default one,
    # as it did when the flag had a parser default.
    argv = TestDit().dit_args(synth_csv, tmp_path, extra=["--d-min", "0"])
    assert "--threshold" not in argv
    code, report = run(tmp_path, *argv)
    assert code == 0
    assert report["manifest"]["config"]["threshold"] == estimators.PLACEBO_THRESHOLD == 0.0005


def test_market_defaults_in_manifests(tmp_path, synth_csv, uniform_wtp):
    # Unset market flags reach every manifest as the model's defaults.
    market = equilibrium.MarketConfig()
    want = {"market_size": market.N, "quota": market.q, "speculator_share": market.z}
    want["strictify"] = False
    mapped = ["--map", "p", "--wtp", str(uniform_wtp)]
    argvs = [
        TestCi().ci_args(synth_csv),
        TestCi().ci_args(synth_csv, extra=mapped),
        ["equilibrium", "--wtp", str(uniform_wtp), "--s", "0.1"],
    ]
    for argv in argvs:
        code, report = run(tmp_path, *argv)
        assert code == 0, argv
        config = report["manifest"]["config"]
        assert {name: config[name] for name in want} == want


def test_huge_seed_is_valid(tmp_path, synth_csv):
    code, report = run(tmp_path, *TestCi().ci_args(synth_csv), "--seed", HUGE)
    assert code == 0
    assert report["manifest"]["seed"] == int(HUGE)


@pytest.mark.parametrize("estimator", ["before_after", "dit"])
def test_ci_bandwidth_past_int64(tmp_path, synth_csv, estimator):
    # Every move is within a bandwidth past int64, on either side of DiT.
    argv = TestCi().ci_args(synth_csv)
    argv[argv.index("--d") + 1] = HUGE
    if estimator == "dit":
        argv[argv.index("before_after")] = estimator
        argv += ["--control-city", "coastal"]
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


def test_transport_windows_are_capped(tmp_path, capsys, synth_csv, monkeypatch):
    # A grid within MAX_GRID whose windows over the scan's 174 source prices
    # (the union of the pre and post windows' 169 each; the placebo resamples
    # post) would pass transport.WINDOW_CELLS (~470 MB per int64 array) is a
    # one-line error before any window array is built.
    def windows(*args):
        raise AssertionError("window arrays built past the cap")

    monkeypatch.setattr(transport, "_windows", windows)
    scan, _ = scan_and_dit_args(synth_csv, tmp_path)
    scan[scan.index("--d-grid") + 1] = f"0:{cli.MAX_GRID - 1}:1"
    code, report = run(tmp_path, *scan)
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err == (
        f"diftrans scan: transport windows of 174 source prices by {cli.MAX_GRID} "
        f"bandwidths exceed {transport.WINDOW_CELLS} cells; use a coarser grid\n"
    )
    assert not (tmp_path / "scan.csv").exists()


def test_sweep_costs_are_capped(tmp_path, capsys, worked_csv):
    # Two prices keep the windows small, but one cost per placebo replicate
    # and bandwidth would pass transport.WINDOW_CELLS (~280 GB here): a
    # one-line error before the costs are allocated.
    grid = f"0:{cli.MAX_GRID - 1}:1"
    window = ["--pre", "2010-01:2010-12", "--post", "2011-01:2011-12"]
    code, report = run(
        tmp_path,
        "scan", "--input", str(worked_csv), "--city", "metro", *window,
        "--d-grid", grid, "--sims", str(cli.MAX_DRAWS), "--out-csv", str(tmp_path / "scan.csv"),
    )
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err == (
        f"diftrans scan: transport costs of {cli.MAX_DRAWS + 1} columns by {cli.MAX_GRID} "
        f"bandwidths exceed {transport.WINDOW_CELLS} cells; use a coarser grid\n"
    )
    assert not (tmp_path / "scan.csv").exists()


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

    @pytest.mark.parametrize(
        "section,content,message",
        [
            ("ci", b'{"point": \xff}', "is not UTF-8 text"),
            ("scan", b'{"selected_d": 1', "is not JSON (Expecting ',' delimiter, line 1)"),
            ("did", b"[1, 2]", "is not a JSON object"),
            ("dit", b'{"d_star": 1000}', "has no key 's_dit' for Markdown"),
            ("equilibrium", b'{"rows": [{"s": 0.1}]}', "has no key 'display' for Markdown"),
            ("ci", b'{"point": "x", "alpha": 0.05, "lower": 0, "upper": 1}', "has a value Markdown"),
        ],
        ids=["not_utf8", "not_json", "not_object", "no_key", "no_row_key", "bad_value"],
    )
    def test_bad_section_is_one_line_error(self, tmp_path, capsys, section, content, message):
        path = tmp_path / f"{section}.json"
        path.write_bytes(content)
        md = tmp_path / "bundle.md"
        argv = ["report", f"--{section}", str(path), "--markdown", str(md)]
        code, report = run(tmp_path, *argv)
        assert (code, report) == (1, None)
        assert not md.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"diftrans report: report input for {section!r} {message}")
        assert err.endswith(f": {path}\n")
        assert len(err.splitlines()) == 1
