"""End-to-end command-line behavior on small fixtures."""

import csv
import json

import numpy as np
import pytest

from diftrans.baseline import did_ols
from diftrans.cli import main
from diftrans.pmf import PeriodFilter

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

    def test_empty_admissible_set_fails(self, tmp_path, synth_csv):
        code, _ = run(
            tmp_path, *self.dit_args(synth_csv, tmp_path, extra=["--d-min", "99000"])
        )
        assert code == 1


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
