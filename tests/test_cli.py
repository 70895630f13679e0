"""Command-line pipeline: round trips, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ivrand import TestConfig, cli, exact_test, load_dataset, read_delimited, run_test
from ivrand.cli import main
from ivrand.comparison import RIDGE_FALLBACK
from ivrand.errors import ValidationError
from ivrand.report import build_report
from ivrand.rng import STREAM_VERSION


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture()
def synth_file(tmp_path):
    out = tmp_path / "demo"
    code = main(["synth", "--scenario", "confounded-exposure", "--n", "250",
                 "--k", "3", "--seed", "4", "--out", str(out)])
    assert code == 0
    return out.with_suffix(".csv")


@pytest.fixture()
def tiny_file(tmp_path):
    path = tmp_path / "tiny.csv"
    rows = [
        (1, 1, 2.5, 0), (1, 1, 1.0, 1), (0, 0, 3.5, 0), (0, 0, 0.5, 1),
        (1, 1, 2.0, 0), (0, 1, 1.5, 1), (1, 0, 4.0, 0), (0, 0, 0.0, 1),
    ]
    _write_csv(path, ["z", "d", "age", "flag"], rows)
    return path


@pytest.fixture()
def blocked_file(tmp_path):
    rng = np.random.default_rng(0)
    n = 120
    block = np.repeat(["u", "v", "w"], n // 3)
    z = np.concatenate([rng.permutation([1] * 15 + [0] * 25) for _ in range(3)])
    d = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    d[:2] = [0, 1]
    x = rng.standard_normal(n).round(6)
    path = tmp_path / "blocked.csv"
    _write_csv(path, ["z", "d", "site", "age"], list(zip(z, d, block, x)))
    return path


class TestCmdSynth:
    def test_round_trip(self, synth_file):
        ds = load_dataset(synth_file, "instrument", "exposure")
        assert ds.n_units == 250
        assert ds.n_covariates == 3

    def test_same_seed_identical_files(self, tmp_path):
        for name in ("a", "b"):
            assert main(["synth", "--n", "100", "--seed", "9",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert ((tmp_path / "a.ground_truth.json").read_bytes()
                == (tmp_path / "b.ground_truth.json").read_bytes())

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        code = main(["synth", "--scenario", "nope", "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "all-randomized" in err["message"]


class TestCmdTest:
    def test_full_pipeline(self, synth_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        plots = tmp_path / "plots"
        code = main(["test", str(synth_file), "--instrument", "instrument",
                     "--exposure", "exposure", "--draws", "300", "--seed", "7",
                     "--out", str(report_path), "--plots-dir", str(plots)])
        assert code == 0
        report = json.loads(report_path.read_text())
        for section in ("metadata", "dataset_summary", "propensity", "scmd_table",
                        "per_covariate", "global", "comparison", "case"):
            assert section in report
        assert report["metadata"]["n_draws"] == 300
        assert set(report["per_covariate"]) == {"scmd", "iv_bias"}
        assert (plots / "mahalanobis_hist.csv").exists()
        assert (plots / "propensity_hist.csv").exists()
        assert (plots / "per_covariate_scmd.csv").exists()

    def test_missing_instrument_column_exit_2(self, synth_file, tmp_path, capsys):
        code = main(["test", str(synth_file), "--instrument", "zzz",
                     "--exposure", "exposure", "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "zzz" in err["message"]

    @pytest.mark.parametrize("case", ["missing_data", "data_is_dir", "out_is_dir",
                                      "plots_dir_is_file"])
    def test_os_error_exit_2(self, synth_file, tmp_path, capsys, case):
        data, out, plots = str(synth_file), tmp_path / "r.json", tmp_path / "plots"
        if case == "missing_data":
            data = str(tmp_path / "absent.csv")
        elif case == "data_is_dir":
            data = str(tmp_path)
        elif case == "out_is_dir":
            out.mkdir()
        else:
            plots.write_text("not a directory\n")
        code = main(["test", data, "--instrument", "instrument", "--exposure",
                     "exposure", "--draws", "20", "--out", str(out),
                     "--plots-dir", str(plots)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"]
        # the report is written before the plot tables
        assert out.is_file() == (case == "plots_dir_is_file")

    def test_determinism_modulo_timestamp(self, synth_file, tmp_path):
        args = ["test", str(synth_file), "--instrument", "instrument",
                "--exposure", "exposure", "--draws", "200", "--seed", "3"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a), "--plots-dir", str(tmp_path / "pa")]) == 0
        assert main(args + ["--out", str(b), "--plots-dir", str(tmp_path / "pb")]) == 0
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        da["metadata"].pop("created_utc")
        db["metadata"].pop("created_utc")
        assert da == db
        for name in ("mahalanobis_hist", "per_covariate_scmd", "scmd_dotplot",
                     "propensity_hist", "per_covariate_iv_bias",
                     "mahalanobis_observed"):
            fa = (tmp_path / "pa" / f"{name}.csv").read_bytes()
            fb = (tmp_path / "pb" / f"{name}.csv").read_bytes()
            assert fa == fb

    def test_report_matches_in_process_run(self, synth_file, tmp_path):
        report_path = tmp_path / "r.json"
        assert main(["test", str(synth_file), "--instrument", "instrument",
                     "--exposure", "exposure", "--draws", "250", "--seed", "11",
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        ds = load_dataset(synth_file, "instrument", "exposure")
        res = run_test(ds, "instrument", TestConfig(n_draws=250, seed=11),
                       statistic="sqrt_mahalanobis")
        assert report["global"]["instrument"]["sqrt_mahalanobis"]["p_value"] == res.p_value

    def test_plot_tables_sufficient_to_rerender(self, synth_file, tmp_path):
        plots = tmp_path / "plots"
        assert main(["test", str(synth_file), "--instrument", "instrument",
                     "--exposure", "exposure", "--draws", "200", "--seed", "2",
                     "--out", str(tmp_path / "r.json"),
                     "--plots-dir", str(plots)]) == 0
        with open(plots / "mahalanobis_hist.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["distribution"] for r in rows} == {
            "complete_randomization", "bernoulli_instrument", "bernoulli_exposure"
        }
        assert all(float(r["bin_right"]) > float(r["bin_left"]) for r in rows)
        with open(plots / "per_covariate_scmd.csv") as fh:
            band_rows = list(csv.DictReader(fh))
        assert {"covariate", "target", "observed", "q025", "q975",
                "p_value"} <= set(band_rows[0])
        assert [r["target"] for r in band_rows] == (
            ["instrument"] * (len(band_rows) // 2) + ["exposure"] * (len(band_rows) // 2))
        with open(plots / "scmd_dotplot.csv") as fh:
            dot_rows = list(csv.DictReader(fh))
        assert all(float(r["reference_threshold"]) == 0.1 for r in dot_rows)
        with open(plots / "propensity_hist.csv") as fh:
            prop_rows = list(csv.DictReader(fh))
        assert {r["model"] for r in prop_rows} == {"instrument", "exposure"}

    def test_block_mechanism(self, blocked_file, tmp_path):
        code = main(["test", str(blocked_file), "--instrument", "z", "--exposure", "d",
                     "--mechanism", "block", "--block-column", "site",
                     "--draws", "150", "--seed", "5",
                     "--out", str(tmp_path / "rb.json")])
        assert code == 0
        report = json.loads((tmp_path / "rb.json").read_text())
        mech = report["global"]["instrument"]["sqrt_mahalanobis"]["mechanism"]
        assert mech["kind"] == "block"
        assert mech["per_block_treated"] == {"u": 15, "v": 15, "w": 15}
        names = report["dataset_summary"]["covariate_names"]
        assert names == ["age"]   # block column kept out of the covariates

    def test_bernoulli_mechanism(self, synth_file, tmp_path):
        code = main(["test", str(synth_file), "--instrument", "instrument",
                     "--exposure", "exposure", "--mechanism", "bernoulli",
                     "--draws", "150", "--seed", "5",
                     "--out", str(tmp_path / "rbern.json")])
        assert code == 0
        report = json.loads((tmp_path / "rbern.json").read_text())
        mech = report["global"]["instrument"]["sqrt_mahalanobis"]["mechanism"]
        assert mech["kind"] == "bernoulli"

    def test_bernoulli_separated_instrument_uses_fallback(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 200
        x = rng.standard_normal((n, 2)).round(6)
        z = (x[:, 0] > 0).astype(int)
        d = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
        path = tmp_path / "separated.csv"
        _write_csv(path, ["z", "d", "sep", "other"], list(zip(z, d, *x.T)))
        out = tmp_path / "rsep.json"
        code = main(["test", str(path), "--instrument", "z", "--exposure", "d",
                     "--mechanism", "bernoulli", "--draws", "100", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["propensity"]["instrument"]["model"]["ridge"] == RIDGE_FALLBACK
        assert report["comparison"]["ridge_fallback_used"] is True

    def test_csv_read_once(self, blocked_file, tmp_path, monkeypatch):
        opened = []
        real_open = open

        def counted(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counted)
        code = main(["test", str(blocked_file), "--instrument", "z", "--exposure", "d",
                     "--mechanism", "block", "--block-column", "site",
                     "--draws", "50", "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert opened.count(str(blocked_file)) == 1

    def test_byte_order_mark_file(self, blocked_file, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading BOM; the
        # first header must still read as "z", not "\ufeffz"
        bom_file = tmp_path / "bom.csv"
        bom_file.write_bytes(b"\xef\xbb\xbf" + blocked_file.read_bytes())
        reports = []
        for path in (blocked_file, bom_file):
            out = tmp_path / f"{path.stem}.json"
            assert main(["test", str(path), "--instrument", "z", "--exposure", "d",
                         "--mechanism", "block", "--block-column", "site",
                         "--draws", "50", "--seed", "2", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            for key in ("created_utc", "source"):
                report["metadata"].pop(key)
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command, flags, named", [
        ("test", ["--draws", "0"], "n_draws"),
        ("test", ["--alpha", "1.5"], "alpha"),
        ("test", ["--hist-bins", "nope"], "--hist-bins"),
        ("test", ["--hist-bins", "0"], "--hist-bins"),
        ("exact", ["--cap", "0"], "enumeration_cap"),
        ("test", ["--draws", "abc"], "--draws"),
        ("test", ["--ridge", "-1"], "ridge"),
        ("exact", ["--statistic", "nope"], "nope"),
        ("test", ["--threads", "0"], "threads"),
        ("test", ["--delimiter", "ab"], "--delimiter"),
        ("test", ["--delimiter", "\\t"], "--delimiter"),
    ])
    def test_out_of_range_flag_exit_2(self, synth_file, tmp_path, capsys,
                                      command, flags, named):
        code = main([command, str(synth_file), "--instrument", "instrument",
                     "--exposure", "exposure", "--out", str(tmp_path / "r.json"),
                     *flags])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert named in err["message"]

    @pytest.mark.parametrize("flags, message", [
        (["--block-column", "b1"], "--block-column needs --mechanism block"),
        (["--mechanism", "bernoulli", "--block-column", "b1"],
         "--block-column needs --mechanism block"),
        (["--mechanism", "block"], "--mechanism block needs --block-column"),
    ])
    def test_block_column_and_block_mechanism_come_together(self, synth_file, tmp_path,
                                                            capsys, flags, message):
        out = tmp_path / "r.json"
        code = main(["test", str(synth_file), "--instrument", "instrument",
                     "--exposure", "exposure", "--draws", "20", "--out", str(out), *flags])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3", "abc", ""])
    def test_bad_threads_variable_exit_2(self, synth_file, tmp_path, capsys,
                                         monkeypatch, value):
        monkeypatch.setenv("IVRAND_THREADS", value)
        code = main(["test", str(synth_file), "--instrument", "instrument",
                     "--exposure", "exposure", "--draws", "20",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "IVRAND_THREADS" in err["message"] and "threads" in err["message"]

    @pytest.mark.parametrize("value, threads", [(None, 1), ("2", 2)])
    def test_threads_variable_default(self, synth_file, tmp_path, monkeypatch,
                                      value, threads):
        if value is None:
            monkeypatch.delenv("IVRAND_THREADS", raising=False)
        else:
            monkeypatch.setenv("IVRAND_THREADS", value)
        out = tmp_path / "r.json"
        assert main(["test", str(synth_file), "--instrument", "instrument",
                     "--exposure", "exposure", "--draws", "20", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["threads"] == threads

    def test_unclosed_quote_exit_2(self, tmp_path, capsys):
        # the stray quote swallows the rest of the file into one field, which
        # outgrows the csv module's field limit many lines later; the error
        # names line 2, where the unreadable record began
        path = tmp_path / "quote.csv"
        path.write_text("z,d,x\n" + '1,0,"1.5\n' + "0,1,2.5\n" * 20_000)
        code = main(["test", str(path), "--instrument", "z", "--exposure", "d",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith(f"{path}: unreadable at line 2: ")
        with pytest.raises(ValidationError, match=" unreadable at line 2: "):
            read_delimited(path)

    def test_missing_required_flag_exit_2(self, synth_file, capsys):
        code = main(["test", str(synth_file), "--exposure", "exposure"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "--instrument" in err["message"]

    def test_separating_covariate_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        z = np.zeros(30, dtype=int)
        z[rng.permutation(30)[:15]] = 1
        d = (rng.random(30) < 0.3 + 0.4 * z).astype(int)
        path = tmp_path / "sep.csv"
        _write_csv(path, ["z", "d", "x", "sep"],
                   list(zip(z, d, rng.standard_normal(30).round(6), z)))
        code = main(["test", str(path), "--instrument", "z", "--exposure", "d",
                     "--statistic", "sqrt_mahalanobis", "--draws", "200",
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert "sqrt_mahalanobis is undefined" in err["message"]

    def test_complete_mechanism_metadata(self, tiny_file, tmp_path):
        kinds = []
        for command, extra in (("test", ["--draws", "50"]), ("exact", [])):
            out = tmp_path / f"{command}.json"
            assert main([command, str(tiny_file), "--instrument", "z",
                         "--exposure", "d", "--statistic", "scmd",
                         "--out", str(out), *extra]) == 0
            kinds.append(json.loads(out.read_text())["metadata"]["mechanism"])
        assert kinds == [{"kind": "complete"}, {"kind": "complete"}]

    def test_schema_and_stream_version(self, tiny_file, tmp_path):
        for command, extra in (("test", ["--draws", "50"]), ("exact", [])):
            out = tmp_path / f"{command}.json"
            assert main([command, str(tiny_file), "--instrument", "z",
                         "--exposure", "d", "--statistic", "scmd",
                         "--out", str(out), *extra]) == 0
            report = json.loads(out.read_text())
            assert report["schema_version"] == report["metadata"]["schema_version"] == "3"
            assert report["metadata"]["stream_version"] == STREAM_VERSION == 2


class TestModuleEntryPoint:
    def test_python_m_ivrand(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "ivrand", "synth", "--n", "60", "--k", "2",
             "--out", str(tmp_path / "m")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["data"] == str(tmp_path / "m.csv")


class TestCmdExact:
    def test_exact_p_matches_library(self, tiny_file, tmp_path):
        report_path = tmp_path / "exact.json"
        code = main(["exact", str(tiny_file), "--instrument", "z",
                     "--exposure", "d", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["metadata"]["exact"] is True
        assert report["comparison"] is None
        ds = load_dataset(tiny_file, "z", "d")
        expected = exact_test(ds, "instrument", statistic="sqrt_mahalanobis")
        got = report["global"]["instrument"]["sqrt_mahalanobis"]
        assert got["p_value"] == expected.p_value
        assert got["n_draws"] == 70

    def test_cap_exceeded_exit_4(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        n = 40
        z = np.array([1] * 20 + [0] * 20)
        d = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
        d[:2] = [0, 1]
        path = tmp_path / "n40.csv"
        _write_csv(path, ["z", "d", "x"],
                   list(zip(z, d, rng.standard_normal(n).round(4))))
        code = main(["exact", str(path), "--instrument", "z", "--exposure", "d",
                     "--out", str(tmp_path / "r.json")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "cap_exceeded"
        assert "Monte Carlo" in err["message"]

    def test_plot_data_lists_every_file_written(self, tiny_file, tmp_path):
        # an exact report has no Mahalanobis tables, but an SCMD dot plot
        ds = load_dataset(tiny_file, "z", "d")
        report = build_report(ds, TestConfig(n_draws=1), exact=True)
        assert len(report.plot_tables["scmd_dotplot"]) == ds.n_covariates
        plots = tmp_path / "plots"
        written = report.write_plot_data(plots)
        assert sorted(written) == sorted(str(p) for p in plots.iterdir())
        for path in written:
            with open(path) as fh:
                assert fh.readline().strip()

    def test_constant_covariate_exact_p_one(self, tmp_path):
        z = [1, 1, 1, 0, 0, 0]
        d = [1, 1, 0, 1, 0, 0]
        path = tmp_path / "const.csv"
        _write_csv(path, ["z", "d", "c"], list(zip(z, d, [7.0] * 6)))
        report_path = tmp_path / "r.json"
        code = main(["exact", str(path), "--instrument", "z", "--exposure", "d",
                     "--statistic", "scmd", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        rows = report["per_covariate"]["scmd"]
        assert [(row["target"], row["p_value"]) for row in rows] == [
            ("instrument", 1.0), ("exposure", 1.0)]
