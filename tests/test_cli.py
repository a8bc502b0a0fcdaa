"""CLI: ingestion formats, generation, cluster reports, eval, bench."""

import json
import math
import struct
import warnings

import numpy as np
import pytest

from kzclust import cli
from kzclust.metric import cost


def run_cli(*argv):
    return cli.main(list(argv))


class TestIngestCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("0,0\n3,4\n")
        ds = cli.ingest(str(p))
        assert ds.n == 2 and ds.d == 2
        assert np.array_equal(ds.points, [[0.0, 0.0], [3.0, 4.0]])

    def test_whitespace_and_comments(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("# header comment\n1 2 3\n\n4,5,6\n")
        ds = cli.ingest(str(p))
        assert ds.n == 2 and ds.d == 3

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(cli.DataError, match="line 2"):
            cli.ingest(str(p))

    def test_non_numeric_reports_line_and_field(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(cli.DataError, match="line 2.*oops"):
            cli.ingest(str(p))

    def test_non_finite_reports_line_and_field(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("0,0\n1,nan\n2,2\n")
        with pytest.raises(cli.DataError, match="line 2.*nan"):
            cli.ingest(str(p))

    @pytest.mark.parametrize("text, field", [
        ("0,0\n3,,4\n", "field 2 is empty"),
        ("0,0\n3,4,\n", "field 3 is empty"),
        # float reads 1_5 as 15.
        ("0,0\n1_5,4\n", "non-numeric field '1_5'"),
    ], ids=["empty-field", "trailing-comma", "digit-group"])
    def test_bad_field_is_data_error(self, tmp_path, capsys, text, field):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        assert run_cli("cluster", str(p), "--k", "1") == 3
        errors = error_lines(capsys.readouterr().err)
        assert errors == [f"error: {p}: line 2: {field}"]

    @pytest.mark.parametrize("command", ["cluster", "eval"])
    def test_non_utf8_is_data_error(self, tmp_path, capsys, command):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"0,0\n\xff,1\n")
        args = ("cluster", str(p), "--k", "1") if command == "cluster" else (
            "eval", str(tmp_path / "r.json"), str(p))
        assert run_cli(*args) == 3
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and errors[0].startswith(f"error: {p}: not UTF-8")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf0,0\n1,1\n")
        ds = cli.ingest(str(p))
        assert np.array_equal(ds.points, [[0.0, 0.0], [1.0, 1.0]])
        assert run_cli("cluster", str(p), "--k", "1") == 0
        assert error_lines(capsys.readouterr().err) == []

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# nothing\n")
        with pytest.raises(cli.DataError, match="empty"):
            cli.ingest(str(p))


class TestIngestBinary:
    def test_round_trip_bitwise(self, tmp_path):
        ds = cli.generate_mixture(17, 3, 2, 0.1, seed=5)
        p = tmp_path / "data.f32"
        cli.write_dataset(ds, str(p), "f32le")
        back = cli.ingest(str(p))
        assert back.n == 17 and back.d == 3
        # float32 storage: coordinates equal the down-cast originals bitwise
        assert np.array_equal(back.points, ds.points.astype("<f4").astype(np.float64))
        p2 = tmp_path / "again.f32"
        cli.write_dataset(back, str(p2), "f32le")
        assert p.read_bytes() == p2.read_bytes()

    def test_empty_dataset_header(self, tmp_path):
        p = tmp_path / "empty.f32"
        p.write_bytes(struct.pack("<II", 0, 3))
        with pytest.raises(cli.DataError, match="empty dataset"):
            cli.ingest(str(p))

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "short.f32"
        p.write_bytes(struct.pack("<II", 4, 2) + b"\x00" * 10)
        with pytest.raises(cli.DataError, match="truncated"):
            cli.ingest(str(p))

    def test_oversized_payload_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "long.f32"
        p.write_bytes(struct.pack("<II", 3, 2) + b"\x00" * 32)
        with pytest.raises(cli.DataError, match="expected 4·n·d = 24 bytes .* got 32"):
            cli.ingest(str(p))
        assert run_cli("cluster", str(p), "--k", "1") == 3
        assert len(error_lines(capsys.readouterr().err)) == 1

    def test_non_finite_reports_point(self, tmp_path):
        p = tmp_path / "inf.f32"
        p.write_bytes(struct.pack("<II", 2, 2) + np.array([0, 1, np.inf, 2], "<f4").tobytes())
        with pytest.raises(cli.DataError, match="point 1"):
            cli.ingest(str(p))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "tiny.f32"
        p.write_bytes(b"\x01\x02")
        with pytest.raises(cli.DataError, match="header"):
            cli.ingest(str(p))


class TestGen:
    def test_rejects_n_zero(self, tmp_path, capsys):
        code = run_cli("gen", "--n", "0", "--d", "2", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "n must be" in capsys.readouterr().err

    def test_degenerate_single_cluster_zero_spread(self, tmp_path):
        out = tmp_path / "same.csv"
        assert run_cli("gen", "--n", "6", "--d", "2", "--clusters", "1",
                       "--spread", "0", "--seed", "3", "--out", str(out)) == 0
        ds = cli.ingest(str(out))
        assert np.all(ds.points == ds.points[0])

    @pytest.mark.parametrize("command", ["gen", "bench"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_spread_is_usage_error(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        sizes = ["--n", "8", "--d", "2"] if command == "gen" else ["--sizes", "64"]
        assert run_cli(command, *sizes, "--spread", value, "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "spread" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_overflowing_spread_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        sizes = ["--n", "8", "--d", "2"] if command == "gen" else ["--sizes", "64"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, *sizes, "--spread", "1e308", "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and errors[0].startswith("error: --spread 1e+308")
        assert not out.exists()

    def test_f32le_overflow_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "big.f32"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("gen", "--n", "4", "--d", "2", "--spread", "1e39",
                           "--format", "f32le", "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "float32 range" in errors[0]
        assert not out.exists()

    def test_round_trip_declared_shape(self, tmp_path):
        out = tmp_path / "mix.f32"
        assert run_cli("gen", "--n", "33", "--d", "5", "--format", "f32le",
                       "--seed", "1", "--out", str(out)) == 0
        ds = cli.ingest(str(out))
        assert ds.n == 33 and ds.d == 5


def write_instance(tmp_path, n=16, d=2, seed=0):
    ds = cli.generate_mixture(n, d, 3, 0.08, seed=seed)
    p = tmp_path / "pts.csv"
    cli.write_dataset(ds, str(p), "csv")
    return p, ds


class TestCluster:
    def test_report_contents_and_cost(self, tmp_path):
        p, ds = write_instance(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli("cluster", str(p), "--k", "3", "--z", "2", "--c", "5",
                       "--mode", "exact", "--seed", "1", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        centers = report["result"]["centers"]
        assert len(centers) == 3
        recorded = report["result"]["prefix_costs"]["3"]
        recomputed = cost(cli.ingest(str(p)), centers, 2.0)
        assert recomputed == pytest.approx(recorded, rel=1e-12)

    def test_single_point_k1_zero_cost(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("0.5,0.5\n")
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "1", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["result"]["prefix_costs"]["1"] == 0.0

    def test_deterministic_reports_modulo_timings(self, tmp_path):
        p, _ = write_instance(tmp_path, n=40, d=4, seed=7)
        bodies = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli("cluster", str(p), "--k", "4", "--mode", "lsh",
                           "--seed", "9", "--out", str(out)) == 0
            report = json.loads(out.read_text())
            del report["timings"]
            bodies.append(json.dumps(report, indent=2))
        assert bodies[0] == bodies[1]

    def test_k_exceeding_n_is_usage_error(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=5)
        assert run_cli("cluster", str(p), "--k", "9") == 2
        assert "exceeds" in capsys.readouterr().err

    def test_c_below_5_rejected_with_reason(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path)
        assert run_cli("cluster", str(p), "--k", "2", "--c", "4.5") == 2
        assert "c >= 5" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--z", "nan"), ("--z", "inf"),
                                             ("--c", "nan"), ("--c", "inf")])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys, flag, value):
        p, _ = write_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", flag, value, "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and errors[0].startswith(f"error: {flag[2:]} must be")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e20", "4e43"])
    def test_large_c_runs(self, tmp_path, value):
        p, _ = write_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "3", "--c", value, "--out", str(out)) == 0
        assert len(json.loads(out.read_text())["result"]["centers"]) == 3

    @pytest.mark.parametrize("value", ["5e43", "6e43", "1e308"])
    def test_c_beyond_the_radius_schedule_is_usage_error(self, tmp_path, capsys, value):
        # The last radius, (2c)^-7, must be a normal float64.
        p, _ = write_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", "--c", value, "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and errors[0].startswith("error: c must be at most 4e+43")
        assert f"got {float(value)!r}" in errors[0]
        assert not out.exists()

    def test_unknown_mode_is_usage_error(self, tmp_path):
        p, _ = write_instance(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", str(p), "--k", "2", "--mode", "turbo")
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("cluster", str(tmp_path / "absent.csv"), "--k", "1") == 3

    def test_empty_eval_k_list_is_usage_error(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", "--eval-k", ",", "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "no entries" in errors[0]
        assert not out.exists()

    def test_nan_in_csv_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("0,0\n1,nan\n2,2\n")
        assert run_cli("cluster", str(p), "--k", "1") == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_too_wide_a_range_is_data_error(self, tmp_path, capsys):
        # In the second input the least gap, scaled next to the largest
        # coordinate, squares to a subnormal float, too coarse to be exact.
        near_limit = f"0\n{1.5 * 2.0**-537!r}\n{1.5 * (1 + 2.0**-50)!r}\n"
        for rows in ("0,0\n1,0\n1e200,0\n", near_limit):
            p = tmp_path / "wide.csv"
            p.write_text(rows)
            assert run_cli("cluster", str(p), "--k", "2") == 3
            lines = capsys.readouterr().err.splitlines()
            errors = [line for line in lines if line.startswith("error: ")]
            assert len(errors) == 1 and "too wide" in errors[0]
            assert all(line.startswith(("error: ", "note: ")) for line in lines)

    def test_subnormal_least_gap_is_data_error(self, tmp_path, capsys):
        # 1/1e-310 overflows, so no scale brings the least gap up to 1.
        p = tmp_path / "tiny.csv"
        p.write_text("0\n1e-310\n3e-310\n")
        assert run_cli("cluster", str(p), "--k", "2") == 3
        lines = capsys.readouterr().err.splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        assert len(errors) == 1 and "too small" in errors[0]
        assert all(line.startswith(("error: ", "note: ")) for line in lines)

    def test_delta_failure_out_of_range_is_usage_error(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path)
        assert run_cli("cluster", str(p), "--k", "2", "--delta-failure", "2") == 2
        assert "error: --delta-failure" in capsys.readouterr().err

    def test_overflowing_z_is_usage_error(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path)
        assert run_cli("cluster", str(p), "--k", "2", "--z", "1e308") == 2
        assert "error: ball values" in capsys.readouterr().err

    def test_extreme_magnitudes_give_every_center(self, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("1e160,0\n0,0\n3e160,0\n")
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "3", "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        assert sorted(result["centers"]) == [0, 1, 2]
        assert not result["early_terminated"]

    def test_kmeanspp_baseline(self, tmp_path):
        p, ds = write_instance(tmp_path, n=20)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "3", "--algorithm", "kmeanspp",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert len(report["result"]["centers"]) == 3

    def test_kmeanspp_neither_normalizes_nor_projects(self, tmp_path):
        # Auto-projection would plan 24 dimensions for d=30, n=6.
        p, _ = write_instance(tmp_path, n=6, d=30, seed=2)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", "--algorithm", "kmeanspp",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["projection"] == {"applied": False, "target_dim": None}
        assert report["normalization"] is None

    def test_kmeanspp_clusters_a_range_normalize_cannot_scale(self, tmp_path, capsys):
        rows = np.random.default_rng(3).standard_normal((10, 2))
        rows[:5] *= 1e-150
        rows[5:] *= 1e150
        p = tmp_path / "wide.csv"
        cli.write_dataset(cli.Dataset(rows), str(p), "csv")
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", "--algorithm", "kmeanspp",
                       "--out", str(out)) == 0
        assert run_cli("eval", str(out), str(p)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "match"

    def test_kmeanspp_with_project_dim_is_usage_error(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=20, d=30, seed=2)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", "--algorithm", "kmeanspp",
                       "--project-dim", "3", "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "--project-dim" in errors[0] and "kmeanspp" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("flag", [("--mode", "exact"), ("--c", "1"), ("--c", "6"),
                                      ("--delta-failure", "0.3"), ("--no-project",)],
                             ids="".join)
    def test_kmeanspp_with_a_greedy_flag_is_usage_error(self, tmp_path, capsys, flag):
        p, _ = write_instance(tmp_path, n=20)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", "--algorithm", "kmeanspp", *flag,
                       "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and flag[0] in errors[0] and "kmeanspp" in errors[0]
        assert not out.exists()

    def test_kmeanspp_records_no_greedy_parameters(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=20)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", "--algorithm", "kmeanspp",
                       "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert "note:" not in captured.err
        assert "mode=" not in captured.out and "c=" not in captured.out
        params = json.loads(out.read_text())["params"]
        assert params["c"] is None and params["mode"] is None
        assert params["delta_failure"] is None

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_nonpositive_project_dim_is_usage_error_before_reading(self, tmp_path, capsys, dim):
        missing = tmp_path / "absent.csv"
        assert run_cli("cluster", str(missing), "--k", "2", "--project-dim", dim) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "--project-dim" in errors[0]

    @pytest.mark.parametrize("flags, named", [
        (("--z", "0.5"), "z must"),
        (("--c", "4"), "c must"),
        (("--delta-failure", "2"), "--delta-failure"),
        # Exact mode draws no tables; the flag would be ignored but still reported.
        (("--mode", "exact", "--delta-failure", "0.3"), "--delta-failure and --mode exact"),
        (("--eval-k", "1,3"), "--eval-k"),
    ], ids=["z", "c", "delta", "delta-exact", "eval-k"])
    def test_bad_flag_is_usage_error_before_reading(self, tmp_path, capsys, flags, named):
        missing = tmp_path / "absent.csv"
        assert run_cli("cluster", str(missing), "--k", "2", *flags) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and named in errors[0]

    def test_subnormal_delta_failure_runs(self, tmp_path):
        # n·num_levels/delta overflows; the table count (1038 here) does not.
        p, _ = write_instance(tmp_path, n=200, d=3, seed=1)
        assert run_cli("cluster", str(p), "--k", "3", "--delta-failure", "1e-320") == 0

    def test_eval_k_prefixes(self, tmp_path):
        p, ds = write_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "3", "--mode", "exact",
                       "--eval-k", "1,2,3", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        costs = report["result"]["prefix_costs"]
        assert set(costs) == {"1", "2", "3"}
        assert costs["3"] <= costs["2"] <= costs["1"]


OVERFLOWING_COSTS = "0,0\n1e200,0\n2e200,0\n5e200,1e200\n"


def error_lines(err: str) -> list[str]:
    """The error lines of a command's standard error, which holds no others but notes."""
    lines = err.splitlines()
    assert all(line.startswith(("error: ", "note: ")) for line in lines)
    return [line for line in lines if line.startswith("error: ")]


class TestCostOverflow:
    def test_cluster_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "far.csv"
        p.write_text(OVERFLOWING_COSTS)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("cluster", str(p), "--k", "1", "--out", str(out)) == 3
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "too large" in errors[0]
        assert not out.exists()

    def test_eval_is_data_error(self, tmp_path, capsys):
        # A well-formed report on a dataset whose cost overflows when
        # recomputed (a recorded Infinity is rejected before any cost).
        p = tmp_path / "far.csv"
        p.write_text(OVERFLOWING_COSTS)
        out = tmp_path / "r.json"
        out.write_text('{"input": {"n": 4, "d": 2}, "params": {"z": 2.0}, '
                       '"result": {"centers": [0], "prefix_costs": {"1": 1e308}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("eval", str(out), str(p)) == 3
        captured = capsys.readouterr()
        assert "match" not in captured.out.split()
        errors = error_lines(captured.err)
        assert len(errors) == 1 and "too large" in errors[0]


class TestCostUnderflow:
    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_cluster_is_data_error(self, tmp_path, capsys, scale):
        rows = np.random.default_rng(0).standard_normal((300, 3)) * scale
        p = tmp_path / "tiny.csv"
        cli.write_dataset(cli.Dataset(rows), str(p), "csv")
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "5", "--eval-k", "1,5", "--out", str(out)) == 3
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "too small" in errors[0]
        assert not out.exists()

    def test_eval_is_data_error(self, tmp_path, capsys):
        # The report an underflowing cost used to give, and that eval matched.
        rows = np.random.default_rng(0).standard_normal((300, 3)) * 1e-300
        p = tmp_path / "tiny.csv"
        cli.write_dataset(cli.Dataset(rows), str(p), "csv")
        out = tmp_path / "r.json"
        out.write_text('{"input": {"n": 300, "d": 3}, "params": {"z": 2.0}, '
                       '"result": {"centers": [0], "prefix_costs": {"1": 0.0}}}')
        assert run_cli("eval", str(out), str(p)) == 3
        captured = capsys.readouterr()
        assert "match" not in captured.out.split()
        errors = error_lines(captured.err)
        assert len(errors) == 1 and "too small" in errors[0]


class TestProjection:
    def test_projected_report_evaluates_to_match(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=200, d=30, seed=3)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "4", "--project-dim", "3",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["projection"] == {"applied": True, "target_dim": 3}
        capsys.readouterr()
        assert run_cli("eval", str(out), str(p)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "match"

    def test_unprojected_high_dimension_is_usage_error(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=200, d=30, seed=3)
        assert run_cli("cluster", str(p), "--k", "4", "--mode", "lsh", "--no-project") == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "project the data" in errors[0]

    @pytest.mark.parametrize("mode", ["lsh", "exact"])
    def test_conflicting_projection_flags_are_usage_error(self, tmp_path, capsys, mode):
        p, _ = write_instance(tmp_path, n=200, d=30, seed=3)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "4", "--mode", mode, "--project-dim", "3",
                       "--no-project", "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "--project-dim" in errors[0] and "--no-project" in errors[0]
        assert not out.exists()

    def test_too_wide_a_range_is_data_error(self, tmp_path, capsys):
        rows = np.zeros((3, 30))
        rows[1, 0] = 1.0
        rows[2, 0] = 1e200
        p = tmp_path / "wide.csv"
        cli.write_dataset(cli.Dataset(rows), str(p), "csv")
        assert run_cli("cluster", str(p), "--k", "2", "--project-dim", "3") == 3
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "too wide" in errors[0]


def with_result(report, **fields):
    """The report as JSON text with the given result fields replaced."""
    return json.dumps({**report, "result": {**report["result"], **fields}})


class TestEval:
    def test_reproduces_costs(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=25, seed=4)
        out = tmp_path / "r.json"
        run_cli("cluster", str(p), "--k", "4", "--eval-k", "1,4", "--out", str(out))
        assert run_cli("eval", str(out), str(p)) == 0
        assert "match" in capsys.readouterr().out

    def test_early_stopped_report_evaluates_to_match(self, tmp_path, capsys):
        # Three equal rows stop the ordering at one center, below k=2.
        p = tmp_path / "same.csv"
        p.write_text("1,1\n1,1\n1,1\n")
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "2", "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        assert result["early_terminated"] and result["achieved_k"] == 1
        assert result["prefix_costs"] == {"2": 0.0}
        capsys.readouterr()
        assert run_cli("eval", str(out), str(p)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "match"

    def test_report_from_another_dataset_is_data_error(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=4, seed=2)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "4", "--out", str(out)) == 0
        other = tmp_path / "two.csv"
        other.write_text("0,0\n1,1\n")
        capsys.readouterr()
        assert run_cli("eval", str(out), str(other)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n=4" in err

    @pytest.mark.parametrize("edit", [
        lambda r, n: "{}",
        lambda r, n: with_result(r, centers=[r["result"]["centers"][0], 999, 1]),
        lambda r, n: "not json",
        lambda r, n: with_result(r, prefix_costs={"abc": r["result"]["prefix_costs"]["1"]}),
        lambda r, n: with_result(r, centers=[]),
        lambda r, n: with_result(r, centers=[cid - n for cid in r["result"]["centers"]]),
        lambda r, n: with_result(r, prefix_costs={"999": r["result"]["prefix_costs"]["3"]}),
        # More digits than Python's int accepts from a string (4300 by default).
        lambda r, n: with_result(r, prefix_costs={"1" + "0" * 4999: 0.0}),
        lambda r, n: with_result(r, prefix_costs={}),
        # Python's JSON reader takes Infinity, NaN, 1e400 (as inf) and integers
        # past the float64 range.
        lambda r, n: json.dumps({**r, "params": {**r["params"], "z": math.inf}}),
        lambda r, n: json.dumps({**r, "params": {**r["params"], "z": "Z"}}).replace('"Z"', "1e400"),
        lambda r, n: json.dumps({**r, "params": {**r["params"], "z": 10**400}}),
        lambda r, n: with_result(r, prefix_costs={**r["result"]["prefix_costs"], "3": math.nan}),
        lambda r, n: with_result(r, prefix_costs={**r["result"]["prefix_costs"], "1": math.inf}),
        lambda r, n: with_result(r, prefix_costs={**r["result"]["prefix_costs"], "1": 10**400}),
    ], ids=["empty-object", "center-999", "not-json", "key-abc", "no-centers",
            "negative-centers", "key-999", "key-5000-digits", "no-prefix-costs", "z-infinity",
            "z-1e400", "z-huge-int", "cost-nan", "cost-infinity", "cost-huge-int"])
    def test_malformed_report_is_data_error(self, tmp_path, capsys, edit):
        p, ds = write_instance(tmp_path, n=50, seed=5)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "3", "--eval-k", "1,3", "--out", str(out)) == 0
        out.write_text(edit(json.loads(out.read_text()), ds.n))
        capsys.readouterr()
        assert run_cli("eval", str(out), str(p)) == 3
        captured = capsys.readouterr()
        assert "match" not in captured.out.split()
        assert captured.err.startswith(f"error: {out}: ")
        assert captured.err.count("\n") == 1

    def test_zero_padded_key_is_read_as_its_integer(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=25, seed=4)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "3", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        recorded = report["result"]["prefix_costs"]["3"]
        out.write_text(with_result(report, prefix_costs={"003": recorded}))
        capsys.readouterr()
        assert run_cli("eval", str(out), str(p)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "match"


class TestBench:
    def test_rows_and_slope(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = run_cli("bench", "--sizes", "64,128,256", "--d", "4", "--k", "3",
                       "--seed", "2", "--out", str(out))
        assert code == 0
        result = json.loads(out.read_text())
        assert [r["n"] for r in result["rows"]] == [64, 128, 256]
        times = [r["timings"]["total_s"] for r in result["rows"]]
        ref_slope = np.polyfit(np.log([64, 128, 256]), np.log(times), 1)[0]
        assert result["slope"] == pytest.approx(ref_slope, rel=1e-9)

    def test_single_size_slope_absent(self, tmp_path):
        out = tmp_path / "bench1.json"
        assert run_cli("bench", "--sizes", "64", "--d", "4", "--k", "2",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["slope"] is None

    def test_bad_sizes_usage_error(self):
        assert run_cli("bench", "--sizes", "ten,20") == 2

    def test_delta_failure_with_exact_mode_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--sizes", "64", "--mode", "exact", "--delta-failure", "0.3",
                       "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "--delta-failure" in errors[0] and "--mode exact" in errors[0]
        assert not out.exists()

    def test_repeated_sizes_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--sizes", "64,64", "--out", str(out)) == 2
        errors = error_lines(capsys.readouterr().err)
        assert len(errors) == 1 and "repeats" in errors[0]
        assert not out.exists()
