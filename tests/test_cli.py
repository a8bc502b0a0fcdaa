"""CLI: ingestion formats, generation, cluster reports, eval, bench."""

import json
import struct

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

    def test_unknown_mode_is_usage_error(self, tmp_path):
        p, _ = write_instance(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", str(p), "--k", "2", "--mode", "turbo")
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("cluster", str(tmp_path / "absent.csv"), "--k", "1") == 3

    def test_nan_in_csv_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("0,0\n1,nan\n2,2\n")
        assert run_cli("cluster", str(p), "--k", "1") == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_too_wide_a_range_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        p.write_text("0,0\n1,0\n1e200,0\n")
        assert run_cli("cluster", str(p), "--k", "2") == 3
        lines = capsys.readouterr().err.splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        assert len(errors) == 1 and "too wide" in errors[0]
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

    def test_eval_k_prefixes(self, tmp_path):
        p, ds = write_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run_cli("cluster", str(p), "--k", "3", "--mode", "exact",
                       "--eval-k", "1,2,3", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        costs = report["result"]["prefix_costs"]
        assert set(costs) == {"1", "2", "3"}
        assert costs["3"] <= costs["2"] <= costs["1"]


class TestEval:
    def test_reproduces_costs(self, tmp_path, capsys):
        p, _ = write_instance(tmp_path, n=25, seed=4)
        out = tmp_path / "r.json"
        run_cli("cluster", str(p), "--k", "4", "--eval-k", "1,4", "--out", str(out))
        assert run_cli("eval", str(out), str(p)) == 0
        assert "match" in capsys.readouterr().out

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
