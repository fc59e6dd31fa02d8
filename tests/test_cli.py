import json

import pytest

from robustkf import NonFinite
from robustkf.cli import _write_table, run_cli


def bench_args(out, extra=()):
    return [
        "bench",
        "--example", "1",
        "--noise", "impulsive",
        "--sigma", "0.5,2",
        "--epsilon", "1e-6",
        "--runs", "3",
        "--steps", "30",
        "--seed", "7",
        "--out", str(out),
        *extra,
    ]


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seed=")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


class TestFlops:
    def test_polynomial_values(self, capsys):
        assert run_cli(["flops", "--n", "2", "--m", "1", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "110" in out and "272" in out

    def test_missing_flag_is_config_error(self):
        assert run_cli(["flops", "--n", "2", "--m", "1"]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["diagnose", "--alpha", "2"],
        ["diagnose", "--beta", "nan"],
        ["flops", "--n", "0", "--m", "1", "--t", "1"],
    ],
)
def test_bad_argument_is_config_error(capsys, args):
    assert run_cli(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_non_finite_input_stays_a_numerical_failure(monkeypatch, capsys):
    # NonFinite is also a ValueError, but it is no argument error.
    def raise_non_finite(*args):
        raise NonFinite("x: non-finite entries are not admitted")

    monkeypatch.setattr("robustkf.cli.flop_counts", raise_non_finite)
    assert run_cli(["flops", "--n", "2", "--m", "1", "--t", "2"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")


class TestBench:
    def test_writes_tables(self, tmp_path):
        assert run_cli(bench_args(tmp_path)) == 0
        header, rows = read_rows(tmp_path / "mse.csv")
        assert header == ["filter", "sigma", "epsilon", "state_index", "mse"]
        # KF + two bandwidths, two states each
        assert len(rows) == 6
        assert rows[0][0] == "KF" and rows[0][1] == ""
        header, rows = read_rows(tmp_path / "iterations.csv")
        assert header == ["filter", "sigma", "epsilon", "avg_iterations", "nonconverged_steps"]
        assert len(rows) == 2
        assert all(r[0] == "MCKF" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(bench_args(a)) == 0
        assert run_cli(bench_args(b)) == 0
        assert (a / "mse.csv").read_bytes() == (b / "mse.csv").read_bytes()
        assert (a / "iterations.csv").read_bytes() == (b / "iterations.csv").read_bytes()

    def test_json_format(self, tmp_path):
        assert run_cli(bench_args(tmp_path, extra=["--format", "json"])) == 0
        payload = json.loads((tmp_path / "mse.json").read_text())
        assert payload["columns"][0] == "filter"
        assert payload["rows"]

    def test_env_seed_feeds_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROBUSTKF_SEED", "123")
        args = [a for a in bench_args(tmp_path) if a not in ("--seed", "7")]
        assert run_cli(args) == 0
        assert "seed=123 " in (tmp_path / "mse.csv").read_text().splitlines()[0]

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROBUSTKF_SEED", "123")
        assert run_cli(bench_args(tmp_path)) == 0
        assert "seed=7 " in (tmp_path / "mse.csv").read_text().splitlines()[0]

    def test_invalid_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROBUSTKF_SEED", "not-a-number")
        args = [a for a in bench_args(tmp_path) if a not in ("--seed", "7")]
        assert run_cli(args) == 1

    def test_config_file_round_trip(self, tmp_path):
        config = {
            "example": "example1",
            "noise_case": "impulsive-measurement",
            "runs": 2,
            "steps": 20,
            "master_seed": 99,
            "filters": [
                {"kind": "kf"},
                {"kind": "mckf", "sigma": 2.0, "epsilon": 1e-6},
            ],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--out", str(out)]) == 0
        assert "seed=99 " in (out / "mse.csv").read_text().splitlines()[0]

    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["bench", "--config", str(path), "--out", str(tmp_path)]) == 1
        path.write_text(json.dumps({"unknown_key": 1}))
        assert run_cli(["bench", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_invalid_sigma_list(self, tmp_path):
        assert run_cli(["bench", "--sigma", "-1", "--out", str(tmp_path)]) == 1

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 1


class TestWriteTable:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shorter_table_over_longer_leaves_only_new_bytes(self, tmp_path, fmt):
        path = tmp_path / f"t.{fmt}"
        _write_table(path, "long", ["a", "b"], [[float(i), i] for i in range(200)], fmt)
        fresh = tmp_path / f"fresh.{fmt}"
        _write_table(fresh, "short", ["a", "b"], [[0.5, None]], fmt)
        _write_table(path, "short", ["a", "b"], [[0.5, None]], fmt)
        assert path.read_bytes() == fresh.read_bytes()
        if fmt == "csv":
            assert path.read_bytes() == b"# short\na,b\n0.5,\n"
        else:
            assert json.loads(path.read_bytes())["rows"] == [[0.5, None]]


class TestSimulate:
    def test_writes_density_files(self, tmp_path):
        args = [
            "simulate",
            "--example", "2",
            "--noise", "impulsive-both",
            "--sigma", "2",
            "--epsilon", "1e-6",
            "--runs", "3",
            "--steps", "40",
            "--seed", "5",
            "--out", str(tmp_path),
        ]
        assert run_cli(args) == 0
        header, rows = read_rows(tmp_path / "mse.csv")
        assert len(rows) == 6  # KF and MCKF, three states each
        kinds = {r[0] for r in rows}
        assert kinds == {"KF", "MCKF"}
        densities = sorted(p.name for p in tmp_path.glob("density_*.csv"))
        assert len(densities) == 6  # three states, two filters
        header, rows = read_rows(tmp_path / "density_1_kf.csv")
        assert header == ["bin_center", "mass"]
        assert len(rows) == 101

    def test_every_run_diverging_is_a_numerical_failure(self, tmp_path):
        config = {
            "example": "custom",
            "custom_model": {
                "F": [[50.0, 0.0], [0.0, 1.0]],
                "H": [[1.0, 1.0]],
                "Q": [[0.01, 0.0], [0.0, 0.01]],
                "R": [[0.01]],
            },
            "true_x0": [0.0, 0.0],
            "runs": 2,
            "steps": 400,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestDiagnose:
    def test_prints_certificate(self, capsys):
        assert run_cli(["diagnose", "--example", "1", "--noise", "gaussian", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "sigma_min" in out and "zeta" in out

    def test_json_output(self, capsys):
        code = run_cli([
            "diagnose", "--example", "1", "--noise", "gaussian",
            "--seed", "3", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma_min"] >= max(payload["sigma_star"], payload["sigma_dagger"]) - 1e-12
        assert payload["beta"] > payload["zeta"]
