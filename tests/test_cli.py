import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robustkf.cli
from robustkf import (
    ConfigParseError,
    ExperimentConfig,
    FilterSpec,
    GaussianBelief,
    KernelConfig,
    NonFinite,
    RobustKFError,
    StateSpaceModel,
    build_regression,
    generate_run_data,
    kf_predict,
    kf_update,
    run_monte_carlo,
    sufficient_sigma,
    zeta,
)
from robustkf.cli import _config_hash, _write_table, run_cli
from robustkf.sim import DEFAULT_DENSITY_BINS, EXAMPLE1_ERROR_RANGE


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
        ["bench", "--sigma", "1", "--max-iterations", "0", "--runs", "2", "--steps", "5"],
        ["diagnose", "--snapshot-step", "0"],
    ],
)
def test_bad_argument_is_config_error(capsys, args):
    assert run_cli(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_bad_kernel_in_config_file_is_config_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"filters": [{"kind": "mckf", "epsilon": 1e-6}]}))
    assert run_cli(["bench", "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


_MODEL_1X1 = {"F": [[1.0]], "H": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}


@pytest.mark.parametrize(
    "config",
    [
        {"example": "custom", "custom_model": {"F": [[1.0]], "H": [[1.0]], "Q": [[1.0]]}},
        {"example": "custom", "custom_model": [[1.0]]},
        {"example": "custom", "custom_model": {**_MODEL_1X1, "F": [["a"]]}},
        {"example": "example1", "true_x0": [0, 0, 0]},
        {"example": "custom", "custom_model": {**_MODEL_1X1, "H": [[1.0, 0.0]]}},
        {"example": "custom", "custom_model": {**_MODEL_1X1, "R": [[0.0]]}},
        {"example": "custom", "custom_model": {**_MODEL_1X1, "Q": [[-1.0]]}},
        {"example": "example1", "true_x0": [0, 0], "assumed_r": [[1, 0], [0, 1]]},
        {"example": "example1", "true_x0": [0, 0], "assumed_q": [[1, 0.5], [0, 1]]},
    ],
)
def test_bad_model_in_config_file_is_config_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"true_x0": [0.0], "runs": 2, "steps": 5, **config}))
    assert run_cli(["bench", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize(
    "config",
    [
        {"init_perturb_var": -1},
        {"init_perturb_var": "x"},
        {"p0_scale": -1},
        {"runs": 2.5},
        {"runs": True},
        {"master_seed": "abc"},
        {"master_seed": None},
        {"filters": "kf"},
        {"true_x0": [float("inf"), 0.0]},
        {"example": "custom", "custom_model": _MODEL_1X1},
        {"filters": [{"kind": "kf", "sigma": 2}]},
        {"filters": [{"kind": "mckf", "sigma": 2, "epsilon": 1e-6, "max_iterations": 2.5}]},
        {"filters": [{"kind": "mckf", "sigma": 2, "epsilon": 1e-6, "sigmaa": 3}]},
        {"theta": 0.1},
        {"dt": 0.2},
        {"filters": [{"kind": "mckf", "sigma": 2, "epsilon": 1e-6, "step_norm": "l1"}]},
        {"noise_case": "bogus"},
        {"filters": [{"kind": "ukf"}]},
        {"filters": [{"kind": "mckf", "sigma": 0, "epsilon": 1e-6}]},
        {"filters": [{"kind": "mckf", "sigma": True, "epsilon": 1e-6}]},
        {"filters": [{"kind": "mckf", "sigma": 2, "epsilon": True}]},
        {"filters": [{"kind": "mckf", "sigma": 10**400, "epsilon": 1e-6}]},
        {"p0_scale": 10**400},
        {"init_perturb_var": True},
        {"p0_scale": True},
        {"example": "example1", "custom_model": _MODEL_1X1},
    ],
)
def test_bad_value_in_config_file_is_config_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"runs": 2, "steps": 5, **config}))
    assert run_cli(["bench", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize(
    "args, text",
    [
        (["--sigma", "2,x"], None),
        (["--sigma", ","], None),
        (["--config", "missing.json"], None),
        (["--config", "cfg.json"], "[1, 2]"),
    ],
    ids=["unparsable-sigma", "empty-sigma", "unreadable-config", "array-config"],
)
def test_unusable_flag_or_config_file_is_config_error(tmp_path, monkeypatch, capsys, args, text):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
    assert run_cli(["bench", "--runs", "2", "--steps", "5", *args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(),
        ExperimentConfig(
            example="custom",
            noise_case="impulsive-measurement",
            custom_model=StateSpaceModel(
                F=[[1.0, 0.1], [0.0, 0.9]], H=[[1.0, 0.0]], Q=[[0.1, 0.03], [0.03, 0.2]], R=[[0.3]]
            ),
            true_x0=(0.1, -1.0 / 3.0),
            assumed_q=[[0.7, 0.1], [0.1, 0.3]],
            filters=(FilterSpec("kf"), FilterSpec("mckf", KernelConfig(0.7, 1e-5, 7))),
        ),
    ],
    ids=["default", "custom"],
)
def test_config_round_trips_through_json(config):
    back = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert _config_hash(back) == _config_hash(config)
    assert back.filters == config.filters
    for name in "FHQR":
        np.testing.assert_array_equal(
            getattr(back.filter_model(), name), getattr(config.filter_model(), name)
        )


def test_too_few_bins_is_config_error_before_the_experiment(tmp_path, monkeypatch, capsys):
    def no_experiment(config):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("robustkf.cli.run_monte_carlo", no_experiment)
    args = ["simulate", "--runs", "2", "--steps", "5", "--bins", "1", "--out", str(tmp_path)]
    assert run_cli(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not any(tmp_path.iterdir())


def test_non_finite_input_stays_a_numerical_failure(monkeypatch, capsys):
    # NonFinite is also a ValueError, but it is no argument error.
    def raise_non_finite(*args):
        raise NonFinite("x: non-finite entries are not admitted")

    monkeypatch.setattr("robustkf.cli.flop_counts", raise_non_finite)
    assert run_cli(["flops", "--n", "2", "--m", "1", "--t", "2"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")


#: The config dicts the exit-status test mutates: example 1 and a custom
#: 2-state model with both filters, at 2 runs x 3 steps (a few kB of arrays).
_CONTRACT_BASES = (
    {"runs": 2, "steps": 3, "true_x0": [0.0, 0.0], "init_perturb_var": 0.01, "p0_scale": 0.01,
     "filters": [{"kind": "kf"}]},
    {"example": "custom", "noise_case": "impulsive-both", "runs": 2, "steps": 3,
     "custom_model": {"F": [[1.0, 0.1], [0.0, 1.0]], "H": [[1.0, 0.0]],
                      "Q": [[0.01, 0.0], [0.0, 0.01]], "R": [[0.01]]},
     "true_x0": [0.0, 1.0], "init_perturb_var": 0.01, "p0_scale": 0.01,
     "filters": [{"kind": "kf"}, {"kind": "mckf", "sigma": 2.0, "epsilon": 1e-6}]},
)
#: Values at the edges of the float range, where products, sums and squares overflow.
_CONTRACT_VALUES = (
    0.0, -1.0, 0.5, 3.0, 5e-324, 1e-300, 1e154, 2e154, -2e154, 1e200, 1e307, 1e308,
    1.5e308, -1.5e308, math.inf, math.nan,
)


def _number_paths(tree, path=()):
    """Paths of the numbers in a nested config dict."""
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        return [p for key, value in items for p in _number_paths(value, path + (key,))]
    return [path] if isinstance(tree, (int, float)) else []


@st.composite
def _mutated_configs(draw):
    base = draw(st.sampled_from(_CONTRACT_BASES))
    data = copy.deepcopy(base)
    for path in draw(st.lists(st.sampled_from(_number_paths(base)), min_size=1, max_size=3)):
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(_CONTRACT_VALUES))
    return data


_CUSTOM_2X1 = {"example": "custom", "true_x0": [0.0, 0.0], "runs": 2, "steps": 3}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=_mutated_configs())
@example(data={**_CUSTOM_2X1, "custom_model": {
    "F": [[2e154, 0.0], [0.0, 1.0]], "H": [[1.0, 1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]}})
@example(data={**_CUSTOM_2X1, "custom_model": {
    "F": [[1.0, 0.0], [0.0, 1.0]], "H": [[1.0, 1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.5e308]]}})
@example(data={**_CUSTOM_2X1, "custom_model": {
    "F": [[1.0, 0.0], [0.0, 1.0]], "H": [[1e308, 1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[0.01]]}})
@example(data={"runs": 2, "steps": 3, "init_perturb_var": 1e308})
def test_exit_status_follows_the_contract(data):
    # Exit 1 exactly when the config is rejected, 2 when the experiment
    # raises or leaves a filter without a finite MSE, else 0; never a
    # traceback or a floating-point warning.
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            config = ExperimentConfig.from_dict(data)
        except ConfigParseError:
            expected = 1
        else:
            try:
                expected = 0 if np.isfinite(run_monte_carlo(config).mse).all() else 2
            except RobustKFError:
                expected = 2
        path = Path(out) / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_cli(["bench", "--config", str(path), "--out", out]) == expected


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

    def test_out_naming_a_file_is_an_io_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli(bench_args(taken)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ")

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

    def test_integer_valued_reals_give_the_tables_of_their_floats(self, tmp_path):
        # A file's "sigma": 2 is the experiment of the flag --sigma 2: same
        # config hash in the header, same sigma column, byte for byte.
        flags = ["--example", "1", "--runs", "3", "--steps", "5", "--seed", "1"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"filters": [{"kind": "kf"}, {"kind": "mckf", "sigma": 2, "epsilon": 1e-6}]}))
        tables = []
        for name, extra in (("file", ["--config", str(path)]), ("flag", ["--sigma", "2"])):
            assert run_cli(["bench", *flags, *extra, "--out", str(tmp_path / name)]) == 0
            tables.append([(tmp_path / name / t).read_bytes() for t in ("mse.csv", "iterations.csv")])
        assert tables[0] == tables[1]
        ints = ExperimentConfig(filters=(FilterSpec("mckf", KernelConfig(2, 1)),), p0_scale=1, init_perturb_var=0)
        floats = ExperimentConfig(
            filters=(FilterSpec("mckf", KernelConfig(2.0, 1.0)),), p0_scale=1.0, init_perturb_var=0.0
        )
        assert _config_hash(ints) == _config_hash(floats)

    def test_max_iterations_flag_caps_the_filters_of_a_config_file(self, tmp_path):
        # As --seed overrides the file's master_seed, --max-iterations caps every
        # MCKF the file lists: the flagged run writes what a file with the cap does.
        def bench(name, filters, flags=()):
            path, out = tmp_path / f"{name}.json", tmp_path / name
            path.write_text(json.dumps({"runs": 3, "steps": 30, "filters": filters}))
            status = run_cli(["bench", "--config", str(path), "--out", str(out), *flags])
            tables = ("mse.csv", "iterations.csv") if status == 0 else ()
            return status, [(out / table).read_bytes() for table in tables]

        kf, mckf = {"kind": "kf"}, {"kind": "mckf", "sigma": 2.0, "epsilon": 1e-6}
        flagged = bench("flag", [kf, mckf], ["--max-iterations", "1"])
        assert flagged == bench("file", [kf, {**mckf, "max_iterations": 1}])
        assert flagged != bench("plain", [kf, mckf])
        assert float(read_rows(tmp_path / "flag" / "iterations.csv")[1][0][3]) == 1.0
        assert bench("malformed", "mckf", ["--max-iterations", "1"])[0] == 1

    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["bench", "--config", str(path), "--out", str(tmp_path)]) == 1
        path.write_text(json.dumps({"unknown_key": 1}))
        assert run_cli(["bench", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_invalid_sigma_list(self, tmp_path):
        assert run_cli(["bench", "--sigma", "-1", "--out", str(tmp_path)]) == 1
        assert run_cli(["bench", "--epsilon", "0", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "flag, env, file_seed, expected",
        [
            ("7", "123", 99, 7),
            (None, "123", 99, 123),
            (None, None, 99, 99),
            (None, None, None, 20160301),
        ],
        ids=["flag", "environment", "file", "default"],
    )
    def test_seed_order(self, tmp_path, monkeypatch, flag, env, file_seed, expected):
        monkeypatch.delenv("ROBUSTKF_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("ROBUSTKF_SEED", env)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({} if file_seed is None else {"master_seed": file_seed}))
        args = [a for a in bench_args(tmp_path) if a not in ("--seed", "7")]
        args += ["--config", str(path)] + (["--seed", flag] if flag else [])
        assert run_cli(args) == 0
        assert f"seed={expected} " in (tmp_path / "mse.csv").read_text().splitlines()[0]

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

    def test_example1_densities_span_its_error_range(self, tmp_path):
        args = ["simulate", "--example", "1", "--sigma", "2", "--runs", "2", "--steps", "20"]
        assert run_cli([*args, "--seed", "5", "--out", str(tmp_path)]) == 0
        lo, hi = EXAMPLE1_ERROR_RANGE
        half_bin = (hi - lo) / (2 * DEFAULT_DENSITY_BINS)
        for name in ("density_1_kf", "density_2_kf", "density_1_mckf_sigma2_eps1e-06",
                     "density_2_mckf_sigma2_eps1e-06"):
            centers = [float(row[0]) for row in read_rows(tmp_path / f"{name}.csv")[1]]
            assert centers[0] == pytest.approx(lo + half_bin)
            assert centers[-1] == pytest.approx(hi - half_bin)

    def test_some_runs_diverging_is_a_warning(self, tmp_path, capsys):
        # The truth grows by 1e10 a step from its first process noise, so a
        # run overflows by step 32 unless that noise is small: 3 of 4 at seed 4.
        config = {
            "example": "custom",
            "custom_model": {"F": [[1e10]], "H": [[1.0]], "Q": [[0.01]], "R": [[1.0]]},
            "true_x0": [0.0],
            "assumed_r": [[1.0]],
            "runs": 4,
            "steps": 32,
            "master_seed": 4,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 3 runs of KF failed and were excluded",
            "warning: 3 runs of MCKF(sigma=2,epsilon=1e-06) failed and were excluded",
        ]

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

    @pytest.mark.parametrize("beta", ["-1", "0"])
    def test_nonpositive_beta_is_config_error_before_any_filter_step(self, monkeypatch, capsys, beta):
        # No ball of radius <= 0 is ever certified: a configuration error,
        # raised before the KF trajectory runs (its data are never drawn).
        monkeypatch.setattr(robustkf.cli, "generate_run_data", None)
        assert run_cli(["diagnose", "--beta", beta]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: --beta must be > 0")

    def test_positive_beta_below_zeta_is_a_numerical_failure(self, capsys):
        assert run_cli(["diagnose", "--example", "1", "--seed", "3", "--beta", "1e-12"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: beta=1e-12 must exceed zeta=")

    def test_snapshot_step_is_the_kf_prior_of_that_step(self, capsys):
        code = run_cli([
            "diagnose", "--example", "2", "--noise", "impulsive", "--seed", "3",
            "--snapshot-step", "50", "--format", "json",
        ])
        assert code == 0
        config = ExperimentConfig(
            example="example2", noise_case="impulsive-measurement", runs=1, steps=50, master_seed=3
        )
        data = generate_run_data(config, 0)
        model = config.filter_model()
        belief = GaussianBelief(data.x0_hat, config.p0_scale * np.eye(model.n))
        for y in data.measurements[:-1]:
            belief, _ = kf_update(model, kf_predict(model, belief), y)
        prior = kf_predict(model, belief)
        reg = build_regression(model, prior, data.measurements[-1])
        beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
        cert = sufficient_sigma(reg, beta, 0.5)
        assert json.loads(capsys.readouterr().out) == {
            "alpha": cert.alpha,
            "beta": cert.beta,
            "zeta": cert.zeta,
            "sigma_star": cert.sigma_star,
            "sigma_dagger": cert.sigma_dagger,
            "sigma_min": cert.sigma_min,
            "snapshot_step": 50,
            "seed": 3,
        }
