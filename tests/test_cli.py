import json
import re

import numpy as np
import pytest

from votelasso.cli import main
from votelasso.datagen import ProblemSpec
from votelasso.harness import ExperimentConfig, SweepResult, _rep_fits, build_design, materialize, run_sweep


COMMON = ["--d", "40", "--n", "30", "--machines", "4", "--k", "2", "--r", "0.8", "--seed", "3"]


def _bundle(path):
    """The generate bundle's arrays, read with plain np.load."""
    with np.load(path / "shards.npz", allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


class TestGenerate:
    def test_writes_bundle_and_csv(self, tmp_path, capsys):
        rc = main(["generate", *COMMON, "--out", str(tmp_path), "--csv"])
        assert rc == 0
        data = _bundle(tmp_path)
        assert np.array_equal(data["machine_ids"], np.arange(4))
        assert data["X_0"].shape == (30, 40) and data["y_3"].shape == (30,)
        assert data["support"].size == 2
        assert float(data["c_omega"]) > 0 and float(data["theta_min"]) > 0
        assert json.loads(str(data["meta"]))["d"] == 40
        csvs = sorted(tmp_path.glob("shard_*.csv"))
        assert len(csvs) == 4
        header = csvs[0].read_text().splitlines()[0]
        assert header.startswith("x_1,") and header.endswith(",y")
        rows = np.loadtxt(csvs[3], delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(rows[:, :-1], data["X_3"])
        assert np.array_equal(rows[:, -1], data["y_3"])

    def test_deterministic(self, tmp_path):
        main(["generate", *COMMON, "--out", str(tmp_path / "a")])
        main(["generate", *COMMON, "--out", str(tmp_path / "b")])
        a, b = _bundle(tmp_path / "a"), _bundle(tmp_path / "b")
        assert np.array_equal(a["y_0"], b["y_0"])
        assert np.array_equal(a["theta_star"], b["theta_star"])

    def test_truth_matches_harness_calibration(self, tmp_path):
        main(["generate", *COMMON, "--out", str(tmp_path)])
        data = _bundle(tmp_path)
        cfg = ExperimentConfig(spec=ProblemSpec(d=40, K=2, M=4, n=30, r=0.8, base_seed=3))
        design = build_design(cfg)
        point = materialize(design, cfg)
        assert np.array_equal(data["theta_star"], point.theta_star)
        assert np.array_equal(data["support"], design.support)
        assert float(data["c_omega"]) == design.c_omega
        for m, X in enumerate(design.X):
            assert np.array_equal(data[f"X_{m}"], X)

    def test_responses_are_the_harness_replication_zero(self, tmp_path):
        # generate and the replications share one response generator: the
        # bundle's y_<m> are replication 0's responses bit for bit.
        main(["generate", *COMMON, "--out", str(tmp_path)])
        data = _bundle(tmp_path)
        cfg = ExperimentConfig(spec=ProblemSpec(d=40, K=2, M=4, n=30, r=0.8, base_seed=3))
        ys = _rep_fits(materialize(build_design(cfg), cfg), 0)[-1]
        for m in range(4):
            y = data[f"y_{m}"]
            assert y.dtype == ys.dtype and y.tobytes() == ys[m].tobytes()


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        rc = main(
            ["run", *COMMON, "--scheme", "thresh_votes,bnm21", "--reps", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme=thresh_votes" in out and "scheme=bnm21" in out
        assert (tmp_path / "summary.csv").exists()
        recs = [json.loads(l) for l in (tmp_path / "records.jsonl").read_text().splitlines()]
        assert len(recs) == 4  # 2 schemes x 2 reps
        assert {r["scheme"] for r in recs} == {"thresh_votes", "bnm21"}

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# tiny experiment\n"
            "d = 30\n"
            "n = 25\n"
            "machines = 3\n"
            "k = 2\n"
            "r = 0.9\n"
            "seed = 5\n"
            "reps = 2\n"
            "scheme = thresh_votes\n"
        )
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--reps", "1", "--out", str(out)])
        assert rc == 0
        recs = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert len(recs) == 1  # flag --reps 1 overrides file reps=2

    def test_bad_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        with pytest.raises(SystemExit):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_text"])
    def test_unreadable_config_file_exits_with_one_line(self, tmp_path, kind):
        cfg = tmp_path / "exp.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not_text":
            cfg.write_bytes(b"\xff\xfe d = 30\n")
        with pytest.raises(SystemExit, match=f"^cannot read config file {re.escape(str(cfg))}: ") as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "line, message",
        [
            ("machine = 5", "unknown config key 'machine'"),
            ("out = elsewhere", "config key 'out' cannot be set from a config file; pass --out"),
            ("tau_mode = sqrt_2r_log_d", "unknown config key 'tau_mode'"),
            ("tau_value = 1.0", "unknown config key 'tau_value'"),
            ("nodewise_scale = n", "unknown config key 'nodewise_scale'"),
        ],
        ids=["unknown", "flag_only", "former_tau_mode", "former_tau_value", "former_nodewise_scale"],
    )
    def test_config_key_not_read_rejected(self, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"d = 30\n{line}\n")
        with pytest.raises(SystemExit, match=message):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    def test_run_key_rejected_by_generate(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scheme = bnm21\n")
        with pytest.raises(SystemExit, match="unknown config key 'scheme' for generate"):
            main(["generate", *COMMON, "--config", str(cfg), "--out", str(tmp_path)])

    def test_boolean_keys_from_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("reps = 2\nredraw_design = true\n")
        main(["run", *COMMON, "--config", str(cfg), "--out", str(tmp_path / "file")])
        main(["run", *COMMON, "--reps", "2", "--redraw-design", "--out", str(tmp_path / "flag")])
        main(["run", *COMMON, "--reps", "2", "--out", str(tmp_path / "fixed")])
        def errors(out):
            lines = (tmp_path / out / "records.jsonl").read_text().splitlines()
            return [json.loads(line)["l2_error"] for line in lines]

        assert errors("file") == errors("flag") != errors("fixed")
        cfg.write_text("redraw_design = maybe\n")
        with pytest.raises(SystemExit, match="redraw_design"):
            main(["run", *COMMON, "--config", str(cfg), "--out", str(tmp_path / "bad")])

    def test_tau_flag_and_key_set_the_threshold(self, tmp_path):
        # A number is the threshold itself and a rule name resolves at r; the
        # flag overrides the file, and either changes the records.
        def run(out, *flags, file_text=None):
            argv = ["run", *COMMON, "--reps", "1", *flags, "--out", str(tmp_path / out)]
            if file_text is not None:
                cfg = tmp_path / f"{out}.cfg"
                cfg.write_text(file_text)
                argv += ["--config", str(cfg)]
            assert main(argv) == 0
            return [json.loads(line) for line in (tmp_path / out / "records.jsonl").read_text().splitlines()]

        default = run("default")
        low = run("low", "--tau", "0.01")
        assert [r["fusion_log"]["tau"] for r in low] == [0.01]
        assert low[0]["bits_round1_total"] > default[0]["bits_round1_total"]
        strip = lambda recs: [{k: v for k, v in r.items() if k not in ("wall_time", "shared_time")} for r in recs]
        assert strip(run("file", file_text="tau = 0.01\n")) == strip(low)
        assert strip(run("over", "--tau", "0.01", file_text="tau = 5\n")) == strip(low)
        snr = run("snr", "--tau", "sqrt_2r_log_d")
        assert snr[0]["fusion_log"]["tau"] == pytest.approx(np.sqrt(2 * 0.8 * np.log(40)))
        assert strip(run("named", "--tau", "sqrt_2_log_d")) == strip(default)

    def test_lambda_flags_and_keys_set_the_penalties(self, tmp_path):
        # Each record carries the lasso penalty resolved at its grid point.
        # A number is the penalty itself, the flag overrides the file, and
        # a penalty small enough for nonzero fits changes the records.
        def run(out, *flags, file_text=None):
            argv = ["run", *COMMON, "--reps", "2", "--scheme", "thresh_votes,avg_deblasso", *flags,
                    "--out", str(tmp_path / out)]
            if file_text is not None:
                cfg = tmp_path / f"{out}.cfg"
                cfg.write_text(file_text)
                argv += ["--config", str(cfg)]
            assert main(argv) == 0
            return [json.loads(line) for line in (tmp_path / out / "records.jsonl").read_text().splitlines()]

        strip = lambda recs: [{k: v for k, v in r.items() if k not in ("wall_time", "shared_time")} for r in recs]
        default = run("default")
        assert [r["lam"] for r in default] == [8.0 * np.sqrt(np.log(40) / 30)] * 4
        assert max(r["flags"]["max_sweeps"] for r in default) == 1  # every fit zero
        low = run("low", "--lambda", "0.5")
        assert [r["lam"] for r in low] == [0.5] * 4
        assert max(r["flags"]["max_sweeps"] for r in low) > 1
        assert all(r["flags"]["nonconverged_fits"] == 0 and r["flags"]["max_kkt"] <= 1e-7 for r in low)
        assert strip(run("file", file_text="lam = 0.5\n")) == strip(low)
        assert strip(run("over", "--lambda", "0.5", file_text="lam = 3\n")) == strip(low)
        assert strip(run("named", "--lambda", "fixed_8")) == strip(default)
        omega = run("omega", "--lambda-omega", "0.9")
        assert [r["lam"] for r in omega] == [r["lam"] for r in default]
        assert strip(omega) != strip(default)
        assert strip(run("omega_file", file_text="lam_omega = 0.9\n")) == strip(omega)
        assert strip(run("omega_named", "--lambda-omega", "fixed_2")) == strip(default)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5", "fixed_9"])
    @pytest.mark.parametrize("name", ["lambda", "lambda-omega"])
    def test_bad_lambda_exits_with_one_line(self, tmp_path, name, value):
        key = name.replace("lambda", "lam").replace("-", "_")
        argv = ["run", *COMMON, f"--{name}", value, "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit, match=f"^bad run configuration: {key} must be one of") as exc:
            main(argv)
        assert "\n" not in exc.value.code and not (tmp_path / "o").exists()
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {value}\n")
        with pytest.raises(SystemExit, match=f"^bad run configuration: {key} must be one of"):
            main(["run", *COMMON, "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("flags", [["--tau-value", "1"], ["--tau-mode", "explicit"]])
    def test_former_tau_flags_are_refused(self, tmp_path, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *COMMON, *flags, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_former_nodewise_scale_flag_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *COMMON, "--nodewise-scale", "2n", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "scheme, l, message",
        [
            ("thresh_votes,top_L_votes", "1", "top-L schemes need L >= K under known sparsity"),
            ("top_L_votes", "1", "top-L schemes need L >= K under known sparsity"),
            ("thresh_votes,top_L_signs", "0", "L must lie in"),
            ("bnm21,top_L_votes", "500", "L must lie in"),
        ],
    )
    def test_bad_L_of_any_top_L_scheme_exits_with_one_line(self, tmp_path, scheme, l, message):
        # A top-L scheme listed after another one is held to the same L rule.
        argv = ["run", "--d", "40", "--n", "30", "--machines", "2", "--k", "2", "--reps", "1",
                "--scheme", scheme, "--l", l, "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit, match=f"bad run configuration: {message}") as exc:
            main(argv)
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("l", ["0", "41"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_L_out_of_range_exits_without_a_top_L_scheme(self, tmp_path, command, l):
        # A given L is checked against [1, d] even when no scheme reads it.
        argv = [command, "--d", "40", "--n", "30", "--machines", "2", "--k", "2", "--reps", "1",
                "--scheme", "thresh_votes", "--l", l, "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--axis", "r", "--grid", "0.8"]
        with pytest.raises(SystemExit, match=r"^bad run configuration: L must lie in \[1, d\]$"):
            main(argv)
        assert not (tmp_path / "o").exists()

    def test_L_in_range_accepted_without_a_top_L_scheme(self, tmp_path):
        argv = ["run", "--d", "40", "--n", "30", "--machines", "2", "--k", "2", "--reps", "1",
                "--scheme", "thresh_votes", "--l", "40", "--out", str(tmp_path / "o")]
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "flags, file_text, message",
        [
            (["--tau", "explicit"], None, "bad run configuration: tau must be one of .* not 'explicit'"),
            ([], "tau = sqrt_2_logd\n", "bad run configuration: tau must be one of .* not 'sqrt_2_logd'"),
            (["--tau", "-1"], None, "bad run configuration: tau must be one of .* not -1.0"),
            ([], "tau = nan\n", "bad run configuration: tau must be one of .* not nan"),
            (["--d", "1"], None, "d must be at least 2"),
            (["--sigma", "-1"], None, "sigma must be positive"),
            (["--sigma", "nan"], None, "bad problem configuration: sigma must be positive"),
            ([], "sigma = inf\n", "bad problem configuration: sigma must be positive"),
            ([], "sigma = loud\n", "config key 'sigma'"),
            (["--scheme", "thresh_votes,bogus"], None, "unknown scheme 'bogus'"),
            (["--scheme", " , "], None, "no scheme given"),
        ],
        ids=["tau_flag", "tau_file", "tau_negative", "tau_nan", "d", "sigma", "sigma_nan", "sigma_inf_file",
             "sigma_file", "later_scheme", "no_scheme"],
    )
    def test_bad_configuration_exits_with_one_line(self, tmp_path, flags, file_text, message):
        argv = ["run", *COMMON, *flags, "--out", str(tmp_path / "o")]
        if file_text is not None:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(file_text)
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit, match=message) as exc:
            main(argv)
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert not (tmp_path / "o").exists()


    def test_paper_scale_sets_its_defaults_and_flags_override_them(self, tmp_path, monkeypatch):
        configs = []

        def recording(config, axis, grid, schemes, out_dir=None):
            configs.append(config)
            return SweepResult(rows=[], records=[])

        monkeypatch.setattr("votelasso.cli.run_sweep", recording)
        for flags in ([], ["--d", "300", "--reps", "2"]):
            assert main(["run", "--paper-scale", *flags, "--out", str(tmp_path / "o")]) == 0
        got = [(c.spec.d, c.spec.n, c.spec.M, c.spec.K, c.reps) for c in configs]
        assert got == [(5000, 250, 100, 5, 500), (300, 250, 100, 5, 2)]

    def test_fewer_pooled_samples_than_K_exits_before_the_design(self, tmp_path, monkeypatch):
        def no_design(*args, **kwargs):
            raise AssertionError("build_design called")

        monkeypatch.setattr("votelasso.cli.build_design", no_design)
        monkeypatch.setattr("votelasso.harness.build_design", no_design)
        small = ["--d", "40", "--k", "5", "--seed", "1", "--reps", "1", "--out", str(tmp_path / "o")]
        for argv in (
            ["run", "--n", "3", "--machines", "1", *small],
            ["sweep", "--n", "30", "--machines", "2", "--axis", "n", "--grid", "2,30", *small],
        ):
            with pytest.raises(SystemExit, match="bad problem configuration: M \\* n must be at least K") as exc:
                main(argv)
            assert "\n" not in exc.value.code
        assert not (tmp_path / "o").exists()


class TestSweep:
    def test_sweep_r_axis(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                *COMMON,
                "--axis",
                "r",
                "--grid",
                "0.4,0.9",
                "--reps",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 grid points
        assert lines[0].split(",")[:3] == ["axis", "value", "scheme"]

    def test_sweep_L_axis_integer_grid(self, tmp_path):
        rc = main(
            [
                "sweep",
                *COMMON,
                "--scheme",
                "top_L_signs",
                "--axis",
                "L",
                "--grid",
                "2,4",
                "--reps",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert [l.split(",")[1] for l in lines[1:]] == ["2", "4"]

    def test_sweep_lambda_axis(self, tmp_path):
        # Each penalty is its own grid point; every record carries its lam.
        argv = ["sweep", *COMMON, "--scheme", "thresh_votes", "--axis", "lam", "--grid", "0.3,1.2",
                "--reps", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert [l.split(",")[:2] for l in lines[1:]] == [["lam", "0.3"], ["lam", "1.2"]]
        records = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
        assert [(r["value"], r["lam"]) for r in records] == [(0.3, 0.3)] * 2 + [(1.2, 1.2)] * 2

    def test_sweep_lambda_rule_name_on_the_grid(self, tmp_path):
        # --lambda fixed_8 and run_sweep take the rule name; so does the grid.
        argv = ["sweep", "--d", "40", "--n", "30", "--machines", "3", "--k", "2", "--reps", "1",
                "--axis", "lam", "--grid", "fixed_8,0.5", "--out", str(tmp_path)]
        assert main(argv) == 0
        records = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
        cfg = ExperimentConfig(spec=ProblemSpec(d=40, K=2, M=3, n=30, r=0.8), reps=1)
        direct = run_sweep(cfg, "lam", ["fixed_8", 0.5], ["thresh_votes"]).records
        untimed = lambda r: {k: v for k, v in r.items() if k not in ("wall_time", "shared_time")}
        assert [untimed(r) for r in records] == [untimed(r) for r in json.loads(json.dumps(direct))]
        assert [(r["value"], r["lam"]) for r in records] == [("fixed_8", 8.0 * np.sqrt(np.log(40) / 30)), (0.5, 0.5)]

    def test_sweep_unknown_lambda_rule_on_the_grid_exits_with_one_line(self, tmp_path):
        argv = ["sweep", *COMMON, "--axis", "lam", "--grid", "fixed_9", "--reps", "1",
                "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit, match="bad problem configuration: lam must be .*'fixed_9'") as exc:
            main(argv)
        assert "\n" not in exc.value.code
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "axis, grid, message",
        [
            ("lam", "0.5,-1", "lam must be"),
            ("lam", "0.5,nan", "lam must be"),
            ("r", "0.5,1.5", "r must lie in"),
            ("n", "0,30", "M and n must be positive"),
            ("M", "2,-1", "M and n must be positive"),
            ("L", "2,41", "L must lie in"),
        ],
    )
    def test_bad_grid_value_exits_with_one_line(self, tmp_path, axis, grid, message):
        # The same check as the problem flags: --r 1.5 is rejected, so is --grid 1.5.
        argv = ["sweep", *COMMON, "--axis", axis, "--grid", grid, "--reps", "1",
                "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit, match=f"bad problem configuration: {message}") as exc:
            main(argv)
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert not (tmp_path / "o").exists()

    def test_L_grid_below_K_exits_like_the_l_flag(self, tmp_path):
        # `run --l 1` is rejected under known sparsity; so is `--axis L --grid 1`.
        argv = ["sweep", "--d", "40", "--n", "30", "--machines", "2", "--k", "2",
                "--scheme", "top_L_votes", "--axis", "L", "--grid", "1", "--reps", "1",
                "--out", str(tmp_path / "o")]
        message = "top-L schemes need L >= K under known sparsity"
        with pytest.raises(SystemExit, match=f"bad problem configuration: {message}") as exc:
            main(argv)
        assert "\n" not in exc.value.code
        assert not (tmp_path / "o").exists()
        with pytest.raises(SystemExit, match=message):
            main(["run", *argv[1:9], "--scheme", "top_L_votes", "--l", "1", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("axis, grid", [("n", "20.7,30"), ("M", "1.5,2"), ("L", "2,3.5")])
    def test_fractional_integer_grid_exits_with_one_line(self, tmp_path, axis, grid):
        argv = ["sweep", *COMMON, "--scheme", "top_L_votes", "--axis", axis, "--grid", grid,
                "--reps", "1", "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit, match=f"--grid: expected whole numbers for --axis {axis}") as exc:
            main(argv)
        assert "\n" not in exc.value.code
        assert not (tmp_path / "o").exists()

    def test_non_numeric_grid_exits_with_one_line(self, tmp_path):
        argv = ["sweep", *COMMON, "--axis", "r", "--grid", "0.5,high", "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit, match="--grid: expected comma-separated numbers"):
            main(argv)
        assert not (tmp_path / "o").exists()


class TestTheory:
    def test_thm2_json(self, capsys):
        rc = main(["theory", "--theorem", "2", "--d", "5000", "--r", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theorem"] == 2
        assert payload["feasible"] is True
        assert abs(payload["m_lower"] - 722) <= 2
        assert payload["m_upper"] == pytest.approx(5000 / 3)

    def test_thm3_json(self, capsys):
        rc = main(["theory", "--theorem", "3", "--d", "5000", "--r", "0.9", "--epsilon", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["m_lower"] - 136.3) <= 0.5
        assert abs(payload["m_upper"] - 2131) <= 5

    @pytest.mark.parametrize(
        "flags",
        [
            ["--theorem", "3", "--d", "100", "--r", "0.5", "--epsilon", "0.6"],
            ["--theorem", "2", "--d", "5000", "--r", "0.5", "--epsilon", "0.5"],
        ],
        ids=["thm3_eps_over_half", "thm2_nonpositive_denominator"],
    )
    def test_empty_machine_range_is_strict_json_null(self, capsys, flags):
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        main(["theory", *flags])
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["m_lower"] is None and payload["feasible"] is False

    def test_reports_no_unused_constants(self, capsys):
        main(["theory", "--d", "100", "--r", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"snr_floor", "m_lower", "m_upper", "feasible", "epsilon", "theorem"}
        with pytest.raises(SystemExit):
            main(["theory", "--d", "100", "--r", "0.5", "--kappa", "8"])


    @pytest.mark.parametrize("theorem", ["2", "3"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--d", "100", "--r", "1.0"],
            ["--d", "1", "--r", "0.5"],
            ["--d", "100", "--r", "0.5", "--epsilon", "-1"],
            ["--d", "100", "--r", "0.5", "--epsilon", "nan"],
            ["--d", "100", "--r", "nan"],
        ],
        ids=["r", "d", "epsilon", "epsilon_nan", "r_nan"],
    )
    def test_out_of_range_argument_exits_with_one_line(self, capsys, theorem, flags):
        with pytest.raises(SystemExit, match="^bad theory arguments: need d >= 2") as exc:
            main(["theory", "--theorem", theorem, *flags])
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert capsys.readouterr().out == ""


class TestReport:
    def test_merges_records(self, tmp_path, capsys):
        out1 = tmp_path / "run1"
        main(["run", *COMMON, "--reps", "2", "--out", str(out1)])
        merged = tmp_path / "merged.csv"
        rc = main(["report", str(out1), "--out", str(merged)])
        assert rc == 0
        lines = merged.read_text().splitlines()
        assert lines[0] == "axis,value,scheme,rep,metric,metric_value"
        assert len(lines) == 1 + 2 * 2  # two metrics per record

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, r"No such file or directory: '.*missing\.jsonl'"),
            ('{"scheme": "bnm21"}\nnot json\n', r"records\.jsonl:2: not JSON \("),
            ('{"scheme": "bnm21"}\n["bnm21"]\n', r"records\.jsonl:2: not a JSON object$"),
        ],
        ids=["missing", "not_json", "not_object"],
    )
    def test_bad_input_exits_with_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / ("missing.jsonl" if text is None else "records.jsonl")
        if text is not None:
            path.write_text(text)
        merged = tmp_path / "merged.csv"
        with pytest.raises(SystemExit, match=f"^bad report input: .*{message}") as exc:
            main(["report", str(path), "--out", str(merged)])
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert capsys.readouterr().out == "" and not merged.exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"a": 1}\n', r"records\.jsonl:1: missing keys axis, value, scheme, rep, f_measure, l2_error$"),
            (
                b'{"axis": "r", "value": 0.8, "scheme": "bnm21", "rep": 0, "f_measure": 1.0, "l2_error": 0.1}\n'
                b'\n{"axis": "r", "value": 0.8, "scheme": "bnm21", "rep": 1}\n',
                r"records\.jsonl:3: missing keys f_measure, l2_error$",
            ),
            (b"\xff\xfe{}\n", r"records\.jsonl:1: not UTF-8 text$"),
        ],
        ids=["not_a_record", "missing_metrics", "not_utf8"],
    )
    def test_input_that_is_not_records_exits_with_one_line(self, tmp_path, capsys, data, message):
        path = tmp_path / "records.jsonl"
        path.write_bytes(data)
        merged = tmp_path / "merged.csv"
        with pytest.raises(SystemExit, match=f"^bad report input: .*{message}") as exc:
            main(["report", str(path), "--out", str(merged)])
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert capsys.readouterr().out == "" and not merged.exists()
