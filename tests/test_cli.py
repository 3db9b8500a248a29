"""Command-line interface: parsing, slope fits, CSV determinism, exit codes."""

import contextlib
import dataclasses
import io
import math
from functools import partial

import pytest

from lipquant.bounds import ProblemConstants
from lipquant.cli import (
    ConfigError,
    ExperimentConfig,
    adversary_report,
    build_problem,
    fit_slope,
    load_config_file,
    main,
    oracle_report,
    parse_budgets,
    run_experiment,
)
from lipquant.known import run_known
from lipquant.problems import BUILTIN_PROBLEMS, paper_f_d2


class TestParseBudgets:
    def test_comma_list(self):
        assert parse_budgets("10,100,1000") == [10, 100, 1000]

    def test_range(self):
        assert parse_budgets("10:50:10") == [10, 20, 30, 40, 50]

    def test_range_default_step(self):
        assert parse_budgets("3:6") == [3, 4, 5, 6]

    def test_errors(self):
        for bad in ("", "abc", "10,5", "0,10", "1:10:0", "1:2:3:4", "-3"):
            with pytest.raises(ConfigError):
                parse_budgets(bad)


class TestFitSlope:
    def test_semilog_exact_geometric(self):
        ns = list(range(1, 20))
        errors = [2.0 ** (-n) for n in ns]
        slope, _, r2 = fit_slope(ns, errors, "semilog")
        assert slope == pytest.approx(-math.log(2), abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_loglog_exact_power_law(self):
        ns = [10, 100, 1000, 10000]
        errors = [3.0 / n for n in ns]
        slope, intercept, r2 = fit_slope(ns, errors, "loglog")
        assert slope == pytest.approx(-1.0, abs=1e-9)
        assert intercept == pytest.approx(math.log(3), abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_rows_excluded(self):
        slope, _, _ = fit_slope([1, 2, 3, 4, 5], [0.5, 0.25, 0.0, 0.0625, 0.03125], "semilog")
        assert slope == pytest.approx(-math.log(2), abs=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_slope([1, 2, 3], [0.0, 0.0, 1.0], "semilog")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            fit_slope([1, 2, 3], [1, 1, 1], "linear")


class TestConfig:
    def test_config_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("problem = linear_d1  # comment\nalgo=known\n\nbudgets=5,10\n")
        assert load_config_file(str(path)) == {
            "problem": "linear_d1",
            "algo": "known",
            "budgets": "5,10",
        }

    def test_bad_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("no equals sign\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/config")

    def test_build_problem_overrides(self):
        p = build_problem(ExperimentConfig(problem="linear_d1", alpha=0.25, lipschitz=2.0))
        assert p.alpha == 0.25
        assert p.lipschitz == 2.0
        assert p.true_quantile == 0.25  # f and the law stay, so the analytic value stays

    def test_build_problem_paper_d2_alpha_keeps_analytic(self):
        p = build_problem(ExperimentConfig(problem="paper_d2", alpha=0.9))
        assert p.true_quantile == pytest.approx(2 - math.sqrt(0.2), abs=1e-12)

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            build_problem(ExperimentConfig(problem="nope"))

    def test_build_problem_calls_its_factory_once(self, monkeypatch):
        # paper_d2 used to be built at its default alpha, then again at cfg.alpha
        calls = []

        def counted(*args):
            calls.append(args)
            return paper_f_d2(*args)

        monkeypatch.setitem(BUILTIN_PROBLEMS, "paper_d2", counted)
        p = build_problem(ExperimentConfig(problem="paper_d2", alpha=0.9))
        assert calls == [(0.9,)]
        assert p.alpha == 0.9

    @pytest.mark.parametrize("algo", ["known", "unknown"])
    @pytest.mark.parametrize("budgets", [[], [100, 50]], ids=["empty", "decreasing"])
    def test_api_budgets_are_checked(self, algo, budgets, monkeypatch):
        # budgets from the Python API used to go unchecked: [] died in max()
        # for known and wrote a header-only CSV for unknown, and [100, 50]
        # wrote its rows out of order
        def f(x):
            raise AssertionError("f called before the budgets were checked")

        monkeypatch.setitem(BUILTIN_PROBLEMS, "paper_d2",
                            lambda *args: dataclasses.replace(paper_f_d2(*args), f=f))
        with pytest.raises(ConfigError, match="budgets must"):
            run_experiment(ExperimentConfig(problem="paper_d2", algo=algo, budgets=budgets),
                           stream=io.StringIO())

    @pytest.mark.parametrize("build, name, error", [
        (partial(ExperimentConfig, alpha="0.5"), "alpha", ConfigError),
        (partial(ExperimentConfig, seed="1"), "seed", ConfigError),
        (partial(ExperimentConfig, lipschitz="2"), "lipschitz", ConfigError),
        (partial(ExperimentConfig, resolution="2000"), "resolution", ConfigError),
        (partial(ExperimentConfig, budgets=5), "budgets", ConfigError),
        (partial(ProblemConstants, 1, "2", 1.0, 0.5), "lipschitz", ValueError),
        (partial(ProblemConstants, 1, 1.0, 1.0, "0.5"), "alpha", ValueError),
        (partial(ProblemConstants, "1", 1.0, 1.0, 0.5), "dim", ValueError),
        # and these, past the float or int64 range, an OverflowError
        (partial(ExperimentConfig, lipschitz=10 ** 400), "lipschitz", ConfigError),
        (partial(ExperimentConfig, level_set=-10 ** 400), "level_set", ConfigError),
        (partial(ExperimentConfig, budgets=[10 ** 400]), f"budget {10 ** 400}: budget",
         ConfigError),
        (partial(ProblemConstants, 1, 10 ** 400, 1.0, 0.5), "lipschitz", ValueError),
    ], ids=["config-alpha", "config-seed", "config-lipschitz", "config-resolution",
            "config-budgets", "constants-lipschitz", "constants-alpha", "constants-dim",
            "config-lipschitz-huge-int", "config-level_set-huge-int", "config-budgets-huge-int",
            "constants-lipschitz-huge-int"])
    def test_non_numbers_are_refused_by_name(self, build, name, error):
        # each used to raise a TypeError from a comparison or a loop
        with pytest.raises(error, match=f"^{name} must"):
            build()


class TestRunExperiment:
    def test_known_rows(self):
        cfg = ExperimentConfig(problem="linear_d1", algo="known", budgets=[5, 25, 125])
        rows = run_experiment(cfg, stream=io.StringIO())
        assert [r["n"] for r in rows] == [5, 25, 125]
        for r in rows:
            assert r["lower"] <= r["estimate"] <= r["upper"]
            assert r["evals"] <= r["n"]
            assert r["bound"] is None  # no level-set constant supplied

    def test_bound_column_with_level_set(self):
        cfg = ExperimentConfig(
            problem="linear_d1", algo="known", budgets=[10, 100], level_set=2.0
        )
        rows = run_experiment(cfg, stream=io.StringIO())
        for r in rows:
            assert r["bound"] is not None
            assert r["abs_error"] <= r["bound"]

    def test_csv_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            cfg = ExperimentConfig(
                problem="paper_d2", algo="unknown", budgets=[100, 500], out=str(out)
            )
            run_experiment(cfg)
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "n,estimate,lower,upper,level,evals,true_q,abs_error,bound"

    def test_known_sweep_rows_equal_per_budget_runs(self, tmp_path, capsys):
        # the known-constant rows come from one deep run; each must equal the
        # row a from-scratch run at that budget would give
        out = tmp_path / "sweep.csv"
        code = main(["run", "--problem", "paper_d2", "--budgets", "1000:20000:1000",
                     "--out", str(out)])
        assert code == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        p = build_problem(ExperimentConfig(problem="paper_d2"))
        assert [int(r[0]) for r in rows] == list(range(1000, 20001, 1000))
        for r in rows:
            b = run_known(p.f, p.lipschitz, p.measure, p.alpha, int(r[0])).bracket
            assert r[1:6] == [repr(b.estimate), repr(b.lower), repr(b.upper),
                              str(b.level), str(b.evaluations)]

    def test_unknown_algo_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(algo="magic"), stream=io.StringIO())


class TestReports:
    def test_adversary_report_passes(self):
        buf = io.StringIO()
        assert adversary_report(1, [3, 4, 5], seed=0, stream=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 4  # header + one row per n
        assert all(line.endswith("pass") for line in lines[1:])

    def test_oracle_report(self):
        buf = io.StringIO()
        oracle_report(ExperimentConfig(problem="paper_d2"), stream=buf)
        text = buf.getvalue()
        assert "analytic_quantile" in text
        assert "estimated_lipschitz" in text

    def test_oracle_prints_the_analytic_quantile_under_alpha(self):
        # `lipquant oracle --problem linear_d1 --alpha 0.3` used to drop q = alpha
        buf = io.StringIO()
        oracle_report(ExperimentConfig(problem="linear_d1", alpha=0.3), stream=buf)
        assert "analytic_quantile: 0.3\n" in buf.getvalue()
        # and the grid oracle's line used to repeat it
        assert "grid_oracle_quantile: 0.2999995\n" in buf.getvalue()

    def test_oracle_report_prints_plain_floats(self):
        # estimated_level_set_M used to print as np.float64(0.5438...) on paper_d2
        buf = io.StringIO()
        oracle_report(ExperimentConfig(problem="paper_d2", resolution=1000), stream=buf)
        fields = dict(line.split(": ", 1) for line in buf.getvalue().splitlines())
        assert float(fields["estimated_level_set_M"]) > 0


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main([
            "run", "--problem", "linear_d1", "--algo", "known",
            "--budgets", "5,50", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("n,estimate")

    def test_unknown_budget_past_the_float_range(self, tmp_path, capsys):
        # its candidates 647 and up have constants past the float range; the
        # run used to end in an OverflowError
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "paper_d2", "--algo", "unknown",
                     "--budgets", "690715", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert row.startswith("690715,")

    def test_config_error_exit_two(self, capsys):
        assert main(["run", "--problem", "nope"]) == 2

    def test_adversary_exit_zero(self, capsys):
        assert main(["adversary", "--dim", "1", "--n", "3,4"]) == 0

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("problem=nope\nbudgets=5,10\n")
        code = main([
            "run", "--config", str(cfg), "--problem", "linear_d1",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 0

    def test_oracle_exit_zero(self, capsys):
        assert main(["oracle", "--problem", "linear_d1", "--resolution", "10000"]) == 0

    def test_oracle_writes_to_the_stdout_of_the_call(self):
        # the reports used to bind sys.stdout when the module was imported
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["oracle", "--problem", "linear_d1", "--alpha", "0.3"]) == 0
        assert "analytic_quantile: 0.3\n" in buf.getvalue()
        assert "grid_oracle_quantile: 0.2999995\n" in buf.getvalue()

    def test_run_without_out_writes_to_the_stdout_of_the_call(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["run", "--problem", "linear_d1", "--budgets", "5,50"]) == 0
        header, *rows = buf.getvalue().splitlines()
        assert header == "n,estimate,lower,upper,level,evals,true_q,abs_error,bound"
        assert [r.split(",")[0] for r in rows] == ["5", "50"]

    def test_monte_carlo_rows(self, capsys):
        assert main(["run", "--problem", "paper_d2", "--algo", "monte_carlo",
                     "--budgets", "200,400"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        rows = [dict(zip(header.split(","), r.split(","))) for r in rows]
        assert [r["evals"] for r in rows] == ["200", "400"]
        assert all(r["lower"] == r["upper"] == r["level"] == "" for r in rows)

    def test_unknown_bound_column(self, capsys):
        # no bound below the start-up budget of the unknown-constant bound
        assert main(["run", "--problem", "paper_d2", "--algo", "unknown",
                     "--level-set", "0.25", "--budgets", "2,1000"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        bounds = [dict(zip(header.split(","), r.split(",")))["bound"] for r in rows]
        assert bounds[0] == ""
        assert float(bounds[1]) == pytest.approx(4.3630451218847695, rel=1e-12)

    def test_a_tiny_level_set_constant_gives_a_bound_of_zero(self, capsys):
        # 3^(1 + 1/(4ML)) overflowed at M = 1e-4, and the run exited 1 with an
        # OverflowError traceback; the bound itself is below the float range
        assert main(["run", "--problem", "linear_d1", "--level-set", "1e-4",
                     "--budgets", "10,20,40"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert [dict(zip(header.split(","), r.split(",")))["bound"] for r in rows] == ["0.0"] * 3

    def test_alpha_keeps_the_analytic_quantile(self, tmp_path, capsys):
        # --alpha used to swap linear_d1's exact q = alpha for the grid
        # oracle, 0.2999995, which was also the reference of abs_error
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "linear_d1", "--alpha", "0.3",
                     "--budgets", "10,20,40", "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 3
        for r in rows:
            row = dict(zip(header, r))
            assert row["true_q"] == "0.3"
            assert float(row["abs_error"]) == abs(float(row["estimate"]) - 0.3)


class TestExitCodes:
    """Bad input exits 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["adversary", "--dim", "1", "--n", "abc"],  # used to raise from int()
        ["adversary", "--dim", "1"],  # used to print an empty table and exit 0
        ["run", "--algo", "unknown", "--problem", "paper_d2", "--budgets", "1"],  # used to exit 1
        # nan and inf used to give nan or infinite brackets and exit 0
        ["run", "--problem", "paper_d2", "--budgets", "10,20,40", "--lipschitz", "nan"],
        ["run", "--problem", "paper_d2", "--budgets", "10,20,40", "--lipschitz", "inf"],
        # a nan bound column and exit 0, a ValueError traceback and exit 1
        ["run", "--problem", "paper_d2", "--budgets", "10,20,40", "--level-set", "nan"],
        ["run", "--problem", "paper_d2", "--budgets", "10,20,40", "--level-set", "-1"],
        # these four used to exit 1 with a traceback, the last after every run
        ["run", "--problem", "paper_d1", "--budgets", "10,20,30", "--resolution", "5"],
        ["oracle", "--problem", "paper_d1", "--resolution", "5"],
        ["run", "--algo", "monte_carlo", "--seed", "-1"],
        ["run", "--problem", "paper_d2", "--budgets", "10,20,40", "--out", "/nonexistent/x.csv"],
        ["adversary", "--dim", "1", "--n", "3", "--seed", "-1"],
        # these four used to stop in argparse with a usage dump
        ["run", "--alpha", "abc"],
        ["run", "--seed", "1.5"],
        ["oracle", "--alpha", "x"],
        ["adversary", "--dim", "1", "--n", "3", "--seed", "x"],
        ["run", "--config", "colour.cfg"],
        ["run", "--alpha", "1.5"],
        # refused before the construction of N = 3 is verified
        ["adversary", "--dim", "1", "--n", "3,53"],
    ], ids=["adversary-n-abc", "adversary-no-n", "unknown-budget-1", "lipschitz-nan",
            "lipschitz-inf", "level-set-nan", "level-set-negative", "run-resolution-5",
            "oracle-resolution-5", "monte-carlo-seed-negative", "out-missing-dir",
            "adversary-seed-negative", "run-alpha-abc", "run-seed-1.5", "oracle-alpha-x",
            "adversary-seed-x", "config-key-unknown", "run-alpha-1.5", "adversary-n-above-cap"])
    def test_exit_two(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "colour.cfg").write_text("colour=red\n")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ")
