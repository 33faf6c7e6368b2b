import io
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import casotto
from casotto import cli, cycle
from casotto.cli import RunConfig, UsageError, main, parse_config, run, _parse_grid
from casotto.cycle import BathPair, sweep
from casotto.spectrum import CavityConfig
from casotto.trajectory import quintic
from casotto.friction import TruncationWarning


def capture(argv):
    cfg = parse_config(argv)
    buf = io.StringIO()
    status = run(cfg, stream=buf)
    return status, buf.getvalue()


class TestParsing:
    def test_basic_friction_flags(self):
        cfg = parse_config(
            ["friction", "--tau", "1.0", "--beta", "1.0", "--epsilon", "0.01",
             "--modes", "64"]
        )
        assert cfg.command == "friction"
        assert cfg.options["tau"] == 1.0
        assert cfg.options["beta"] == 1.0
        assert cfg.options["epsilon"] == (0.01,)
        assert cfg.options["modes"] == 64

    def test_defaults_fill_in(self):
        cfg = parse_config(["friction"])
        assert cfg.options["modes"] == 64
        assert cfg.options["tail-tol"] == 1e-6

    def test_flag_overrides_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon = 0.06\nmodes = 32  # comment\n")
        cfg = parse_config(
            ["friction", "--config", str(conf), "--epsilon", "0.01"]
        )
        assert cfg.options["epsilon"] == (0.01,)
        assert cfg.options["modes"] == 32

    def test_env_overrides_config_but_not_flags(self, tmp_path, monkeypatch):
        conf = tmp_path / "run.conf"
        conf.write_text("modes = 32\n")
        monkeypatch.setenv("CASOTTO_MODES", "16")
        cfg = parse_config(["friction", "--config", str(conf)])
        assert cfg.options["modes"] == 16
        cfg = parse_config(["friction", "--config", str(conf), "--modes", "8"])
        assert cfg.options["modes"] == 8

    def test_directory_as_config_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["friction", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("casotto: cannot read config file")

    def test_config_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"modes = 8 # \xff\n")
        assert main(["friction", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_trajectory_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "stroke.csv"
        path.write_bytes(b"0,0\n1,\xff1\n")
        assert main(["friction", "--family", "sampled", "--trajectory-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"casotto: cannot read trajectory file {path}: ")
        assert err.count("\n") == 1

    def test_directory_as_trajectory_file_is_a_usage_error(self, tmp_path):
        argv = ["friction", "--family", "sampled", "--trajectory-file", str(tmp_path)]
        with pytest.raises(UsageError, match="not a file"):
            parse_config(argv)
        assert main(argv) == 2

    def test_unknown_config_key_is_hard_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate = 3\n")
        with pytest.raises(UsageError):
            parse_config(["friction", "--config", str(conf)])
        # blank and comment lines are skipped; a line without '=' is refused
        conf.write_text("\n# a comment\nbeta 2\n")
        assert main(["friction", "--config", str(conf)]) == 2
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_env_var_of_mixed_case_flag(self, monkeypatch):
        # CASOTTO_<FLAG> is upper case, so --L0 is matched case-insensitively
        monkeypatch.setenv("CASOTTO_L0", "2")
        assert parse_config(["shortcut-check"]).options["L0"] == 2.0
        assert parse_config(["shortcut-check", "--L0", "3"]).options["L0"] == 3.0

    def test_unknown_env_var_is_hard_error(self, monkeypatch):
        monkeypatch.setenv("CASOTTO_FROBNICATE", "3")
        with pytest.raises(UsageError):
            parse_config(["friction"])

    @pytest.mark.parametrize("name", ["CASOTTO_CONFIG", "CASOTTO_COMMAND"])
    def test_config_and_command_are_no_env_vars(self, tmp_path, monkeypatch, capsys, name):
        # --config and the command are no options, so no variable mirrors them
        conf = tmp_path / "run.conf"
        conf.write_text("modes = 4\n")
        monkeypatch.setenv(name, str(conf) if name == "CASOTTO_CONFIG" else "friction")
        assert main(["bound"]) == 2
        assert capsys.readouterr().err == f"casotto: unknown environment variable {name}\n"

    def test_epsilon_out_of_range(self):
        with pytest.raises(UsageError):
            parse_config(["friction", "--epsilon", "1.5"])

    def test_help_exits_zero_with_usage_on_stdout(self, capsys):
        assert main(["friction", "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: casotto") and "--tau" in out
        assert err == ""
        # a list default reads as typed, not as the tuple it is stored as
        assert "(default 0.01)" in " ".join(out.split())
        assert main(["friction", "--frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        "friction --tau", "friction --beta-a 2", "friction friction", "frobnicate",
        "--modes 4", "friction --bet 2", "-t 1 friction",
    ], ids=["no-value", "other-commands-option", "second-command", "unknown-command",
            "no-command", "abbreviation", "short-option"])
    def test_bad_command_line_is_one_stderr_line(self, argv, capsys):
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("casotto: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_help_without_a_command_lists_the_commands(self, capsys):
        assert main(["--help"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: casotto")
        assert all(command in out for command in cli.COMMANDS)

    @pytest.mark.parametrize("argv", [["--help", "friction"], ["friction", "--tau=2", "--help"],
                                      ["-h", "friction"]])
    def test_help_anywhere_prints_the_usage_of_the_command(self, argv, capsys):
        assert main(["friction", "--help"]) == 0
        expected = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")
        assert "--tail-tol" in expected and "--beta-a" not in expected

    def test_an_option_takes_the_next_token_as_its_value(self):
        # --tau -1 is a value that breaks the tau rule, not a missing value
        with pytest.raises(UsageError, match="tau must be positive and finite, got -1.0"):
            parse_config(["friction", "--tau", "-1"])

    def test_missing_command(self):
        with pytest.raises(UsageError):
            parse_config(["--tau", "1.0"])
        with pytest.raises(UsageError, match="missing command"):
            parse_config(["--modes", "4"])

    @pytest.mark.parametrize("before, after", [
        (["--config", "{conf}", "bound"], ["bound", "--config", "{conf}"]),
        (["--modes", "4", "friction"], ["friction", "--modes", "4"]),
        (["--tau=2", "--beta-a", "2", "engine"], ["engine", "--tau=2", "--beta-a", "2"]),
    ], ids=["config", "modes", "mixed"])
    def test_options_before_the_command(self, tmp_path, before, after):
        # the usage line puts the options first: an option's value is no command
        conf = tmp_path / "run.conf"
        conf.write_text("modes = 4\n")
        subst = lambda argv: [tok.format(conf=conf) for tok in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert capture(subst(before)) == capture(subst(after))

    def test_unknown_command(self):
        with pytest.raises(UsageError):
            parse_config(["maximize-entropy"])

    def test_sampled_family_requires_existing_file(self):
        with pytest.raises(UsageError):
            parse_config(["friction", "--family", "sampled"])
        with pytest.raises(UsageError):
            parse_config(
                ["friction", "--family", "sampled", "--trajectory-file",
                 "/nonexistent/path.csv"]
            )

    @pytest.mark.parametrize("flag", ["--nodes-per-period", "--panel-order",
                                      "--rel-tol", "--max-panels", "--jobs"])
    def test_numerical_tuning_flags_are_rejected(self, flag):
        with pytest.raises(UsageError):
            parse_config(["sweep", "--tau-grid", "1:2:2", flag, "4"])

    @pytest.mark.parametrize("argv", [
        ["friction", "--bet", "2", "--modes", "4"],
        ["sweep", "--tau-g", "1:2:2", "--modes", "4"],
    ], ids=["friction", "sweep"])
    def test_abbreviated_flags_are_usage_errors(self, argv, capsys):
        # as they are when given as a CASOTTO_ variable or a config key
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_oracle_takes_no_modes(self, tmp_path):
        # the oracle's mode count is --fock-modes; a K cutoff would be ignored
        with pytest.raises(UsageError):
            parse_config(["oracle", "--modes", "4"])
        conf = tmp_path / "run.conf"
        conf.write_text("modes = 4\n")
        with pytest.raises(UsageError):
            parse_config(["oracle", "--config", str(conf)])

    def test_oracle_takes_no_integrator_order(self, tmp_path, monkeypatch):
        # the fourth-order step is the only one: the removed flag (a case of
        # test_shortcut_check_rejects_bad_samples), its environment variable
        # and its config key are usage errors
        assert len(cli._COMMAND_OPTIONS["oracle"]) == 10
        conf = tmp_path / "run.conf"
        conf.write_text("integrator-order = 4\n")
        assert main(["oracle", "--config", str(conf)]) == 2
        monkeypatch.setenv("CASOTTO_INTEGRATOR_ORDER", "4")
        assert main(["oracle"]) == 2

    def test_sweep_requires_grid(self):
        with pytest.raises(UsageError):
            parse_config(["sweep"])

    def test_sampled_sweep_takes_one_tau(self, tmp_path, capsys):
        # a sampled stroke spans its file, so a second tau would repeat a row
        samples = tmp_path / "stroke.csv"
        samples.write_text("".join(f"{t / 10!r},{(t / 10) ** 2 * (3 - t / 5)!r}\n"
                                   for t in range(11)))
        argv = ["sweep", "--family", "sampled", "--trajectory-file", str(samples),
                "--modes", "16", "--tau-grid"]
        assert main([*argv, "0.5:4:3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--tau-grid must have one point" in err
        status, text = capture([*argv, "0.5:4:1"])
        assert status == 0
        assert len([l for l in text.splitlines() if l[:1].isdigit()]) == 1

    @pytest.mark.parametrize("command", ["engine", "refrigerator"])
    def test_negative_thermalization_time_is_a_usage_error(self, command):
        assert main([command, "--tau", "1", "--thermalization-time", "-2"]) == 2
        assert main([command, "--tau", "1", "--thermalization-time", "-5"]) == 2
        assert main([command, "--tau", "1", "--thermalization-time", "nan"]) == 2

    @pytest.mark.parametrize("argv", [
        ["shortcut-check", "--points", "0"],
        ["shortcut-check", "--points", "-3"],
        ["shortcut-check", "--n", "2,x"],
        ["shortcut-check", "--n", "2,-1"],
        ["shortcut-check", "--n", ","],
        ["friction", "--tail-tol", "0"],
        ["engine", "--beta-ratio", "2"],
        ["engine", "--beta-ratio", "0"],
        ["engine", "--beta-a", "-1"],
        ["sweep", "--tau-grid", "1:2:2", "--beta-ratio", "0.5,2"],
        ["friction", "--beta=-inf"],
        ["friction", "--epsilon", "0.01,0.02"],
        ["oracle", "--epsilon", "0.01,0.005"],
        ["engine", "--beta-ratio", "0.5,0.6"],
        ["sweep", "--tau-grid", "1:1:3"],
        ["sweep", "--tau-grid", "1:2:0"],
        ["sweep", "--tau-grid", "0:2:3log"],
        ["sweep", "--tau-grid", "1:2:x"],
        ["sweep", "--tau-grid", "a:2:3"],
        ["oracle", "--fock-modes", "0"],
        ["oracle", "--n-max", "0"],
        ["oracle", "--dt", "0"],
        ["oracle", "--integrator-order", "4"],
        ["shortcut-check", "--L0", "0"],
        ["shortcut-check", "--L0", "inf"],
        ["sweep", "--tau-grid", "0.5:2:2", "--epsilon", ","],
        ["sweep", "--tau-grid", "0.5:2:2", "--beta-ratio", ","],
        ["sweep", "--tau-grid", "0:2:2"],
        ["sweep", "--tau-grid=-1:2:3"],
        ["sweep", "--tau-grid", "1:2:2", "--beta-a", "inf"],
        ["friction", "--tau", "inf"],
        ["friction", "--modes", "0"],
        ["sweep", "--tau-grid", "1:2:2", "--mode", "bogus"],
        ["oracle", "--check", "bogus"],
        ["friction", "--family", "bogus"],
        ["friction", "--tau", "nan"],
        ["friction", "--beta", "nan"],
        ["engine", "--beta-a", "nan"],
        ["friction", "--tail-tol", "nan"],
        ["oracle", "--dt", "nan"],
        ["shortcut-check", "--L0", "nan"],
    ], ids=["points-zero", "points-negative", "n-not-integer", "n-negative", "n-empty",
            "tail-tol-zero", "beta-ratio-above-one", "beta-ratio-zero", "beta-a-negative",
            "sweep-beta-ratio-above-one", "beta-minus-inf", "friction-two-epsilons",
            "oracle-two-epsilons", "engine-two-beta-ratios", "grid-empty-range",
            "grid-zero-points", "log-grid-at-zero", "grid-count-not-integer",
            "grid-bound-not-number", "fock-modes-zero", "n-max-zero", "dt-zero",
            "integrator-order-removed", "L0-zero", "L0-inf", "epsilon-empty",
            "beta-ratio-empty", "grid-at-zero", "grid-below-zero", "beta-a-inf",
            "tau-inf", "modes-zero", "sweep-mode-bogus", "check-bogus", "family-bogus",
            "tau-nan", "beta-nan", "beta-a-nan", "tail-tol-nan", "dt-nan", "L0-nan"])
    def test_shortcut_check_rejects_bad_samples(self, argv):
        # out-of-range values are usage errors (status 2), caught before the
        # library's own ValueError would turn them into numerical failures (3)
        with pytest.raises(UsageError):
            parse_config(argv)
        assert main(argv) == 2


class TestCachedParser:
    def test_environment_is_read_on_every_call(self, monkeypatch):
        monkeypatch.delenv("CASOTTO_MODES", raising=False)
        assert parse_config(["friction"]).options["modes"] == 64
        monkeypatch.setenv("CASOTTO_MODES", "16")
        assert parse_config(["friction"]).options["modes"] == 16
        monkeypatch.delenv("CASOTTO_MODES")
        assert parse_config(["friction"]).options["modes"] == 64

    @pytest.mark.parametrize("bad", [
        ["engine", "--frobnicate", "1"],
        ["engine", "--tau"],
        ["engine", "--tau", "1", "--modes", "x"],
        ["engine", "--tau", "-1"],
    ], ids=["unknown-flag", "missing-value", "bad-value", "out-of-range"])
    def test_usage_error_leaves_the_next_call_alone(self, bad):
        argv = ["engine", "--tau", "2", "--beta-ratio", "0.4"]
        before = parse_config(argv)
        with pytest.raises(UsageError):
            parse_config(bad)
        assert parse_config(argv) == before
        assert parse_config(["engine"]) == RunConfig("engine", {
            key: spec[1] for key, spec in cli._OPTION_SPECS.items()
            if key in cli._COMMAND_OPTIONS["engine"]
        })

    def test_commands_do_not_share_options(self):
        parse_config(["friction", "--beta", "2", "--tau", "3"])
        cfg = parse_config(["engine"])
        assert sorted(cfg.options) == sorted(cli._COMMAND_OPTIONS["engine"])
        assert cfg.options["tau"] == 1.0
        with pytest.raises(UsageError):
            parse_config(["engine", "--beta", "2"])
        assert parse_config(["friction"]).options["beta"] == 1.0
        assert "beta" not in parse_config(["shortcut-check"]).options


class TestPerturbativeWarning:
    def test_largest_epsilon_is_named_once_on_stderr(self, tmp_path):
        argv = ["sweep", "--tau-grid", "1:2:2", "--epsilon", "0.05,0.3,0.2", "--modes", "4"]
        proc = subprocess.run(
            [sys.executable, "-m", "casotto.cli", *argv],
            env=_child_env(), cwd=tmp_path, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("PerturbativeWarning") == 1
        assert "epsilon = 0.3 exceeds 0.1" in proc.stderr
        # stdout is what the same request writes without the warning
        with pytest.warns(cli.PerturbativeWarning):
            _, text = capture(argv)
        assert proc.stdout == text

    def test_no_warning_within_the_perturbative_range(self, recwarn):
        capture(["sweep", "--tau-grid", "1:2:2", "--epsilon", "0.05,0.1", "--modes", "4"])
        capture(["shortcut-check", "--points", "2"])
        assert not [w for w in recwarn if w.category is cli.PerturbativeWarning]


class TestWarningAttribution:
    @pytest.mark.parametrize("argv, category", [
        (["engine", "--tau", "2.0", "--beta-a", "2.0", "--modes", "12"], TruncationWarning),
        (["engine", "--epsilon", "0.3"], cli.PerturbativeWarning),
    ], ids=["truncation", "perturbative"])
    def test_warnings_name_the_caller_of_run(self, argv, category):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(parse_config(argv), stream=io.StringIO())
        assert any(issubclass(w.category, category) for w in caught)
        assert all(w.filename == __file__ for w in caught)


class TestGrids:
    def test_linear(self):
        assert _parse_grid("0:1:3") == pytest.approx([0.0, 0.5, 1.0])

    def test_log(self):
        grid = _parse_grid("0.1:10:3log")
        assert grid == pytest.approx([0.1, 1.0, 10.0])

    def test_single_point(self):
        assert _parse_grid("2.5:9:1") == [2.5]

    def test_bad_grids(self):
        for bad in ("1:2", "2:1:5", "0:1:0", "-1:1:3log", "1:2:x", "a:2:3", "1:inf:3"):
            with pytest.raises(UsageError):
                _parse_grid(bad)


# the commands of the README's command-line section
README_COMMANDS = [
    "friction --tau 1.0 --beta 1.0 --epsilon 0.01 --modes 64",
    "bound --tau 1.0 --beta 1.0 --epsilon 0.01",
    "engine --tau 2.0 --beta-a 2.0 --beta-ratio 0.5 --epsilon 0.01",
    "refrigerator --tau 2.0 --beta-a 2.0 --beta-ratio 0.97 --epsilon 0.06",
    "sweep --family quintic --tau-grid 0.1:30:40log --beta-ratio 0.17,0.33,0.5"
    " --beta-a 2.0 --epsilon 0.01 --mode engine",
    "shortcut-check --tau 1 --L0 1 --n 2,4,10",
    "oracle --tau 1.0 --beta 2.0 --epsilon 0.01 --fock-modes 2 --n-max 8",
    "oracle --check identities --beta 2.0 --fock-modes 3 --n-max 8",
]


@pytest.mark.parametrize("command", README_COMMANDS, ids=lambda c: " ".join(c.split()[:3]))
def test_every_command_has_the_documented_layout(command):
    # header block, column row, data rows; the '# column' lines name the
    # column row's columns in its order
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        status, text = capture(command.split())
    assert status == 0
    lines = text.splitlines()
    n_header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    documented = [line[len("# column "):].split(":", 1)[0]
                  for line in lines[:n_header] if line.startswith("# column ")]
    assert documented == lines[n_header].split(",")
    assert len(lines) > n_header + 1
    assert not any(line.startswith("#") for line in lines[n_header:])


class TestRuns:
    def test_friction_emits_header_and_rows(self):
        status, text = capture(
            ["friction", "--tau", "1.0", "--beta", "1.0", "--epsilon", "0.01",
             "--modes", "8"]
        )
        assert status == 0
        lines = text.splitlines()
        assert lines[0].startswith("# casotto")
        assert any(l.startswith("# E_F = ") for l in lines)
        header_idx = lines.index("k,diag_term,create_term,scatter_term,cumulative")
        assert len(lines) - header_idx - 1 == 8

    def test_friction_adiabatic_limit(self):
        status, text = capture(
            ["friction", "--tau", "1e9", "--beta", "1.0", "--epsilon", "0.01",
             "--modes", "2"]
        )
        assert status == 0
        ef = next(l for l in text.splitlines() if l.startswith("# E_F = "))
        assert abs(float(ef.split("=")[1])) < 1e-12

    @pytest.mark.filterwarnings("error::casotto.friction.TruncationWarning")
    def test_shortcut_friction_reports_a_finite_tail(self):
        # E_F of the shortcut is round-off, so its tail is too: it is bounded
        # by the round-off bound instead of flagged as a non-decaying fit
        status, text = capture(
            ["friction", "--tau", "1", "--modes", "32", "--family", "shortcut"]
        )
        assert status == 0
        header = dict(l[2:].split(" = ") for l in text.splitlines()
                      if l.startswith(("# E_F", "# quadrature_err", "# tail_estimate")))
        tail, err = float(header["tail_estimate"]), float(header["quadrature_err"])
        assert math.isfinite(tail) and 0.0 <= tail <= err
        assert abs(float(header["E_F"])) <= err

    def test_determinism_byte_identical(self):
        argv = ["sweep", "--family", "quintic", "--tau-grid", "0.5:2:3log",
                "--beta-ratio", "0.5", "--epsilon", "0.01", "--modes", "12"]
        _, first = capture(argv)
        _, second = capture(argv)
        assert first == second

    @pytest.mark.parametrize("argv, epsilon", [
        (["engine", "--tau", "2.0", "--beta-a", "2.0", "--beta-ratio", "0.5",
          "--epsilon", "0.01", "--modes", "12"], "0.01"),
        (["sweep", "--tau-grid", "0.5:2:3log", "--beta-ratio", "0.3,0.5",
          "--epsilon", "0.01,0.06", "--modes", "12"], "0.01,0.06"),
        # a list echoes as its shortest round-trip floats
        (["sweep", "--tau-grid", "1:2:2", "--epsilon", "0.010,1e-2", "--modes", "12"],
         "0.01,0.01"),
    ], ids=["engine", "sweep-lists", "sweep-non-canonical"])
    def test_round_trip_of_echoed_config(self, tmp_path, argv, epsilon):
        cfg = parse_config(argv)
        buf = io.StringIO()
        # 12 modes leave both the population-frozen and the friction tail
        # large; a sweep carries that in its tail_warning column instead
        with pytest.warns(TruncationWarning) if argv[0] == "engine" else warnings.catch_warnings():
            run(cfg, stream=buf)
        assert f"# epsilon = {epsilon}" in buf.getvalue().splitlines()
        conf_lines = []
        for line in buf.getvalue().splitlines():
            if line.startswith("# column") or not line.startswith("# "):
                continue
            body = line[2:]
            if "=" in body and not body.startswith(("E_F", "quadrature_err",
                                                    "tail_estimate", "bound")):
                conf_lines.append(body)
        conf = tmp_path / "echo.conf"
        conf.write_text("\n".join(l for l in conf_lines if not l.startswith("casotto")))
        cfg2 = parse_config([argv[0], "--config", str(conf)])
        assert cfg2 == cfg

    def test_sweep_csv_matches_eta_shape(self):
        status, text = capture(
            ["sweep", "--family", "quintic", "--tau-grid", "0.5:8:4log",
             "--beta-ratio", "0.5", "--epsilon", "0.01", "--modes", "12"]
        )
        assert status == 0
        rows = [l.split(",") for l in text.splitlines()
                if l and not l.startswith(("#", "tau_omega1"))]
        etas = [float(r[5]) for r in rows]
        assert etas == sorted(etas)
        assert all(e <= 0.01 + 1e-12 for e in etas)

    @pytest.mark.parametrize("machine, ratios, beta_a, modes", [
        ("engine", "0.3,0.5", 1, 64), ("refrigerator", "0.97,0.99", 1, 64),
        # at a beta_a that is no power of two, r * beta_a / beta_a is not r:
        # both commands print the requested ratio
        ("engine", "0.05,0.1", 3, 128), ("refrigerator", "0.97,0.99", 3, 128),
    ])
    def test_sweep_rows_equal_single_cell_rows(self, machine, ratios, beta_a, modes):
        # the cutoff leaves some cells' tails flagged and some not
        flags = ["--modes", str(modes), "--thermalization-time", "0.5", "--beta-a", str(beta_a)]
        status, text = capture(["sweep", "--tau-grid", "0.5:2:3", "--beta-ratio", ratios,
                                "--epsilon", "0.01,0.06", "--mode", machine, *flags])
        assert status == 0
        rows = [l for l in text.splitlines() if l[:1].isdigit()]
        assert len(rows) == 12
        assert {r.rsplit(",", 1)[1] for r in rows} == {"0", "1"}
        for i, row in enumerate(rows):
            tau, _, eps = row.split(",")[:3]
            ratio = ratios.split(",")[i // 6]  # as requested; ratios run outermost
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                status, single = capture([machine, "--tau", tau, "--beta-ratio", ratio,
                                          "--epsilon", eps, *flags])
            assert status == 0
            assert [l for l in single.splitlines() if l[:1].isdigit()] == [row]

    @pytest.mark.parametrize("machine, ratios", [
        ("engine", "0.3,0.5"), ("refrigerator", "0.97,0.99"),
    ])
    def test_sweep_rows_are_the_library_reports(self, machine, ratios):
        # the CLI writes its rows from the grid arrays, cycle.sweep builds
        # reports from them; the first two taus underflow tau**5 and fail
        argv = ["sweep", "--tau-grid", "1e-200:1:3log", "--beta-ratio", ratios,
                "--epsilon", "0.01,0.06", "--modes", "16", "--mode", machine]
        status, text = capture(argv)
        assert status == 3
        lines = [l for l in text.splitlines() if l[:1].isdigit()]
        ratio_list = [float(r) for r in ratios.split(",")]
        rows = sweep(
            CavityConfig(math.pi, 0.01, 16), [BathPair(1.0, r) for r in ratio_list],
            _parse_grid("1e-200:1:3log"), quintic, epsilons=[0.01, 0.06], machine=machine,
        )
        assert len(lines) == len(rows) == 12

        def same(printed, value):
            got = float(printed)
            if math.isnan(value):
                return math.isnan(got)
            return struct.pack("<d", got) == struct.pack("<d", value)

        for line, row in zip(lines, rows):
            cells = line.split(",")
            assert all(same(t, v) for t, v in zip(cells, (row.tau_omega1, row.beta_ratio,
                                                          row.epsilon)))
            r = row.report
            if r is None:
                assert cells[3:] == "nan,nan,nan,nan,nan,failed,nan,nan,1".split(",")
                continue
            for t, v in zip(cells[3:8] + cells[9:11],
                            (r.Q, r.W, r.eta, r.eta_adiabatic, r.power, r.E_F_A, r.E_F_C)):
                assert same(t, v)
            assert cells[8] == r.mode and cells[11] == str(int(r.tail_warning))
        assert sum(row.report is None for row in rows) == 8

    @pytest.mark.parametrize("argv, cells", [
        (["sweep", "--tau-grid", "0.5:2:3", "--beta-ratio", "0.3,0.5",
          "--epsilon", "0.01,0.02"], 12),
        (["engine", "--beta-ratio", "0.3"], 1),
        (["refrigerator", "--beta-ratio", "0.995", "--tau", "2"], 1),
    ])
    def test_sweep_builds_no_per_cell_objects(self, monkeypatch, argv, cells):
        def refuse(*args, **kwargs):
            raise AssertionError(f"casotto {argv[0]} built a per-cell object")

        monkeypatch.setattr(cycle, "CycleReport", refuse)
        monkeypatch.setattr(cycle, "SweepRow", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 16 modes leave the tails flagged
            status, text = capture([*argv, "--modes", "16"])
        assert status == 0
        rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit()]
        machine = "refrigerator" if argv[0] == "refrigerator" else "engine"
        assert len(rows) == cells and {r[8] for r in rows} == {machine}

    def test_shortcut_check_traces_return_to_zero(self):
        status, text = capture(
            ["shortcut-check", "--tau", "1", "--L0", "1", "--n", "2,4",
             "--points", "40"]
        )
        assert status == 0
        rows = [l.split(",") for l in text.splitlines()
                if l and not l.startswith(("#", "n,"))]
        by_n = {}
        for r in rows:
            by_n.setdefault(int(r[0]), []).append((float(r[2]), float(r[3])))
        for n, series in by_n.items():
            assert math.hypot(*series[0]) < 1e-12
            assert math.hypot(*series[-1]) < 1e-8
            assert max(math.hypot(i, j) for i, j in series) > 1e-3

    def test_sampled_trajectory_end_to_end(self, tmp_path):
        import numpy as np

        from casotto.trajectory import quintic

        t = np.linspace(0.0, 1.0, 161)
        d = quintic(1.0).delta(t)
        path = tmp_path / "profile.csv"
        path.write_text(
            "# sampled stroke\n"
            + "\n".join(f"{float(a):.17g},{float(b):.17g}" for a, b in zip(t, d))
        )
        status, text = capture(
            ["friction", "--family", "sampled", "--trajectory-file", str(path),
             "--beta", "1.0", "--epsilon", "0.01", "--modes", "8"]
        )
        assert status == 0
        ef_sampled = float(next(l for l in text.splitlines()
                                if l.startswith("# E_F = ")).split("=")[1])
        status, text = capture(
            ["friction", "--tau", "1.0", "--beta", "1.0", "--epsilon", "0.01",
             "--modes", "8"]
        )
        ef_exact = float(next(l for l in text.splitlines()
                              if l.startswith("# E_F = ")).split("=")[1])
        assert ef_sampled == pytest.approx(ef_exact, rel=1e-4)

    @pytest.mark.filterwarnings("ignore::casotto.friction.TruncationWarning")
    def test_many_sample_profile_runs(self, tmp_path):
        # 2000 pieces at K = 64: the Taylor cells of a table cost memory
        # linear in the pieces (about 0.2 GB here, not 11.5 GiB)
        import numpy as np

        from casotto.trajectory import quintic

        t = np.linspace(0.0, 1.0, 2001)
        d = quintic(1.0).delta(t)
        path = tmp_path / "profile.csv"
        path.write_text("\n".join(f"{float(a):.17g},{float(b):.17g}" for a, b in zip(t, d)))
        target = tmp_path / "out.csv"
        assert main(["friction", "--family", "sampled", "--trajectory-file", str(path),
                     "--modes", "64", "--output", str(target)]) == 0
        assert "# E_F = " in target.read_text()

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        cfg = parse_config(
            ["bound", "--tau", "1.0", "--beta", "1.0", "--epsilon", "0.01",
             "--modes", "8", "--output", str(target)]
        )
        status = run(cfg)
        assert status == 0
        assert target.read_text().splitlines()[0].startswith("# casotto")

    def test_main_exit_codes(self, capsys, tmp_path):
        assert main(["friction", "--epsilon", "2.0"]) == 2
        target = tmp_path / "ok.csv"
        assert main(["bound", "--tau", "1.0", "--beta", "1.0", "--epsilon",
                     "0.01", "--modes", "4", "--output", str(target)]) == 0

    def test_memory_error_fails_with_one_message(self, capsys, monkeypatch):
        def exhausted(cfg, out):
            raise MemoryError("Unable to allocate 11.5 GiB")

        monkeypatch.setitem(cli._RUNNERS, "friction", exhausted)
        assert main(["friction", "--modes", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "casotto: Unable to allocate 11.5 GiB\n"

    @pytest.mark.parametrize("command", ["friction", "engine", "refrigerator", "bound"])
    def test_tau_beyond_floating_point_fails_with_one_message(self, capsys, command):
        # tau**5 underflows: no nan output and no numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--tau", "1e-200", "--modes", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("casotto: ") and "tau" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["friction", "--beta", "1e-320", "--modes", "4"], "beta"),
            (["friction", "--beta", "1e-307", "--modes", "4"], "beta"),
            (["engine", "--beta-a", "1e-307", "--modes", "256"], "beta_A"),
            (["sweep", "--tau-grid", "1:2:2", "--beta-a", "1e-320", "--modes", "4"], "beta_A"),
            (["shortcut-check", "--tau", "1", "--L0", "1e300", "--n", "2", "--points", "2"],
             "wide"),
        ],
        ids=["friction-occupations", "friction-kernel", "engine", "sweep", "shortcut-check"],
    )
    def test_overflowing_input_fails_with_one_message(self, capsys, argv, name):
        # finite inputs whose mode sums or powers overflow: no nan or inf
        # output, no numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("casotto: ") and name in captured.err
        assert captured.err.count("\n") == 1

    def test_sweep_marks_a_tau_beyond_floating_point_failed(self):
        status, text = capture(["sweep", "--tau-grid", "1e-200:1:2log", "--modes", "4"])
        assert status == 3
        rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit()]
        assert [r[8] for r in rows] == ["failed", "engine"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # the defaults --beta 1 --n-max 8 clip the battery's thermal weight
            (["--check", "identities", "--fock-modes", "3"], "--n-max"),
            (["--epsilon", "0.03"], "--epsilon"),
            (["--beta", "2", "--dt", "0.2"], "--dt"),
            (["--check", "identities", "--fock-modes", "2"], "--fock-modes"),
            (["--check", "identities", "--fock-modes", "9", "--n-max", "9"], "--n-max"),
            (["--fock-modes", "65"], "--fock-modes"),
            # 1e62 and 1e300 steps: over the step cap, before the first step
            (["--tau", "1e60"], "--tau"),
            (["--dt", "1e-300"], "--dt"),
        ],
        ids=["defaults", "epsilon", "dt", "identity-modes", "fock-dimension-over-cap",
             "friction-modes-over-cap", "tau-steps-over-cap", "dt-steps-over-cap"],
    )
    def test_oracle_range_errors_are_usage_errors(self, capsys, argv, flag):
        assert main(["oracle", *argv]) == 2
        message = capsys.readouterr().err
        assert message.startswith("casotto: ") and flag in message

    def test_oracle_step_cap_writes_one_line(self, capsys):
        # the stroke's end is evaluated before the cap; no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--tau", "1e60"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("casotto: ") and captured.err.count("\n") == 1

    def test_identity_dimension_over_cap_is_refused_without_forming_it(self):
        # 9**100000000000 states: the power itself would never finish
        argv = ["oracle", "--check", "identities", "--fock-modes", "100000000000"]
        proc = subprocess.run(
            [sys.executable, "-m", "casotto.cli", *argv],
            env=_child_env(), capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 2
        assert "--n-max" in proc.stderr and "--fock-modes" in proc.stderr

    def test_oracle_friction_runs_at_its_defaults(self):
        # the friction check has no Fock cutoff, so --beta 1 --n-max 8 is fine
        status, text = capture(["oracle"])
        assert status == 0
        rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit()]
        assert len(rows) == 2 and 0.95 <= float(rows[0][5]) <= 1.05

    def test_oracle_friction_at_16_modes_warns_of_no_truncation(self, capsys):
        # E_F is restricted to the retained modes on purpose; the friction
        # formula's warning about the modes beyond them does not apply
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, text = capture(["oracle", "--fock-modes", "16", "--dt", "0.005"])
        assert status == 0
        assert [w.category.__name__ for w in caught] == []
        rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit()]
        assert 0.95 <= float(rows[0][5]) <= 1.05

    def test_oracle_round_off_friction_prints_nan(self):
        # a shortcut stroke's E_F is round-off: the ratio is NaN, not 1e28
        with pytest.warns(RuntimeWarning, match="round-off"):
            status, text = capture(
                ["oracle", "--tau", "1", "--beta", "2", "--epsilon", "0.01",
                 "--family", "shortcut", "--fock-modes", "1", "--n-max", "6",
                 "--dt", "0.1"]
            )
        assert status == 0
        rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit()]
        assert len(rows) == 2
        assert all(r[4] == r[5] == "nan" for r in rows)

    def test_oracle_identities_command(self):
        status, text = capture(
            ["oracle", "--check", "identities", "--beta", "2.0", "--epsilon",
             "0.01", "--fock-modes", "3", "--n-max", "6"]
        )
        assert status == 0
        dev = next(l for l in text.splitlines()
                   if l.startswith("# max_abs_deviation"))
        assert float(dev.split("=")[1]) < 1e-3
        assert "# modes = " not in text


def _child_env():
    """This process's environment with the tested casotto first on the path."""
    src = str(Path(casotto.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_scipy(tmp_path):
    # importing scipy.interpolate costs about half a second of start-up per
    # CLI call, and the package splines a sampled profile itself
    src = str(Path(casotto.__file__).resolve().parent.parent)
    env = _child_env()
    samples = tmp_path / "stroke.csv"
    samples.write_text("".join(f"{t / 10!r},{(t / 10) ** 2 * (3 - t / 5)!r}\n" for t in range(11)))
    argv = ["friction", "--family", "sampled", "--trajectory-file", str(samples),
            "--modes", "8", "--output", str(tmp_path / "out.csv")]
    code = (
        "import sys, casotto, casotto.cli; print(casotto.__file__); "
        f"print(casotto.cli.main({argv!r})); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    where, status, loaded = proc.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(src)
    assert status == "0"
    assert "# E_F = " in (tmp_path / "out.csv").read_text()
    assert loaded == "[]"


@pytest.mark.parametrize("module", ["casotto.quadrature", "casotto.fock_oracle", "argparse"])
def test_cli_import_loads_no_oracle_and_no_argparse(module):
    # casotto.quadrature is the tests' reference integrator, which no command
    # runs; only the oracle command imports casotto.fock_oracle; the command
    # line is parsed without argparse
    env = _child_env()
    code = (
        "import sys, casotto, casotto.cli; "
        f"print({module!r} in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
