import hashlib

import pytest

from biphoton import cli
from biphoton.cli import main
from biphoton.scenario import render_config
from biphoton.bench import BenchConfig
from test_cli_golden import CASES, CFG, CLI_SHA256

REFERENCE_COUNTS = """\
# conditional calibration counts (per second)
n_h=76.6
n_v=165.9
nc_h=4.4
nc_v=48.7
u_n_h=4.2
u_n_v=5.7
u_nc_h=1.6
u_nc_v=2.6
"""

KLYSHKO_COUNTS = """\
n_signal=131777
n_idler=1832.8
n_coincidence=874.4
tau_ns=40
t_ns=9.3
u_n_signal=185
u_n_idler=9.0
u_n_coincidence=5.2
t_half_width_ns=0.5
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(render_config(BenchConfig(pair_rate_hz=5.0e3)))
    return path


def test_simulate_writes_summary_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        [
            "simulate",
            "--config", str(scenario_file),
            "--duration", "0.5",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "singles_trigger,singles_analyzer,coincidences,duration_s,seed"
    fields = lines[1].split(",")
    assert len(fields) == 5
    assert fields[4] == "3"
    assert int(fields[0]) > 0


def test_simulate_is_byte_deterministic(scenario_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(
            ["simulate", "--config", str(scenario_file), "--duration", "0.5",
             "--seed", "9", "--out", str(out)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_env_seed_and_flag_priority(scenario_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIPHOTON_SEED", "17")
    assert main(["simulate", "--config", str(scenario_file), "--duration", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",17")
    assert main(
        ["simulate", "--config", str(scenario_file), "--duration", "0.1", "--seed", "4"]
    ) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",4")
    monkeypatch.setenv("BIPHOTON_SEED", "abc")
    assert main(["simulate", "--config", str(scenario_file), "--duration", "0.1"]) == 2
    assert "BIPHOTON_SEED='abc' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, env, named",
    [
        (["simulate", "--duration", "0.1", "--seed", "-1"], None, "--seed = -1"),
        (["selftest", "--seed", "-2"], None, "--seed = -2"),
        (["scan", "--scan", "delay", "--values", "0", "--duration", "0.1"], "-3",
         "BIPHOTON_SEED = -3"),
        (["simulate", "--duration", "0.1", "--seed", "-5"], "4", "--seed = -5"),
        (["simulate", "--duration", "0.1"], "-4", "BIPHOTON_SEED = -4"),
    ],
    ids=["simulate-flag", "selftest-flag", "scan-env", "flag-over-env", "simulate-env"],
)
def test_negative_seed_is_usage_error_naming_its_source(
    scenario_file, monkeypatch, capsys, command, env, named
):
    if env is not None:
        monkeypatch.setenv("BIPHOTON_SEED", env)
    if command[0] != "selftest":
        command = [*command, "--config", str(scenario_file)]
    assert main(command) == 2
    captured = capsys.readouterr()
    assert f"error: {named} must be >= 0" in captured.err
    assert captured.out == ""


def test_simulate_unknown_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("det9.eta=0.5\n")
    code = main(["simulate", "--config", str(path), "--duration", "1"])
    assert code == 2
    assert "det9.eta" in capsys.readouterr().err


def test_simulate_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--duration", "1"])
    assert code == 2


@pytest.mark.parametrize("experiment", ["conditional", "klyshko"])
@pytest.mark.parametrize("duration", ["nan", "inf", "-inf"])
def test_simulate_non_finite_duration_is_usage_error(scenario_file, capsys, experiment, duration):
    code = main(
        ["simulate", "--config", str(scenario_file), f"--duration={duration}",
         "--experiment", experiment]
    )
    assert code == 2
    assert "duration_s must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "background_rate_hz=nan",
        "fiber_delay_ns=inf",
        "tac.window_ns=nan",
        "pulse.fall_ns=nan",
        "pockels.rotation_angle_deg=nan",
        "analyzer.angle_deg=nan",
    ],
)
def test_simulate_non_finite_config_value_is_usage_error(tmp_path, capsys, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    code = main(["simulate", "--config", str(path), "--duration", "0.1"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["conditional", "klyshko"])
def test_simulate_beyond_the_event_bound_is_usage_error(tmp_path, capsys, experiment):
    path = tmp_path / "huge.cfg"
    path.write_text("pair_rate_hz=1e12\n")
    code = main(
        ["simulate", "--config", str(path), "--duration", "1e6", "--experiment", experiment]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "the run expects 1e+18 events, more than the limit of 5e+07" in captured.err
    assert captured.out == ""


def test_scan_theta_csv(scenario_file, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", "--config", str(scenario_file), "--scan", "theta",
         "--values", "0,45,90,135,180", "--duration", "0.2", "--seed", "1",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta_deg,singles,coincidences"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "0.0"


def test_scan_delay_csv(scenario_file, capsys):
    code = main(
        ["scan", "--config", str(scenario_file), "--scan", "delay",
         "--values", "0,2000", "--duration", "0.2", "--seed", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delay_ns,singles_h,singles_v,coinc_h,coinc_v"
    assert len(lines) == 3


def test_main_calls_in_one_process_share_one_parser(monkeypatch, capsys):
    # main reuses build_parser's one parser; each call must print what it
    # prints on a freshly built parser, and a golden case its pinned digest
    simulate = ["simulate", "--config", CFG, "--duration", "0.2"]
    calls = {  # name: (argv, BIPHOTON_SEED or None)
        "scan_delay": (CASES["scan_delay"], None),
        "usage error": (
            ["scan", "--config", CFG, "--scan", "sideways", "--values", "0", "--duration", "0.1"],
            None,
        ),
        "simulate_klyshko": (CASES["simulate_klyshko"], None),
        "theta scan at seed 5": (
            ["scan", "--config", CFG, "--scan", "theta", "--values", "0,90",
             "--duration", "0.2", "--seed", "5"],
            None,
        ),
        "BIPHOTON_SEED=7": (simulate, "7"),
        "BIPHOTON_SEED=8": (simulate, "8"),
    }

    def call(argv, env):
        if env is None:
            monkeypatch.delenv("BIPHOTON_SEED", raising=False)
        else:
            monkeypatch.setenv("BIPHOTON_SEED", env)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = {}
    for name, (argv, env) in calls.items():
        cli.build_parser.cache_clear()
        fresh[name] = call(argv, env)
    assert [code for code, _, _ in fresh.values()] == [0, 2, 0, 0, 0, 0]
    assert "invalid choice: 'sideways'" in fresh["usage error"][2]
    assert fresh["BIPHOTON_SEED=7"][1].endswith(",7\n")
    assert fresh["BIPHOTON_SEED=8"][1].endswith(",8\n")
    for name in ("scan_delay", "simulate_klyshko"):
        assert hashlib.sha256(fresh[name][1].encode()).hexdigest() == CLI_SHA256[name][0]

    cli.build_parser.cache_clear()
    for name in [*calls, *reversed(calls)]:
        assert call(*calls[name]) == fresh[name], name
    assert cli.build_parser.cache_info().misses == 1  # one parser for all twelve calls


def test_scan_rejects_bad_values(scenario_file, capsys):
    for values, message in (("0,abc", "comma-separated"), (",", "empty list")):
        code = main(
            ["scan", "--config", str(scenario_file), "--scan", "theta",
             "--values", values, "--duration", "0.2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--values" in err and message in err


def test_calibrate_conditional_reference(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text(REFERENCE_COUNTS)
    out = tmp_path / "budget.csv"
    code = main(
        ["calibrate", "--scheme", "conditional", "--counts", str(counts),
         "--epsilon", "0.9842", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "0.441398" in stdout
    assert "0.448484" in stdout
    assert "0.368247" in stdout
    assert "Sensitivity" in stdout  # budget table printed
    assert "+- 0.0447" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("quantity,")
    assert lines[-1].startswith("combined,")


def test_calibrate_conditional_with_background_file(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text("n_h=86.6\nn_v=175.9\nnc_h=4.4\nnc_v=48.7\n")
    background = tmp_path / "background.txt"
    background.write_text("background_h=10\nbackground_v=10\n")
    code = main(
        ["calibrate", "--scheme", "conditional", "--counts", str(counts),
         "--background", str(background)]
    )
    assert code == 0
    assert "0.441398" in capsys.readouterr().out


def test_calibrate_klyshko_reference(tmp_path, capsys):
    counts = tmp_path / "k.txt"
    counts.write_text(KLYSHKO_COUNTS)
    code = main(["calibrate", "--scheme", "klyshko", "--counts", str(counts)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "0.480201" in stdout
    assert "rectangular" in stdout


def test_calibrate_missing_key_is_usage_error(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text("n_h=76.6\nn_v=165.9\n")
    code = main(["calibrate", "--scheme", "conditional", "--counts", str(counts)])
    assert code == 2
    assert "missing keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheme, key",
    [("conditional", key) for key in ("n_h", "n_v", "nc_h", "nc_v")]
    + [("klyshko", key) for key in ("n_signal", "n_idler", "n_coincidence", "tau_ns", "t_ns")],
)
def test_calibrate_names_each_missing_required_key(tmp_path, capsys, scheme, key):
    text = REFERENCE_COUNTS if scheme == "conditional" else KLYSHKO_COUNTS
    kept = [row for row in text.splitlines() if not row.startswith(key + "=")]
    counts = tmp_path / "counts.txt"
    counts.write_text("\n".join(kept) + "\n")
    code = main(["calibrate", "--scheme", scheme, "--counts", str(counts)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {counts}: missing keys {key}\n"


@pytest.mark.parametrize(
    "scheme, line",
    [
        ("conditional", "nc_h=nan"),
        ("conditional", "n_h=inf"),
        ("klyshko", "n_signal=nan"),
        ("klyshko", "t_ns=inf"),
        ("conditional", "u_n_h=nan"),
        ("klyshko", "t_half_width_ns=nan"),
    ],
)
def test_calibrate_non_finite_count_is_usage_error(tmp_path, capsys, scheme, line):
    text = REFERENCE_COUNTS if scheme == "conditional" else KLYSHKO_COUNTS
    key = line.split("=")[0]
    kept = [row for row in text.splitlines() if not row.startswith(key + "=")]
    counts = tmp_path / "counts.txt"
    counts.write_text("\n".join(kept + [line]) + "\n")
    code = main(["calibrate", "--scheme", scheme, "--counts", str(counts)])
    assert code == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize(
    "scheme, budget_row, missing",
    [
        ("conditional", "u_n_h=4.2", "u_n_v, u_nc_h, u_nc_v"),
        ("klyshko", "t_half_width_ns=0.5", "u_n_idler, u_n_coincidence, u_n_signal"),
    ],
)
def test_calibrate_partial_budget_keys_are_usage_error(tmp_path, capsys, scheme, budget_row, missing):
    text = REFERENCE_COUNTS if scheme == "conditional" else KLYSHKO_COUNTS
    kept = [row for row in text.splitlines() if not row.startswith(("u_", "t_half_width_ns"))]
    counts = tmp_path / "counts.txt"
    counts.write_text("\n".join(kept + [budget_row]) + "\n")
    code = main(["calibrate", "--scheme", scheme, "--counts", str(counts)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {counts} (budget keys are all or none): missing keys {missing}\n"
    assert captured.out == ""


def test_calibrate_klyshko_rejects_conditional_only_flags(tmp_path, capsys):
    counts = tmp_path / "k.txt"
    counts.write_text(KLYSHKO_COUNTS)
    code = main(
        ["calibrate", "--scheme", "klyshko", "--counts", str(counts),
         "--epsilon", "0.5", "--background", str(tmp_path / "nonexistent")]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --epsilon and --background: only for --scheme conditional\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "scheme, rows",
    [
        ("conditional", ["nc_h=1e308", "nc_v=1.7e308"]),  # the estimate overflows
        ("conditional", ["n_h=1e308", "n_v=1.7e308"]),  # the singles sum overflows
        ("conditional", ["nc_h=1e-300", "nc_v=2e-300"]),  # (nc_v - nc_h)**2 underflows
        ("klyshko", ["n_idler=1e-310", "n_coincidence=1e-310"]),  # a sensitivity overflows
    ],
)
def test_calibrate_counts_beyond_float_range_are_usage_error(tmp_path, capsys, scheme, rows):
    text = REFERENCE_COUNTS if scheme == "conditional" else KLYSHKO_COUNTS
    replaced = {row.split("=")[0] for row in rows}
    kept = [row for row in text.splitlines() if row.split("=")[0] not in replaced]
    counts = tmp_path / "counts.txt"
    counts.write_text("\n".join(kept + rows) + "\n")
    code = main(["calibrate", "--scheme", scheme, "--counts", str(counts)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def _counts_with(tmp_path, scheme: str, rows: list[str], drop=()) -> str:
    """A counts file of the reference counts of ``scheme``, with ``rows`` set
    and every key that starts with one of ``drop`` removed."""
    text = REFERENCE_COUNTS if scheme == "conditional" else KLYSHKO_COUNTS
    replaced = {row.split("=")[0] for row in rows}
    kept = [
        row for row in text.splitlines()
        if row.split("=")[0] not in replaced and not row.startswith(tuple(drop))
    ]
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(kept + rows) + "\n")
    return str(path)


# one case per calibrate usage error that README lists:
# (scheme, counts rows set, key prefixes dropped, extra flags, part of the error line)
CALIBRATE_USAGE_ERRORS = {
    "partial budget keys": ("conditional", ["u_n_h=4.2"], ("u_",), [], "all or none"),
    "partial Klyshko budget keys": ("klyshko", [], ("t_half",), [], "all or none"),
    "negative budget deviation": (
        "conditional", ["u_n_h=-4.2"], (), [], "UncertainInput n_h: std_dev"
    ),
    "klyshko with --epsilon": ("klyshko", [], (), ["--epsilon", "0.9"], "only for"),
    "klyshko with --background": ("klyshko", [], (), ["--background", "bg.txt"], "only for"),
    "--out without budget": ("conditional", [], ("u_",), ["--out", "budget.csv"], "--out"),
    "--out without Klyshko budget": (
        "klyshko", [], ("u_", "t_half"), ["--out", "budget.csv"], "--out"
    ),
    "estimate overflows": ("conditional", ["nc_h=1e308", "nc_v=1.7e308"], (), [], "out of"),
    "budget overflows": (
        "klyshko", ["n_idler=1e-310", "n_coincidence=1e-310"], (), [], "no finite"
    ),
    "zero Klyshko coincidences with a budget": (
        "klyshko", ["n_coincidence=0"], (), [], "zero coincidences"
    ),
    "epsilon overflows": (
        "conditional", [], (), ["--epsilon", "1e-320"],
        "eta / epsilon out of range for epsilon = 9.99989e-321",
    ),
    "epsilon overflows, no budget": (
        "conditional", [], ("u_",), ["--epsilon", "1e-320"], "epsilon = 9.99989e-321"
    ),
}


@pytest.mark.parametrize("case", sorted(CALIBRATE_USAGE_ERRORS))
def test_calibrate_usage_errors_keep_the_exit_contract(tmp_path, capsys, monkeypatch, case):
    # exit 2, one error line on stderr, nothing on stdout and no budget file
    scheme, rows, drop, flags, message = CALIBRATE_USAGE_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    counts = _counts_with(tmp_path, scheme, rows, drop)
    code = main(["calibrate", "--scheme", scheme, "--counts", counts, *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "budget.csv").exists()


def test_calibrate_missing_file(tmp_path):
    assert main(
        ["calibrate", "--scheme", "conditional", "--counts", str(tmp_path / "none.txt")]
    ) == 2


def test_fit_command(tmp_path, capsys):
    import math

    path = tmp_path / "points.csv"
    rows = ["theta_deg,counts"]
    for th in range(0, 181, 10):
        y = 250.0 * (1.0 - 0.4044 * math.cos(math.radians(2.0 * th)))
        rows.append(f"{th},{y}")
    path.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--points", str(path)]) == 0
    out = capsys.readouterr().out
    assert "modulation   = 0.4044" in out
    assert "amplitude    = 250" in out


def test_fit_rejects_headerless_file(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("no header here\n")
    assert main(["fit", "--points", str(path)]) == 2


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0,100", "45,150", "90,200"], "at least 4 points"),
        (["0,100", "45,nan", "90,200", "135,150"], "finite"),
        (["0,100", "inf,150", "90,200", "135,150"], "finite"),
        (["0,5e299", "45,1e300", "90,2e300", "135,1e300"], "out of range"),
        # a blank line is skipped, not read as a point
        (["0,100", "", "45,150", "90,200"], "at least 4 points"),
        (["0,100", "45", "90,200", "135,150"], "line 3: expected theta,counts"),
        (["0,100", "45,abc", "90,200", "135,150"], "line 3: '45,abc' is not numeric"),
    ],
)
def test_fit_unusable_points_are_usage_error(tmp_path, capsys, rows, message):
    path = tmp_path / "points.csv"
    path.write_text("\n".join(["theta_deg,counts"] + rows) + "\n")
    assert main(["fit", "--points", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_selftest_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "predict_singles_visibility", lambda cfg: 0.0)
    assert main(["selftest", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[:2] for line in lines if line.startswith("FAIL")] == [
        ["FAIL", "singles visibility vs closed form"]
    ]
    # every margin is a fraction of its limit: below 1.00 exactly when the check passes
    for line in lines:
        margin = float(line.split("(margin ")[1].split()[0])
        assert (margin >= 1.0) == line.startswith("FAIL")
