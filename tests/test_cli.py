import pytest

from biphoton.cli import main
from biphoton.scenario import render_config
from biphoton.bench import BenchConfig

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


def test_scan_rejects_bad_values(scenario_file, capsys):
    code = main(
        ["scan", "--config", str(scenario_file), "--scan", "theta",
         "--values", "0,abc", "--duration", "0.2"]
    )
    assert code == 2
    assert "--values" in capsys.readouterr().err


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
    "scheme, line",
    [
        ("conditional", "nc_h=nan"),
        ("conditional", "n_h=inf"),
        ("klyshko", "n_signal=nan"),
        ("klyshko", "t_ns=inf"),
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


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
