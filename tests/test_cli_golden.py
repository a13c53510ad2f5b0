"""The CLI writes exactly what it wrote when its digests were recorded.

Each case runs ``biphoton`` in-process on the files in ``demos/data``, on
counts files derived from them or, for the self-test, on no file.  It pins
the sha256 of its standard output and, where it writes one, of its
``--out`` file.  A change that
moves any printed count, estimate, budget line or CSV byte fails here and
must say why.
"""

import hashlib
from pathlib import Path

import pytest

from biphoton.cli import main

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
CFG = str(DATA / "bench_calibration.cfg")
THETAS = ",".join(str(t) for t in range(0, 181, 10))

# argv per case; "{out}" stands for a fresh output file, "{theta_csv}" for
# the theta scan CSV that the "scan_theta" case writes, and "{conditional}",
# "{klyshko}" and "{background}" for the derived counts files of _derived_files.
CASES = {
    "simulate_conditional": ["simulate", "--config", CFG, "--duration", "0.5", "--seed", "1"],
    "simulate_klyshko": [
        "simulate", "--config", CFG, "--duration", "0.5", "--seed", "1",
        "--experiment", "klyshko",
    ],
    "scan_theta": [
        "scan", "--config", CFG, "--scan", "theta", "--values", THETAS,
        "--duration", "0.2", "--seed", "1", "--out", "{out}",
    ],
    "scan_delay": [
        "scan", "--config", CFG, "--scan", "delay", "--values", "0,500,1000,2000,3700",
        "--duration", "0.2", "--seed", "1",
    ],
    "calibrate_conditional": [
        "calibrate", "--scheme", "conditional", "--counts", str(DATA / "counts_conditional.txt"),
        "--epsilon", "0.9842", "--out", "{out}",
    ],
    "calibrate_klyshko": [
        "calibrate", "--scheme", "klyshko", "--counts", str(DATA / "counts_klyshko.txt"),
        "--out", "{out}",
    ],
    "calibrate_conditional_no_budget": [
        "calibrate", "--scheme", "conditional", "--counts", "{conditional}",
        "--background", "{background}", "--epsilon", "0.9842",
    ],
    "calibrate_klyshko_no_budget": ["calibrate", "--scheme", "klyshko", "--counts", "{klyshko}"],
    "fit": ["fit", "--points", "{theta_csv}"],
    "selftest": ["selftest", "--seed", "0"],  # its five checks and printed margins
}

# (stdout, --out file) digests; None where the case writes no file.  "scan_theta" writes its CSV to a file,
# so its stdout digest is that of empty output.
CLI_SHA256 = {
    "simulate_conditional": ("1c8890e754fd8188dfbd6eeba7a90f027ad07122c74762817526ef46a9eb2fff", None),
    "simulate_klyshko": ("5b20dabda907ed4462f218430ae55bdb307a3e2716c3db4688b22c6b4783d7f9", None),
    "scan_theta": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7aa368f1ed7d49b20c8c2d381398e1dde63a4b8eb964f32334bd034b2ffbb0a4",
    ),
    "scan_delay": ("cd1e7228477e8965d3bc0b25e1e0cb105fb9484e0a9d0474e2ab3940a6db8c28", None),
    "calibrate_conditional": (
        "f9cfb427d604f26067bf45d98efaf4c7bcfc2efb9885f5fdae47bc5387e509fd",
        "1cf2e93ca385be0313664b308150e8fce202d151db10deb2aba91ec39b46626c",
    ),
    "calibrate_klyshko": (
        "1cf6337847ebd05e2345e958b94c663bfcd4fbb6cff106579e929f82a4204294",
        "959635d6527a2cabff4b87b886b341f34de5ac83f85ce519b4f22c8b8170a5a4",
    ),
    "calibrate_conditional_no_budget": (
        "c47e6227dff69a6df5001f803be22a07b2ffc9f2683891ef77c897361002b9df",
        None,
    ),
    "calibrate_klyshko_no_budget": (
        "2e198311a8449685627abc6073611e0e7a40af4b7947d4374f9a45368db2442e",
        None,
    ),
    "fit": ("9d45b23fe0aa6d21d153daeb0f08d3e7f9682d379a3a1f7737bb372447a2e2dc", None),
    "selftest": ("7284be95365815acec37d42f46bb71f7f8dc859eae9a8dde697fd61b47276936", None),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _derived_files(tmp_path) -> dict:
    """The demo counts files without their budget keys, plus a background file.

    The conditional singles are raised by the background rates, so the
    subtraction gives back the demo singles.
    """
    files = {}
    for scheme, bump in (("conditional", {"n_h": 10.0, "n_v": 12.5}), ("klyshko", {})):
        rows = []
        for row in (DATA / f"counts_{scheme}.txt").read_text().splitlines():
            key, _, value = row.partition("=")
            if key.startswith(("u_", "t_half_width_ns")):
                continue
            rows.append(f"{key}={float(value) + bump[key]!r}" if key in bump else row)
        files[scheme] = tmp_path / f"counts_{scheme}_no_budget.txt"
        files[scheme].write_text("\n".join(rows) + "\n")
    files["background"] = tmp_path / "background.txt"
    files["background"].write_text("background_h=10\nbackground_v=12.5\n")
    return files


def _run(name, tmp_path, capsys):
    """(stdout, --out file bytes or None) of one case."""
    out = tmp_path / f"{name}.out"
    paths = {"out": out, "theta_csv": tmp_path / "scan_theta.out", **_derived_files(tmp_path)}
    argv = [arg.format(**paths) for arg in CASES[name]]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    return stdout, out.read_bytes() if "{out}" in CASES[name] else None


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(CLI_SHA256)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BIPHOTON_SEED", raising=False)
    if name == "fit":
        _run("scan_theta", tmp_path, capsys)
    stdout, written = _run(name, tmp_path, capsys)
    digests = (_sha256(stdout), None if written is None else _sha256(written))
    assert digests == CLI_SHA256[name]
