import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planemhd
from planemhd.cli import main

RUN_CFG = """
[grid]
n_cells = 16

[time]
t_end = 0.02

[initial]
preset = bump
"""

SWEEP_CFG = """
[grid]
n_cells = 16

[time]
t_end = 0.02

[initial]
preset = transverse-rest

[boundary]
preset = cosine-ramp
amplitude = 0.5
ramp_period = 0.01

[sweep]
mu_values = 1e-2,1e-3,1e-4
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestArguments:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_config_parse_error_reported(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[grid]\nn_cells = many\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


class TestRunCommand:
    def test_outputs(self, tmp_path):
        cfg = _write(tmp_path, RUN_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["t_final"] == pytest.approx(0.02)
        snap = (out / "snapshots.csv").read_text().splitlines()
        assert snap[0].startswith("# config_hash=")
        assert snap[1].split(",")[0] == "t"
        assert (out / "diagnostics.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        cfg = _write(tmp_path, RUN_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--out", str(out2)])
        for name in ("snapshots.csv", "diagnostics.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_override_flags_change_hash(self, tmp_path):
        cfg = _write(tmp_path, RUN_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--out", str(out2), "--mu", "0.02"])
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["config_hash"] != s2["config_hash"]

    def test_limit_command(self, tmp_path):
        cfg = _write(tmp_path, RUN_CFG)
        out = tmp_path / "out"
        assert main(["limit", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "snapshots.csv").read_text().splitlines()
        cols = lines[1].split(",")
        iw = cols.index("w1")
        # the limit run starts transverse-at-rest and stays there
        assert all(float(r.split(",")[iw]) == 0.0 for r in lines[2:])


class TestSweepCommand:
    def test_outputs(self, tmp_path):
        cfg = _write(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "mu"
        assert len(rows) == 5
        fits = json.loads((out / "fits.json").read_text())
        assert "rate" in fits and "scaled_w_grad" in fits

    def test_bl_outputs(self, tmp_path):
        cfg = _write(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        main(["bl", "--config", cfg, "--out", str(out)])
        assert (out / "thickness.csv").exists()
        fits = json.loads((out / "bl_fits.json").read_text())
        assert "alpha" in fits or "error" in fits


def test_cli_import_leaves_out_scipy():
    """The solver reaches LAPACK through numpy's own OpenBLAS; importing
    scipy would cost every command its memory and start-up time."""
    src = str(Path(planemhd.__file__).parents[1])
    code = ("import sys; import planemhd.cli; "
            "sys.exit('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0
