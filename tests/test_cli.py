import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import planemhd
from planemhd import cli
from planemhd.cli import main
from planemhd.config import config_hash, parse_config
from planemhd.core import interpolate_to_nodes, make_initial_state
from planemhd.diagnostics import WEIGHT_ORDERS
from planemhd.solver import RunAborted, run

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

# dt_max sets every step: one snapshot per 0.001 of t_end
STREAM_CFG = """
[grid]
n_cells = 64

[time]
t_end = {t_end}
dt_max = 0.001

[initial]
preset = bump

[boundary]
preset = cosine-ramp
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_csv(path):
    """Column name -> values parsed with float()."""
    lines = path.read_text().splitlines()
    names = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return dict(zip(names, np.array(rows).T))


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

    def test_out_names_a_file(self, tmp_path, capsys):
        """An --out that cannot be made a directory is reported as the
        config errors are, not as an aborted run."""
        cfg = _write(tmp_path, RUN_CFG)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        rc = main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("output error: ")
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--mu", "-0.5", "--mu: physics.mu must be nonnegative"),
        ("--mu", "nan", "--mu: physics.mu must be finite"),
        ("--n-cells", "4", "--n-cells: grid.n_cells must be >= 8"),
        ("--t-end", "-1", "--t-end: time.t_end must be finite")])
    def test_bad_override_names_flag(self, tmp_path, capsys, flag, value,
                                     message):
        """An invalid override is blamed on its flag, not on a line of
        the file."""
        cfg = _write(tmp_path, RUN_CFG)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                   flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert "line" not in err


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

    def test_limit_records_mu_zero(self, tmp_path):
        """limit writes the config it ran: mu = 0 in resolved_config, and
        a config_hash in every file that differs from run's."""
        cfg = _write(tmp_path, RUN_CFG)
        run_out, limit_out = tmp_path / "run", tmp_path / "limit"
        assert main(["run", "--config", cfg, "--out", str(run_out)]) == 0
        assert main(["limit", "--config", cfg, "--out", str(limit_out)]) == 0
        summary = json.loads((limit_out / "summary.json").read_text())
        resolved = parse_config(summary["resolved_config"])
        assert resolved["physics"]["mu"] == 0.0
        assert summary["config_hash"] == config_hash(resolved)
        assert summary["config_hash"] != json.loads(
            (run_out / "summary.json").read_text())["config_hash"]
        for name in ("snapshots.csv", "diagnostics.csv"):
            tag = (limit_out / name).read_text().splitlines()[0]
            assert tag == f"# config_hash={summary['config_hash']}"

    def test_limit_refuses_bad_mu_flag(self, tmp_path, capsys):
        """limit sets mu = 0 only after the flags are checked."""
        rc = main(["limit", "--config", _write(tmp_path, RUN_CFG),
                   "--out", str(tmp_path / "out"), "--mu", "nan"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: --mu: physics.mu must be finite")

    def test_limit_command(self, tmp_path):
        cfg = _write(tmp_path, RUN_CFG)
        out = tmp_path / "out"
        assert main(["limit", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "snapshots.csv").read_text().splitlines()
        cols = lines[1].split(",")
        iw = cols.index("w1")
        # the limit run starts transverse-at-rest and stays there
        assert all(float(r.split(",")[iw]) == 0.0 for r in lines[2:])

    def test_csv_values_round_trip(self, tmp_path):
        """Every value written parses back to the exact float of the
        trajectory arrays and of the diagnostics table."""
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path, RUN_CFG),
                     "--out", str(out)]) == 0
        cfg = parse_config(RUN_CFG)
        grid, bdry = cfg.grid_spec(), cfg.boundary_data()
        traj = run(make_initial_state(grid, cfg["initial"]["preset"], bdry),
                   grid, cfg.phys_params(), bdry, cfg.time_config())
        snap = _read_csv(out / "snapshots.csv")
        shape = traj.u.shape
        expected = {
            "t": np.broadcast_to(traj.snapshot_times[:, None], shape),
            "x": np.broadcast_to(grid.node_positions, shape),
            "rho": interpolate_to_nodes(traj.rho), "u": traj.u,
            "w1": traj.w[..., 0], "w2": traj.w[..., 1],
            "b1": traj.b[..., 0], "b2": traj.b[..., 1],
            "theta": interpolate_to_nodes(traj.theta)}
        assert list(snap) == list(expected)
        for name, want in expected.items():
            assert np.array_equal(snap[name].reshape(shape), want), name
        diag = _read_csv(out / "diagnostics.csv")
        assert len(diag) == 10 + len(WEIGHT_ORDERS)
        for name, got in diag.items():
            assert np.array_equal(got, traj.diagnostics[name]), name


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

    def test_failed_run_rows(self, tmp_path, monkeypatch):
        """A run that aborted writes nan values and the status failed."""
        real = cli.run_sweep

        def one_failure(plan):
            result = real(plan)
            for column in (result.errors, result.deltas, result.saturated):
                column[1] = None
            result.failures[1] = {"t": 0.0, "reason": "test", "field": "u",
                                  "index": 0}
            return result

        monkeypatch.setattr(cli, "run_sweep", one_failure)
        cfg = _write(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[3] == "0.001,nan,nan,nan,nan,failed"
        assert rows[2].endswith(",ok")
        assert main(["bl", "--config", cfg, "--out", str(out)]) == 1
        rows = (out / "thickness.csv").read_text().splitlines()
        assert rows[3] == "0.001,nan,failed"

    @pytest.mark.parametrize("command, name", [("sweep", "fits.json"),
                                               ("bl", "bl_fits.json")])
    def test_reference_abort_reported(self, tmp_path, command, name):
        """A mu = 0 reference run that aborts is written to the fits file,
        as `run` writes it to summary.json, not ended by a traceback."""
        text = SWEEP_CFG.replace("t_end = 0.02",
                                 "t_end = 1\ndt_min = 0.5\ndt_max = 0.5")
        out = tmp_path / "out"
        assert main([command, "--config", _write(tmp_path, text),
                     "--out", str(out)]) == 1
        fits = json.loads((out / name).read_text())
        assert fits == {"config_hash": config_hash(parse_config(text)),
                        "status": "aborted",
                        "failure": {"t": 0.0,
                                    "reason": "CFL step below dt_min",
                                    "field": "u", "index": 0}}

    def test_bl_outputs(self, tmp_path):
        cfg = _write(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        main(["bl", "--config", cfg, "--out", str(out)])
        assert (out / "thickness.csv").exists()
        fits = json.loads((out / "bl_fits.json").read_text())
        assert "alpha" in fits or "error" in fits


class TestVerifyCommand:
    @pytest.mark.parametrize("passed", [True, False])
    def test_report_and_exit_code(self, tmp_path, monkeypatch, capsys,
                                  passed):
        """verify_report.json holds every check and the config hash, and
        the command exits 1 when any check fails."""
        checks = {"first": {"passed": True, "value": 0.0},
                  "second": {"passed": passed, "value": 1.0}}
        monkeypatch.setattr(planemhd.verify, "run_all", lambda: checks)
        out = tmp_path / "out"
        rc = main(["verify", "--config", _write(tmp_path, RUN_CFG),
                   "--out", str(out)])
        assert rc == (0 if passed else 1)
        report = (out / "verify_report.json").read_text()
        assert json.loads(report) == {
            "config_hash": config_hash(parse_config(RUN_CFG)),
            "checks": checks, "all_passed": passed}
        assert report.endswith("}\n")
        assert capsys.readouterr().out == (
            f"first: pass\nsecond: {'pass' if passed else 'FAIL'}\n")


@pytest.mark.parametrize("cores", [1, 2])
def test_write_csv_blocks_match_one_format(tmp_path, monkeypatch, cores):
    """A file of several blocks, formatted in this process (one core) or
    by a pool of workers (two), has the bytes of one %-format per row,
    and the pool's workers are gone once the write returns."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    n = 5 * cli.BLOCK_ROWS // 2
    rng = np.random.default_rng(7)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:3] = (np.nan, np.inf, -0.0)
    labels = [f"s{i % 7}" for i in range(n)]
    path = tmp_path / "out.csv"
    cli._write_csv(path, "# tag", {"v": floats, "label": labels})
    want = "# tag\nv,label\n" + "".join(
        "%.17g,%s\n" % row for row in zip(floats.tolist(), labels))
    assert path.read_bytes() == want.encode()
    assert multiprocessing.active_children() == []


def test_block_formatter_bounds_blocks_in_flight(tmp_path, monkeypatch):
    """A producer faster than the pool waits for the oldest block once
    2 x workers blocks are in flight; the blocks are written in order."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    in_flight = []
    submit = cli._BlockFormatter._submit

    def counting(self, columns):
        submit(self, columns)
        in_flight.append(len(self.pending))

    monkeypatch.setattr(cli._BlockFormatter, "_submit", counting)
    blocks = [np.arange(1000.0) + 1000 * i for i in range(20)]
    path = tmp_path / "out.csv"
    with path.open("w") as f, cli._BlockFormatter(f) as formatter:
        for block in blocks:
            formatter.write([block])
    assert 1 <= max(in_flight) <= 4
    assert path.read_text() == "".join(
        "%.17g\n" % v for v in np.concatenate(blocks).tolist())
    assert multiprocessing.active_children() == []


def _expected_snapshots(text):
    """snapshots.csv of the config text from the stored trajectory of
    run, one %-format per row."""
    cfg = parse_config(text)
    grid, bdry = cfg.grid_spec(), cfg.boundary_data()
    traj = run(make_initial_state(grid, cfg["initial"]["preset"], bdry),
               grid, cfg.phys_params(), bdry, cfg.time_config())
    shape = traj.u.shape
    columns = [np.broadcast_to(traj.snapshot_times[:, None], shape),
               np.broadcast_to(grid.node_positions, shape),
               interpolate_to_nodes(traj.rho), traj.u,
               traj.w[..., 0], traj.w[..., 1], traj.b[..., 0],
               traj.b[..., 1], interpolate_to_nodes(traj.theta)]
    rows = zip(*(c.ravel().tolist() for c in columns))
    return (f"# config_hash={config_hash(cfg)}\n"
            f"{','.join(cli.SNAPSHOT_COLUMNS)}\n"
            + "".join(",".join(["%.17g"] * 9) % row + "\n" for row in rows))


def test_snapshot_stream_matches_trajectory(tmp_path, monkeypatch):
    """A run of several blocks streams the same snapshots.csv with one
    usable core and with two, and it has the bytes of one %-format per
    row of the trajectory that run stores."""
    # 63 snapshots of 65 nodes to a block, 201 snapshots
    monkeypatch.setattr(cli, "BLOCK_ROWS", 4096)
    text = STREAM_CFG.format(t_end=0.2)
    cfg = _write(tmp_path, text)
    written = []
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        written.append((out / "snapshots.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0] == _expected_snapshots(text).encode()
    assert written[0].count(b"\n") - 2 > 3 * cli.BLOCK_ROWS


def _fail_after(n_snapshots):
    """A run_lockstep whose hook raises after n_snapshots snapshots."""
    real = cli.run_lockstep

    def failing(*args, on_snapshot, **kwargs):
        seen = []

        def hook(state, members):
            on_snapshot(state, members)
            seen.append(state.t)
            if len(seen) == n_snapshots:
                raise RuntimeError("hook failed")

        return real(*args, on_snapshot=hook, **kwargs)

    return failing


def _abort_at_end():
    """A run_lockstep that streams every snapshot, then aborts."""
    real = cli.run_lockstep

    def aborting(*args, **kwargs):
        real(*args, **kwargs)
        return [RunAborted({"t": 0.2, "reason": "test", "field": "u",
                            "index": 0})]

    return aborting


@pytest.mark.parametrize("previous", [False, True])
@pytest.mark.parametrize("failure", ["aborted", "hook"])
def test_snapshot_stream_failure_leaves_no_file(tmp_path, monkeypatch,
                                                failure, previous):
    """A run that aborts, or whose hook raises, after the pool has
    started writes no snapshots.csv and no temporary file, leaves an
    older snapshots.csv as it was, and leaves no worker running."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(cli, "BLOCK_ROWS", 4096)
    # the pool starts at the second block, snapshot 127 of 201
    monkeypatch.setattr(cli, "run_lockstep", _abort_at_end()
                        if failure == "aborted" else _fail_after(150))
    out = tmp_path / "out"
    out.mkdir()
    if previous:
        (out / "snapshots.csv").write_text("older\n")
    argv = ["run", "--config", _write(tmp_path, STREAM_CFG.format(t_end=0.2)),
            "--out", str(out)]
    if failure == "aborted":
        assert main(argv) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "aborted"
        left = {"summary.json"}
    else:
        with pytest.raises(RuntimeError, match="hook failed"):
            main(argv)
        left = set()
    assert multiprocessing.active_children() == []
    if previous:
        assert (out / "snapshots.csv").read_text() == "older\n"
        left.add("snapshots.csv")
    assert {p.name for p in out.iterdir()} == left


def test_run_keeps_no_trajectory(tmp_path, monkeypatch):
    """planemhd run keeps no trajectory: the peak of the memory it
    allocates stays below the bytes of the snapshot fields, which a
    stored trajectory would hold. Formatted in this process, with small
    blocks, so that the peak is the stream's and not one block's text."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    monkeypatch.setattr(cli, "BLOCK_ROWS", 256)
    t_end = 0.4
    snapshots = round(t_end / 0.001) + 1
    n = 64
    # rho and theta per cell, u per node, w and b two per node
    field_bytes = snapshots * (2 * n + 5 * (n + 1)) * 8
    argv = ["run", "--config", _write(tmp_path, STREAM_CFG.format(
        t_end=t_end)), "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = (tmp_path / "out" / "snapshots.csv").read_text().count("\n")
    assert lines == 2 + snapshots * (n + 1)
    assert peak < field_bytes


def test_cli_import_leaves_out_scipy():
    """The solver reaches LAPACK through numpy's own OpenBLAS; importing
    scipy would cost every command its memory and start-up time."""
    src = str(Path(planemhd.__file__).parents[1])
    code = ("import sys; import planemhd.cli; "
            "sys.exit('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0


def test_cli_import_leaves_out_sympy():
    """Only the manufactured solutions need sympy; importing it would
    cost every command its memory and start-up time."""
    src = str(Path(planemhd.__file__).parents[1])
    code = ("import sys; import planemhd.cli; "
            "sys.exit('sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0
