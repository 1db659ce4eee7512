import concurrent.futures
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
from planemhd import cli, sweep
from planemhd.cli import main
from planemhd.config import config_hash, parse_config
from planemhd.core import interpolate_to_nodes, make_initial_state
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

    @staticmethod
    def _taken_output(tmp_path, capsys, command, cfg_text, taken):
        cfg = _write(tmp_path, cfg_text)
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("output error: ")
        assert (out / taken).is_dir()
        assert [p.name for p in out.iterdir()] == [taken]

    @pytest.mark.parametrize("taken", ["summary.json", "snapshots.csv",
                                       "diagnostics.csv"])
    def test_unwritable_output_file(self, tmp_path, capsys, taken):
        """An output file that cannot be written (a directory holds its
        name) is reported as an output error with exit 2, not as an
        aborted run or a traceback, and the command leaves none of the
        files it wrote before it."""
        self._taken_output(tmp_path, capsys, "run", RUN_CFG, taken)

    @pytest.mark.parametrize("taken", ["fits.json", "tau_table.csv"])
    def test_unwritable_sweep_output(self, tmp_path, capsys, taken):
        """As for run: a sweep whose fits.json or tau_table.csv cannot be
        written leaves no sweep.csv."""
        self._taken_output(tmp_path, capsys, "sweep", SWEEP_CFG, taken)

    def test_config_not_utf8(self, tmp_path, capsys):
        """A config file that is not UTF-8 text is a config error, exit
        2, not a traceback and exit 1, the aborted-run code."""
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"[grid]\nn_cells = 16\n\xff\xfe\n")
        rc = main(["run", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

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

    def test_unknown_command(self, tmp_path, capsys):
        """bl, folded into sweep, is refused as any unknown command is,
        before any output."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["bl", "--config", _write(tmp_path, SWEEP_CFG),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'bl'" in capsys.readouterr().err
        assert not out.exists()


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
        assert list(diag) == [
            "t", "mass", "total_energy", "total_entropy", "min_rho",
            "max_rho", "min_theta", "max_theta", "dissipation_integral",
            "w_grad_l2"]
        for name, got in diag.items():
            assert np.array_equal(got, traj.diagnostics[name]), name


class TestSweepCommand:
    def test_outputs(self, tmp_path, monkeypatch):
        """One integration writes the three files of the report."""
        calls = []
        real = sweep.run_lockstep

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep, "run_lockstep", counted)
        cfg = _write(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "fits.json", "sweep.csv", "tau_table.csv"]
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "mu"
        assert len(rows) == 5
        fits = json.loads((out / "fits.json").read_text())
        assert "scaled_w_grad" in fits
        assert fits["rate"] is not None and fits["rate_reason"] is None
        # the mu = 0 reference's summary: from rest, its w stays 0
        assert fits["reference"]["max_abs_w"] == 0.0
        assert fits["reference"]["min_rho"] > 0

    def test_bl_outputs(self, tmp_path):
        """The boundary-layer half of the report, which the bl command
        wrote to thickness.csv and bl_fits.json, is in sweep's
        tau_table.csv and fits.json."""
        cfg = _write(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        table = (out / "tau_table.csv").read_text().splitlines()
        assert table[0] == rows[0]
        assert table[1] == "mu,delta,tau,w_grad_interior"
        fits = json.loads((out / "fits.json").read_text())
        for name in ("alpha", "envelope"):
            assert fits[name] is not None and fits[f"{name}_reason"] is None

    def test_fits_record_defaulted_bl_tol(self, tmp_path):
        """fits.json records the bl_tol of the sweep, also where the
        config names none and it is 5% of the wall amplitude."""
        text = SWEEP_CFG.replace("amplitude = 0.5", "amplitude = 2.0")
        out = tmp_path / "out"
        assert main(["sweep", "--config", _write(tmp_path, text),
                     "--out", str(out)]) == 0
        fits = json.loads((out / "fits.json").read_text())
        assert fits["bl_tol"] == 0.1

    def test_failed_run_rows(self, tmp_path, monkeypatch):
        """A run that aborted writes nan values and the status failed."""
        real = cli.run_sweep
        failure = {"t": 0.0, "reason": "test", "field": "u", "index": 0}

        def one_failure(plan):
            result = real(plan)
            result.errors[1] = result.deltas[1] = None
            result.status[1] = "failed"
            result.failures[1] = failure
            return result

        monkeypatch.setattr(cli, "run_sweep", one_failure)
        cfg = _write(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[3] == "0.001,nan,nan,nan,nan,failed"
        assert rows[2].endswith(",ok")
        fits = json.loads((out / "fits.json").read_text())
        assert fits["failures"] == [None, failure, None]

    # the bl case went with the bl command; its report is in fits.json
    @pytest.mark.parametrize("command, name", [("sweep", "fits.json")])
    def test_reference_abort_reported(self, tmp_path, command, name):
        """A mu = 0 reference run that aborts is written to fits.json, as
        `run` writes it to summary.json, not ended by a traceback."""
        text = SWEEP_CFG.replace("t_end = 0.02",
                                 "t_end = 1\ndt_min = 0.5\ndt_max = 0.5")
        out = tmp_path / "out"
        assert main([command, "--config", _write(tmp_path, text),
                     "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == [name]
        fits = json.loads((out / name).read_text())
        assert fits == {"config_hash": config_hash(parse_config(text)),
                        "status": "aborted",
                        "failure": {"t": 0.0,
                                    "reason": "CFL step below dt_min",
                                    "field": "u", "index": 0}}

    def test_members_without_layer(self, tmp_path):
        """Members that never leave the reference by more than bl_tol
        read delta* = 0 and the status no-layer, and no rate, alpha or
        envelope is fitted to them: the reasons count them, and there is
        no tau table."""
        text = "\n".join(["[grid]", "n_cells = 16", "[time]", "t_end = 0.05",
                          "[initial]", "preset = transverse-rest"]) + "\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert len(rows) == 4
        assert all(r.endswith(",0,0,0,0,no-layer") for r in rows)
        fits = json.loads((out / "fits.json").read_text())
        for name in ("rate", "alpha"):
            assert fits[name] is None
            assert fits[f"{name}_reason"].endswith(
                "kept 0, left out 4 no-layer")
        assert fits["envelope"] is None
        assert fits["envelope_reason"] == (
            "need a nonzero interior w_x norm at tau <= 1 for the envelope "
            "fit; kept 4, left out none")
        assert sorted(p.name for p in out.iterdir()) == [
            "fits.json", "sweep.csv"]


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


@pytest.mark.parametrize("cores", [1, 2])
def test_block_formatter_cuts_rows_into_blocks(tmp_path, monkeypatch, cores):
    """Writes of any number of rows, float and string columns, have the
    bytes of one %-format per row, and every block but the last that is
    handed on to be formatted has exactly BLOCK_ROWS rows."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    blocks = []
    submit = cli._BlockFormatter._submit

    def recording(self, columns):
        blocks.append(len(columns[0]))
        submit(self, columns)

    monkeypatch.setattr(cli._BlockFormatter, "_submit", recording)
    sizes = [1, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS + 1, 3 * cli.BLOCK_ROWS]
    rng = np.random.default_rng(3)
    writes = [(rng.normal(size=n), [f"s{i % 5}" for i in range(n)])
              for n in sizes]
    path = tmp_path / "out.csv"
    with path.open("w") as f, cli._BlockFormatter(f) as formatter:
        for floats, labels in writes:
            formatter.write([floats, labels])
    assert path.read_text() == "".join(
        "%.17g,%s\n" % row for floats, labels in writes
        for row in zip(floats.tolist(), labels))
    assert sum(blocks) == sum(sizes)
    assert set(blocks[:-1]) == {cli.BLOCK_ROWS}
    assert multiprocessing.active_children() == []


def test_one_block_file_starts_no_pool(tmp_path, monkeypatch):
    """A file of at most BLOCK_ROWS rows, in one write or in several, is
    formatted in this process also on two cores: no pool is started."""
    def refuse(*args, **kwargs):
        raise AssertionError("a one-block file started a pool")

    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    values = np.arange(float(cli.BLOCK_ROWS))
    want = "# tag\nv\n" + "".join("%.17g\n" % v for v in values.tolist())
    path = tmp_path / "out.csv"
    cli._write_csv(path, "# tag", {"v": values})
    assert path.read_text() == want
    with cli._csv_writer(path, "# tag", ["v"]) as write:
        for part in np.split(values, [1, 2, 100]):
            write([part])
    assert path.read_text() == want


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

        def hook(state):
            on_snapshot(state)
            seen.append(state.t)
            if len(seen) == n_snapshots:
                raise RuntimeError("hook failed")

        return real(*args, on_snapshot=hook, **kwargs)

    return failing


def _abort_at_end():
    """A run_lockstep that streams every snapshot, then raises the
    RunAborted of its member 0, as run_lockstep does when member 0
    aborts."""
    real = cli.run_lockstep

    def aborting(*args, **kwargs):
        real(*args, **kwargs)
        raise RunAborted({"t": 0.2, "reason": "test", "field": "u",
                          "index": 0})

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


def test_run_pool_holds_less_than_its_file(tmp_path, monkeypatch):
    """With the pool of two workers and the default BLOCK_ROWS, the
    memory planemhd run allocates in this process peaks below the size
    of the snapshots.csv it writes: the text in flight, at most
    2 x workers blocks, is a fraction of the file."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    text = "\n".join(["[grid]", "n_cells = 256", "[time]", "t_end = 0.25",
                      "[initial]", "preset = bump",
                      "[boundary]", "preset = cosine-ramp"]) + "\n"
    out = tmp_path / "out"
    argv = ["run", "--config", _write(tmp_path, text), "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert multiprocessing.active_children() == []
    assert peak < (out / "snapshots.csv").stat().st_size


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
    """sympy derives the manufactured sources ahead of time and no
    command needs it; importing it would cost every command its memory
    and start-up time."""
    src = str(Path(planemhd.__file__).parents[1])
    code = ("import sys; import planemhd.cli; "
            "sys.exit('sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0


def test_verify_runs_without_sympy(tmp_path):
    """`planemhd verify` reads the manufactured sources printed ahead of
    time: with every import of sympy made to fail, it still exits 0 with
    all its checks passed."""
    src = str(Path(planemhd.__file__).parents[1])
    config = tmp_path / "verify.cfg"
    config.write_text("[grid]\nn_cells = 32\n[time]\nt_end = 0.1\n")
    out = tmp_path / "out"
    code = ("import sys; sys.modules['sympy'] = None; "
            "from planemhd import cli; "
            f"sys.exit(cli.main(['verify', '--config', {str(config)!r}, "
            f"'--out', {str(out)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"]
