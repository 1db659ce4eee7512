"""Shared pytest hooks and test helpers: the acceptance tests register
one result line per numbered criterion and the lines are echoed as a
terminal summary section, so they survive output capture;
lockstep_trajectories collects the snapshots that run_lockstep does not
keep."""

from planemhd.core import STATE_FIELDS, FlowState, Trajectory
from planemhd.solver import RunAborted, run_lockstep

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)


def lockstep_trajectories(*args, on_snapshot=None, **kwargs):
    """run_lockstep(*args, **kwargs) with each member's snapshots copied
    out of its batch row through on_snapshot: per member its Trajectory,
    or the RunAborted that ended it. A given on_snapshot is called
    first, with the batch state."""
    states = []

    def collect(state):
        if on_snapshot is not None:
            on_snapshot(state)
        states.append([FlowState(t=state.t, **{
            name: getattr(state, name)[m] for name in STATE_FIELDS})
            for m in range(len(state.rho))])

    outs = run_lockstep(*args, on_snapshot=collect, **kwargs)
    return [out if isinstance(out, RunAborted)
            else Trajectory([rows[m] for rows in states], out)
            for m, out in enumerate(outs)]
