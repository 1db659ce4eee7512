import pytest

from planemhd.config import (_SCHEMA, ConfigError, config_hash,
                             parse_config, render_config)
from planemhd.core import BoundaryData, PhysParams, make_initial_state
from planemhd.solver import TimeConfig
from planemhd.sweep import DEFAULT_INTERIOR_DELTAS, SweepPlan

MINIMAL = """
[grid]
n_cells = 32

[time]
t_end = 0.1
"""


def _plan(cfg):
    """The SweepPlan of cfg, with no bl_tol given."""
    grid, bdry = cfg.grid_spec(), cfg.boundary_data()
    return SweepPlan(
        mu_values=cfg.mu_values(), grid=grid, params=cfg.phys_params(),
        bdry=bdry, time=cfg.time_config(),
        initial=make_initial_state(grid, cfg["initial"]["preset"], bdry))


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg["grid"]["n_cells"] == 32
        assert cfg["physics"]["mu"] == 0.1
        assert cfg["boundary"]["preset"] == "zero"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n" + MINIMAL +
                           "\n[physics]\nmu = 0.2  # shear\n")
        assert cfg["physics"]["mu"] == 0.2

    def test_unknown_section_with_line(self):
        with pytest.raises(ConfigError, match="line 1: unknown section"):
            parse_config("[turbulence]\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key"):
            parse_config("[grid]\nresolution = 3\n")

    def test_duplicate_key(self):
        text = "[grid]\nn_cells = 8\nn_cells = 16\n[time]\nt_end = 1\n"
        with pytest.raises(ConfigError, match="duplicate key grid.n_cells"):
            parse_config(text)

    def test_type_error_with_line(self):
        with pytest.raises(ConfigError, match="grid.n_cells must be int"):
            parse_config("[grid]\nn_cells = many\n[time]\nt_end = 1\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key "
                                              "time.t_end"):
            parse_config("[grid]\nn_cells = 16\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config("n_cells = 16\n")


class TestValidation:
    def test_bad_preset(self):
        with pytest.raises(ConfigError, match="initial.preset"):
            parse_config(MINIMAL + "\n[initial]\npreset = swirl\n")

    def test_negative_mu(self):
        with pytest.raises(ConfigError, match="physics.mu"):
            parse_config(MINIMAL + "\n[physics]\nmu = -0.1\n")

    def test_grid_too_coarse(self):
        with pytest.raises(ConfigError, match="n_cells"):
            parse_config("[grid]\nn_cells = 4\n[time]\nt_end = 1\n")

    def test_sweep_mu_ordering(self):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            parse_config(MINIMAL + "\n[sweep]\nmu_values = 1e-3,1e-2\n")

    @pytest.mark.parametrize("value", ["0", "-0.05"])
    def test_bl_tol_must_be_positive(self, value):
        with pytest.raises(ConfigError,
                           match="line 9: sweep.bl_tol must be positive"):
            parse_config(MINIMAL + f"\n[sweep]\nbl_tol = {value}\n")

    # the listed cases, then NaN for every float key not listed yet
    @pytest.mark.parametrize("section, line, message", list(dict.fromkeys([
        ("physics", "lambda = nan", "physics.lambda must be finite"),
        ("physics", "mu = nan", "physics.mu must be finite"),
        ("physics", "nu = inf", "physics.nu must be finite"),
        ("physics", "gamma = 0", "physics.gamma must be positive"),
        ("physics", "kappa2 = -1", "physics.kappa2 must be nonnegative"),
        ("boundary", "preset = custom", "boundary.preset must be one of"),
        ("boundary", "ramp_period = nan", "boundary.ramp_period must be "
                                          "finite"),
        ("boundary", "ramp_period = 0", "boundary.ramp_period must be "
                                        "positive"),
        ("boundary", "amplitude = inf", "boundary.amplitude must be "
                                        "finite"),
        ("boundary", "amplitude = nan", "boundary.amplitude must be "
                                        "finite"),
        ("time", "dt_min = 0\ndt_max = 0", "time.dt_min must satisfy"),
        ("time", "dt_min = -2\ndt_max = -1", "time.dt_min must satisfy"),
        ("time", "dt_min = 0.5", "time.dt_min must satisfy"),
        ("time", "dt_max = nan", "time.dt_max must be finite"),
        ("sweep", "mu_values = 1e-2,nan,1e-4", "sweep.mu_values must be "
                                               "finite and strictly "
                                               "positive"),
        ("sweep", "mu_values = inf,1e-2", "sweep.mu_values must be finite"),
        ("sweep", "interior_deltas = 0.1,nan", "sweep.interior_deltas "
                                               "must lie in"),
        ("sweep", "interior_deltas = 0.1,0.5", "sweep.interior_deltas "
                                               "must lie in"),
        ("sweep", "interior_deltas = 0.1,0.1", "sweep.interior_deltas "
                                               "must be distinct"),
        ("sweep", "interior_deltas = 0.05,0.49", "sweep.interior_deltas "
                                                 "must each keep a cell "
                                                 "centre of the 32-cell "
                                                 "grid inside"),
        ("sweep", "bl_tol = nan", "sweep.bl_tol must be finite"),
        *((section, f"{key} = nan", f"{section}.{key} must be finite")
          for section, keys in _SCHEMA.items()
          for key, typ in keys.items() if typ is float)])))
    def test_rejects_nonfinite_and_nonpositive(self, section, line,
                                               message):
        """Each value is rejected at its line; none of these configs is
        ever run."""
        # MINIMAL sets t_end: blank its line rather than repeat the key
        base = (MINIMAL.replace("t_end = 0.1", "")
                if line.startswith("t_end") else MINIMAL)
        text = base + f"\n[{section}]\n{line}\n"
        with pytest.raises(ConfigError, match=f"line 9: {message}"):
            parse_config(text)

    def test_override_replaces_value(self):
        cfg = parse_config(MINIMAL + "\n[physics]\nmu = 0.2\n",
                           [("physics", "mu", 0.05, "--mu")])
        assert cfg["physics"]["mu"] == 0.05
        assert cfg.raw == parse_config(
            MINIMAL + "\n[physics]\nmu = 0.05\n").raw


class TestFactories:
    def test_phys_params(self):
        cfg = parse_config(MINIMAL + "\n[physics]\nlambda = 2.0\nq = 3.0\n")
        p = cfg.phys_params()
        assert p.lam == 2.0
        assert p.q == 3.0

    def test_boundary_presets(self):
        cfg = parse_config(MINIMAL + "\n[boundary]\npreset = cosine-ramp\n"
                           "amplitude = 0.5\nramp_period = 0.1\n")
        bd = cfg.boundary_data()
        assert bd.at(1.0)[0] == pytest.approx(0.5)

    def test_bl_tol_defaults_to_amplitude_fraction(self):
        """A SweepPlan that names no bl_tol takes the same 5% of its wall
        amplitude as the config."""
        cfg = parse_config(MINIMAL + "\n[boundary]\namplitude = 2.0\n")
        assert cfg.bl_tol() == pytest.approx(0.1)
        assert _plan(cfg).bl_tol == cfg.bl_tol() == 0.1
        cfg2 = parse_config(MINIMAL + "\n[sweep]\nbl_tol = 0.03\n")
        assert cfg2.bl_tol() == 0.03

    def test_bl_tol_default_uses_amplitude_magnitude(self):
        cfg = parse_config(MINIMAL + "\n[boundary]\namplitude = -2.0\n")
        assert cfg.bl_tol() == pytest.approx(0.1)

    def test_mu_values(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mu_values() == (1e-2, 1e-3, 1e-4, 1e-5)


class TestDefaults:
    def test_match_the_types(self):
        """The defaults config repeats are those of the types that own
        the values. A config that selects a ramp or a constant wall
        without an amplitude gets a unit wall velocity, and the default
        bl_tol, 5% of the amplitude, is SweepPlan's."""
        cfg = parse_config(MINIMAL)
        assert cfg.phys_params() == PhysParams()
        assert cfg.time_config() == TimeConfig(t_end=0.1)
        assert cfg.interior_deltas() == DEFAULT_INTERIOR_DELTAS
        assert cfg.boundary_data() == BoundaryData(amplitude=1.0)
        assert cfg.boundary_data() == BoundaryData()
        assert cfg.bl_tol() == _plan(cfg).bl_tol


class TestRoundTrip:
    def test_render_reparses_identically(self):
        cfg = parse_config(MINIMAL + "\n[physics]\nmu = 0.05\n")
        text = render_config(cfg)
        again = parse_config(text)
        assert again.raw == cfg.raw
        assert render_config(again) == text

    def test_hash_stable_and_sensitive(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL)
        c = parse_config(MINIMAL + "\n[physics]\nmu = 0.2\n")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 12
