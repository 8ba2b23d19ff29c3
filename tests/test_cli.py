import json

import numpy as np
import pytest

from statelab import diffusion as diff
from statelab.cli import (
    DEFAULT_CONFIG, SCHEMA, SECTIONS, ExperimentConfig, ValidationError, _check_born_width,
    _seam_horizon, load_config, main, run_born_diffusion,
)
from statelab.diffusion import random_superposition
from statelab.dynamics import PotentialSpec, newton_integrate, packet_width_bound
from statelab.geometry import GaussianParams
from statelab.numerics import NumericalBreakdownError


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


def write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def small_config(tmp_path, **overrides):
    # statistical tolerances are pinned at 1e5 walkers, so keep that count
    data = {"grid": {"n_points": 256}}
    for k, v in overrides.items():
        if isinstance(v, dict):
            data.setdefault(k, {}).update(v)
        else:
            data[k] = v
    return write_config(tmp_path, data)


def test_geometry_identities_exit_zero(tmp_path, capsys):
    code, out = run(tmp_path, "geometry-identities")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is True
    assert (out / "overlap_distance.csv").exists()
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["overlap-distance-identity-max-dev"]["value"] < 1e-8
    # stable per-check schema
    for c in report["checks"]:
        assert set(c) == {"name", "value", "reference", "tolerance", "pass", "mode", "note"}


def test_invalid_grid_exits_two(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"grid": {"n_points": 0}})
    code, _ = run(tmp_path, "geometry-identities", "--config", cfgp)
    assert code == 2


def test_unknown_key_exits_two(tmp_path):
    cfgp = write_config(tmp_path, {"grids": {"n_points": 128}})
    code, _ = run(tmp_path, "geometry-identities", "--config", cfgp)
    assert code == 2


def test_unit_validation(tmp_path):
    cfgp = write_config(tmp_path, {"kernel": {"sigma": 0.5},
                                   "units": {"kernel.sigma": "time"}})
    code, _ = run(tmp_path, "geometry-identities", "--config", cfgp)
    assert code == 2
    with pytest.raises(ValidationError):
        ExperimentConfig({"units": {"mystery.field": "length"}})


def test_missing_config_file_exits_two(tmp_path):
    code, _ = run(tmp_path, "geometry-identities", "--config",
                  str(tmp_path / "absent.json"))
    assert code == 2


def test_flag_overrides():
    cfg = load_config(None, {"seed": 99, "walkers": 12345, "grid": 128})
    assert cfg.seed == 99
    assert cfg.diffusion.n_walkers == 12345
    assert cfg.grid.n_points == 128


def test_default_config_is_valid():
    cfg = ExperimentConfig({})
    assert cfg.grid.n_points == DEFAULT_CONFIG["grid"]["n_points"]
    assert cfg.kernel.sigma == DEFAULT_CONFIG["kernel"]["sigma"]


def test_born_diffusion_deterministic(tmp_path, capsys):
    cfgp = small_config(tmp_path)
    code1, out1 = run(tmp_path / "a", "born-diffusion", "--config", cfgp, "--seed", "42")
    code2, out2 = run(tmp_path / "b", "born-diffusion", "--config", cfgp, "--seed", "42")
    assert code1 == code2 == 0
    for name in ("report.json", "born_masses.csv", "born_histogram.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_reconstruct_exit_zero(tmp_path):
    code, out = run(tmp_path, "reconstruct")
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "reconstruct.csv").exists()


def test_report_overall_flag_is_conjunction(tmp_path):
    code, out = run(tmp_path, "solid-com")
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] == all(c["pass"] for c in report["checks"])
    assert code == (0 if report["overall_pass"] else 1)


def test_non_periodic_grid_exits_two(tmp_path):
    cfgp = write_config(tmp_path, {"grid": {"periodic": False}})
    code, _ = run(tmp_path, "geometry-identities", "--config", cfgp)
    assert code == 2


def test_dynamics_checks_exit_zero(tmp_path):
    code, out = run(tmp_path, "dynamics-checks")
    assert code == 0
    assert (out / "trajectory.csv").exists()


def test_horizon_stops_short_of_the_seam(tmp_path):
    # a constant force carries the packet, spreading freely, toward x_min
    cfgp = write_config(tmp_path, {
        "potential": {"kind": "linear", "slope": 1.0},
        "units": {"potential.slope": "energy/length"}})
    cfg = load_config(cfgp, {})
    sigma = cfg.kernel.sigma
    q0 = GaussianParams(1.0, 0.0, sigma)
    newton = newton_integrate(q0.a, q0.p, cfg.potential, cfg.physics, 2.0 * np.pi, 1e-3)
    horizon = _seam_horizon(newton, 2.0 * np.pi, cfg.potential, cfg.physics, cfg.grid, sigma)
    assert 0.0 < horizon < 2.0 * np.pi
    # the packet's leading edge at the horizon is still inside the cell
    _, a, _ = newton_integrate(q0.a, q0.p, cfg.potential, cfg.physics, horizon, 1e-3)
    assert a[-1] - 6.0 * packet_width_bound(horizon, sigma, cfg.potential, cfg.physics) \
        > cfg.grid.x_min

    code, out = run(tmp_path, "dynamics-checks", "--config", cfgp)
    assert code == 0
    last_t = float((out / "trajectory.csv").read_text().splitlines()[-1].split(",")[0])
    assert last_t == pytest.approx(horizon)


def test_horizon_rejects_a_packet_on_the_seam(grid, phys):
    q0 = GaussianParams(grid.x_max - 0.5, 0.0, 0.5)
    with pytest.raises(ValidationError):
        _seam_horizon(newton_integrate(q0.a, q0.p, PotentialSpec.free(), phys, 2.0 * np.pi, 1e-3),
                      2.0 * np.pi, PotentialSpec.free(), phys, grid, 0.5)


@pytest.mark.parametrize("data", [
    {"potential": {"kind": "harmonic", "stiffness": 1000.0}},
    {"kernel": {"sigma": 0.01}},
], ids=["stiff-potential", "narrow-packet"])
def test_trajectory_step_guard_rejected_at_validation(tmp_path, capsys, data):
    # the propagator's per-step phase bound fails for the trajectory checks'
    # start packet: a config error, not a traceback from inside the section
    code, out = run(tmp_path, "dynamics-checks", "--config", write_config(tmp_path, data))
    err = capsys.readouterr().err
    assert code == 2
    assert "dt too large" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_all_is_thread_count_invariant(tmp_path, monkeypatch):
    # the sections' pools take one thread per available core, so one core and
    # two give the same files; exit 1 is allowed: the statistical bounds are
    # pinned at 1e5 walkers
    pools, outs = [], []
    real_pool = diff.ThreadPoolExecutor

    def spy(max_workers):
        pools[-1].add(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(diff, "ThreadPoolExecutor", spy)
    for cores in ({0}, {0, 1}):
        pools.append(set())
        monkeypatch.setattr(diff.os, "sched_getaffinity", lambda pid, cores=cores: cores)
        code, out = run(tmp_path / str(len(cores)), "all", "--walkers", "2000")
        assert code in (0, 1)
        outs.append(out)
    assert pools == [{1}, {2}]
    files = sorted(p.name for p in outs[0].iterdir())
    assert "report.json" in files and "trajectory.csv" in files
    for other in outs[1:]:
        assert files == sorted(p.name for p in other.iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), name


@pytest.mark.parametrize("data, path", [
    ({"physics": {"hbar": float("nan")}}, "physics.hbar"),
    ({"diffusion": {"tau": float("inf")}}, "diffusion.tau"),
    ({"kernel": {"sigma": float("-inf")}}, "kernel.sigma"),
])
def test_non_finite_config_value_exits_two(tmp_path, capsys, data, path):
    code, out = run(tmp_path, "all", "--config", write_config(tmp_path, data))
    err = capsys.readouterr().err
    assert code == 2
    assert path in err and "finite" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("data, path", [
    ({"physics": {"mass": 0}}, "physics.mass"),
    ({"kernel": {"sigma": -1}}, "kernel.sigma"),
    ({"diffusion": {"n_walkers": 0}}, "diffusion.n_walkers"),
    ({"grid": {"n_points": 1}}, "grid.n_points"),
], ids=["mass-0", "sigma-negative", "walkers-0", "n_points-1"])
def test_library_argument_error_names_its_path(tmp_path, capsys, data, path):
    # the library constructors' own checks, reported under the config path
    code, out = run(tmp_path, "all", "--config", write_config(tmp_path, data))
    err = capsys.readouterr().err
    assert code == 2
    assert f"invalid config: {path} must be" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("error")
def test_cell_whose_length_overflows_exits_two(tmp_path, capsys):
    # rejected by path before any array is built: on this cell Grid.wrap
    # overflows, and the step guard would blame the potential
    data = {"grid": {"x_min": -1e308, "x_max": 1e308}}
    code, out = run(tmp_path, "all", "--config", write_config(tmp_path, data))
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("config error: invalid config: grid.x_max - x_min is not finite "
                   "(x_min -1e+308, x_max 1e+308)\n")
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bound", [1e200, 1e307])
def test_huge_finite_cell_exits_two_by_path(tmp_path, capsys, bound):
    # no kernel width admits this spacing, so it is rejected by path before
    # the step guard squares the cell's nodes, which would overflow
    data = {"grid": {"x_min": -bound, "x_max": bound}}
    code, out = run(tmp_path, "all", "--config", write_config(tmp_path, data))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: grid spacing") and err.count("\n") == 1
    assert "grid.x_min, grid.x_max" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("data, path", [
    ({"grid": [1, 2]}, "grid"),
    ({"physics": 5}, "physics"),
    ({"potential": {"kind": "noisy", "base": 5, "noise_std": 0.1},
      "units": {"potential.noise_std": "energy/length"}}, "potential.base"),
], ids=["grid-list", "physics-int", "noisy-base-int"])
def test_config_section_must_be_an_object(tmp_path, capsys, data, path):
    # a list for grid used to raise AttributeError (traceback, exit 1), and
    # an int for physics said "'int' object is not iterable"
    code, out = run(tmp_path, "all", "--config", write_config(tmp_path, data))
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path} must be a JSON object" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("diffusion", [{"tau": 1e-320}, {"diffusion_sigma": 1e200}],
                         ids=["tau-1e-320", "width-1e200"])
def test_non_finite_diffusion_coefficient_exits_two(tmp_path, capsys, diffusion):
    # sigma_d^2 / (2 tau) overflows to inf; tau = 1e-320 used to validate,
    # then turn solid-com's estimates into NaN and exit 1
    code, out = run(tmp_path, "solid-com", "--config",
                    write_config(tmp_path, {"diffusion": diffusion}))
    err = capsys.readouterr().err
    assert code == 2
    assert "diffusion_sigma^2 / (2 tau) is not finite" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_born_diffusion_is_pool_size_invariant(monkeypatch):
    # born-diffusion's ensembles run beside each other on one thread per
    # available core; one worker and two give the same checks and tables
    pools = []
    real_pool = diff.ThreadPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(diff, "ThreadPoolExecutor", spy)
    cfg = load_config(None, {"walkers": 2000})
    reports = []
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(diff.os, "sched_getaffinity", lambda pid, cores=cores: cores)
        reports.append(run_born_diffusion(cfg))
    assert pools == [1, 2]
    one, two = reports
    assert one.to_json() == two.to_json()
    assert one.tables == two.tables


def test_superposition_lattice_checked_at_validation(tmp_path, capsys):
    # born-diffusion's superpositions need 5 centers 6 sigma apart inside
    # 6 sigma margins, so L > 36 sigma; on the default grid (L = 32) sigma =
    # 0.9 breaks it, and the run stops before any section
    code, out = run(tmp_path, "all", "--config",
                    write_config(tmp_path, {"kernel": {"sigma": 0.9}}))
    err = capsys.readouterr().err
    assert code == 2
    assert "36 kernel widths" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()
    # a width just inside the bound leaves room for the largest superposition
    cfg = ExperimentConfig({"kernel": {"sigma": 0.88}})
    _, dec = random_superposition(cfg.kernel, cfg.stream(11), 5, 5)
    assert len(dec.centers) == 5


@pytest.mark.parametrize("data, path", [
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"grid": {"n_points": 256.0}}, "grid.n_points"),
    ({"diffusion": {"n_walkers": 1000.7}}, "diffusion.n_walkers"),
], ids=["seed", "seed-bool", "n_points", "n_walkers"])
def test_integer_field_must_be_an_integer(tmp_path, capsys, data, path):
    # int() would have run 1.5 and true as 1, and 1000.7 walkers as 1000
    code, out = run(tmp_path, "geometry-identities", "--config", write_config(tmp_path, data))
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path} must be an integer" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_out_dir_must_be_a_string_or_null(tmp_path, capsys):
    # validated even when --out would override it
    code, out = run(tmp_path, "geometry-identities", "--config",
                    write_config(tmp_path, {"out_dir": 5}))
    err = capsys.readouterr().err
    assert code == 2
    assert "out_dir must be a string or null" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("target", ["taken", "taken/sub"])
def test_unusable_output_directory_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                      via_config, target):
    # an existing file on the path used to escape as a FileExistsError traceback
    (tmp_path / "taken").write_text("")
    out = str(tmp_path / target)
    for name in SECTIONS:
        monkeypatch.setitem(SECTIONS, name, _raise(AssertionError("section ran")))
    argv = (["--config", write_config(tmp_path, {"out_dir": out})] if via_config
            else ["--out", out])
    code = main(["all"] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: output directory") and err.count("\n") == 1
    assert "Traceback" not in err


def test_negative_seed_runs_solid_com(tmp_path):
    # the solid-com block generators mask the seed to 64 bits, as RngStream does
    code, out = run(tmp_path, "solid-com", "--seed", "-5", "--walkers", "2000")
    assert code == 0
    assert (out / "solid_scaling.csv").exists()


TABLES = {
    "geometry-identities": ["fs_metric_stencil.csv", "overlap_distance.csv"],
    "dynamics-checks": ["decomposition.csv", "trajectory.csv"],
    "reconstruct": ["reconstruct.csv"],
    "born-diffusion": ["born_histogram.csv", "born_masses.csv"],
    "solid-com": ["solid_scaling.csv"],
}


def test_sections_compute_and_write_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = load_config(None, {"walkers": 2000})
    assert list(SECTIONS) == list(TABLES)
    for name, section in SECTIONS.items():
        report = section(cfg)
        assert report.experiment == name
        assert sorted(report.tables) == TABLES[name]
    assert list(tmp_path.iterdir()) == []


def _raise(exc):
    def section(cfg):
        raise exc
    return section


def test_failing_section_keeps_the_others(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(SECTIONS, "reconstruct", _raise(RuntimeError("boom")))
    code, out = run(tmp_path, "all", "--walkers", "2000")
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" not in err
    assert "section error in reconstruct: RuntimeError: boom" in err
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    for section in TABLES:
        if section != "reconstruct":
            assert any(n.startswith(f"{section}/") for n in names), section
    error = [c for c in report["checks"] if c["name"] == "reconstruct/section-error"]
    assert error == [{"name": "reconstruct/section-error", "value": 1.0, "reference": 0.0,
                      "tolerance": 0.0, "pass": False, "mode": "upper",
                      "note": "RuntimeError: boom"}]
    assert not any(n.startswith("reconstruct/") and n != "reconstruct/section-error"
                   for n in names)
    assert report["overall_pass"] is False
    expected = sorted(f for s, files in TABLES.items() if s != "reconstruct" for f in files)
    assert report["artifacts"] == expected
    assert sorted(p.name for p in out.iterdir()) == sorted(expected + ["report.json"])


@pytest.mark.parametrize("exc, code", [
    (RuntimeError("boom"), 4),
    (NumericalBreakdownError("singular"), 3),
    (ValidationError("no horizon"), 2),
])
def test_failing_section_alone_is_reported(tmp_path, monkeypatch, capsys, exc, code):
    monkeypatch.setitem(SECTIONS, "reconstruct", _raise(exc))
    got, out = run(tmp_path, "reconstruct")
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    assert f"section error in reconstruct: {type(exc).__name__}: {exc}" in err
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["section-error"]
    assert report["artifacts"] == []


@pytest.mark.parametrize("subcommand", ["born-diffusion", "all"])
def test_born_width_mismatch_is_a_config_error(tmp_path, capsys, subcommand):
    # the Born identity compares arrivals of width diffusion_sigma with
    # packets of width kernel.sigma; this config used to fail the checks (exit 1)
    cfgp = write_config(tmp_path, {"diffusion": {"diffusion_sigma": 5.0}})
    code, out = run(tmp_path, subcommand, "--config", cfgp)
    err = capsys.readouterr().err
    assert code == 2
    assert "diffusion.diffusion_sigma" in err and "kernel.sigma" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_born_width_within_round_off_is_accepted():
    sigma = DEFAULT_CONFIG["kernel"]["sigma"]
    _check_born_width(ExperimentConfig({"diffusion": {"diffusion_sigma": sigma * (1 + 1e-13)}}))
    with pytest.raises(ValidationError):
        _check_born_width(ExperimentConfig({"diffusion": {"diffusion_sigma": sigma * (1 + 1e-11)}}))


@pytest.mark.parametrize("subcommand", ["solid-com", "geometry-identities"])
def test_other_subcommands_accept_any_diffusion_width(tmp_path, subcommand):
    cfgp = write_config(tmp_path, {"diffusion": {"diffusion_sigma": 5.0}})
    code, out = run(tmp_path, subcommand, "--config", cfgp, "--walkers", "2000")
    assert code == 0
    assert (out / "report.json").exists()


def test_default_config_is_built_from_the_schema():
    # the dict the schema replaced, written out
    assert DEFAULT_CONFIG == {
        "grid": {"n_points": 512, "x_min": -16.0, "x_max": 16.0, "periodic": True},
        "physics": {"hbar": 1.0, "mass": 1.0},
        "kernel": {"sigma": 0.5},
        "potential": {"kind": "harmonic", "stiffness": 1.0, "center": 0.0},
        "diffusion": {"n_walkers": 100000, "tau": 1.0, "diffusion_sigma": 0.5},
        "seed": 20250809,
        "out_dir": None,
        "units": {
            "grid.x_min": "length", "grid.x_max": "length",
            "physics.hbar": "action", "physics.mass": "mass",
            "kernel.sigma": "length",
            "potential.stiffness": "energy/length^2", "potential.center": "length",
            "diffusion.tau": "time", "diffusion.diffusion_sigma": "length",
        },
    }
    assert all(SCHEMA[path][1] == unit for path, unit in DEFAULT_CONFIG["units"].items())


@pytest.mark.parametrize("data, argv, path", [
    ({"grid": {"n_point": 128}}, [], "grid.n_point"),
    ({"diffusion": {"n_walker": 10}}, [], "diffusion.n_walker"),
    ({"physics": {"hbar": "1.0"}}, [], "physics.hbar"),
    ({"grid": {"x_min": "-16"}}, [], "grid.x_min"),
    ({"potential": {"kind": "linear", "slope": 1.0, "stiffness": 3.0},
      "units": {"potential.slope": "energy/length"}}, [], "potential.stiffness"),
    ({"potential": {"kind": "harmonic", "stifness": 3.0}}, [], "potential.stifness"),
    ({"potential": {"kind": "harmonic"}}, [], "potential.stiffness"),
    ({"potential": {"kind": "noisy", "base": {"kind": "free", "slope": 1.0}, "noise_std": 0.1},
      "units": {"potential.noise_std": "energy/length"}}, [], "potential.base.slope"),
    ({"potential": {"kind": "noisy", "noise_std": 0.1,
                    "base": {"kind": "noisy", "base": {}, "noise_std": 0.1}},
      "units": {"potential.noise_std": "energy/length"}}, [], "potential.base.kind"),
    ({"kernel": {"sigma": True}}, [], "kernel.sigma"),
    ({"grid": 5}, ["--grid", "128"], "grid"),
    ({"units": {"grid.n_points": "count"}}, [], "grid.n_points"),
], ids=["n_point", "n_walker", "hbar-string", "x_min-string", "field-of-another-kind",
        "stifness", "missing-stiffness", "base-field", "nested-noisy", "sigma-bool",
        "grid-int-with-flag", "unit-of-a-count"])
def test_config_is_checked_against_the_schema(tmp_path, capsys, data, argv, path):
    # the typos used to run the defaults (exit 0) and echo themselves, the
    # strings ran through float(), and linear ignored its stiffness
    code, out = run(tmp_path, "geometry-identities", "--config", write_config(tmp_path, data),
                    *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and path in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_flag_overrides_take_the_field_check():
    with pytest.raises(ValidationError, match="grid.n_points must be an integer"):
        ExperimentConfig({}, {"grid.n_points": 128.0})
    with pytest.raises(ValidationError, match="seed must be an integer"):
        ExperimentConfig({}, {"seed": True})


@pytest.mark.parametrize("subcommand, smallest", [
    ("geometry-identities", 72), ("dynamics-checks", 72), ("born-diffusion", 256),
])
def test_smallest_admitted_grid_passes(tmp_path, capsys, subcommand, smallest):
    # dx <= 0.9 min(sigma, 0.5) everywhere and dx <= sigma/4 for born-diffusion:
    # on the default cell (L = 32, sigma = 0.5) n_points 72 and 256
    code, _ = run(tmp_path / "fewer", subcommand, "--grid", str(smallest - 1))
    err = capsys.readouterr().err
    assert code == 2 and "grid spacing" in err and f"at least {smallest}" in err
    code, out = run(tmp_path, subcommand, "--grid", str(smallest))
    assert code == 0
    assert json.loads((out / "report.json").read_text())["overall_pass"] is True


@pytest.mark.parametrize("sigma", [0.3, 0.8])
def test_geometry_passes_at_other_kernel_widths(tmp_path, sigma):
    # the kernel-space speed of a delta path is |v| / (2 sigma)
    code, out = run(tmp_path, "geometry-identities", "--config",
                    write_config(tmp_path, {"kernel": {"sigma": sigma}}))
    assert code == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["isometry-unit-speed"]["reference"] == pytest.approx(1.0 / (2.0 * sigma))
