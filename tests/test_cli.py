import json

import numpy as np
import pytest

from statelab.cli import (
    DEFAULT_CONFIG, ExperimentConfig, ValidationError, _fit_horizon, load_config, main,
)
from statelab.dynamics import PotentialSpec, newton_integrate, packet_width_bound
from statelab.geometry import GaussianParams


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


@pytest.mark.parametrize("threads", ["abc", "2.5", "0", "-1"])
def test_bad_thread_count_exits_two(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("STATELAB_THREADS", threads)
    code, out = run(tmp_path, "all")
    assert code == 2
    assert not (out / "report.json").exists()


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
    horizon = _fit_horizon(q0, cfg.potential, cfg.physics, cfg.grid, sigma, 2.0 * np.pi)
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
        _fit_horizon(q0, PotentialSpec.free(), phys, grid, 0.5, 2.0 * np.pi)


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
    # exit 1 is allowed: the statistical bounds are pinned at 1e5 walkers
    outs = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("STATELAB_THREADS", threads)
        code, out = run(tmp_path / threads, "all", "--walkers", "2000")
        assert code in (0, 1)
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert "report.json" in files and "trajectory.csv" in files
    for other in outs[1:]:
        assert files == sorted(p.name for p in other.iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), name
