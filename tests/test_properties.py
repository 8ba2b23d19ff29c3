"""Property tests: invariances of the numerical layers, and a config fuzzer
generated from the config schema.

Examples are derandomized, so each run draws the same ones and tier-1 stays
deterministic; no example database is written.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statelab.cli import SCHEMA, ExperimentConfig, ValidationError, _check_born_width
from statelab.dynamics import PhysicsParams, PotentialSpec, propagate
from statelab.geometry import fs_distance
from statelab.numerics import Grid, RngStream, StateVector
from statelab.reconstruct import build_operators, constraint_residuals, solve_hamiltonian

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])


def random_state(grid: Grid, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    n = grid.n_points
    return StateVector(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n)).normalized()


seeds = st.integers(0, 2**32 - 1)
cells = st.tuples(st.sampled_from([16, 32, 64, 128]), st.floats(-20.0, 20.0),
                  st.floats(1.0, 40.0)).map(lambda c: Grid(c[0], c[1], c[1] + c[2], True))


@PROPERTY
@given(seed=seeds, stiffness=st.floats(0.0, 4.0), noise=st.floats(0.0, 2.0),
       t_final=st.floats(1e-3, 0.05))
def test_propagate_is_unitary(seed, stiffness, noise, t_final):
    # a random state occupies every mode up to Nyquist; dx = 0.25 keeps the
    # per-step kinetic phase below the propagator's guard at dt = 1e-3
    grid = Grid(64, -8.0, 8.0, True)
    psi = random_state(grid, seed)
    V = PotentialSpec.noisy(PotentialSpec.harmonic(stiffness), noise, RngStream(seed, 15))
    out = propagate(psi, V, PhysicsParams(1.0, 1.0), t_final, 1e-3)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


@PROPERTY
@given(grid=cells, seeds=st.tuples(seeds, seeds), phases=st.tuples(st.floats(-10.0, 10.0),
                                                                     st.floats(-10.0, 10.0)))
def test_fs_distance_is_phase_invariant(grid, seeds, phases):
    # compared through cos: arccos has an infinite slope at equal states
    f, g = (random_state(grid, s) for s in seeds)
    rotated = (StateVector(s.grid, np.exp(1j * phi) * s.values) for s, phi in zip((f, g), phases))
    assert np.cos(fs_distance(*rotated)) == pytest.approx(np.cos(fs_distance(f, g)), abs=1e-12)


@PROPERTY
@given(slope=st.floats(-2.0, 2.0), stiffness=st.floats(0.0, 2.0), shift=st.floats(-50.0, 50.0),
       hbar=st.floats(0.5, 2.0), mass=st.floats(0.5, 2.0))
def test_reconstruction_is_gauge_invariant(slope, stiffness, shift, hbar, mass):
    # V + c has the same force, so the solve returns H + c: the constant is
    # fixed by the interior trace, and neither constraint sees it
    phys = PhysicsParams(hbar, mass)
    res = solve_hamiltonian(build_operators(16, phys, [0.0, slope, 0.5 * stiffness]), phys)
    ops = build_operators(16, phys, [shift, slope, 0.5 * stiffness])
    shifted = solve_hamiltonian(ops, phys)
    scale = max(1.0, np.abs(res.H_solved).max())
    assert np.abs(shifted.H_solved - res.H_solved - shift * np.eye(16)).max() < 1e-9 * scale
    assert shifted.block_error == pytest.approx(res.block_error, abs=1e-9)
    rx, rp = constraint_residuals(ops, shifted.H_solved, phys)
    assert (rx, rp) == pytest.approx((res.residual_x, res.residual_p), abs=1e-9)


# ------------------------------------------------------------ config fuzzer

# what a config could hold where its schema asks for something else: other
# JSON types, nested objects and lists, NaN and infinities, bools, strings.
# Integers stay within 4096, since n_points sizes the arrays that validation
# builds.
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-4096, 4096) | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=2),
    max_leaves=4)
# values of each schema type, near and past the edges of the valid range;
# 10**400 is a JSON integer that no float holds
typed = {
    int: st.integers(-3, 4096),
    float: st.floats(-60.0, 60.0) | st.integers(-60, 60)
    | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 10**400]),
    bool: st.booleans(),
    str: st.sampled_from(["free", "linear", "harmonic", "noisy", "quartic", ""]),
    (str, type(None)): st.none() | st.text(max_size=4),
}
UNIT_PATHS = sorted(path for path, (_, unit, _) in SCHEMA.items() if unit)


def section(name: str, depth: int = 0):
    """An object of the SCHEMA fields under name, each present or not; a
    potential's base nests once more, so that a noisy base is drawn too."""
    fields = {}
    for path, (kind, _, _) in SCHEMA.items():
        if path.startswith(name + "."):
            key = path[len(name) + 1:]
            if path != "potential.base":
                fields[key] = typed[kind]
            elif depth < 2:
                fields[key] = section("potential", depth + 1)
    return st.fixed_dictionaries({}, optional=fields)


well_typed = st.fixed_dictionaries({}, optional={
    **{key: section(key) for key in ("grid", "physics", "kernel", "potential", "diffusion")},
    "seed": st.integers(), "out_dir": typed[(str, type(None))],
    "units": st.lists(st.sampled_from(UNIT_PATHS), unique=True).map(
        lambda paths: {path: SCHEMA[path][1] for path in paths})})


@st.composite
def configs(draw):
    """A well-typed config, then in most examples one value replaced by junk
    or one junk key added, at any depth."""
    data = draw(well_typed)
    objects, slots = [data], []
    for node in objects:   # grows as nested objects are found
        for key, value in node.items():
            slots.append((node, key))
            if isinstance(value, dict):
                objects.append(value)
    how = draw(st.sampled_from(["none", "none", "value", "value", "key"]))
    if how == "value" and slots:
        node, key = draw(st.sampled_from(slots))
        node[key] = draw(junk)
    elif how == "key":
        draw(st.sampled_from(objects))[draw(st.text(max_size=8))] = draw(junk)
    return data


flags = st.fixed_dictionaries({}, optional={
    "seed": st.integers(), "diffusion.n_walkers": st.integers(), "grid.n_points": typed[int]})


@settings(derandomize=True, database=None, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=configs(), overrides=flags)
def test_any_config_validates_or_raises_validation_error(data, overrides):
    try:
        _check_born_width(ExperimentConfig(data, overrides))
    except ValidationError:
        pass
