"""The FFT seam, the split-step kernel and the leapfrog force.

numerics.fft/ifft carry every transform of the package and give numpy.fft's
bits.  _run_steps walks record intervals with merged kicks, so it matches
the one-line Strang loop to 1e-12, not bit for bit; newton_integrate
evaluates V' on Python floats.  The oracles are the loops they replaced,
written out here.
"""

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from statelab.dynamics import (PotentialSpec, _linear_phase, _run_steps, expect_p, expect_x,
                               newton_integrate, propagate)
from statelab.geometry import GaussianParams, realize
from statelab.numerics import Grid, RngStream, StateVector, fft, ifft


def test_fft_leaves_a_read_only_input_untouched(grid):
    psi = realize(GaussianParams(0.5, 1.0, 0.5), grid)
    before = psi.values.copy()
    assert not psi.values.flags.writeable
    fft(psi.values)
    ifft(psi.values)
    assert np.array_equal(psi.values, before)


@pytest.mark.parametrize("n", [64, 1009])
def test_fft_accepts_real_input(n):
    r = np.random.default_rng(n).standard_normal(n)
    for ours, ref in ((fft(r), np.fft.fft(r)), (ifft(r), np.fft.ifft(r))):
        assert ours.dtype == np.complex128
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(ifft(fft(r)) - r)) <= 1e-12


def _run_steps_oracle(psi, V, phys, n_steps, dt, record_every=0):
    """The split-step loop as one allocating expression per step."""
    g = psi.grid
    exp_kin = np.exp(-1j * phys.hbar * g.wavenumbers ** 2 * dt / (2.0 * phys.mass))
    v_static = V.values(g)
    slopes = V.noise_slopes(n_steps)
    vals = psi.values.copy()
    records = [(0.0, expect_x(psi), expect_p(psi, phys))] if record_every else []
    for s in range(n_steps):
        exp_v2 = np.exp(-1j * (v_static + slopes[s] * g.x) * dt / (2.0 * phys.hbar))
        vals = exp_v2 * np.fft.ifft(exp_kin * np.fft.fft(exp_v2 * vals))
        if record_every and ((s + 1) % record_every == 0 or s == n_steps - 1):
            cur = StateVector(g, vals)
            records.append(((s + 1) * dt, expect_x(cur), expect_p(cur, phys)))
    return vals, records


POTENTIALS = {
    "static": lambda g: PotentialSpec.harmonic(1.0, center=0.3),
    "noisy": lambda g: PotentialSpec.noisy(PotentialSpec.harmonic(1.0), 0.5, RngStream(5, 15)),
    "tabulated": lambda g: PotentialSpec.tabulated(0.01 * g.x ** 4),
    # no noise and V constant on the grid: the kernel jumps each interval
    "free": lambda g: PotentialSpec.free(),
    "constant": lambda g: PotentialSpec((0.4,), center=0.7),
}


def _check_against_the_oracle(grid, phys, kind, dt, n_steps, record_every):
    psi = realize(GaussianParams(1.0, 0.5, 0.5), grid)
    V = POTENTIALS[kind](grid)
    out, records = _run_steps(psi, V, V.values(grid), phys, n_steps, dt,
                              record_every=record_every)
    ref, ref_records = _run_steps_oracle(psi, V, phys, n_steps, dt, record_every)
    assert np.max(np.abs(out.values - ref)) <= 1e-12
    assert len(records) == len(ref_records)
    for got, want in zip(records, ref_records):
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


@pytest.mark.parametrize("record_every", [0, 7])
@pytest.mark.parametrize("dt", [1e-3, -1e-3], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", list(POTENTIALS))
def test_run_steps_matches_the_one_line_loop(grid, phys, kind, dt, record_every):
    # 7 does not divide 30: the last record interval is short
    _check_against_the_oracle(grid, phys, kind, dt, 30, record_every)


@pytest.mark.parametrize("n_steps, record_every", [(30, 10), (1, 0), (1, 1)],
                         ids=["30-every-10", "1", "1-every-1"])
@pytest.mark.parametrize("dt", [1e-3, -1e-3], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", list(POTENTIALS))
def test_run_steps_schedules_match_the_one_line_loop(grid, phys, kind, dt, n_steps,
                                                     record_every):
    # equal intervals, and the single step ehrenfest_check takes each way
    _check_against_the_oracle(grid, phys, kind, dt, n_steps, record_every)


@pytest.mark.parametrize("n", [64, 1009, 4096], ids=["64", "1009-not-a-square", "4096"])
def test_linear_phase_matches_the_exponential(n):
    # within 4 ulp of the phase's magnitude: the outer product rounds the
    # two factors' arguments and their product, each within an ulp or so
    g = Grid(n, -8.0, 24.0, True)
    phase = _linear_phase(g)
    for sigma in (1e-3, -0.3, 2.0):
        want = np.exp(1j * sigma * g.x)
        bound = 4 * np.finfo(float).eps * (1.0 + abs(sigma) * np.max(np.abs(g.x)))
        assert np.max(np.abs(phase(sigma) - want)) <= bound


def _newton_oracle(a0, p0, V, phys, t_final, dt, grid=None):
    """Leapfrog with the force from value_at, one call per half kick."""
    n_steps = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n_steps
    slopes = V.noise_slopes(n_steps)
    a = np.empty(n_steps + 1)
    p = np.empty(n_steps + 1)
    a[0], p[0] = a0, p0
    force = lambda x, s: -float(V.value_at(x, grid, order=1)) - slopes[s]
    for s in range(n_steps):
        p_half = p[s] + 0.5 * dt_eff * force(a[s], s)
        a[s + 1] = a[s] + dt_eff * p_half / phys.mass
        p[s + 1] = p_half + 0.5 * dt_eff * force(a[s + 1], s)
    return dt_eff * np.arange(n_steps + 1), a, p


@pytest.mark.parametrize("V", [
    PotentialSpec((0.4,), center=0.7),
    PotentialSpec((0.4, -0.3), center=0.7),
    PotentialSpec((0.4, -0.3, 0.8), center=0.7),
    PotentialSpec.noisy(PotentialSpec.harmonic(1.0, center=-0.2), 0.5, RngStream(3, 15)),
], ids=["degree-0", "degree-1", "degree-2", "noisy-harmonic"])
def test_newton_integrate_is_bitwise_the_value_at_loop(phys, V):
    got = newton_integrate(1.0, 0.3, V, phys, 2.0, 1e-3)
    want = _newton_oracle(1.0, 0.3, V, phys, 2.0, 1e-3)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("coeffs", [(0.0, 0.1, -0.2, 0.05), (0.0, 0.0, 0.5, 0.0, 0.02)],
                         ids=["degree-3", "degree-4"])
def test_newton_integrate_higher_degrees_agree_to_round_off(phys, coeffs):
    V = PotentialSpec(coeffs, center=0.4)
    got = newton_integrate(1.0, 0.3, V, phys, 2.0, 1e-3)
    want = _newton_oracle(1.0, 0.3, V, phys, 2.0, 1e-3)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_newton_integrate_tabulated_matches_value_at(grid, phys):
    V = PotentialSpec.tabulated(0.5 * grid.x ** 2)
    got = newton_integrate(1.0, 0.0, V, phys, 1.0, 1e-2, grid)
    want = _newton_oracle(1.0, 0.0, V, phys, 1.0, 1e-2, grid)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    with pytest.raises(ValueError, match="needs the grid"):
        newton_integrate(1.0, 0.0, V, phys, 1.0, 1e-2)


def test_concurrent_propagations_equal_serial_ones(phys):
    # propagations may run on several threads of one process, so no buffer
    # may be shared
    g = Grid(4096, -16.0, 16.0, True)
    cases = [(realize(GaussianParams(1.0, 0.0, 0.5), g), PotentialSpec.harmonic(1.0)),
             (realize(GaussianParams(-2.0, 1.5, 0.5), g),
              PotentialSpec.noisy(PotentialSpec.free(), 0.5, RngStream(3, 15)))]
    serial = [propagate(psi, V, phys, 0.2, 1e-3).values for psi, V in cases]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(propagate, psi, V, phys, 0.2, 1e-3) for psi, V in cases]
        concurrent = [f.result().values for f in futures]
    for a, b in zip(serial, concurrent):
        assert np.array_equal(a, b)


def test_importing_the_cli_does_not_load_scipy_sparse():
    # reconstruct imports scipy.sparse inside its solver; a module-level
    # import would add its load time to every run of the CLI
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import statelab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
