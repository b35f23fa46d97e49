"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The expensive end-to-end experiment (criterion 9) is computed once
in a session fixture and shared with the scaling criteria 5 and 6.
"""

import math
import time

import numpy as np
import pytest

from mtmlab.backlund import backlund_transform, up_map
from mtmlab.evolution import charge, evolve, step_count
from mtmlab.fields import (
    Grid,
    SpinorField,
    combined_l2_distance,
    l2_norm,
    l2_norm_sq,
)
from mtmlab.lax import find_eigenvalue, project_P, s_constant, solve_time_bvp
from mtmlab.backlund import pushforward_eigenvector, riccati_residual
from mtmlab.solitons import (
    csech,
    free_lax_vector,
    soliton_eigenvector,
    soliton_field,
    stationary_soliton,
)
from mtmlab.stability import (
    ExperimentConfig,
    make_perturbed_initial,
    modulated_distance,
    run_experiment,
    sweep,
)

from oracles import zero_curvature_residual
from helpers import evolve_spans, polar

GAMMA0 = np.pi / 2
LAM0 = np.exp(0.25j * np.pi)
GAMMAS = (np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
EPSILONS = (1e-3, 1e-2, 1e-1)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def experiment():
    """Reference (eps = 0) run plus the epsilon sweep; shared by criteria 5, 6, 9."""
    cfg = ExperimentConfig(gamma0=GAMMA0, epsilon=0.01, perturbation_seed=0, t_end=20.0)
    t0 = time.perf_counter()
    reference = run_experiment(ExperimentConfig(gamma0=GAMMA0, epsilon=0.0, t_end=20.0))
    swept = sweep(cfg, EPSILONS)
    wall = time.perf_counter() - t0
    return reference, swept, wall


def test_criterion_1_zero_to_soliton(grid):
    worst = 0.0
    slowest = 0.0
    for gamma in GAMMAS:
        for delta in (1.0, 2.0):
            t0 = time.perf_counter()
            p = polar(gamma, delta)
            out = backlund_transform(SpinorField.zero(grid),
                                     free_lax_vector(p, 0.0, grid), p.lam)
            ref = soliton_field(p, 0.0, grid)
            err = max(np.abs(out.u - ref.u).max(), np.abs(out.v - ref.v).max())
            worst = max(worst, err)
            slowest = max(slowest, time.perf_counter() - t0)
    report(1, worst < 1e-10 and slowest < 1.0,
           f"zero->soliton pointwise error {worst:.2e} (tol 1e-10), "
           f"slowest case {slowest:.2f}s (limit 1s)")


def test_criterion_2_soliton_to_zero(grid):
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (np.pi / 4, np.pi / 2):
        sol = stationary_soliton(gamma, 0.0, 0.0, 0.0, grid)
        psi = soliton_eigenvector(gamma, 0.0, grid)
        out = backlund_transform(sol, psi, np.exp(0.5j * gamma))
        worst = max(worst, l2_norm(out))
    wall = time.perf_counter() - t0
    report(2, worst < 1e-6 and wall < 1.0,
           f"soliton->zero residual norm {worst:.2e} (tol 1e-6), {wall:.2f}s")


def test_criterion_3_s_constant():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in GAMMAS:
        closed = 4j * np.exp(-0.5j * gamma) / np.sin(gamma)
        worst = max(worst, abs(s_constant(gamma) - closed) / abs(closed))
    wall = time.perf_counter() - t0
    report(3, worst < 1e-8 and wall < 1.0,
           f"s-constant quadrature vs closed form, rel err {worst:.2e} (tol 1e-8), {wall:.2f}s")


def test_criterion_4_soliton_charge(grid):
    t0 = time.perf_counter()
    worst = 0.0
    cases = [soliton_field(polar(np.pi / 8, 2.0), 0.0, grid),
             soliton_field(polar(np.pi / 2, 1.0), 1.3, grid),
             stationary_soliton(np.pi / 4, 0.9, 2.2, 0.7, grid),
             stationary_soliton(3 * np.pi / 4, -1.1, 0.3, 0.0, grid)]
    gammas = (np.pi / 8, np.pi / 2, np.pi / 4, 3 * np.pi / 4)
    for f, gamma in zip(cases, gammas):
        worst = max(worst, abs(l2_norm_sq(f) - 4 * gamma))
    wall = time.perf_counter() - t0
    report(4, worst < 1e-6 and wall < 1.0,
           f"charge = 4*gamma independent of a, theta, t, delta; err {worst:.2e} "
           f"(tol 1e-6), {wall:.2f}s")


def test_criterion_5_eigenvalue_recovery_and_scaling(grid, experiment):
    _, swept, _ = experiment
    t0 = time.perf_counter()
    sol = stationary_soliton(GAMMA0, 0.0, 0.0, 0.0, grid)
    res = find_eigenvalue(sol, LAM0 * (1 + 0.05j))
    recovery = abs(res.lam - LAM0)
    wall = time.perf_counter() - t0
    slope = swept.slopes["lambda_err"]
    report(5, recovery < 1e-8 and 0.8 <= slope <= 1.2 and wall < 30.0,
           f"|lambda - lambda0| = {recovery:.2e} (tol 1e-8), eps-scaling slope "
           f"{slope:.3f} (in [0.8, 1.2]), {wall:.1f}s")


def test_criterion_6_down_map_smallness(experiment):
    _, swept, _ = experiment
    slope = swept.slopes["pq0_norm"]
    report(6, 0.8 <= slope <= 1.2,
           f"||(p0,q0)|| scaling slope {slope:.3f} (in [0.8, 1.2])")


def test_criterion_7_evolution(grid):
    t0 = time.perf_counter()
    # charge conservation over [0, 20] at dt = dx = 60/4096
    f0 = make_perturbed_initial(ExperimentConfig(gamma0=GAMMA0, epsilon=0.01,
                                                 perturbation_seed=0))
    c0 = charge(f0)
    drifts = [abs(charge(f) - c0) / c0 for _, f in evolve_spans(f0, step_count(20.0, grid.dx), 64)]
    drift = max(drifts)
    # second-order soliton tracking under dt refinement
    errs = []
    for n in (2048, 4096, 8192):
        g = Grid.symmetric(30.0, n)
        out = evolve(stationary_soliton(GAMMA0, 0.0, 0.0, 0.0, g), step_count(1.0, g.dx))
        t_n = round(1.0 / g.dx) * g.dx
        errs.append(combined_l2_distance(out, stationary_soliton(GAMMA0, 0, 0, t_n, g)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    # uniform-state exact solution
    gu = Grid(0.0, 0.008, 8)
    c0 = 0.5
    uni = evolve(SpinorField(gu, np.full(8, c0 + 0j), np.full(8, c0 + 0j)), 1000)
    uni_err = np.abs(uni.u - c0 * np.exp(1j * (1 + c0 ** 2))).max()
    wall = time.perf_counter() - t0
    ok = drift < 1e-6 and all(1.8 <= o <= 2.2 for o in orders) and uni_err < 1e-6 \
        and wall < 120.0
    report(7, ok, f"charge drift {drift:.2e} (tol 1e-6), tracking orders "
           f"{orders[0]:.2f}/{orders[1]:.2f} (in [1.8, 2.2]), uniform-state err "
           f"{uni_err:.2e} (tol 1e-6), {wall:.0f}s (limit 120s)")


def test_criterion_8_up_map_reconstruction(grid):
    t0 = time.perf_counter()
    zero = SpinorField.zero(grid)
    worst = 0.0
    s = np.sin(GAMMA0)
    for a, theta in ((0.0, 0.0), (1.0, np.pi / 3), (-0.8, 2.1)):
        jost = solve_time_bvp(zero, LAM0, 0.0)
        rec = up_map(zero, jost, a, theta)
        phase = 1j * np.exp(-1j * theta)
        uref = phase * s * csech(grid.x * s - 0.5j * GAMMA0 - a)
        vref = -phase * s * csech(grid.x * s + 0.5j * GAMMA0 - a)
        worst = max(worst, np.abs(rec.u - uref).max(), np.abs(rec.v - vref).max())
    wall = time.perf_counter() - t0
    report(8, worst < 1e-10 and wall < 1.0,
           f"translated-soliton reconstruction pointwise err {worst:.2e} "
           f"(tol 1e-10), {wall:.2f}s")


def test_criterion_9_orbital_stability_end_to_end(experiment):
    reference, swept, wall = experiment
    ok_rows = [r for r in swept.rows if r.status == "ok"]
    all_ran = len(ok_rows) == len(EPSILONS)

    # (a) close orbits: max modulated distance <= 10 eps at eps = 0.01
    row01 = swept.row(0.01)
    bound_ok = row01.max_dist <= 10 * 0.01

    # (b) the fitted constant is epsilon-uniform within a factor 3
    cs = [r.fitted_c for r in ok_rows]
    c_ok = max(cs) / min(cs) < 3.0

    # (c) the two pipelines agree within 10x the scheme error at every sample
    # time; the scheme error is the same comparison run at eps = 0 (floored
    # at 1e-7 where both sides sit at the solver noise level)
    agree_ok = True
    worst_ratio = 0.0
    conserved_ok = True
    for res in swept.results:
        for cross, ref_cross in zip(res.cross_l2, reference.cross_l2):
            ratio = cross / max(ref_cross, 1e-7)
            worst_ratio = max(worst_ratio, ratio)
            agree_ok &= ratio <= 10.0
        # conserved quantities along both pipelines over the full window
        charges = [r.charge for r in res.records]
        smalls = [r.small_norm for r in res.records]
        conserved_ok &= (max(charges) - min(charges)) < 1e-6 * charges[0]
        conserved_ok &= (max(smalls) - min(smalls)) < 1e-6 * max(smalls[0], 1e-12)

    ok = all_ran and bound_ok and c_ok and agree_ok and conserved_ok and wall < 600.0
    report(9, ok,
           f"max dist {row01.max_dist:.3e} <= 10*eps, fitted-C spread "
           f"{max(cs) / min(cs):.2f}x (< 3x), worst pipeline-agreement ratio "
           f"{worst_ratio:.2f} (<= 10x scheme error), charge/small-norm drift "
           f"< 1e-6, {wall:.0f}s (limit 600s)")


def test_criterion_10_property_suites(grid, rng):
    # Riccati invariance on Backlund-transformed data
    p = polar(GAMMA0)
    phi = free_lax_vector(p, 0.0, grid)
    created = backlund_transform(SpinorField.zero(grid), phi, p.lam)
    riccati = riccati_residual(pushforward_eigenvector(phi, p.gamma), created, p.lam)

    # projector idempotence
    env = np.exp(-grid.x ** 2 / 40)
    v = SpinorField(grid, env * (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)),
                  env * (rng.normal(size=grid.n) - 1j * rng.normal(size=grid.n)))
    pv = project_P(GAMMA0, v)
    ppv = project_P(GAMMA0, pv)
    idem = max(np.abs(ppv.u - pv.u).max(), np.abs(ppv.v - pv.v).max())

    # modulated-distance orbit invariance
    f = make_perturbed_initial(ExperimentConfig(gamma0=GAMMA0, epsilon=0.01,
                                                perturbation_seed=7))
    fit0 = modulated_distance(f, p, 0.0)
    shift = 48 * grid.dx
    g2 = SpinorField(grid, np.exp(-0.8j) * np.roll(f.u, 48), np.exp(-0.8j) * np.roll(f.v, 48))
    fit1 = modulated_distance(g2, p, 0.0)
    orbit_inv = abs(fit1.dist - fit0.dist)

    # evolver time reversal
    f0 = make_perturbed_initial(ExperimentConfig(gamma0=GAMMA0, epsilon=0.05,
                                                 perturbation_seed=3))
    fwd = evolve(f0, step_count(5.0, grid.dx))
    back = evolve(fwd, -step_count(5.0, grid.dx))
    reversal = combined_l2_distance(back, f0)

    # zero-curvature residual decreases at second order
    lam = np.exp(0.125j * np.pi) * 1.1
    r1 = zero_curvature_residual(np.pi / 4, lam, 2048)
    r2 = zero_curvature_residual(np.pi / 4, lam, 4096)
    zc_order = math.log2(r1 / r2)

    ok = (riccati < 1e-4 and idem < 1e-12 and orbit_inv < 1e-8
          and reversal < 1e-5 and 1.5 <= zc_order <= 2.5)
    report(10, ok,
           f"riccati {riccati:.2e} (<1e-4), projector idempotence {idem:.2e} "
           f"(<1e-12), orbit invariance {orbit_inv:.2e} (<1e-8), time reversal "
           f"{reversal:.2e} (<1e-5), zero-curvature order {zc_order:.2f} (~2)")
