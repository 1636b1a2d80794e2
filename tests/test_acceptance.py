"""Acceptance gate: one test per criterion, one verdict line each.

Each test prints ``ACCEPTANCE <n>: PASS/FAIL`` with the measured numbers
before asserting, so a red criterion always shows its evidence.  Two
sub-checks are known to be unattainable as stated and fail honestly;
docs/DECISIONS.md carries the analysis and the independently computed
true values.
"""
from __future__ import annotations

import numpy as np

from hetclaw.charsol import asymptotic_profile, eval_solution, solution_grid
from hetclaw.design import Jump, Profile, footprint, monotone_test, ray_fan, reconstruct_vertex, round_trip
from hetclaw.entropy import entropy_sweep, reversed_shock_solution
from hetclaw.flow import integrate, terminal_state
from hetclaw.fvm import Grid1D, detect_shock_formation, evolve, l1_distance, step_datum
from hetclaw.period import invert_half_period, period_by_ode, period_quadrature, shock_time

SQRT2 = np.sqrt(2.0)
T_STAR = np.pi / (2.0 * SQRT2)
POINT_SET = (0.1, 0.3, 0.5, 0.7, 0.9, 1.5)


VERDICTS: list[str] = []


def verdict(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line)


def test_criterion_1_shock_formation_time(quartic):
    t_exact = shock_time(quartic)
    quad_err = abs(t_exact - 1.1107207)

    detected = {}
    for n in (4000, 8000):
        grid = Grid1D(-4.0, 4.0, n)
        detected[n] = detect_shock_formation(quartic, step_datum(grid), 2.0,
                                             jump_threshold=0.05)
    err_coarse = abs(detected[4000] - 1.1107)
    err_fine = abs(detected[8000] - 1.1107)

    ok = quad_err <= 1e-5 and err_coarse <= 0.07 and err_fine < err_coarse
    verdict(1, ok, f"quadrature {t_exact:.9f} (err {quad_err:.2e}), "
                   f"scheme err n=4000 {err_coarse:.5f} -> n=8000 {err_fine:.5f}")
    assert quad_err <= 1e-5
    assert err_coarse <= 0.07
    assert err_fine < err_coarse


def test_criterion_2_attraction_to_the_limit_profile(quartic):
    xs = np.array(sorted({s * x for x in POINT_SET for s in (1.0, -1.0)}))

    exact_dev = {}
    for x in xs:
        u = eval_solution(quartic, 30.0, float(x)).u
        exact_dev[float(x)] = abs(u - asymptotic_profile(quartic, float(x)))
    worst_exact = max(exact_dev.values())

    grid = Grid1D(-8.0, 8.0, 8000)
    result = evolve(quartic, step_datum(grid), 30.0)
    u_fv = np.interp(xs, grid.centers(), result.final.values)
    fv_dev = np.abs(u_fv - asymptotic_profile(quartic, xs))
    worst_fv = float(np.max(fv_dev))

    ok = worst_exact <= 5e-3 and worst_fv <= 0.05
    verdict(2, ok, f"semi-analytic worst {worst_exact:.4f} (tol 5e-3, "
                   f"interior points <= {max(v for k, v in exact_dev.items() if abs(k) < 1.0):.2e}), "
                   f"scheme worst {worst_fv:.4f} (tol 0.05)")
    assert worst_fv <= 0.05
    # Both solution routes agree that |u(30, +-1.5)| = 0.0207: outside the
    # well the residue drains like 1/t, so a 5e-3 band at t = 30 is not
    # attainable there.  Full analysis in docs/DECISIONS.md.
    assert worst_exact <= 5e-3, (
        f"worst deviation {worst_exact:.4f} sits at x = +-1.5 where both "
        f"routes measure 0.0207; the interior points pass with "
        f"{max(v for k, v in exact_dev.items() if abs(k) < 1.0):.2e}")


def test_criterion_3_monotone_decay_inside_the_well(quartic):
    worst_x, details = None, []
    all_ok = True
    for x in (0.25, 0.5, 0.75):
        u = np.array([eval_solution(quartic, float(t), x).u
                      for t in range(3, 31)])
        bound = np.sqrt(2.0 * (1.0 - quartic.g(x)))
        monotone = bool(np.all(u[1:] <= u[:-1] + 1e-6))
        below = bool(np.all(u < bound))
        all_ok = all_ok and monotone and below
        details.append(f"x={x}: monotone={monotone} below_bound={below}")
        if not (monotone and below):
            worst_x = x
    verdict(3, all_ok, "; ".join(details))
    assert all_ok, f"decay scan failed at x={worst_x}"


def test_criterion_4_period_map_shape(quartic):
    p0_grid = np.linspace(0.02, 1.4141, 100)
    periods = np.array([period_quadrature(quartic, float(p)) for p in p0_grid])
    strictly_up = bool(np.all(np.diff(periods) > 0.0))

    near_edge = period_quadrature(quartic, 1.414)

    worst_gap = 0.0
    for p0 in (0.05, 0.3, 0.6, 0.9, 1.1, 1.25, 1.35, 1.40):
        gap = abs(period_quadrature(quartic, p0) - period_by_ode(quartic, p0))
        worst_gap = max(worst_gap, gap)

    ok = strictly_up and near_edge > 20.0 and worst_gap <= 1e-5
    verdict(4, ok, f"monotone={strictly_up}, map(1.414)={near_edge:.7f}, "
                   f"quadrature-vs-ode {worst_gap:.2e}")
    assert strictly_up
    assert worst_gap <= 1e-5
    # Quadrature and direct integration agree to 1e-5 that the value at
    # 1.414 is 15.9741617 (and 30.43 at 1.4142), so the stated bound of
    # 20 is not attainable at 1.414.  Analysis in docs/DECISIONS.md.
    assert near_edge > 20.0, (
        f"map(1.414) = {near_edge:.7f} by two independent routes; "
        f"the > 20 bound would hold at 1.4142, not at 1.414")


def test_criterion_5_first_order_convergence(quartic):
    errors = {}
    final_fields = {}
    for n in (1000, 2000, 4000):
        grid = Grid1D(-2.0, 2.0, n)
        result = evolve(quartic, step_datum(grid), 1.0, cfl=0.9)
        exact = solution_grid(quartic, (1.0,), grid.centers(), n_orbits=4096)[0]
        errors[n] = l1_distance(result.final, exact, window=(-2.0, 2.0))
        final_fields[n] = result.final.values
    orders = [np.log2(errors[1000] / errors[2000]),
              np.log2(errors[2000] / errors[4000])]
    v = final_fields[4000]
    asym = float(np.max(np.abs(v + v[::-1])))

    ok = min(orders) >= 0.8 and asym <= 1e-12
    verdict(5, ok, f"L1 errors {errors[1000]:.5f}/{errors[2000]:.5f}/"
                   f"{errors[4000]:.5f}, orders {orders[0]:.3f}/{orders[1]:.3f}, "
                   f"odd-symmetry defect {asym:.1e}")
    assert min(orders) >= 0.8
    assert asym <= 1e-12


def test_criterion_6_entropy_sweeps(quartic, fvm_entropy_solution,
                                    charsol_entropy_solution):
    scheme = entropy_sweep(fvm_entropy_solution, 50, seed=7)
    exact = entropy_sweep(charsol_entropy_solution, 50, seed=11)
    control_sol = reversed_shock_solution(
        quartic, np.linspace(0.0, 2.5, 41), Grid1D(-2.0, 2.0, 256).centers())
    control = entropy_sweep(control_sol, 50, seed=3)

    ok = scheme.ok and exact.ok and not control.ok
    verdict(6, ok, f"scheme min {scheme.min_residual:+.2e} (flags "
                   f"{len(scheme.flags)}), exact min {exact.min_residual:+.2e} "
                   f"(flags {len(exact.flags)}), control flags {len(control.flags)}")
    assert scheme.ok
    assert exact.ok
    assert not control.ok


def test_criterion_7_inverse_design(quartic, homog, target_profile,
                                    target_footprint):
    report = monotone_test(target_footprint)
    gap = abs(report.gap_collapse[0][1])

    rec = reconstruct_vertex(target_footprint)
    dense = np.linspace(-3.0, 3.0, 4001)
    step_err = float(np.trapezoid(
        np.abs(rec.sample(dense) - np.where(dense < 0.0, -2.0, 2.0)), dense))
    trip = round_trip(quartic, 2.0, target_profile, (-3.0, 3.0),
                      reconstructed=rec)

    xs = np.linspace(-3.0, 3.0, 301)
    smooth = Profile(xs, 0.3 * np.sin(xs))
    fm_h = footprint(homog, 2.0, smooth)
    foot_err = float(np.max(np.abs(fm_h.feet - (fm_h.xs - 2.0 * fm_h.ws))))

    shocked = Profile(xs[xs != 0.0], np.where(xs[xs != 0.0] < 0.0, 1.0, -1.0),
                      jumps=(Jump(0.0, 1.0, -1.0),))
    fm_s = footprint(homog, 2.0, shocked)
    shock_gap = monotone_test(fm_s).gap_collapse[0][1]

    ok = (report.monotone and gap <= 1e-4 and step_err <= 0.05
          and trip < 0.08 and foot_err <= 1e-7 and shock_gap > 0.0)
    verdict(7, ok, f"monotone={report.monotone}, extremal gap {gap:.1e}, "
                   f"step L1 {step_err:.2e}, round trip {trip:.4f}, "
                   f"free foot err {foot_err:.1e}, shocked gap {shock_gap:.4f}")
    assert report.monotone and not report.violations
    assert gap <= 1e-4
    assert step_err <= 0.05
    assert trip < 0.08
    assert foot_err <= 1e-7
    assert shock_gap > 0.0


def test_criterion_8_ray_fans(quartic, homog):
    trace = invert_half_period(quartic, 2.0)
    fan = ray_fan(quartic, 2.0, 0.0, trace, -trace, 9)
    pair = ray_fan(quartic, 2.0, 0.0, trace, -trace, 2)
    fan_h = ray_fan(homog, 2.0, 0.0, -2.0, 2.0, 9)
    pair_h = ray_fan(homog, 2.0, 0.0, -2.0, 2.0, 2)

    fill = fan_h.fill_ratio()
    interior = bool(fan.crossings or fan.exits)
    extremal = [c for c in fan.crossings if {c[0], c[1]} == {0, 8}]
    ok = (interior and not extremal
          and not pair.crossings and not fan_h.crossings and not fan_h.exits
          and abs(fill - 1.0) <= 0.05 and not pair_h.crossings)
    verdict(8, ok, f"trapping model: {len(fan.crossings)} crossings, "
                   f"{len(fan.exits)} exits; free model: "
                   f"{len(fan_h.crossings)}/{len(fan_h.exits)}, fill {fill:.6f}")
    assert interior
    assert not extremal
    assert not pair.crossings
    assert not fan_h.crossings and not fan_h.exits
    assert abs(fill - 1.0) <= 0.05
    assert not pair_h.crossings


def test_criterion_9_flow_certificates(quartic):
    drift_worst = 0.0
    for p0 in (0.3, 0.9, 1.39, 2.0):
        for sign in (1.0, -1.0):
            traj = integrate(quartic, 0.0, sign * p0, sign * 30.0)
            drift_worst = max(drift_worst, traj.drift)

    trip_worst = 0.0
    for q0, p0 in ((0.0, 1.2), (0.5, 0.8)):
        q1, p1 = terminal_state(quartic, q0, p0, 30.0)
        q2, p2 = terminal_state(quartic, q1, p1, -30.0)
        trip_worst = max(trip_worst, abs(q2 - q0), abs(p2 - p0))

    ts = np.arange(1.0, 31.0, 1.0)
    escape = np.array([terminal_state(quartic, 0.0, 2.0, float(t))[0]
                       for t in ts])
    escape_ok = bool(np.all(np.diff(escape) > 0.0)) and escape[-1] > SQRT2 * 30.0 - 2.0

    order_q0_ok = True
    for t in (0.5, 2.0, 5.0, 10.0):
        qs = [terminal_state(quartic, q0, 2.0, t)[0]
              for q0 in (0.0, 0.4, 0.8, 1.6)]
        order_q0_ok = order_q0_ok and all(b > a for a, b in zip(qs, qs[1:]))

    order_p0_ok = True
    for t in (0.2, 0.5, 0.8, 1.0):
        qs = [terminal_state(quartic, 0.0, p0, t)[0]
              for p0 in (0.4, 0.9, 1.3, 2.0)]
        order_p0_ok = order_p0_ok and all(b > a for a, b in zip(qs, qs[1:]))

    ok = (drift_worst <= 1e-9 and trip_worst <= 1e-8
          and escape_ok and order_q0_ok and order_p0_ok)
    verdict(9, ok, f"energy drift {drift_worst:.1e}, reversal {trip_worst:.1e}, "
                   f"escape monotone={escape_ok}, launch-order={order_q0_ok}, "
                   f"momentum-order={order_p0_ok}")
    assert drift_worst <= 1e-9
    assert trip_worst <= 1e-8
    assert escape_ok
    assert order_q0_ok
    assert order_p0_ok
