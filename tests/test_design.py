"""Inverse design: footprints, vertex reconstruction and ray fans."""
from __future__ import annotations

import json
import time
import tracemalloc

import numpy as np
import pytest

from hetclaw.charsol import asymptotic_profile
from hetclaw.cli import main
from hetclaw.design import (
    FootprintMap,
    Jump,
    Profile,
    design_report,
    footprint,
    monotone_test,
    profile_from_solution,
    ray_fan,
    reconstruct_vertex,
    round_trip,
)
from hetclaw.errors import DomainError, NonMonotoneFeet
from hetclaw.flow import terminal_batch
from hetclaw.period import invert_half_period


def l1_between(xs, a, b):
    return float(np.trapezoid(np.abs(np.asarray(a) - np.asarray(b)), xs))


# ===== Profiles =====

def test_profile_requires_increasing_positions():
    with pytest.raises(DomainError):
        Profile(np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_profile_sampling_respects_jump_sides():
    w = Profile(np.array([-1.0, 1.0]), np.array([0.5, 0.5]),
                jumps=(Jump(0.0, 1.0, -1.0),))
    assert w.sample(-1e-9) == pytest.approx(1.0, abs=1e-6)
    assert w.sample(1e-9) == pytest.approx(-1.0, abs=1e-6)


def test_profile_from_solution_tags_the_standing_jump(target_profile):
    assert len(target_profile.jumps) == 1
    jump = target_profile.jumps[0]
    assert jump.x == 0.0
    assert jump.w_minus == pytest.approx(1.3352785604605129, abs=1e-6)
    assert jump.w_plus == pytest.approx(-jump.w_minus, abs=1e-12)


# ===== Footprints =====

def test_homogeneous_feet_match_the_closed_form(homog):
    xs = np.linspace(-3.0, 3.0, 301)
    w = Profile(xs, 0.3 * np.sin(xs))
    fm = footprint(homog, 2.0, w)
    expected = np.interp(fm.xs, xs, xs - 2.0 * 0.3 * np.sin(xs))
    assert np.max(np.abs(fm.feet - (fm.xs - 2.0 * fm.ws))) <= 1e-7
    assert np.max(np.abs(fm.feet - expected)) <= 1e-3


def test_constant_profile_is_monotone_in_homogeneous_mode(homog):
    xs = np.linspace(-2.0, 2.0, 101)
    fm = footprint(homog, 2.0, Profile(xs, np.full(101, 0.4)))
    report = monotone_test(fm)
    assert report.monotone
    assert not report.violations


def test_quartic_feet_are_monotone(target_footprint):
    report = monotone_test(target_footprint)
    assert report.monotone
    assert not report.violations
    assert len(report.gap_collapse) == 1
    assert abs(report.gap_collapse[0][1]) <= 1e-4


def test_flipped_profile_is_rejected(quartic, target_profile):
    flipped = Profile(target_profile.xs, -np.asarray(target_profile.ws))
    fm = footprint(quartic, 2.0, flipped)
    report = monotone_test(fm)
    assert not report.monotone
    assert len(report.violations) > 0
    with pytest.raises(NonMonotoneFeet):
        reconstruct_vertex(fm)


def test_backward_then_forward_returns_to_the_samples(quartic, target_footprint):
    idx = np.arange(0, target_footprint.xs.size, 40)
    Q, P = terminal_batch(quartic, target_footprint.feet[idx],
                             target_footprint.p0[idx], 2.0)
    assert np.max(np.abs(Q - target_footprint.xs[idx])) <= 1e-7
    assert np.max(np.abs(P - target_footprint.ws[idx])) <= 1e-7


# ===== Vertex reconstruction =====

def test_reconstructed_datum_is_the_two_state_step(target_footprint):
    rec = reconstruct_vertex(target_footprint)
    xs = np.linspace(-3.0, 3.0, 4001)
    step = np.where(xs < 0.0, -2.0, 2.0)
    assert l1_between(xs, rec.sample(xs), step) <= 0.05
    assert len(rec.jumps) == 1


def test_rarefaction_profile_reconstructs_its_step(homog):
    t = 1.5
    xs = np.linspace(-3.0, 3.0, 601)
    w = Profile(xs, np.clip(xs / t, -1.0, 1.0))
    fm = footprint(homog, t, w)
    rec = reconstruct_vertex(fm)
    assert len(rec.jumps) == 1
    jump = rec.jumps[0]
    assert jump.x == pytest.approx(0.0, abs=1e-6)
    assert jump.w_minus == pytest.approx(-1.0, abs=1e-3)
    assert jump.w_plus == pytest.approx(1.0, abs=1e-3)


def test_tied_feet_are_nudged_apart(quartic):
    """Feet that decrease by less than the monotone tolerance and carry
    no momentum sweep stay samples; the tie is nudged to a strictly
    increasing axis."""
    fm = FootprintMap(quartic, 1.0, np.arange(4.0), np.zeros(4),
                      np.array([0.0, 1.0, 1.0 - 1e-9, 2.0]),
                      np.array([0.5, 0.6, 0.6 + 1e-6, 0.7]))
    rec = reconstruct_vertex(fm)
    assert rec.xs.tolist() == [0.0, 1.0, 1.0 + 1e-12, 2.0]
    assert not rec.jumps


def test_a_datum_collapsed_into_its_jumps_is_refused_by_name(quartic):
    """At T = 2 every sample of [-2.5, 2.5] backtracks to within 1e-9 of
    the origin, so the vertex would be one tagged jump and no sample."""
    w = profile_from_solution(quartic, 2.0, np.linspace(-2.5, 2.5, 200))
    fm = footprint(quartic, 2.0, w)
    with pytest.raises(DomainError, match=r"202 feet collapse into 1 jumps"
                                          r".*wider than the collapse"):
        reconstruct_vertex(fm)


def test_shocked_profile_opens_a_positive_gap(homog):
    """A decreasing jump erases data: its feet straddle a cone whose
    width is the horizon times the jump size."""
    xs = np.linspace(-3.0, 3.0, 600)
    w = Profile(xs, np.where(xs < 0.0, 1.0, -1.0),
                jumps=(Jump(0.0, 1.0, -1.0),))
    fm = footprint(homog, 2.0, w)
    report = monotone_test(fm)
    assert report.monotone
    assert len(report.gap_collapse) == 1
    assert report.gap_collapse[0][1] == pytest.approx(4.0, abs=1e-6)


# ===== Round trips =====

def test_round_trip_from_the_target_profile(quartic, target_profile, target_footprint):
    rec = reconstruct_vertex(target_footprint)
    err = round_trip(quartic, 2.0, target_profile, (-3.0, 3.0),
                     reconstructed=rec)
    assert err < 0.08


def test_round_trip_of_the_rarefaction(homog):
    t = 1.5
    xs = np.linspace(-3.0, 3.0, 601)
    w = Profile(xs, np.clip(xs / t, -1.0, 1.0))
    fm = footprint(homog, t, w)
    rec = reconstruct_vertex(fm)
    assert round_trip(homog, t, w, (-3.0, 3.0), reconstructed=rec) < 0.05


def test_round_trip_of_the_stationary_profile(quartic):
    """With its jump at 0 tagged, the steady profile U is attainable at
    every horizon, as a steady state must be.  The gap between the
    extremal feet widens towards 2 with T (1.10 at T = 0.5, 1.96 at
    T = 10); the round trip's L1 error grows from 0.0036 to 0.0168, the
    split scheme's O(dx) imbalance building up."""
    xs = np.linspace(-3.0, 3.0, 1201)
    xs = xs[xs != 0.0]
    w = Profile(xs, asymptotic_profile(quartic, xs),
                jumps=(Jump(0.0, np.sqrt(2.0), -np.sqrt(2.0)),))
    gaps = []
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        fm = footprint(quartic, t, w)
        report = monotone_test(fm)
        assert report.monotone, t
        gaps.append(report.gap_collapse[0][1])
        rec = reconstruct_vertex(fm)
        assert round_trip(quartic, t, w, (-3.0, 3.0),
                          reconstructed=rec) < 0.025, t
    assert 1.0 < gaps[0] and np.all(np.diff(gaps) > 0.0) and gaps[-1] < 2.0


def test_full_report_pipeline(target_footprint, target_profile):
    report = design_report(target_footprint, target_profile, (-3.0, 3.0))
    assert report.monotone
    assert report.round_trip_l1 < 0.08
    payload = report.as_dict()
    assert payload["monotone"]
    assert payload["round_trip_l1"] < 0.08


# ===== Attainability with and without x-dependence =====

# Targets at horizon T = 2 on 801 samples of [-2.5, 2.5]: lines of slope
# below and above 1/T, the constant included, and a wave steeper than 1/T.
CONTRAST_T = 2.0
CONTRAST_XS = np.linspace(-2.5, 2.5, 801)
ADMITTED_SLOPES = (-1.0, -0.5, 0.0, 0.2, 0.45)
CONTRAST_TARGETS = {**{f"{a} x": a * CONTRAST_XS
                       for a in (*ADMITTED_SLOPES, 0.6)},
                    "sin(3x)/4": np.sin(3.0 * CONTRAST_XS) / 4.0}


def _oleinik(ws):
    """Oleinik's bound w(x) - w(y) <= (x - y)/T for every y < x, which
    decides attainability for an x-independent flux: w - x/T must not
    increase."""
    return bool(np.all(np.diff(ws - CONTRAST_XS / CONTRAST_T) <= 0.0))


def test_without_x_dependence_the_feet_decide_as_oleinik(homog):
    """Straight characteristics put the foot of x at x - T w(x), so the
    feet are monotone exactly where Oleinik's bound holds."""
    verdicts = {
        name: (monotone_test(footprint(homog, CONTRAST_T,
                                       Profile(CONTRAST_XS, ws))).monotone,
               _oleinik(ws))
        for name, ws in CONTRAST_TARGETS.items()}
    assert all(feet == bound for feet, bound in verdicts.values()), verdicts
    assert {bound for _, bound in verdicts.values()} == {True, False}


@pytest.mark.parametrize("a", ADMITTED_SLOPES)
def test_the_well_refuses_lines_oleinik_admits(quartic, a):
    """In the quartic well, orbits of different energies oscillate with
    different periods, so the backward characteristics of w = a x fold
    over each other: the target meets the x-independent bound, constant
    w = 0 included, yet no datum reaches it.  The design report stops
    after the monotone test, with no vertex and no round trip."""
    ws = a * CONTRAST_XS
    assert _oleinik(ws)
    w = Profile(CONTRAST_XS, ws)
    fm = footprint(quartic, CONTRAST_T, w)
    with pytest.raises(NonMonotoneFeet):
        reconstruct_vertex(fm)
    report = design_report(fm, w, (-3.0, 3.0))
    assert not report.monotone
    assert report.reconstructed is None and report.round_trip_l1 is None
    assert report.as_dict()["reconstructed_samples"] is None


@pytest.mark.parametrize("a", ADMITTED_SLOPES)
def test_lines_oleinik_admits_are_reached_without_x_dependence(homog, a):
    """Forward confirmation of the contrast: on the homogeneous model the
    vertex of w = a x evolves back onto w over the sampled interval (L1
    0.0089 at a = -1, 0 at a = 0, 0.0083 at a = 0.45)."""
    w = Profile(CONTRAST_XS, a * CONTRAST_XS)
    window = (CONTRAST_XS[0], CONTRAST_XS[-1])
    report = design_report(footprint(homog, CONTRAST_T, w), w, window)
    assert report.monotone and report.reconstructed is not None
    assert report.round_trip_l1 < 0.02


# ===== Ray fans =====

def test_quartic_rays_collide_between_the_extremals(quartic):
    trace = invert_half_period(quartic, 2.0)
    fan = ray_fan(quartic, 2.0, 0.0, trace, -trace, 9)
    assert fan.crossings or fan.exits
    assert all({i, j} != {0, 8} for i, j, _ in fan.crossings)


def test_two_ray_fan_never_crosses(quartic):
    trace = invert_half_period(quartic, 2.0)
    fan = ray_fan(quartic, 2.0, 0.0, trace, -trace, 2)
    assert not fan.crossings


def test_homogeneous_fan_fills_its_cone(homog):
    fan = ray_fan(homog, 2.0, 0.0, -2.0, 2.0, 9)
    assert not fan.crossings
    assert not fan.exits
    assert fan.fill_ratio() == pytest.approx(1.0, abs=0.05)
    steps = np.diff(fan.feet)
    assert np.all(steps != 0.0)
    assert np.all(np.sign(steps) == np.sign(steps[0]))


def test_fan_needs_two_rays(quartic):
    """And at most 1,000, since the pairwise crossing scan is quadratic in
    the count; 2.5 rays used to end in a raw TypeError."""
    for n_rays in (1, 2.5, 1001, True):
        with pytest.raises(DomainError, match="n_rays .* 2 to 1000"):
            ray_fan(quartic, 2.0, 0.0, -1.0, 1.0, n_rays)


def test_a_fan_past_the_crossing_ceiling_is_refused(quartic):
    """1,000 rays over t = 12 cross more than 2 million times; the call
    refuses once its list passes the ceiling instead of growing it until
    memory runs out (t = 50 used to run a minute into a MemoryError)."""
    trace = invert_half_period(quartic, 12.0)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="crosses itself more than"):
        ray_fan(quartic, 12.0, 0.0, trace, -trace, 1000)
    assert time.perf_counter() - start < 60.0


def test_a_fan_holds_its_record_and_two_scan_blocks(homog):
    """1,000 rays to t = 2 record 801 x 1,000 positions, 6.4 MB.  The fan
    keeps them and a row-major copy, and the scan of one ray against the
    later ones holds one block of differences and one scratch block, so
    the peak stays under 4.75 records.  Keeping the unread momentum
    record through the scan, with the differences of two rays alive at
    once, used to peak at 5.3 records."""
    tracemalloc.start()
    try:
        fan = ray_fan(homog, 2.0, 0.0, -2.0, 2.0, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not fan.crossings
    assert peak < 4.75 * fan.positions.nbytes


@pytest.mark.parametrize("t", [0.0, -1.0, np.inf, np.nan])
def test_fan_needs_a_positive_finite_horizon(quartic, t):
    """A backward fan over t <= 0 would run forward or not move."""
    with pytest.raises(DomainError):
        ray_fan(quartic, t, 0.0, -1.0, 1.0, 3)


# ===== Exports (written by the CLI) =====

def cli_csv(capsys, out, *argv):
    """Run one experiment; return its JSON document and its CSV lines."""
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    experiment = argv[argv.index("--experiment") + 1]
    stem = {"inverse": "inverse_footprint"}.get(experiment, experiment)
    doc = json.loads((out / f"{experiment}.json").read_text())
    return doc, (out / f"{stem}.csv").read_text().splitlines()


def test_footprint_csv_layout(capsys, tmp_path):
    doc, lines = cli_csv(capsys, tmp_path, "--experiment", "inverse",
                         "--n", "400")
    assert lines[:3] == ["# experiment=inverse", f"# config={doc['config']}",
                         f"# units={doc['units']}"]
    assert lines[3] == "x,w,foot,p0"
    # 400 samples plus both one-sided launches of the tagged jump
    assert len(doc["jump_tags"]) == 1
    assert len(lines) == 4 + 402


def test_rays_csv_layout(capsys, tmp_path):
    doc, lines = cli_csv(capsys, tmp_path, "--experiment", "rays",
                         "--n", "7")
    assert lines[:3] == ["# experiment=rays", f"# config={doc['config']}",
                         f"# units={doc['units']}"]
    assert lines[3] == "ray,t,q"
    assert len(lines) == 4 + 7 * 801
    assert {ln.split(",")[0] for ln in lines[4:]} == {str(k) for k in range(7)}


@pytest.mark.parametrize("xs, ws, jumps, match", [
    ([0.0, 1.0], [0.0], (), "matching"),
    ([1.0, 0.0], [0.0, 0.0], (), "increasing"),
    ([0.0, 1.0], [0.0, np.nan], (), "finite"),
    ([0.0, 1.0], [0.0, 0.0], (Jump(1.0, 1.0, -1.0),), "collides"),
    ([-0.5, 0.5], [0.5, -0.5], (Jump(0.0, 0.5, -0.5), Jump(0.0, 0.2, -0.2)),
     "two jumps are tagged at x=0.0"),
    ([-0.5, 0.5], [0.5, -0.5], (Jump(1e-12, 0.2, -0.2), Jump(0.0, 0.5, -0.5)),
     "two jumps are tagged at x=0.0 and x=1e-12"),
    ([-0.5, 5e-13], [0.5, -0.5], (Jump(0.0, 0.5, -0.5),), "collides")])
def test_profiles_refuse_malformed_samples(xs, ws, jumps, match):
    """Two jumps at one x used to share the footprint pair (1, 2), and
    ``sample`` interpolated on an axis that is not monotone, giving +-0.02
    at x = -+1e-13, neither jump's side value.  So did jumps or a sample
    closer than a tag's side points at x -+ 1e-12: the jumps at 0 and
    1e-12 below sampled 0.0 at x = 0, none of their side values."""
    with pytest.raises(DomainError, match=match):
        Profile(np.array(xs), np.array(ws), jumps)


def test_jumps_apart_sample_on_a_monotone_axis():
    """Jumps 1e-4 apart each keep their side values, and the profile
    between them falls as its samples and tags do."""
    w = Profile(np.array([-0.5, 0.5]), np.array([0.5, -0.5]),
                (Jump(1e-4, 0.2, 0.1), Jump(0.0, 0.4, 0.3)))
    x = np.concatenate([np.linspace(-0.5, 0.5, 2001),
                        [-1e-12, 1e-12, 1e-4 - 1e-12, 1e-4 + 1e-12]])
    x.sort()
    u = w.sample(x)
    assert np.all(np.diff(u) <= 0.0)
    np.testing.assert_allclose(w.sample([-1e-12, 1e-12, 1e-4 - 1e-12,
                                         1e-4 + 1e-12]),
                               [0.4, 0.3, 0.2, 0.1], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("t", [0.0, -1.0, np.inf])
def test_footprint_needs_a_positive_finite_horizon(quartic, t):
    w = Profile(np.array([0.5, 1.0]), np.array([-1.0, -0.5]))
    with pytest.raises(DomainError, match="horizon"):
        footprint(quartic, t, w)
