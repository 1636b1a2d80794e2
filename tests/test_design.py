"""Inverse design: footprints, vertex reconstruction and ray fans."""
from __future__ import annotations

import itertools
import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetclaw.charsol import asymptotic_profile
from hetclaw.cli import main
from hetclaw.design import (
    COLLAPSE_TOL,
    FootprintMap,
    Jump,
    Profile,
    _crossings_after,
    design_report,
    footprint,
    monotone_test,
    profile_from_solution,
    ray_fan,
    reconstruct_vertex,
    round_trip,
)
from hetclaw.errors import DomainError, HetclawError, NonMonotoneFeet
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


# ===== The bookkeeping's loop references =====
# The loops the array bookkeeping replaced, kept as first written: the
# library must give their every bit on drawn profiles, feet and fans.

def _inserted_sample(w, x):
    """Profile.sample by inserting each tag's side points one at a time."""
    xp, vp = w.xs, w.ws
    for j in w.jumps:
        k = np.searchsorted(xp, j.x)
        xp = np.insert(xp, k, (j.x - 1e-12, j.x + 1e-12))
        vp = np.insert(vp, k, (j.w_minus, j.w_plus))
    return np.interp(np.asarray(x, dtype=float), xp, vp)


def _sorted_launches(w):
    """footprint's launch axis: (x, w) tuples sorted by x, each tag's
    minus side then found by searchsorted."""
    launches = [(x, v) for x, v in zip(w.xs, w.ws)]
    for j in w.jumps:
        launches.append((j.x, j.w_minus))
        launches.append((j.x, j.w_plus))
    launches.sort(key=lambda pair: pair[0])
    xs = np.array([x for x, _ in launches])
    ws = np.array([v for _, v in launches])
    pairs = []
    for j in w.jumps:
        i = int(np.searchsorted(xs, j.x))
        pairs.append((i, i + 1))
    return xs, ws, tuple(pairs)


def _scanned_vertex(fm):
    """reconstruct_vertex past its monotone test, runs found by a nested
    while scan."""
    feet = np.maximum.accumulate(fm.feet)
    p0 = fm.p0
    keep_x, keep_w, jumps = [], [], []
    i = 0
    n = feet.size
    while i < n:
        j = i
        while j + 1 < n and feet[j + 1] - feet[j] <= COLLAPSE_TOL:
            j += 1
        if j > i and abs(p0[j] - p0[i]) > 10.0 * COLLAPSE_TOL:
            jumps.append(Jump(float(np.mean(feet[i:j + 1])),
                              float(p0[i]), float(p0[j])))
        else:
            for k in range(i, j + 1):
                keep_x.append(feet[k])
                keep_w.append(p0[k])
        i = j + 1
    if len(keep_x) < 2:
        raise DomainError(f"{n} feet collapse into {len(jumps)} jumps, "
                          f"leaving {len(keep_x)} samples; sample the "
                          f"target wider than the collapse")
    xs = np.array(keep_x)
    ws = np.array(keep_w)
    for k in range(1, xs.size):
        if xs[k] <= xs[k - 1]:
            xs[k] = xs[k - 1] + 1e-12
    return Profile(xs, ws, tuple(jumps))


def _listed_crossings(fan, tol=1e-6):
    """The fan's crossings accumulated as one list of tuples."""
    rays = fan.positions.T.copy()
    crossings = []
    for i in range(rays.shape[0] - 1):
        j, s = _crossings_after(rays, i, fan.times, tol)
        crossings.extend(zip(itertools.repeat(i), j.tolist(), s.tolist()))
    return tuple(crossings)


def _looped_exits(fan, tol=1e-6):
    """The fan's exits found ray by ray."""
    positions, times = fan.positions, fan.times
    lo = np.minimum(positions[:, 0], positions[:, -1]) - tol
    hi = np.maximum(positions[:, 0], positions[:, -1]) + tol
    exits = []
    for k in range(1, positions.shape[1] - 1):
        out = np.nonzero((positions[:, k] < lo) | (positions[:, k] > hi))[0]
        out = out[(times[out] > 0.0) & (times[out] < fan.horizon)]
        if out.size:
            exits.append((k, float(times[out[0]])))
    return tuple(exits)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _same_profile(a, b):
    """Two profiles equal to the bit; repr tells -0.0 from 0.0 and keeps
    every digit of a float."""
    np.testing.assert_array_equal(_bits(a.xs), _bits(b.xs))
    np.testing.assert_array_equal(_bits(a.ws), _bits(b.ws))
    assert repr(a.jumps) == repr(b.jumps)


def _drawn_profile(rng):
    """2 to 12 samples and 0 to 3 tags, in no order, on distinct slots of
    a 0.1 grid over [-2, 2], scaled by 1 or by 1e5, where a tag's side
    points x -+ 1e-12 round onto x itself.  Half the profiles with tags
    tag the slot at 0, half of those at -0.0."""
    n, m = int(rng.integers(2, 13)), int(rng.integers(0, 4))
    picks = rng.permutation(41)[:n + m]
    if m and rng.random() < 0.5:
        picks[picks == 20] = picks[0]
        picks[0] = 20
    slots = np.arange(-20.0, 21.0) * 0.1 * rng.choice([1.0, 1e5])
    tags = [Jump(-0.0 if x == 0.0 and rng.random() < 0.5 else float(x),
                 *rng.uniform(-2.0, 2.0, 2).tolist())
            for x in slots[picks[:m]]]
    return Profile(np.sort(slots[picks[m:]]), rng.uniform(-2.0, 2.0, n),
                   tuple(tags))


@settings(deadline=5000, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_the_merged_axis_matches_the_insert_and_sort_loops(quartic, seed):
    """Sampling a drawn profile, at its samples, its tags, their side
    points and uniform draws, and launching its footprint give the
    loops' every bit: the same axis, the same jump pairs as Python ints
    and, with a tag at -0.0 launched as -0.0, the same feet."""
    rng = np.random.default_rng(seed)
    w = _drawn_profile(rng)
    tags = np.array([j.x for j in w.jumps])
    x = np.concatenate([w.xs, tags, tags - 1e-12, tags + 1e-12,
                        rng.uniform(w.xs[0] - 1.0, w.xs[-1] + 1.0, 50)])
    np.testing.assert_array_equal(_bits(w.sample(x)),
                                  _bits(_inserted_sample(w, x)))
    t = float(rng.uniform(0.1, 1.0))
    fm = footprint(quartic, t, w)
    xs, ws, pairs = _sorted_launches(w)
    np.testing.assert_array_equal(_bits(fm.xs), _bits(xs))
    np.testing.assert_array_equal(_bits(fm.ws), _bits(ws))
    assert repr(fm.jump_pairs) == repr(pairs)
    feet, p0 = terminal_batch(quartic, xs, ws, -t)
    np.testing.assert_array_equal(_bits(fm.feet), _bits(feet))
    np.testing.assert_array_equal(_bits(fm.p0), _bits(p0))


def test_a_tag_at_negative_zero_launches_from_negative_zero(quartic):
    """x + 0.0 is +0.0 for a tag at -0.0: the footprint takes its tags as
    they are, so both sides launch from -0.0."""
    w = Profile(np.array([-1.0, 1.0]), np.array([0.5, -0.5]),
                (Jump(-0.0, 0.4, -0.4),))
    fm = footprint(quartic, 1.0, w)
    assert _bits(fm.xs).tolist() == _bits([-1.0, -0.0, -0.0, 1.0]).tolist()
    assert fm.jump_pairs == ((1, 2),)


def _drawn_feet(rng):
    """Feet in runs of 1 to 5, steps inside a run drawn from a tie (0), a
    fall within the monotone tolerance, a rise up to COLLAPSE_TOL and
    COLLAPSE_TOL itself; runs 2e-4 to 0.5 apart.  The first run starts
    at 0 half the time, so that a first step of COLLAPSE_TOL is exact.
    Each run's momenta sweep by 0 to 0.01, across the 1e-3 that makes a
    run a jump."""
    feet, p0 = [], []
    foot = float(rng.uniform(-2.0, 2.0)) if rng.random() < 0.5 else 0.0
    for _ in range(int(rng.integers(1, 9))):
        size = int(rng.integers(1, 6))
        steps = rng.choice([0.0, -1e-9, COLLAPSE_TOL, -1.0], size - 1)
        steps[steps == -1.0] = rng.uniform(0.0, COLLAPSE_TOL,
                                           int(np.sum(steps == -1.0)))
        feet.extend(foot + np.concatenate([[0.0], np.cumsum(steps)]))
        p0.extend(rng.uniform(-1.0, 1.0)
                  + np.linspace(0.0, rng.choice([0.0, 1e-4, 0.01]), size))
        foot = feet[-1] + float(rng.uniform(2e-4, 0.5))
    return np.array(feet), np.array(p0)


@settings(deadline=5000, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_collapse_runs_match_the_while_scanner(quartic, seed):
    """Drawn feet with collapse runs, ties to nudge and falls within the
    monotone tolerance give the scanner's profile to the bit, or its
    refusal word for word."""
    feet, p0 = _drawn_feet(np.random.default_rng(seed))
    fm = FootprintMap(quartic, 1.0, np.arange(feet.size, dtype=float),
                      np.zeros(feet.size), feet, p0)
    try:
        expected = _scanned_vertex(fm)
    except DomainError as refusal:
        with pytest.raises(DomainError) as caught:
            reconstruct_vertex(fm)
        assert str(caught.value) == str(refusal)
        return
    _same_profile(reconstruct_vertex(fm), expected)


def test_vertices_of_real_footprints_match_the_while_scanner(
        homog, target_footprint):
    """The t = 2 target's footprint and the homogeneous rarefaction's, each
    collapsing one run into its jump."""
    xs = np.linspace(-3.0, 3.0, 601)
    rarefaction = footprint(homog, 1.5, Profile(xs, np.clip(xs / 1.5,
                                                            -1.0, 1.0)))
    for fm in (target_footprint, rarefaction):
        rec = reconstruct_vertex(fm)
        assert len(rec.jumps) == 1
        _same_profile(rec, _scanned_vertex(fm))


@settings(deadline=5000, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_fan_bookkeeping_matches_the_loops(quartic, homog, seed, trapping):
    """Drawn fans of either model, 2 to 40 rays from x0 in [-0.5, 0.5]
    over t in [0.5, 4], momenta falling from [0.2, 1.4] to [-1.4, -0.2]
    as across the standing jump, give the listed crossings and the
    looped exits to the bit.  Most quartic fans cross and exit; no
    homogeneous fan does."""
    rng = np.random.default_rng(seed)
    model = quartic if trapping else homog
    fan = ray_fan(model, float(rng.uniform(0.5, 4.0)),
                  float(rng.uniform(-0.5, 0.5)), rng.uniform(0.2, 1.4),
                  -rng.uniform(0.2, 1.4), int(rng.integers(2, 41)))
    assert repr(fan.crossings) == repr(_listed_crossings(fan))
    assert repr(fan.exits) == repr(_looped_exits(fan))


def test_a_crossing_fan_matches_the_loops(quartic):
    """60 rays between the standing traces at t = 3 both cross and exit."""
    trace = invert_half_period(quartic, 3.0)
    fan = ray_fan(quartic, 3.0, 0.0, trace, -trace, 60)
    assert len(fan.crossings) > 100 and len(fan.exits) > 10
    assert repr(fan.crossings) == repr(_listed_crossings(fan))
    assert repr(fan.exits) == repr(_looped_exits(fan))


def test_a_refused_fan_is_refused_from_its_count(quartic):
    """The t = 12 fan is refused from its running count of crossings, as
    arrays, before any tuple is built: the traced peak stays under 60 MB
    (55 MB read), against 273 MB when it counted a list of tuples.  Its
    positions record alone is 801 x 1,000 doubles, 6.4 MB."""
    trace = invert_half_period(quartic, 12.0)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="crosses itself more than"):
            ray_fan(quartic, 12.0, 0.0, trace, -trace, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


# t spans refusals (<= 0, not finite, past the step budget) and horizons
# that march; the budget admits up to about t = 1e3, where one march runs
# for tens of seconds, so the marching draws stop at 12.
_HORIZONS = st.one_of(st.floats(-1.0, 12.0),
                      st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan,
                                       1e3, 1e4, 1e300]))
_VALUES = st.floats(-10.0, 10.0)


@settings(deadline=5000, max_examples=60)
@given(st.booleans(), _HORIZONS,
       st.lists(st.tuples(st.floats(-5.0, 5.0), _VALUES), min_size=2,
                max_size=30, unique_by=lambda pair: pair[0]),
       st.lists(st.tuples(_VALUES, _VALUES), max_size=3), st.booleans())
def test_footprint_and_vertex_return_finite_or_refuse(
        quartic, homog, trapping, t, samples, sides, falling):
    """Any profile of 2 to 30 samples in [-5, 5] with up to 3 tags between
    them, its values falling in x or in drawn order, at any horizon of
    either model: the footprint is finite or refused, and so is its
    vertex, with a HetclawError.  Falling values keep the homogeneous
    feet in order, so many draws reach a vertex."""
    samples.sort()
    xs = np.array([x for x, _ in samples])
    ws = np.array([v for _, v in samples])
    mids = (xs[:-1] + xs[1:]) / 2.0
    tags = tuple(Jump(float(x), a, b) for x, (a, b) in zip(mids, sides))
    try:
        w = Profile(xs, np.sort(ws)[::-1] if falling else ws, tags)
        fm = footprint(quartic if trapping else homog, t, w)
    except HetclawError:
        return
    assert np.all(np.isfinite(fm.feet)) and np.all(np.isfinite(fm.p0))
    try:
        rec = reconstruct_vertex(fm)
    except HetclawError:
        return
    assert np.all(np.isfinite(rec.xs)) and np.all(np.isfinite(rec.ws))
    assert all(np.isfinite([j.x, j.w_minus, j.w_plus]).all()
               for j in rec.jumps)


@settings(deadline=5000, max_examples=40)
@given(st.booleans(), _HORIZONS, st.floats(-5.0, 5.0), _VALUES, _VALUES,
       st.integers(0, 60))
def test_ray_fan_returns_finite_or_refuses(quartic, homog, trapping, t, x0,
                                           p_left, p_right, n_rays):
    """Any fan of up to 60 rays from x0 in [-5, 5] with edge momenta in
    [-10, 10], at any horizon, is finite or refused with a
    HetclawError."""
    try:
        fan = ray_fan(quartic if trapping else homog, t, x0, p_left,
                      p_right, n_rays)
    except HetclawError:
        return
    assert np.all(np.isfinite(fan.positions))
    assert np.all(np.isfinite([s for _, _, s in fan.crossings]))
    assert np.all(np.isfinite([s for _, s in fan.exits]))


@pytest.mark.parametrize("trapping", [True, False])
def test_far_horizons_are_refused_with_warnings_as_errors(
        quartic, homog, target_profile, trapping):
    """A footprint or fan at t = 1e300 is refused by the step budget, with
    no overflow warning on the way there."""
    model = quartic if trapping else homog
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="needs more than"):
            footprint(model, 1e300, target_profile)
        with pytest.raises(DomainError, match="needs more than"):
            ray_fan(model, 1e300, 0.0, 1.0, -1.0, 10)
