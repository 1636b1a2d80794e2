"""Potential definitions, derivative consistency and flat tails."""
from __future__ import annotations

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from hetclaw.errors import DomainError
from hetclaw.flow import integrate, integrate_batch
from hetclaw.model import HamiltonianModel, MODELS


# ===== Potential values =====

def test_quartic_well_shape(quartic):
    assert quartic.g(0.0) == 0.0
    assert quartic.g(1.0) == pytest.approx(1.0, abs=1e-15)
    assert quartic.g(-1.0) == pytest.approx(1.0, abs=1e-15)
    assert quartic.g(2.0) == 1.0
    assert quartic.g(-7.3) == 1.0


def test_quartic_well_matches_reference_form(quartic):
    """The factored evaluation must agree with the naive one everywhere."""
    x = np.linspace(-1.0, 1.0, 4001)
    naive = 1.0 - (1.0 - x**2) ** 4
    assert np.max(np.abs(quartic.g(x) - naive)) < 1e-15


def test_quartic_well_even(quartic):
    x = np.linspace(0.0, 2.5, 997)
    np.testing.assert_array_equal(quartic.g(x), quartic.g(-x))


def test_gradient_odd_and_flat_outside(quartic):
    x = np.linspace(0.0, 0.999, 500)
    np.testing.assert_allclose(quartic.g_prime(-x), -quartic.g_prime(x),
                               rtol=0.0, atol=0.0)
    assert quartic.g_prime(1.0) == 0.0
    assert quartic.g_prime(3.7) == 0.0
    assert quartic.g_prime(-12.0) == 0.0


def test_gradient_against_finite_differences(quartic):
    """Central differences converge at second order to the closed form."""
    x = np.linspace(-0.98, 0.98, 211)
    errs = {}
    for h in (1e-3, 1e-4):
        fd = (quartic.g(x + h) - quartic.g(x - h)) / (2.0 * h)
        errs[h] = np.max(np.abs(quartic.g_prime(x) - fd))
    c = errs[1e-3] / 1e-6
    assert errs[1e-4] <= 1.5 * c * 1e-8
    assert errs[1e-3] < 1e-4


def test_curvature_at_origin(quartic):
    fd = (quartic.g(1e-4) - 2.0 * quartic.g(0.0) + quartic.g(-1e-4)) / 1e-8
    assert fd == pytest.approx(8.0, abs=1e-4)


def _force_probes():
    """Signed zeros, the rim, the flat tails, infinities, NaN, a grid
    over the well and uniform draws inside it."""
    edge = [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 1.0 - 2.0**-53,
            -1.0 + 2.0**-53, 1.0 + 2.0**-52, 5e-324, -5e-324, 1e-200]
    rng = np.random.default_rng(7)
    return np.concatenate([edge, np.linspace(-1.5, 1.5, 3001),
                           rng.uniform(-1.0, 1.0, 1000)])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_force_is_the_negated_gradient_to_the_bit(name):
    """The scalar march reads the force one float at a time and the batch
    march through ``out``; both must be the array force to the bit, and
    g_prime its negation: signed zeros, the rim, the flat tails,
    infinities and NaN included."""
    model = MODELS[name]()
    x = _force_probes()
    want = model.force(x)
    out = np.full_like(x, 7.0)
    model.force(x, out)
    floats = [model.force(float(v)) for v in x]
    for got in (out, floats):
        np.testing.assert_array_equal(_bits(got), _bits(want))
    np.testing.assert_array_equal(_bits(model.g_prime(x)), _bits(-want))


def test_a_force_that_writes_other_bits_is_refused(quartic):
    """The batch march reads the force through ``out`` and everything else
    through its return value; construction names the first probe where
    the two part."""
    def force(x, out=None):
        if out is None:
            return quartic.force(x)
        np.multiply(np.where(x > 0.5, 1.5, 1.0), quartic.force(x), out=out)

    with pytest.raises(DomainError, match="'steep': force\\(x, out\\) "
                       "writes other bits") as err:
        dataclasses.replace(quartic, name="steep", force=force)
    x = float(re.search(r"at x=(\S+)$", str(err.value)).group(1))
    assert 0.5 < x < 0.53


# sha256 of both models' forces and gradients on the probes and of their
# scalar and batch marches below; a change to a model's formulas or to
# either RK4 kernel that moves any bit moves it
MODEL_DIGEST = \
    "265a9a06e54a22b1479406a14b434a281c64f3daf7b9746ac50ab236bfd89f99"


def test_the_force_and_its_marches_keep_their_bits():
    """force(x, out), g_prime on arrays and on floats, one scalar
    trajectory and 300 seeded batch launches (signed zeros and the rim
    among them) marched forward, backward and with retirement hash to
    the pinned digest."""
    x = _force_probes()
    rng = np.random.default_rng(29)
    q0 = np.concatenate([[0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 1.0, -1.0],
                         rng.uniform(-2.5, 2.5, 292)])
    p0 = np.concatenate([[0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.5, 0.5],
                         rng.uniform(-2.0, 2.0, 292)])
    digest = hashlib.sha256()
    for name in sorted(MODELS):
        model = MODELS[name]()
        out = np.full_like(x, 7.0)
        model.force(x, out)
        traj = integrate(model, 0.0, 1.2, 8.0)
        parts = [out, model.g_prime(x), [model.g_prime(float(v)) for v in x],
                 traj.times, traj.q, traj.p, [traj.drift],
                 *integrate_batch(model, q0, p0, np.linspace(0.0, 2.5, 11)),
                 *integrate_batch(model, q0, p0, [0.0, -0.7, -1.9]),
                 *integrate_batch(model, q0, p0, np.linspace(0.0, 3.0, 7),
                                  retire=True)]
        for part in parts:
            digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
    assert digest.hexdigest() == MODEL_DIGEST


# ===== Hamiltonian accessors =====

def test_hamiltonian_split(quartic):
    p = np.array([-2.0, -0.5, 0.0, 1.3])
    x = 0.4
    np.testing.assert_allclose(quartic.h(x, p), p**2 / 2.0 + quartic.g(x))


def test_hamiltonian_even_in_momentum(quartic):
    p = np.linspace(0.0, 2.0, 41)
    np.testing.assert_array_equal(quartic.h(0.3, p), quartic.h(0.3, -p))


def test_separatrix_momentum(quartic, homog):
    assert quartic.separatrix_momentum == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert homog.separatrix_momentum == 0.0


def test_homogeneous_is_flat(homog):
    x = np.linspace(-5.0, 5.0, 101)
    assert np.all(homog.g(x) == 0.0)
    assert np.all(homog.g_prime(x) == 0.0)


# ===== Chord slope and the gap below the flat level =====

def _mp_chord(mp, d, d_top):
    """60-digit chord slope of the quartic well between depths d >= d_top
    below the cutoff, or g' where they merge.  With y = d (2 - d),
    g(1 - d) = 1 - y**4."""
    d, d_top = mp.mpf(d), mp.mpf(d_top)
    if d == d_top:
        return 8 * (1 - d) * (d * (2 - d)) ** 3
    y, yt = d * (2 - d), d_top * (2 - d_top)
    return ((1 - yt**4) - (1 - y**4)) / (d - d_top)


def test_quartic_chord_slope_is_exact_to_rounding(quartic):
    """The quadratures' precision rests on the chord slope; it must hold
    next to the cutoff, where g itself rounds to 1, as the two points
    merge, and anywhere in between."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    d_cut = np.geomspace(1e-12, 0.999, 200)
    top = rng.uniform(0.0, 0.99, 200)
    wide = np.sort(rng.uniform(0.0, 1.0, (200, 2)), axis=1)
    cases = {
        "at the cutoff": (d_cut, np.zeros_like(d_cut)),
        "1e-9 apart": (top + 1e-9, top),
        "merged": (top, top),
        "random": (wide[:, 1], wide[:, 0]),
    }
    with mp.workdps(60):
        for name, (d, d_top) in cases.items():
            got = quartic.chord_slope(d, d_top)
            want = np.array([float(_mp_chord(mp, a, b))
                             for a, b in zip(d, d_top)])
            rel = np.abs(got - want) / np.abs(want)
            assert np.max(rel) <= 1e-14, (name, np.max(rel))
        # the gap below the flat level, 1 - g(1 - d) = (d (2 - d))**4
        got = quartic.below_flat(d_cut)
        want = np.array([float((mp.mpf(d) * (2 - mp.mpf(d))) ** 4)
                         for d in d_cut])
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_homogeneous_chord_is_exact_zero(homog):
    """Zeros in the broadcast shape of the two depths."""
    for d, d_top in [(0.3, 0.0), (np.zeros(3)[:, None], np.zeros(4)),
                     (np.linspace(0.0, 1.0, 5), 0.2)]:
        slope = homog.chord_slope(d, d_top)
        assert slope.shape == np.broadcast(d, d_top).shape
        assert np.all(slope == 0.0)
    assert np.all(homog.below_flat(np.linspace(0.0, 2.0, 9)) == 0.0)


def test_registry_contents():
    assert set(MODELS) == {"quartic", "homogeneous"}
    assert MODELS["quartic"]().cutoff == 1.0


# ===== Flat tails and derivative consistency =====

def _assert_flat_and_consistent(model, xs):
    """g = flat_value and g' = 0 past the cutoff, and g' within 1e-6 of a
    central difference of g (step 1e-5) everywhere, the cutoff included."""
    tails = xs[np.abs(xs) > model.cutoff]
    assert np.all(model.g(tails) == model.flat_value)
    assert np.all(model.g_prime(tails) == 0.0)
    fd = (model.g(xs + 1e-5) - model.g(xs - 1e-5)) / 2e-5
    assert np.max(np.abs(fd - model.g_prime(xs))) <= 1e-6


def test_assumptions_hold_for_the_quartic_well(quartic):
    _assert_flat_and_consistent(quartic, np.linspace(-2.0, 2.0, 1001))


def test_assumptions_hold_for_homogeneous(homog):
    _assert_flat_and_consistent(homog, np.linspace(-2.0, 2.0, 1001))


def test_unbounded_potential_is_flagged():
    """A potential that keeps growing outside the cutoff is not admissible:
    free flight past the cutoff would not be straight."""
    with pytest.raises(DomainError,
                       match="'linear': tail is not flat at x=-4.0"):
        HamiltonianModel(name="linear", g=lambda x: np.abs(np.asarray(x, dtype=float)),
                         force=lambda x, out=None: np.negative(np.sign(x), out=out),
                         chord_slope=lambda d, d_top: np.ones(np.broadcast(d, d_top).shape),
                         cutoff=1.0, flat_value=1.0)


def _tilted_g(x):
    y = 1.0 - x * x
    return np.where(y > 0.0, 1.0 - y**4 * (1.0 + 0.5 * x), 1.0)


def _tilted_force(x, out=None):
    y = 1.0 - x * x
    slope = 8.0 * x * y**3 * (1.0 + 0.5 * x) - 0.5 * y**4
    return np.negative(np.where(y > 0.0, slope, 0.0), out=out)


def test_an_uneven_well_is_refused():
    """The solution's odd reflections and the mirrored batch march take g
    to be even.  A well tilted by 1 + x/2 inside the cutoff and flat past
    it, with its own force, used to be built and solved as if it were
    even; construction names the first probe where g(-x) != g(x)."""
    with pytest.raises(DomainError,
                       match="'tilted': g is not even at x=") as err:
        HamiltonianModel(name="tilted", g=_tilted_g, force=_tilted_force,
                         chord_slope=lambda d, d_top: np.ones(
                             np.broadcast(d, d_top).shape),
                         cutoff=1.0, flat_value=1.0)
    x = float(re.search(r"at x=(\S+);", str(err.value)).group(1))
    assert 0.9 < abs(x) < 1.0
