import tracemalloc

import numpy as np
import pytest

from oscint3.asym import evaluate, expand
from oscint3.kelvin import (
    MASK_INVALID,
    MASK_TRANSIENT,
    MASK_WAVE,
    SEARCH_RADIUS,
    WEDGE_SLOPE,
    DegenerateFamily,
    KelvinParams,
    MergeProximity,
    _wave_families,
    field_map,
    field_point,
    kelvin_problem,
    kelvin_wave_terms,
    render_wavefronts,
    transient_term,
)
from wake_curve import curve_L, curve_L_tangent, ray_frequencies


# ---------------------------------------------------------------------------
# crossing-curve geometry

def test_curve_L_endpoints_and_branches():
    assert curve_L(1.0) == pytest.approx([1.0, 0.0, 1.0])
    w = np.sqrt(1.5)
    p = curve_L(w, branch=-1)
    assert p[1] == pytest.approx(-np.sqrt(w ** 4 - w ** 2))
    with pytest.raises(ValueError):
        curve_L(0.5)
    with pytest.raises(ValueError):
        curve_L_tangent(1.0)


def test_curve_L_lies_on_both_pole_surfaces():
    for w in (1.1, 1.5, 2.0, 3.0):
        x1, x2, wv = curve_L(w)
        assert wv == pytest.approx(x1)                     # pole line
        assert wv ** 2 == pytest.approx(np.hypot(x1, x2))  # dispersion quadric


def test_curve_L_tangent_matches_finite_difference():
    h = 1e-6
    for w in (1.2, 1.7, 2.5):
        fd = (curve_L(w + h) - curve_L(w - h)) / (2 * h)
        t = curve_L_tangent(w)
        # parallel: cross product vanishes
        assert np.linalg.norm(np.cross(fd, t)) < 1e-6 * np.linalg.norm(fd)


def test_stationary_frequencies_merge_at_wedge_boundary():
    # at the boundary ratio the discriminant vanishes only to roundoff, so
    # each family is sqrt(3/2) to about sqrt(eps); their geometric mean
    # cancels the roundoff branch and is clean
    w1, w2 = ray_frequencies(WEDGE_SLOPE)
    assert w1 == pytest.approx(np.sqrt(1.5), abs=1e-7)
    assert w2 == pytest.approx(np.sqrt(1.5), abs=1e-7)
    assert np.sqrt(w1 * w2) == pytest.approx(np.sqrt(1.5), abs=1e-13)


def test_stationary_frequencies_interior_values():
    lam = 0.25
    w1, w2 = ray_frequencies(lam)
    rd = np.sqrt(1 - 8 * lam ** 2)
    den = 2 * np.sqrt(2) * lam
    assert w1 == pytest.approx(np.sqrt(4 * lam ** 2 + 1 + rd) / den, rel=1e-14)
    assert w2 == pytest.approx(np.sqrt(4 * lam ** 2 + 1 - rd) / den, rel=1e-14)
    assert w1 > np.sqrt(1.5) > w2 > 1


def test_stationary_frequencies_limits_and_domain():
    w1, w2 = ray_frequencies(1e-4)
    assert w2 == pytest.approx(1.0, abs=1e-6)
    assert w1 > 1e3
    assert np.all(np.isnan(ray_frequencies(0.5)))


def test_stationarity_along_curve():
    """grad(G) is orthogonal to the curve tangent exactly at the two
    stationary frequencies; this is the inverse identity between lam and w."""
    rng = np.random.default_rng(3)
    tau = 10.0
    for lam in rng.uniform(0.02, WEDGE_SLOPE - 1e-3, size=100):
        z1 = rng.uniform(0.5, 6.0)
        z2 = lam * (tau - z1)
        gG = np.array([z1, z2, -tau])
        for w in ray_frequencies(lam):
            # the branch with xi2 matching the sign of z2 is the stationary one
            t = curve_L_tangent(w, branch=+1 if z2 > 0 else -1)
            assert abs(gG @ t) < 1e-9 * np.linalg.norm(gG) * np.linalg.norm(t)


def test_wedge_test_examples():
    # 0.3 < 1/(2*sqrt(2)) at (0, 3); (11, 0) is ahead of the body; the wedge
    # is mirror symmetric in z2
    inside = _wave_families(np.array([5.0, 0.0, 0.0, 11.0, 2.0]),
                            np.array([0.5, 3.0, 4.0, 0.0, -2.0]), 10.0).inside
    assert inside.tolist() == [True, True, False, False, True]


# ---------------------------------------------------------------------------
# closed-form terms

def test_wave_terms_outside_wedge_empty():
    assert kelvin_wave_terms(KelvinParams(0.0, 4.0, 10.0, 40.0)) == []
    assert kelvin_wave_terms(KelvinParams(11.0, 0.5, 10.0, 40.0)) == []


def test_wave_terms_inside_wedge():
    terms = kelvin_wave_terms(KelvinParams(2.0, 2.0, 10.0, 40.0))
    assert 1 <= len(terms) <= 2
    for t in terms:
        assert t.power == -0.5
        assert t.phase0 < 0       # trailing waves lag the body


def test_transient_term_values():
    t = transient_term(KelvinParams(3.0, 4.0, 10.0, 40.0))
    assert t is not None
    assert t.power == -1.0
    assert t.phase0 == pytest.approx(-5.0)     # -tau^2/(4r) with r = 5


def test_transient_term_causality():
    assert transient_term(KelvinParams(3.0, 4.0, -10.0, 40.0)) is None
    assert transient_term(KelvinParams(3.0, 4.0, 0.0, 40.0)) is None


def test_transient_merge_proximity_raises():
    # 2r^2 = tau*z1 exactly: z1 = 2, tau = 10, r = sqrt(10)
    z1, tau = 2.0, 10.0
    z2 = np.sqrt(10.0 - z1 ** 2)
    with pytest.raises(MergeProximity):
        transient_term(KelvinParams(z1, z2, tau, 40.0))


def test_closed_form_agrees_with_generic_path():
    """The hand-derived frames and the generic detect/classify/expand pipeline
    are two independent derivations of the same field."""
    rng = np.random.default_rng(11)
    tau, lam = 10.0, 40.0
    checked = 0
    while checked < 6:
        # the acceptance region: small slopes put the diverging crossing point
        # and small r the transient far out, where the search box must follow
        z1 = rng.uniform(1.0, 6.0)
        lam_c = rng.uniform(0.1, WEDGE_SLOPE - 0.02)
        z2 = lam_c * (tau - z1)
        r = np.hypot(z1, z2)
        if abs(2 * r - tau * z1 / r) < 0.05:
            continue                       # transient merge neighborhood
        cf = field_point(z1, z2, tau, lam)
        p = kelvin_problem(z1, z2, tau)
        total = evaluate(expand(p), lam, p.prefactor)
        generic = float(np.real(total))
        assert generic == pytest.approx(cf, abs=1e-8 * max(1.0, abs(cf)))
        checked += 1


@pytest.mark.parametrize("z2", [0.0, 1e-300])
def test_kelvin_problem_degenerate_bound_keeps_least_box(z2):
    # on the track the bound is infinite; at z2 = 1e-300 its square
    # overflows: both give the least half-width, without a warning
    box = kelvin_problem(2.5, z2, 10.0).search_region
    assert np.array_equal(box.hi, np.full(3, SEARCH_RADIUS))
    assert np.array_equal(box.lo, -box.hi)


# ---------------------------------------------------------------------------
# field synthesis and rendering

def test_field_point_real_and_mirror_symmetric():
    v = field_point(3.0, 1.5, 10.0, 40.0)
    assert np.isfinite(v)
    assert field_point(3.0, -1.5, 10.0, 40.0) == pytest.approx(v)


def test_field_map_masks():
    g = field_map(np.linspace(-3, 7, 21), np.linspace(-3, 3, 15), 10.0, 40.0)
    assert g.values.shape == (21, 15)
    assert np.all(np.isfinite(g.values))
    j0 = np.argmin(np.abs(g.z2_axis))          # the z2 ~ 0 strip
    assert np.all(g.mask[:, j0] & MASK_INVALID)
    # ahead of the body: transient only
    i, j = 0, 2                                 # z1 = -3, z2 = -2.14...
    assert g.mask[i, j] == MASK_TRANSIENT
    # deep wedge sample carries both families
    i = np.argmin(np.abs(g.z1_axis - 4.0))
    j = np.argmin(np.abs(g.z2_axis - 0.9))
    assert g.mask[i, j] == MASK_WAVE | MASK_TRANSIENT


def test_field_map_mirror_symmetry():
    z2 = np.array([-1.5, -0.8, 0.8, 1.5])
    g = field_map(np.linspace(1, 5, 9), z2, 10.0, 40.0)
    assert np.allclose(g.values[:, :2], g.values[:, :1:-1])
    assert np.array_equal(g.mask[:, :2], g.mask[:, :1:-1])


def test_field_map_matches_field_point():
    ax1, ax2 = np.linspace(-3, 7, 11), np.linspace(-3, 3, 7)
    g = field_map(ax1, ax2, 10.0, 40.0)
    for i, a in enumerate(ax1):
        for j, b in enumerate(ax2):
            if not g.mask[i, j] & MASK_INVALID:
                assert g.values[i, j] == field_point(a, b, 10.0, 40.0)


def test_field_map_masked_samples_are_zero():
    g = field_map([2.0], [np.sqrt(10.0 - 4.0)], 10.0, 40.0)   # merge curve
    assert g.mask[0, 0] & MASK_INVALID
    assert g.values[0, 0] == 0.0


def _reference_mask(a, b, tau):
    """The per-sample mask rules of field_map, one sample at a time."""
    if abs(b) < 0.05 or np.hypot(a, b) < 0.05:
        return MASK_INVALID
    m = 0
    p = KelvinParams(a, abs(b), tau)
    if _wave_families(a, abs(b), tau).inside[0]:
        if WEDGE_SLOPE - abs(b) / (tau - a) < 0.02:
            m |= MASK_INVALID
        else:
            try:
                if kelvin_wave_terms(p):
                    m |= MASK_WAVE
            except DegenerateFamily:
                m |= MASK_INVALID
    if not m & MASK_INVALID:
        try:
            if transient_term(p) is not None:
                m |= MASK_TRANSIENT
        except MergeProximity:
            m |= MASK_INVALID
    return m


@pytest.mark.parametrize("tau", [10.0, 0.0, -1.0])
def test_grid_matches_per_sample_reference(tau):
    """Grid masks equal the per-sample rules, and the fronts equal
    cos(Lambda*G*) built from the frequencies at each sample's ray slope.
    The z1 = 2 row meets the tau = 10 merge curve 2r^2 = tau*z1 at
    z2 = sqrt(6), where the wave bit stays on an invalid sample (mask 5)."""
    lam = 40.0
    z1 = np.linspace(-3, 11, 29)                      # holds 2.0 and 10.0
    z2 = np.append(np.linspace(-3, 3, 25), np.sqrt(6.0))
    g = field_map(z1, z2, tau, lam)
    ref = np.array([[_reference_mask(a, b, tau) for b in z2] for a in z1])
    assert np.array_equal(g.mask, ref)
    if tau == 10.0:
        assert g.mask[10, -1] == MASK_WAVE | MASK_INVALID
    for fam in (1, 2):
        want = np.full(g.mask.shape, np.nan)
        for i, a in enumerate(z1):
            for j, b in enumerate(z2):
                if _wave_families(a, abs(b), tau).inside[0] and abs(b) >= 1e-12:
                    w = ray_frequencies(abs(b) / (tau - a))[fam - 1]
                    want[i, j] = np.cos(lam * w ** 3 * (a - tau) / (2 * w ** 2 - 1))
        np.testing.assert_allclose(render_wavefronts(z1, z2, tau, lam)[fam - 1],
                                   want, rtol=0, atol=1e-9)


def test_grid_through_body_track_and_origin():
    """Samples at z1 = tau, z2 = 0 and the origin are masked without a
    RuntimeWarning (an error under the pytest configuration)."""
    z1, z2 = np.array([-1.0, 0.0, 5.0, 10.0, 12.0]), np.array([-1.0, 0.0, 1.0])
    g = field_map(z1, z2, 10.0, 40.0)
    assert np.all(np.isfinite(g.values))
    assert np.all(g.mask[:, 1] == MASK_INVALID)
    for img in render_wavefronts(z1, z2, 10.0, 40.0):
        assert np.all(np.isnan(img[:, 1])) and np.all(np.isnan(img[3:]))


def test_render_wavefronts_range_and_wedge():
    z1 = np.linspace(-2, 8, 30)
    z2 = np.linspace(-3, 3, 21)
    for img in render_wavefronts(z1, z2, 10.0, 40.0):
        inside = np.isfinite(img)
        assert np.any(inside)
        assert np.all(np.abs(img[inside]) <= 1.0)
        for i, a in enumerate(z1):
            for j, b in enumerate(z2):
                if not _wave_families(a, abs(b), 10.0).inside[0]:
                    assert np.isnan(img[i, j])
        # mirror symmetry in z2
        assert np.array_equal(np.isnan(img), np.isnan(img[:, ::-1]))


def test_render_wavefronts_peak_memory():
    """The fronts read only the wave families' crests (wedge test,
    frequencies, crest phase), not their terms or the transient: on the
    300 x 200 grid the traced peak stays below 8 MiB (6.0 MiB; 13.8 MiB when
    the families' terms were formed too, 17.5 MiB with the transient, for a
    result of 0.9 MiB)."""
    z1, z2 = np.linspace(0, 14, 300), np.linspace(-5, 5, 200)
    tracemalloc.start()
    try:
        render_wavefronts(z1, z2, 10.0, 80.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_transverse_front_spacing_near_axis():
    """Close to the track the transverse family approaches wavelength
    2*pi/Lambda in z1 (w2 -> 1 so G* -> z1 - tau)."""
    lam, tau = 40.0, 30.0
    z1 = np.linspace(2.0, 8.0, 4001)
    img = render_wavefronts(z1, [0.2], tau, lam)[1, :, 0]
    s = np.sign(img)
    crossings = np.nonzero(s[1:] * s[:-1] < 0)[0]
    spacing = np.mean(np.diff(z1[crossings]))
    assert 2 * spacing == pytest.approx(2 * np.pi / lam, rel=0.05)
