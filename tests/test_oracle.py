import ast
import dataclasses
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oscint3 import oracle, problems
from oscint3.asym import evaluate, expand, gamma_factor
from oscint3.oracle import (
    QuadratureSpec,
    SingularityTooClose,
    branch_power,
    gamma_tilde,
    kelvin_oracle,
    quad_contour_1d,
    quad_deformed_3d,
)


# ---------------------------------------------------------------------------
# 1D contour quadrature

def test_small_loop_simple_pole():
    loop = (("arc", 0j, 0.5, 0.0, 2 * np.pi),)
    v = quad_contour_1d(lambda w: 1.0 / w, loop)
    assert v == pytest.approx(2j * np.pi, abs=1e-10)


def test_indented_line_simple_pole_gaussian():
    # int e^{-w^2}/w over the indented-below line: pi*i + 0 (odd remainder)
    v = quad_contour_1d(lambda w: np.exp(-w * w) / w, gamma_tilde(T=8.0))
    assert v == pytest.approx(1j * np.pi, abs=1e-10)


@pytest.mark.parametrize("mu", [-1.5, -1.0, -0.5, 0.25, 0.5])
def test_contour_confirms_gamma_factor(mu):
    """The universal factor against a direct contour evaluation of
    int w^mu e^{iw} dw with the ends lifted into the upper half plane."""
    contour = gamma_tilde(r=0.5, T=40.0, H=40.0)
    if mu == -1.0:
        f = lambda w: 1.0 / w
    else:
        f = lambda w: branch_power(w, mu)
    v = quad_contour_1d(f, contour, lam=1.0)
    assert v == pytest.approx(gamma_factor(mu), rel=1e-10, abs=1e-10)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(R=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(n=17)
    with pytest.raises(ValueError):
        QuadratureSpec(taper=0.7)
    for R in (np.nan, np.inf):
        with pytest.raises(ValueError):
            QuadratureSpec(R=R)
    for n in (128.0, np.float64(128), 64.5, True, np.bool_(True)):
        with pytest.raises(ValueError):
            QuadratureSpec(n=n)
    for n in (np.int64(128), np.int32(64), 256):
        assert QuadratureSpec(n=n).n == n


# ---------------------------------------------------------------------------
# deformed 3D quadrature

def test_quad_deformed_gaussian_closed_form():
    prob, entry = problems.get_problem("gaussian-sp")
    lam = 20.0
    val, err = quad_deformed_3d(prob, lam, QuadratureSpec(R=6.0, n=224))
    want = entry.reference(prob, lam)
    assert abs(val - want) / abs(want) < 1e-5
    assert err < 1e-3 * abs(val)


@pytest.mark.parametrize("name", ["pole-sp", "double-cross"])
def test_quad_deformed_matches_factorized_reference(name):
    prob, entry = problems.get_problem(name)
    lam = 20.0
    val, _ = quad_deformed_3d(prob, lam, QuadratureSpec(R=6.0, n=256))
    want = entry.reference(prob, lam)
    assert abs(val - want) / abs(want) < 1e-4


def test_quad_deformed_window_independence():
    prob, entry = problems.get_problem("pole-sp")
    lam = 20.0
    a, _ = quad_deformed_3d(prob, lam, QuadratureSpec(R=6.0, n=256, taper=0.15))
    b, _ = quad_deformed_3d(prob, lam, QuadratureSpec(R=6.0, n=256, taper=0.25))
    assert abs(a - b) / abs(a) < 1e-4


def test_quad_deformed_rejects_undeformed_singular_domain():
    # without the imaginary shift the pole sheet meets the domain; depending
    # on where the nodes land this trips either the margin probe or the
    # convergence gate, and both are hard failures
    prob, _ = problems.get_problem("pole-sp")
    prob = dataclasses.replace(prob, eta=np.zeros(3))
    with pytest.raises((SingularityTooClose, oracle.NonConvergent)):
        quad_deformed_3d(prob, 20.0, QuadratureSpec(R=6.0, n=64))


def test_quad_deformed_agrees_with_asymptotics_gaussian():
    # independent cross-check of the whole pipeline at moderate frequency
    prob, _ = problems.get_problem("gaussian-sp")
    lam = 20.0
    val, _ = quad_deformed_3d(prob, lam, QuadratureSpec(R=6.0, n=224))
    asy = evaluate(expand(prob), lam, prob.prefactor)
    assert abs(val - asy) / abs(asy) < 3 / lam


# ---------------------------------------------------------------------------
# Kelvin residue oracle

def test_kelvin_oracle_zero_before_onset():
    for tau, lam in [(-10.0, 40.0), (-0.1, 80.0), (0.0, 40.0), (-0.0, 40.0)]:
        v = kelvin_oracle(2.0, 0.5, tau, lam)
        assert type(v) is float and v == 0.0, tau


def test_kelvin_oracle_real_and_symmetric():
    v = kelvin_oracle(2.0, 0.5, 10.0, 20.0)
    assert type(v) is float and v != 0.0
    w = kelvin_oracle(2.0, -0.5, 10.0, 20.0)
    assert w == pytest.approx(v, rel=1e-12)


# regression fixtures, frozen from this oracle at (z1, z2, tau) = (2, 0.5, 10)
KELVIN_FIXTURES = {
    20.0: 0.044300469155747604,
    40.0: -0.008431894138480804,
    80.0: 0.011446936593960986,
}


@pytest.mark.parametrize("lam,want", sorted(KELVIN_FIXTURES.items()))
def test_kelvin_oracle_regression(lam, want):
    v = kelvin_oracle(2.0, 0.5, 10.0, lam)
    assert v.real == pytest.approx(want, rel=1e-12)


def test_kelvin_residue_bookkeeping_against_line_quadrature():
    """At small lam*tau the frequency integral converges on a long shifted
    line; its value must match -2*pi*i times the residue sum used by the
    oracle."""
    x1, x2, lam, tau = 0.7, 0.4, 0.5, 1.0
    s2 = np.sqrt(x1 ** 2 + x2 ** 2)
    s = np.sqrt(s2)
    eps = 1e-3
    T = 300.0
    line = (("line", -T + 1j * eps, T + 1j * eps),)
    f = lambda w: x1 * w / ((w - x1) * (w * w - s2))
    direct = quad_contour_1d(f, line, lam=-lam * tau)
    res = (x1 ** 2 * np.exp(-1j * lam * x1 * tau) / (x1 ** 2 - s2)
           + x1 * np.exp(-1j * lam * s * tau) / (2 * (s - x1))
           - x1 * np.exp(1j * lam * s * tau) / (2 * (s + x1)))
    want = -2j * np.pi * res
    assert direct == pytest.approx(want, rel=2e-2)


# points where a node pair meets the pole-merge curve, so the rule is
# stretched by 1 + 1e-6; the values were frozen from a jitter that shifted the
# xi1 axis alone by +1e-6, which the stretched rule meets to 4.6e-10 and 1.1e-10
JITTER_FIXTURES = [
    ((2.0102272299088453, 1.4806968807572858, 10.0, 80.0), 0.2867122356489399),
    ((2.4049, 1.2683, 10.0, 40.0), -0.3382703170754144),
]


@pytest.mark.parametrize("z,want", JITTER_FIXTURES)
def test_kelvin_oracle_outward_jitter_near_axis_shift(z, want):
    X, _ = oracle._half_axis_rule(*z, oracle.KELVIN_QUAD)
    assert oracle._merge_collisions(X)
    assert abs(kelvin_oracle(*z) - want) < 1e-8


@pytest.mark.parametrize("z", [(2.0, 0.5, 10.0, 0.0), (2.0, 0.5, np.nan, 40.0),
                               (2.0, 0.5, 10.0, -40.0), (2.0, 0.5, 10.0, np.inf),
                               (np.inf, 0.5, 10.0, 40.0), (2.0, np.nan, 10.0, 40.0),
                               (2.0, 0.5, -np.inf, 40.0)])
def test_kelvin_oracle_rejects_bad_inputs_before_building_nodes(z, monkeypatch):
    def no_nodes(*args, **kwargs):
        pytest.fail("kelvin_oracle built nodes for a bad input")
    monkeypatch.setattr(oracle, "_axis_nodes", no_nodes)
    with pytest.raises(ValueError):
        kelvin_oracle(*z)


def test_kelvin_oracle_peak_memory():
    """The residue sum works in one small workspace per thread: at the far
    oracle-check point (3952 nodes per axis) the traced peak stays below
    40 MiB.  Each thread's workspace is eight real planes and one complex
    plane of B x N = 16 x 3952, 4.8 MiB."""
    tracemalloc.start()
    try:
        kelvin_oracle(5.5951072595724565, 1.1741763913499976, 10.0, 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_kelvin_oracle_node_refinement():
    # doubling n (which halves the panel width) moves the value very little
    a = kelvin_oracle(3.0, 1.5, 10.0, 40.0)
    b = kelvin_oracle(3.0, 1.5, 10.0, 40.0, QuadratureSpec(R=12.0, n=256))
    assert abs(a - b) < 1e-6 * max(abs(a), 1e-12) + 1e-9


# ---------------------------------------------------------------------------
# fast paths against the forms they replace

def _mirror(X, W):
    # the full axis of nodes and weights whose positive half is (X, W)
    return np.concatenate([-X[::-1], X]), np.concatenate([W[::-1], W])


def _every_pair_residue_sum(X, W, z1, z2, tau, lam) -> complex:
    # the plain sum over every node pair of the full axis whose positive
    # half is X, for xi1 and xi2, with three exponentials per pair
    X, W = _mirror(X, W)
    x1, x2 = X[:, None], X[None, :]
    s2 = np.sqrt(x1 ** 2 + x2 ** 2)
    s = np.sqrt(s2)
    K = (x1 ** 2 * np.exp(-1j * lam * x1 * tau) / (x1 ** 2 - s2)
         + x1 * np.exp(-1j * lam * s * tau) / (2 * (s - x1))
         - x1 * np.exp(1j * lam * s * tau) / (2 * (s + x1)))
    return np.sum(W[:, None] * W[None, :]
                  * np.exp(1j * lam * (x1 * z1 + x2 * z2)) * K)


def test_folded_residue_sum_matches_unfolded(monkeypatch):
    """The half-axis sum and the conjugated exponential against the plain
    sum over every node pair of the full axis with three exponentials, on
    the rule `_axis_nodes` builds as it stands (144 nodes, nine full blocks
    of 16), in one column tile per block and in tiles of 40 columns."""
    z1, z2, tau, lam = 2.0, 0.5, 3.0, 15.0
    X, W = oracle._axis_nodes(3.0, lam, tau, 4.0)
    assert len(X) > 2 * oracle.RESIDUE_ROWS    # more than one block of rows
    assert not oracle._merge_collisions(X)
    want = _every_pair_residue_sum(X, W, z1, z2, tau, lam)
    for cols in (oracle.RESIDUE_COLS, 40):
        monkeypatch.setattr(oracle, "RESIDUE_COLS", cols)
        got = oracle._residue_sum(X, W, z1, z2, tau, lam)
        assert abs(got - want) <= 1e-13 * abs(want), cols


def test_shared_residue_sum_matches_every_pair(monkeypatch):
    """The half-axis sum, the conjugated exponential and the direct and
    transposed tiles against the plain sum over every node pair of the full
    axis with three exponentials: 137 nodes (eight blocks of 16 and a short
    one of 9), tapered, nonuniform weights, in one column tile per block and
    in tiles of 40 columns, where a block's transposed tile starts inside a
    column tile and the last tile is short."""
    z1, z2, tau, lam = 2.0, 0.5, 3.0, 15.0
    X, W = oracle._axis_nodes(3.0, lam, tau, 4.0)
    X, W = X[:-7], W[:-7]
    W = W * oracle._taper(X, 3.0, 0.15) * (1 + 0.1 * X ** 2)
    assert len(X) % oracle.RESIDUE_ROWS and len(X) > 2 * oracle.RESIDUE_ROWS
    assert not oracle._merge_collisions(X)
    want = _every_pair_residue_sum(X, W, z1, z2, tau, lam)
    for cols in (oracle.RESIDUE_COLS, 40):
        monkeypatch.setattr(oracle, "RESIDUE_COLS", cols)
        got = oracle._residue_sum(X, W, z1, z2, tau, lam)
        assert abs(got - want) <= 1e-13 * abs(want), cols


TILE_POINTS = [
    ((5.5951072595724565, 1.1741763913499976, 10.0, 40.0), False),
    ((2.0102272299088453, 1.4806968807572858, 10.0, 80.0), True)]


def _tile_axis(z, jittered):
    # the (jittered) half-axis of the Kelvin rule at z, its squares, the
    # residue numerators and a workspace for the tiles
    z1, z2, tau, lam = z
    X0, W0 = oracle._half_axis_rule(z1, z2, tau, lam, oracle.KELVIN_QUAD)
    X, _ = oracle._jitter_collisions(X0, W0)
    assert (X is not X0) == jittered
    ws = oracle._residue_workspace(oracle.RESIDUE_ROWS, len(X))
    return X, X ** 2, X ** 2 * np.exp(-1j * lam * X * tau), ws


def _complex_residue_parts(x1, x2, lam, tau):
    # the complex residue sum whose parts the real-arithmetic kernel forms
    s2 = np.sqrt(x1 ** 2 + x2 ** 2)
    s = np.sqrt(s2)
    E = np.exp(-1j * lam * s * tau)
    t1 = x1 ** 2 * np.exp(-1j * lam * x1 * tau) / (x1 ** 2 - s2)
    pp = x1 * E / (2 * (s - x1))
    pm = -x1 * E.conj() / (2 * (s + x1))
    row = t1 + pp + pm
    return row.real, row.imag


def _equal_parts(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("z,jittered", TILE_POINTS)
def test_residue_block_matches_complex_form(z, jittered):
    """The direct tile of every block, rows X[I] against the columns
    j >= i0, against the complex residue sums it replaces, bit for bit: at
    the far oracle-check point and at a point whose rule is stretched, on
    the stretched axis, which still has node pairs next to the pole-merge
    curve."""
    lam, tau = z[3], z[2]
    X, Xsq, num, ws = _tile_axis(z, jittered)
    B = oracle.RESIDUE_ROWS
    for i0 in range(0, len(X), B):
        I = slice(i0, i0 + B)
        s2, s, E = oracle._pair_planes(ws, Xsq[I, None], Xsq[i0:], lam, tau)
        got = oracle._residue_parts(ws, X[I, None], Xsq[I, None], num[I, None],
                                    s2, s, E)
        want = _complex_residue_parts(X[I, None], X[None, i0:], lam, tau)
        assert _equal_parts(got, want), i0


def test_transposed_tile_matches_complex_form():
    """The transposed tile of every block, rows X[J], J = [i0 + B, N),
    against the columns X[I], against the complex residue sums of its rows,
    bit for bit, at both points of the direct-tile test: the tile reads the
    planes `_pair_planes` formed for the direct tile and hands `tile` the
    transposes of its parts."""
    for z, jittered in TILE_POINTS:
        lam, tau = z[3], z[2]
        X, Xsq, num, ws = _tile_axis(z, jittered)
        B, N = oracle.RESIDUE_ROWS, len(X)
        for i0 in range(0, N - B, B):
            I, J = slice(i0, i0 + B), slice(i0 + B, N)
            s2, s, E = oracle._pair_planes(ws, Xsq[I, None], Xsq[i0:], lam, tau)
            got = oracle._residue_parts(ws, X[None, J], Xsq[None, J],
                                        num[None, J], s2[:, B:], s[:, B:], E[:, B:])
            want = _complex_residue_parts(X[J, None], X[None, I], lam, tau)
            assert _equal_parts((p.T for p in got), want), (z, i0)


def _unfolded_x1_residue_sum(X, W, z1, z2, tau, lam) -> complex:
    # the residue sum over the half-axis X, W with the x2 fold only: every
    # x1 row of the full axis, in blocks of 256 rows
    X1, W1 = _mirror(X, W)
    u = W1 * np.exp(1j * lam * X1 * z1)
    v = 2 * W * np.cos(lam * X * z2)
    B = 256

    def rows(i0, _):
        x1 = X1[i0:i0 + B, None]
        s2 = np.sqrt(x1 ** 2 + X ** 2)
        s = np.sqrt(s2)
        E = np.exp(-1j * lam * s * tau)
        # analytic across the collision curves x1 = +-s
        t1 = x1 ** 2 * np.exp(-1j * lam * x1 * tau) / (x1 ** 2 - s2)
        pp = x1 * E / (2 * (s - x1))
        pm = -x1 * E.conj() / (2 * (s + x1))
        return u[i0:i0 + B] @ (t1 + pp + pm) @ v

    return oracle._ordered_sum(rows, range(0, len(X1), B), lambda: None)


def test_x1_fold_matches_unfolded_rows():
    """The +-x1 fold against the sum that forms every x1 row of the full
    axis, on 345 positive rows (21 blocks of 16 and a short one of 9) with
    tapered, nonuniform weights."""
    z1, z2, tau, lam = 2.0, 0.5, 3.0, 20.0
    X, W = oracle._axis_nodes(6.0, lam, tau, 4.0)
    X, W = X[:-7], W[:-7]
    W = W * oracle._taper(X, 6.0, 0.15) * (1 + 0.1 * X ** 2)
    assert len(X) == 345 and len(X) % oracle.RESIDUE_ROWS
    got = oracle._residue_sum(X, W, z1, z2, tau, lam)
    want = _unfolded_x1_residue_sum(X, W, z1, z2, tau, lam)
    assert abs(got - want) <= 1e-14 * abs(want)


def _serial_quad_grid(problem, lam, spec, n):
    # the slab loop of the tensor rule, written out on one thread
    xg, wg = np.polynomial.legendre.leggauss(n)
    x = spec.R * xg
    w = spec.R * wg * oracle._taper(x, spec.R, spec.taper)
    x23 = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    w23 = np.outer(w, w)
    total = 0j
    for i in range(n):
        pts = np.empty(x23.shape[:-1] + (3,), dtype=complex)
        pts[..., 0] = x[i]
        pts[..., 1] = x23[..., 0]
        pts[..., 2] = x23[..., 1]
        pts += 1j * problem.eta
        vals = problem.amplitude.value_vec(pts) * np.exp(1j * lam * problem.G.value(pts))
        total += w[i] * np.sum(w23 * vals)
    return complex(problem.prefactor) * total


def _without_splits(prob):
    # the same problem with every split declaration removed, so that the
    # tensor rule evaluates every factor on the slabs
    plain = lambda f: dataclasses.replace(f, split=None)
    amp = prob.amplitude
    return dataclasses.replace(prob, G=plain(prob.G), amplitude=dataclasses.replace(
        amp, smooth_factor=plain(amp.smooth_factor),
        components=tuple(dataclasses.replace(c, g=plain(c.g)) for c in amp.components)))


@pytest.mark.parametrize("name,lam,R", [("pole-sp", 20.0, 6.0), ("cone", 30.0, 3.0),
                                        ("gaussian-sp", 20.0, 6.0),
                                        ("double-cross", 20.0, 6.0)])
def test_quad_grid_two_workers_equal_serial_loop(name, lam, R):
    # on the problems without their splits, so every slab is evaluated
    prob = _without_splits(problems.get_problem(name)[0])
    spec = QuadratureSpec(R=R, n=64)
    assert oracle._quad_grid(prob, lam, spec, 64) == _serial_quad_grid(prob, lam, spec, 64)


def test_ordered_sum_hands_each_part_its_threads_workspace():
    """More keys than threads: workspace() runs at most once per thread,
    each part gets the object its own thread made, and the total has the
    bits of the serial key-order sum, on parts whose sum depends on the
    order."""
    vals = [complex(v, -v) for v in (1e16, 1.0, -1e16, 1.0) * 8]
    made, runs, lock = [], [], threading.Lock()

    def workspace():
        ws = object()
        with lock:
            made.append((threading.get_ident(), ws))
        return ws

    def part(k, ws):
        time.sleep(1e-3)
        with lock:
            runs.append((threading.get_ident(), ws))
        return vals[k]

    got = oracle._ordered_sum(part, range(len(vals)), workspace)
    serial = 0j
    for v in vals:
        serial += v
    backward = 0j
    for v in reversed(vals):
        backward += v
    assert len(vals) > oracle.WORKERS and serial != backward
    assert got == serial
    threads = [t for t, _ in made]
    assert len(threads) == len(set(threads)) and set(threads) == {t for t, _ in runs}
    assert all(ws is dict(made)[t] for t, ws in runs)


def _half_power_plane():
    # pole-sp with its plane at mu = -1/2: a branch power on one axis
    prob, _ = problems.get_problem("pole-sp")
    (plane,) = prob.amplitude.components
    return dataclasses.replace(prob, amplitude=dataclasses.replace(
        prob.amplitude, components=(dataclasses.replace(plane, mu=-0.5),)))


# case: (problem, Lambda, spec); triple-cross at Lambda = 10, since at 20
# its 256-node rule is under-resolved on either path
FACTORED_CASES = {
    name: (lambda name=name: problems.get_problem(name)[0], lam, QuadratureSpec(R=R, n=n))
    for name, lam, R, n in (("gaussian-sp", 20.0, 6.0, 224), ("pole-sp", 20.0, 6.0, 256),
                            ("double-cross", 20.0, 6.0, 256),
                            ("triple-cross", 10.0, 6.0, 256), ("cone", 30.0, 3.0, 384))}
FACTORED_CASES["pole-sp-half-power"] = (_half_power_plane, 20.0, QuadratureSpec(R=6.0, n=256))


@pytest.mark.parametrize("case", sorted(FACTORED_CASES))
def test_factored_rule_matches_slab_path(case):
    """The rule factored along the declared splits against the slab loop on
    the same problem without them: value to 1e-12 relative; the error
    estimate to 1e-6 relative, or to 2e-12 of the value where it sits at the
    rounding floor of the two rules (the cone's is 9e-11 at n = 384)."""
    build, lam, spec = FACTORED_CASES[case]
    prob = build()
    val, err = quad_deformed_3d(prob, lam, spec)
    want, want_err = quad_deformed_3d(_without_splits(prob), lam, spec)
    assert abs(val - want) <= 1e-12 * abs(want)
    assert abs(err - want_err) <= max(1e-6 * want_err, 2e-12 * abs(want))


def test_quad_deformed_rejects_small_n_before_building_nodes(monkeypatch):
    """With n < 48 the (n-32)-node rule would have fewer than 16 nodes (at
    n = 16 the rule was compared with itself and passed with err 0)."""
    def no_nodes(*args, **kwargs):
        pytest.fail("quad_deformed_3d built nodes for n < 48")
    monkeypatch.setattr(oracle, "leggauss", no_nodes)
    monkeypatch.setattr(oracle, "_check_singularity_margin", no_nodes)
    prob, _ = problems.get_problem("cone")
    for n in (16, 32, 46):
        with pytest.raises(oracle.NonConvergent):
            quad_deformed_3d(prob, 30.0, QuadratureSpec(R=3.0, n=n))


def _collides_brute(X, tol):
    s = (X[:, None] ** 2 + X[None, :] ** 2) ** 0.25
    return bool(np.any(np.abs(X[:, None] - s) < tol))


def test_merge_collisions_match_brute_force_scan():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(200):
        X2 = rng.uniform(0, 4, rng.integers(1, 60))
        X1 = rng.uniform(0, 3, rng.integers(1, 60))
        # put a few xi1 nodes within a few tol of the curve through some xi2
        k = rng.integers(0, 3)
        y = rng.choice(X2, k)
        a = np.sqrt((1 + np.sqrt(1 + 4 * y * y)) / 2)     # a^4 - a^2 = y^2
        X1[:k] = a + rng.uniform(-3e-8, 3e-8, k)
        X = np.union1d(X1, X2)                             # one sorted axis
        want = _collides_brute(X, 1e-8)
        hits += want
        assert oracle._merge_collisions(X) == want
    assert 0 < hits < 200


A_QUARTER = np.sqrt((1 + np.sqrt(2.0)) / 2)              # a^4 - a^2 = 0.5^2


def test_jitter_shifts_a_node_on_the_merge_curve():
    """A colliding rule comes back stretched by 1 + 1e-6, nodes and
    weights; a clear one comes back as the same objects."""
    X = np.array([0.3, 0.5, A_QUARTER, 2.0])
    W = np.array([0.1, 0.2, 0.3, 0.4])
    assert _collides_brute(X, 1e-8)
    Xj, Wj = oracle._jitter_collisions(X, W)
    np.testing.assert_array_equal(Xj, X * (1 + 1e-6))
    np.testing.assert_array_equal(Wj, W * (1 + 1e-6))
    clear = np.array([0.3, 0.5, 1.7, 2.0])
    Xc, Wc = oracle._jitter_collisions(clear, W)
    assert Xc is clear and Wc is W


def test_jitter_that_cannot_clear_raises():
    # the stretch carries the first and third nodes onto a colliding pair
    a = A_QUARTER
    X = np.array([0.5 / (1 + 1e-6), 0.5, a / (1 + 1e-6), a])
    with pytest.raises(oracle.PoleCollision):
        oracle._jitter_collisions(X, np.ones(4))


def test_oracle_imports_no_asymptotic_code():
    """The oracles stay independent of what they check: oracle.py imports
    nothing from detect, asym, kelvin or problems."""
    banned = {"detect", "asym", "kelvin", "problems"}
    tree = ast.parse(Path(oracle.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""] + [f"{node.module or ''}.{a.name}"
                                         for a in node.names]
        else:
            continue
        found += [m for m in mods if banned & set(m.split("."))]
    assert not found, f"oracle.py imports {found}"
