"""Independent numerical evaluation of the integrals, for validation only.

Three oracles, none of which shares code with the asymptotic machinery:

* quad_deformed_3d: tensor-product Gauss-Legendre over the shifted copy of
  R^3, with optional cosine taper; its error estimate is the difference
  between the n-node and the (n-32)-node rules.  The rule factors along the
  axes where the fields split (`ScalarField3.split`): a factor of one
  coordinate is evaluated once per axis and folded into that axis's
  weights, so a fully separable integrand costs three 1D sums.  The factors
  left over are evaluated on slabs of the grid, run on two threads and
  added in slab order.
* quad_contour_1d: adaptive quadrature of f(w) e^{i*Lambda*w} along a
  piecewise contour in one complex variable; used to verify the universal
  factor I(mu) and to build the factorized references of the canonical
  test problems.  Those are not exact: their indentation has a fixed
  radius, on which |e^{i*Lambda*w}| grows with Lambda, and at Lambda = 80
  they are off by up to 2e-5 relative.
* kelvin_oracle: residue reduction in the frequency variable followed by a
  graded-panel 2D quadrature on the positive half-axes xi1 > 0 and xi2 > 0,
  each node standing for itself and its mirror; independent reference for
  the ship-wake field, which is real.  The residue sum is formed in real
  arithmetic, in tiles of node pairs (`_residue_sum`).

Both threaded oracles hand their parts to `_ordered_sum`, which adds them
in key order and gives each part the workspace of the thread it runs on,
made once per thread per call: the tensor rule's slab points, the residue
sum's buffers.
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .core import NumericFailure, ProblemSpec

__all__ = [
    "SingularityTooClose",
    "NonConvergent",
    "PoleCollision",
    "QuadratureSpec",
    "gamma_tilde",
    "quad_contour_1d",
    "quad_deformed_3d",
    "kelvin_oracle",
]

QUAD_LIMIT = 400               # subintervals per segment for scipy's quad
MARGIN_PROBES = 40             # probe points per axis of the singularity check
SINGULARITY_MARGIN = 1e-3      # least |g| allowed on the shifted grid
RAD_PER_PANEL = 24.0           # phase advance per Gauss-Legendre panel
PANEL_NODES = 16               # Gauss-Legendre nodes per panel
# the wake prefactor i/(8 pi^3) times -2*pi*i, restated: the oracle imports no kelvin code
RESIDUE_FACTOR = 1 / (4 * np.pi ** 2)
WORKERS = 2                    # threads of `_ordered_sum`; fixed, never one per part
COLLISION_TOL = 1e-8           # least distance of a node pair from the pole-merge curve
RESIDUE_ROWS = 16              # x1 rows per part of the Kelvin residue sum
RESIDUE_COLS = 4096            # x2 columns per tile of a part: bounds its workspace


class SingularityTooClose(NumericFailure):
    pass


class NonConvergent(NumericFailure):
    pass


class PoleCollision(NumericFailure):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor quadrature parameters: truncation radius, nodes per axis (an
    even integer >= 16, a Python or numpy int), cosine-window taper fraction
    (0 for none).  The contour's shift is the problem's own eta.
    `kelvin_oracle` reads n as a panel-density scale instead: it divides
    the base width of its graded panels by n/128."""

    R: float = 8.0
    n: int = 128
    taper: float = 0.15

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, not {self.n!r}")
        if not (np.isfinite(self.R) and self.R > 0) or self.n < 16 or self.n % 2:
            raise ValueError("need a finite R > 0 and even n >= 16")
        if not 0 <= self.taper <= 0.5:
            raise ValueError("taper fraction in [0, 0.5]")


KELVIN_QUAD = QuadratureSpec(R=12.0, n=128)   # kelvin_oracle's default nodes


# ---------------------------------------------------------------------------
# 1D contours: a contour is a tuple of segments, ("line", a, b) or
# ("arc", center, radius, th0, th1), in path order

def gamma_tilde(r: float = 0.5, T: float = 30.0, H: float = 0.0) -> tuple:
    """Real line indented around 0 by a semicircle below; optional vertical
    end legs up to height H (for integrands that need the ends pushed into
    the decaying half-plane)."""
    segs = []
    if H > 0:
        segs.append(("line", -T + 1j * H, -T + 0j))
    segs.append(("line", -T + 0j, -r + 0j))
    segs.append(("arc", 0j, r, np.pi, 2 * np.pi))
    segs.append(("line", r + 0j, T + 0j))
    if H > 0:
        segs.append(("line", T + 0j, T + 1j * H))
    return tuple(segs)


def quad_contour_1d(f: Callable[[complex], complex], contour: tuple,
                    lam: float = 0.0) -> complex:
    """Adaptive quadrature of f(w) * exp(i*lam*w) along the contour.

    Multivalued integrands supplied through `f` should use `branch_power`,
    whose cut sits just below the positive real axis (arg in
    (-3*pi/2, pi/2]), matching the indented-below contour convention.
    """
    total = 0j
    for seg in contour:
        if seg[0] == "line":
            _, a, b = seg

            def h(t, a=a, b=b):
                w = a + (b - a) * t
                return f(w) * np.exp(1j * lam * w) * (b - a)
        else:
            _, c, r, t0, t1 = seg

            def h(t, c=c, r=r, t0=t0, t1=t1):
                th = t0 + (t1 - t0) * t
                w = c + r * np.exp(1j * th)
                return f(w) * np.exp(1j * lam * w) * 1j * r * np.exp(1j * th) * (t1 - t0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re, ere = quad(lambda t: np.real(h(t)), 0, 1, limit=QUAD_LIMIT)
            im, eim = quad(lambda t: np.imag(h(t)), 0, 1, limit=QUAD_LIMIT)
        if max(ere, eim) > 1e-4 * max(1.0, abs(complex(re, im))):
            raise NonConvergent("1D contour quadrature did not converge")
        total += complex(re, im)
    return total


def branch_power(w, mu: float):
    """w^mu on the branch matching the indented-below contour: the argument
    has its cut just below the positive real axis, (-3pi/2, pi/2]."""
    a = np.angle(w)
    a = np.where(a > np.pi / 2, a - 2 * np.pi, a)
    return np.abs(w) ** mu * np.exp(1j * mu * a)


# ---------------------------------------------------------------------------
# deformed 3D quadrature

def _taper(x: np.ndarray, R: float, t: float) -> np.ndarray:
    a = (1 - t) * R
    y = np.ones_like(x)
    m = np.abs(x) > a
    if t > 0:
        y[m] = 0.5 * (1 + np.cos(np.pi * (np.abs(x[m]) - a) / (R - a)))
    return y


def quad_deformed_3d(problem: ProblemSpec, lam: float,
                     spec: QuadratureSpec) -> tuple[complex, float]:
    """Tensor-product Gauss-Legendre integral over the shifted domain
    R^3 + i*eta, with the cosine taper of `spec`.

    Returns (value, error) where the error is the difference between the
    n-node rule and the (n-32)-node rule; Gauss-Legendre converges
    spectrally once the oscillation is resolved, so a small node offset is a
    sensitive detector of an under-resolved integrand.  Raises NonConvergent,
    before any node is built, for n < 48, where the smaller rule would have
    fewer than 16 nodes, and when the two rules differ by more than 1e-3 of
    the value.  Each rule factors along the axes where the fields declare a
    split (`_quad_grid`); the factors left over are evaluated on slabs of
    n^2 nodes, one call per slab, two slabs at once (`_ordered_sum`), with
    the same bits as one thread.
    """
    if spec.n < 48:
        raise NonConvergent(f"n = {spec.n} < 48 leaves no n-32 node rule to compare with")
    _check_singularity_margin(problem, spec.R)
    coarse = _quad_grid(problem, lam, spec, spec.n - 32)
    fine = _quad_grid(problem, lam, spec, spec.n)
    err = abs(fine - coarse)
    if err > 1e-3 * max(abs(fine), 1e-300):
        raise NonConvergent(f"n vs n-32 node difference {err:.3e} "
                            f"vs value {abs(fine):.3e}")
    return fine, err


def _check_singularity_margin(problem: ProblemSpec, R: float) -> None:
    if not problem.amplitude.components:
        return
    ax = np.linspace(-R, R, MARGIN_PROBES)
    X = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).astype(complex)
    X += 1j * problem.eta
    for c in problem.amplitude.components:
        if np.min(np.abs(c.g(X))) < SINGULARITY_MARGIN:
            raise SingularityTooClose(
                f"|{c.label}| < {SINGULARITY_MARGIN} on the shifted grid")


def _ordered_sum(part: Callable[[int, Any], complex], keys,
                 workspace: Callable[[], Any]) -> complex:
    """The sum of part(k, ws) over keys, added in key order as a serial
    loop would, so the bits do not depend on the threads.  The parts run on
    WORKERS threads; numpy's ufuncs release the GIL, so they overlap.

    ws is the workspace of the thread that runs the part: workspace() makes
    it when that thread runs its first part of this call, and the thread's
    later parts get the same object, so a part may overwrite any buffer in
    it.  This is the one place where the oracles make per-thread buffers."""
    local = threading.local()

    def run(key):
        if not hasattr(local, "ws"):
            local.ws = workspace()
        return part(key, local.ws)

    total = 0j
    with ThreadPoolExecutor(WORKERS) as pool:
        for p in pool.map(run, keys):
            total += p
    return total


def _quad_grid(problem: ProblemSpec, lam: float, spec: QuadratureSpec,
               n: int) -> complex:
    """The n-node tensor rule of w e^{i*lam*G} N prod g^mu, factored along
    the axes where the fields split (`ScalarField3.split`).

    Each factor that depends on one coordinate is evaluated once on that
    axis's shifted nodes t_k = x + i*eta_k and folded into the axis weights
    u_k: e^{i*lam*G_k} for a G that is a sum, N_k for an N that is a
    product, and g^mu (principal power, as in `AmplitudeSpec.value_vec`)
    for a g with one part.  Every other factor is a slab factor: a g that
    is a sum over two or more axes is g_1[i] + (g_2 + g_3) on slab i, from a
    plane built once, and any other field is evaluated with `value` on the
    slab points.  With no slab factor the rule is (sum u_1)(sum u_2)(sum u_3).

    Otherwise one slab of the first axis is one part of `_ordered_sum`.  One
    loop applies the slab factors, in the order of `AmplitudeSpec.value_vec`
    and then e^{i*lam*G}: a division for mu = -1, an in-place power
    otherwise, in the arrays the evaluators return (as fresh arrays), so a
    problem that declares no split gets the bits of the plain slab loop.
    The slab points are the thread's workspace (`_ordered_sum`), stored
    coordinate-major, (3, n, n), and handed to the evaluators as their
    (n, n, 3) view, so each xi[..., k] they read is contiguous; the (x2, x3)
    planes are written once, and a slab sets only its x1 plane.  When no
    slab factor reads the points, there is no workspace."""
    xg, wg = leggauss(n)
    x = spec.R * xg
    w = spec.R * wg * _taper(x, spec.R, spec.taper)
    t = [x + 1j * e for e in problem.eta]          # the volume form of a shift is 1
    u = [w, w, w]
    G, N = problem.G, problem.amplitude.smooth_factor

    def fold(k, v, mu=1):
        u[k] = u[k] * (1 / v if mu == -1 else np.power(v, mu))

    factors = []                    # (evaluator on slab i, mu, whether it reads the points)
    slab_G = G.split is None or G.split.op != "sum"
    if not slab_G:
        for k in G.split.present():
            fold(k, np.exp(1j * lam * G.split.parts[k](t[k])))
    if N.split is None or N.split.op != "product":
        factors.append((lambda pts, i: N.value(pts) + 0j, 1, True))
    else:
        for k in N.split.present():
            fold(k, N.split.parts[k](t[k]))
    for c in problem.amplitude.components:
        g = c.g
        present = g.split.present() if g.split is not None else []
        if len(present) == 1:
            k = present[0]
            fold(k, g.split.parts[k](t[k]), c.mu)
        elif g.split is not None and g.split.op == "sum":
            g1, g2, g3 = (part(t[k]) if part else np.zeros(n)
                          for k, part in enumerate(g.split.parts))
            plane = g2[:, None] + g3[None, :]
            factors.append((lambda pts, i, g1=g1, plane=plane: g1[i] + plane, c.mu, False))
        else:
            factors.append((lambda pts, i, g=g: g.value(pts), c.mu, True))
    if slab_G:
        factors.append((lambda pts, i: np.exp(1j * lam * G.value(pts)), 1, True))
    if not factors:
        return complex(problem.prefactor) * (np.sum(u[0]) * np.sum(u[1]) * np.sum(u[2]))

    def points():                   # coordinate-major, as its (n, n, 3) view
        return np.moveaxis(np.array(np.broadcast_arrays(0j, t[1][:, None], t[2])), 0, -1)

    def slab(i, pts):
        if pts is not None:
            pts[..., 0] = t[0][i]
        out = None
        for f, mu, _ in factors:
            v = f(pts, i)
            if mu not in (1, -1):
                np.power(v, mu, out=v)
            if out is None:
                out = np.divide(1, v, out=v) if mu == -1 else v
            elif mu == -1:
                out /= v
            else:
                out *= v
        out *= w23
        return u[0][i] * np.sum(out)

    w23 = np.outer(u[1], u[2])
    need_pts = any(reads for _, _, reads in factors)
    return complex(problem.prefactor) * _ordered_sum(
        slab, range(n), points if need_pts else lambda: None)


# ---------------------------------------------------------------------------
# Kelvin residue oracle

def _graded_panels(R: float, h_base: float, lam: float, tau: float) -> np.ndarray:
    """Panel edges on [0, R], width limited by the local oscillation rate
    lam*tau/(2*sqrt(x)) of the square-root phase near the origin."""
    edges = [0.0]
    x = 0.0
    while x < R:
        if x < 1e-6:
            h = max(2e-3, RAD_PER_PANEL / (lam * tau) * 2 * np.sqrt(2e-3))
        else:
            freq = lam * tau / (2 * np.sqrt(x))
            h = min(h_base, RAD_PER_PANEL / freq)
        h = max(h, 5e-4)
        x = min(x + h, R)
        edges.append(x)
    return np.array(edges)


def _axis_nodes(R: float, lam: float, tau: float, fmax: float,
                oversample: float = 1.0):
    """Nodes and weights of the graded panels on (0, R), in increasing order."""
    h_base = RAD_PER_PANEL / (lam * fmax * oversample)
    e = _graded_panels(R, h_base, lam, tau)
    xg, wg = leggauss(PANEL_NODES)
    mid = 0.5 * (e[1:] + e[:-1])
    hw = 0.5 * (e[1:] - e[:-1])
    X = (mid[:, None] + hw[:, None] * xg[None, :]).ravel()
    W = (hw[:, None] * wg[None, :]).ravel()
    return X, W


def kelvin_oracle(z1: float, z2: float, tau: float, lam: float,
                  spec: Optional[QuadratureSpec] = None) -> float:
    """Real reference value of the ship-wake integral by residue reduction.

    For tau > 0 the frequency contour (shifted up by i*eps) closes downward
    and picks up the real poles at varpi = xi1 and varpi = +-(xi1^2+xi2^2)^{1/4};
    the residue sum (`_residue_sum`) is then integrated over (xi1, xi2) with
    one graded windowed Gauss-Legendre rule on the positive half-axis
    (`_half_axis_rule`), used for both xi1 and xi2.  If a node pair meets
    the pole-merge curve, the whole rule is stretched by 1 + 1e-6
    (`_jitter_collisions`).  For tau <= 0 the integrand decays like
    1/varpi^2, the contour closes upward around no poles and the integral
    is exactly zero (causality): the value is 0.0.

    Raises ValueError, before any node is built, unless z1, z2, tau and
    lam are finite and lam > 0.
    """
    if not (np.all(np.isfinite([z1, z2, tau, lam])) and lam > 0):
        raise ValueError("kelvin_oracle needs finite z1, z2, tau and lam > 0")
    spec = spec or KELVIN_QUAD
    if tau <= 0:
        return 0.0
    X, W = _jitter_collisions(*_half_axis_rule(z1, z2, tau, lam, spec))
    W = W * _taper(X, spec.R, spec.taper)
    return float(RESIDUE_FACTOR * _residue_sum(X, W, z1, z2, tau, lam))


def _half_axis_rule(z1, z2, tau, lam, spec: QuadratureSpec) -> tuple:
    """`kelvin_oracle`'s half-axis rule (X, W), before the jitter and the taper."""
    return _axis_nodes(spec.R, lam, tau, max(abs(z1), abs(z2)) + 1.0 + tau * 0.55,
                       oversample=spec.n / 128.0)


def _residue_sum(X, W, z1, z2, tau, lam) -> float:
    """sum over node pairs of W[i]*W[j]*e^{i*lam*(x1*z1 + x2*z2)} times the
    residue sum of xi1*varpi*e^{-i*lam*varpi*tau} / ((varpi-xi1)(varpi^2-s2))
    at varpi = xi1, +s, -s, with s2 = sqrt(xi1^2 + xi2^2) and s = sqrt(s2),
    over the full axis of nodes +-X with the weights W, for xi1 and xi2.

    X, W is the positive half-axis, each node standing for itself and its
    mirror.  The residue sum depends on xi2 only through xi2^2, so each x2
    carries the weight v = 2*W*cos(lam*x2*z2).  With t1, pp, pm the
    residues at a row x1 > 0 and u = W*e^{i*lam*x1*z1} its weight, the row
    -x1 has the residues conj(t1), conj(pm), conj(pp) and the weight
    conj(u), so the two rows add up to 2*Re(u*(t1 + pp + pm) @ v), and the
    sum is real.  One complex exponential serves both s poles of a node
    pair: the +s pole's, whose conjugate is the -s pole's.

    The sum is formed a tile (rows by columns of node pairs) at a time.
    Blocks I of RESIDUE_ROWS rows are the parts of `_ordered_sum`; block I
    walks the columns j >= i0 in ranges K of up to RESIDUE_COLS, so its
    thread's `_residue_workspace` does not grow with the axis.  s2, s and
    E = e^{-i*lam*s*tau} have the same bits for a pair and its transpose,
    so `_pair_planes` forms them once, X[I] against X[K], for two tiles: the
    direct tile, and the transposed tile, the columns J of K past the block
    as rows against the columns X[I], which slices the planes at J.  Each
    ordered pair is counted once.  `tile` reduces either orientation as
    ur @ (re @ v) - ui @ (im @ v), with ur + i*ui = 2*u and re, im the parts
    of `_residue_parts`; a transposed tile passes their transposes.
    """
    ur = 2 * W * np.cos(lam * X * z1)
    ui = 2 * W * np.sin(lam * X * z1)
    v = 2 * W * np.cos(lam * X * z2)
    Xsq = X ** 2
    num = Xsq * np.exp(-1j * lam * X * tau)       # t1's numerator, per row
    B, C, N = RESIDUE_ROWS, RESIDUE_COLS, len(X)

    def tile(rows, cols, parts):
        re, im = parts
        vc = v[cols]
        return ur[rows] @ (re @ vc) - ui[rows] @ (im @ vc)

    def block(i0, ws):
        I = slice(i0, i0 + B)
        total = 0.0
        for c0 in range(i0, N, C):
            K = slice(c0, min(c0 + C, N))
            s2, s, E = _pair_planes(ws, Xsq[I, None], Xsq[K], lam, tau)
            total += tile(I, K, _residue_parts(ws, X[I, None], Xsq[I, None],
                                               num[I, None], s2, s, E))
            t = max(i0 + B - c0, 0)             # the transposed tile's first column
            if c0 + t < K.stop:
                J = slice(c0 + t, K.stop)
                parts = _residue_parts(ws, X[None, J], Xsq[None, J], num[None, J],
                                       s2[:, t:], s[:, t:], E[:, t:])
                total += tile(J, I, (p.T for p in parts))
        return total

    return _ordered_sum(block, range(0, N, B),
                        lambda: _residue_workspace(min(B, N), min(C, N))).real


def _residue_workspace(B: int, N2: int) -> dict:
    """Planes of B*N2 elements for tiles of up to B rows and N2 columns: the
    six real "scratch" planes of `_residue_parts`, and "s2", "s" and the
    complex "E" of `_pair_planes`, which stay there for the transposed tile."""
    n = B * N2
    return {"scratch": np.empty((6, n)), "s2": np.empty(n), "s": np.empty(n),
            "E": np.empty(n, dtype=complex)}


def _plane(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) elements of a workspace plane, as a C-ordered
    array of that shape, so a narrow tile is as compact as a wide one."""
    return buf[:shape[0] * shape[1]].reshape(shape)


def _pair_planes(ws, x1sq, Xsq, lam, tau) -> tuple:
    """s2, s and E = e^{-i*lam*s*tau}, formed as numpy forms them, of the
    rows with squares x1sq (m, 1) against the columns with squares Xsq (n,):
    (m, n) views into the planes of `ws`, which the next call overwrites."""
    s2, s, E = (_plane(ws[k], (len(x1sq), len(Xsq))) for k in ("s2", "s", "E"))
    np.add(x1sq, Xsq, out=s2)
    np.sqrt(s2, out=s2)
    np.sqrt(s2, out=s)
    np.multiply(-1j * lam, s, out=E)
    E *= tau
    np.exp(E, out=E)
    return s2, s, E


def _residue_parts(ws, x1, x1sq, num, s2, s, E):
    """The real and imaginary parts of t1 + pp + pm on a tile of node pairs,
    as views into the scratch planes of `ws`.  s2, s and E are the tile's
    planes; x1, x1sq and num (t1's numerator) are the rows' values, a column
    (m, 1) or a row (1, n) that broadcasts against them.  s2, s and E are
    read, not overwritten.

    The parts carry the bits of the complex formula.  A complex divided by
    a real is a*(1/b) in numpy, so each denominator is inverted once and
    multiplied in; x1*E is (x1*Er, x1*Ei) and -x1*conj(E) is (-(x1*Er),
    x1*Ei), so pm's real part enters as a subtraction."""
    re, im, a, b, p, q = (_plane(pl, s2.shape) for pl in ws["scratch"])
    np.subtract(x1sq, s2, out=a)                    # x1^2 - s2
    np.divide(1.0, a, out=a)
    np.multiply(num.real, a, out=re)                # t1
    np.multiply(num.imag, a, out=im)
    np.subtract(s, x1, out=a)                       # s - x1
    a *= 2
    np.divide(1.0, a, out=a)                        # 1 / (2(s - x1))
    np.multiply(x1, E.real, out=p)
    np.multiply(x1, E.imag, out=q)
    np.multiply(p, a, out=b)                        # Re pp
    re += b
    a *= q                                          # Im pp
    im += a
    np.add(s, x1, out=a)
    a *= 2
    np.divide(1.0, a, out=a)                        # 1 / (2(s + x1))
    p *= a                                          # -Re pm
    re -= p
    a *= q                                          # Im pm
    im += a
    return re, im


def _merge_collisions(X: np.ndarray) -> bool:
    """Whether some node pair (xi1, xi2) of the sorted positive half-axis X
    lies within COLLISION_TOL of the pole-merge curve, |xi1 - (xi1^2 +
    xi2^2)^{1/4}|.  That difference does not grow as xi2 grows, so for each
    xi1 only the neighbours in X of the curve's xi2 = xi1*sqrt(xi1^2 - 1)
    (0 for xi1 < 1) can come closest; two on each side are checked."""
    t = X * np.sqrt(np.maximum((X - 1) * (X + 1), 0.0))
    j = np.clip(np.searchsorted(X, t)[:, None] + np.arange(-2, 2), 0, len(X) - 1)
    s = (X[:, None] ** 2 + X[j] ** 2) ** 0.25
    return bool(np.any(np.abs(X[:, None] - s) < COLLISION_TOL))


def _jitter_collisions(X: np.ndarray, W: np.ndarray) -> tuple:
    """The rule (X, W) itself if no node pair collides with the pole-merge
    curve; otherwise the rule stretched by 1 + 1e-6, which is the same rule
    on the stretched interval.  A taper > 0 still closes it at R; with
    taper = 0 it reaches R*(1 + 1e-6).  Raises PoleCollision if the
    stretched rule collides too."""
    if not _merge_collisions(X):
        return X, W
    X, W = X * (1 + 1e-6), W * (1 + 1e-6)
    if _merge_collisions(X):
        raise PoleCollision("quadrature node on the pole-merge curve after jitter")
    return X, W
