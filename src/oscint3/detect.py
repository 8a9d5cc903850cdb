"""Location and classification of the points that drive the asymptotics.

Only special points contribute to the leading order of the integral.  A point
is classified by the number m of singularity surfaces through it: with m = 0
it is special when grad(G) = 0 (an interior stationary point); with m = 1 when
G is stationary on the surface, or when grad(g) = 0 there and Hess g is
indefinite (a conical point); with m = 2 when G is stationary along the
crossing curve; with m = 3 it is a triple crossing.  One predicate, `judge`,
makes that decision for the finders and for `classify_point` alike, and it
builds the point's local frame from the same data.  The m surfaces must cross
transversally: sqrt(det(N N^T)) > 1e-10 for the stacked normals N, which is
|n_A x n_B| for m = 2 and |det N| for m = 3.  G is stationary on their
intersection when grad(G) = N^T alpha; the multipliers alpha_k must then be
nonzero.  Otherwise the residual r = grad(G) - N^T alpha is a witness:
r.grad(g_k) = 0 for every surface and r.grad(G) = |r|^2 != 0, so moving
along r deforms the contour away from the point.

A `SpecialPoint` is the whole record of one point: kind, location, surfaces,
multipliers, verdict and frame.  It is frozen; `classify_point` and
`detect_all` attach the verdict by building a new point, the finders attach
none.  Its frame (`LocalFrame`) holds only the geometry of the local normal
form: coordinates w in which G is G* + (linear in the singular w's) +
(quadratic in the free w's).  At a stationary point the singular axes are
w_k = alpha_k * g_k and the free axes diagonalize the restricted Hessian of
G (its eigenvalues are the betas); at a conical point the axes are the
quadric's canonical coordinates and `grad_w` is grad(G) in w.  The verdict
reads the shift eta in that frame; `asym` turns a point into a term.

Two finders solve F(y) = 0 from a seed grid over the search box, both with
one damped Newton solver that runs all seeds at once on (n_seeds, k) stacks:
`find_stationary` the Lagrange system g_k = 0, grad(G) = N^T a in y = (x, a)
for any m = 0..3 surfaces, and `find_conical_points` grad(g) = 0 on one.  The
roots inside the box and on the finder's surfaces are deduplicated, judged,
and kept when they are of the finder's kind.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    SURFACE_TOL,
    TANGENCY_RTOL,
    NumericFailure,
    ProblemSpec,
    ScalarField3,
    SingularityComponent,
    TangentialShift,
)

__all__ = [
    "PointKind",
    "LocalFrame",
    "SpecialPoint",
    "NonTransversal",
    "Indeterminate",
    "find_stationary",
    "find_conical_points",
    "judge",
    "classify_point",
    "detect_all",
]

ROOT_TOL = 1e-12
NEWTON_MAXITER = 50
DEDUP_RADIUS = 1e-6
NEAR_ZERO = 1e-9
SEED_GRID = 9          # seeds per axis of the search box


class PointKind(enum.Enum):
    SP_INTERIOR = "sp-interior"
    SP_ON_SURFACE = "sp-on-surface"
    SP_ON_CROSSING = "sp-on-crossing"
    TRIPLE_CROSSING = "triple-crossing"
    CONICAL = "conical"
    NON_SPECIAL = "non-special"


# the stationary kind and the non-special reason for m = 0, 1, 2, 3 surfaces
# (with m = 3 the normals span R^3, so grad(G) always decomposes)
STATIONARY = (PointKind.SP_INTERIOR, PointKind.SP_ON_SURFACE,
              PointKind.SP_ON_CROSSING, PointKind.TRIPLE_CROSSING)
OFF_REASON = ("off-singularities", "non-stationary-on-surface",
              "non-stationary-on-crossing")


class NonTransversal(NumericFailure):
    pass


class Indeterminate(NumericFailure):
    """A defining quantity sits within 1e-9 of zero; classification refused."""


@dataclass(frozen=True)
class LocalFrame:
    axes: np.ndarray            # rows = grad(w_n) at the point
    betas: tuple[float, ...]
    jacobian: float             # |det d(xi)/d(w)| = 1/|det axes|
    phase0: float
    cone_sign: float = 1.0      # s with s*g ~ w1^2+w2^2-w3^2 (conical only)
    grad_w: tuple[float, ...] = ()   # grad(G) in w (conical only)


@dataclass(frozen=True)
class SpecialPoint:
    location: np.ndarray
    kind: PointKind
    components: tuple[str, ...] = ()
    witness: Optional[np.ndarray] = None
    contributes: bool = False
    reason: str = ""
    alphas: tuple[float, ...] = ()
    near_degenerate: bool = False
    frame: Optional[LocalFrame] = None


def _steps(J: np.ndarray, f: np.ndarray):
    """Newton steps J^-1 f over a stack, and which of them exist.
    np.linalg.solve raises for the whole stack when one matrix is exactly
    singular (a zero pivot); those matrices alone are then set aside."""
    try:
        return np.linalg.solve(J, f[..., None])[..., 0], np.ones(len(f), dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(J)[0] != 0
        J = np.where(ok[:, None, None], J, np.eye(J.shape[-1]))
        return np.linalg.solve(J, f[..., None])[..., 0], ok


def _newton(fun, jac, y0: np.ndarray):
    """Damped Newton on every row of y0 at once; returns (y, converged).

    `fun` maps (m, k) rows to (m, k) residuals, `jac` to (m, k, k) Jacobians.
    Each row stops at |F| < 1e-14 or once its step is below ROOT_TOL*(1 + |y|);
    it fails on a non-finite |F|, an exactly singular Jacobian, no decrease
    of |F| along the full step or any of its 8 halvings, or after
    NEWTON_MAXITER steps.
    """
    def improves(f, nf):   # |f| finite and below nf, or below 1e-14
        fn = np.linalg.norm(f, axis=-1)
        return np.isfinite(fn) & ((fn < nf) | (fn < 1e-14))

    y = np.array(y0, dtype=float)
    converged = np.zeros(len(y), dtype=bool)
    live = np.arange(len(y))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_MAXITER):
            if live.size == 0:
                break
            f = fun(y[live])
            nf = np.linalg.norm(f, axis=-1)
            converged[live[nf < 1e-14]] = True
            go = np.isfinite(nf) & (nf >= 1e-14)
            step, ok = _steps(jac(y[live[go]]), f[go])
            live, nf, step = live[go][ok], nf[go][ok], step[ok]
            # backtracking line search on |F|: the full step for every row,
            # then the 8 halvings of the rows it does not improve, all in one
            # call; each row takes its first improving step
            x, lam = y[live], np.ones(len(live))
            todo = np.flatnonzero(~improves(fun(x - step), nf))
            if todo.size:
                h = 0.5 ** np.arange(1, 9)
                trial = x[todo, None] - h[:, None] * step[todo, None]
                good = improves(fun(trial.reshape(-1, x.shape[1])).reshape(trial.shape),
                                 nf[todo, None])
                lam[todo] = h[np.argmax(good, axis=1)]
                todo = todo[~np.any(good, axis=1)]
            y[live] = x - lam[:, None] * step
            small = (np.linalg.norm(lam[:, None] * step, axis=-1)
                     < ROOT_TOL * (1 + np.linalg.norm(y[live], axis=-1)))
            small[todo] = False
            converged[live[small]] = True
            live = np.setdiff1d(live[~small], live[todo], assume_unique=True)
    return y, converged


def _dedup(x: np.ndarray) -> list[np.ndarray]:
    """Greedy representatives of the rows of x, visited in lexicographic
    order of the rounded coordinates."""
    out: list[np.ndarray] = []
    for i in np.lexsort(np.round(x, 12).T[::-1]):
        if all(np.linalg.norm(x[i] - q) > DEDUP_RADIUS for q in out):
            out.append(x[i])
    return out


def _roots(problem: ProblemSpec, kind: PointKind, comps, fun, jac, y0):
    """Solve fun = 0 from every row of y0 and return the distinct special
    points of `kind` among the roots.

    The first three coordinates of a row are the point (the others, a
    Lagrange multiplier, only steer Newton).  Roots outside the search box
    or off a surface of `comps` are dropped, the rest are deduplicated on the
    point, and each representative is judged with the surfaces `comps`;
    those `judge` finds Indeterminate are dropped.
    """
    y, converged = _newton(fun, jac, y0)
    x = y[converged, :3]
    with np.errstate(all="ignore"):
        x = x[problem.search_region.contains(x, margin=1e-9)]
        for c in comps:
            x = x[np.abs(np.real(c.g(x))) <= SURFACE_TOL]
    out = []
    for p in _dedup(x):
        try:
            sp = judge(problem, p, comps)
        except Indeterminate:
            continue
        if sp.kind is kind:
            out.append(sp)
    return out


def _seeds(problem: ProblemSpec, seeds) -> np.ndarray:
    if seeds is not None and len(seeds) > 0:
        return np.asarray(seeds, dtype=float).reshape(-1, 3)
    return problem.search_region.grid(SEED_GRID)


def _rgrad(f: ScalarField3, x) -> np.ndarray:
    return np.real(f.grad(x)).astype(float)


def _rhess(f: ScalarField3, x) -> np.ndarray:
    return np.real(f.hess(x)).astype(float)


def _normals(comps, x) -> np.ndarray:
    """The stacked normals N: rows grad(g_k), shape (..., m, 3) for x (..., 3)."""
    return np.moveaxis(np.reshape([_rgrad(c.g, x) for c in comps],
                                  (len(comps),) + x.shape), 0, -2)


def _lagrangian_hessian(G: ScalarField3, comps, x, a) -> np.ndarray:
    """H_G - sum_k a_k H_gk at the points x (..., 3), multipliers a (..., m)."""
    a = np.asarray(a, dtype=float)
    return _rhess(G, x) - sum(a[..., k, None, None] * _rhess(c.g, x)
                              for k, c in enumerate(comps))


# ---------------------------------------------------------------------------
# local geometry of a special point (the data of its frame)

def restricted_hessian(comps, phase_G: ScalarField3, x: np.ndarray, N: np.ndarray,
                       alphas) -> tuple[np.ndarray, np.ndarray]:
    """Hessian of G on the common tangent space of the surfaces `comps` at x.

    Returns (M, T): T is a 3 x (3-m) orthonormal basis of the null space of
    the m stacked normals N, and M = T.T (H_G - sum_k alpha_k H_gk) T.  The
    alpha_k H_gk terms account for the curvature of the constraint surfaces;
    with grad(G) = sum_k alpha_k grad(g_k), M is the second derivative of G
    along the surfaces' intersection.  The surfaces must cross transversally
    (`judge` checks that).
    """
    T = np.linalg.eigh(N.T @ N)[1][:, :3 - len(comps)]
    H = _lagrangian_hessian(phase_G, comps, x, alphas)
    return T.T @ H @ T, T


def degenerate(M: np.ndarray) -> bool:
    """Whether the restricted Hessian M is too close to singular for the
    stationary-phase factor 1/sqrt|det M|: the merge regime on a crossing
    curve (one free direction), a degenerate critical point otherwise."""
    return abs(np.linalg.det(M)) <= (1e-6 if len(M) == 1 else 1e-10)


def cone_axes(comp: SingularityComponent, x: np.ndarray):
    """Canonical coordinates at a conical point: s*g = w1^2 + w2^2 - w3^2 + ...

    Returns (W, J, s): W is the 3x3 matrix with rows grad(w_n) at x, J the
    Jacobian |det d(xi)/d(w)|, and s = +-1 the sign that brings the
    Hessian of s*g to signature (2, 1).  This is the signature test of a
    conical point: Indeterminate unless Hess g is nondegenerate and indefinite.
    """
    H = _rhess(comp.g, x)
    lam, Q = np.linalg.eigh(H)
    npos = int(np.sum(lam > 1e-8))
    nneg = int(np.sum(lam < -1e-8))
    if npos + nneg != 3 or npos not in (1, 2):
        raise Indeterminate(f"cone signature ({npos},{nneg}) at {x}")
    s = 1.0 if npos == 2 else -1.0
    lam = s * lam
    # order axes so the negative eigenvalue is w3
    order = np.argsort(-lam)
    lam = lam[order]
    Q = Q[:, order]
    W = np.diag(np.sqrt(np.abs(lam) / 2.0)) @ Q.T
    return W, 1.0 / abs(np.linalg.det(W)), s


# ---------------------------------------------------------------------------
# finders

def find_stationary(problem: ProblemSpec, comps, seeds=None):
    """Stationary points of G on the m = len(comps) <= 3 surfaces: the
    Lagrange system g_k = 0, grad(G) = N^T a in y = (x, a), with Jacobian
    [[N, 0], [H_G - sum_k a_k H_gk, -N^T]].  The multipliers are seeded by
    least squares (a = 0 at a zero normal); seeds with a non-finite normal
    are dropped."""
    m, G = len(comps), problem.G

    def fun(y):
        x, a = y[:, :3], y[:, 3:]
        g = np.real(np.reshape([c.g(x) for c in comps], (m, len(y)))).T
        return np.column_stack(
            [g, _rgrad(G, x) - np.einsum("nk,nki->ni", a, _normals(comps, x))])

    def jac(y):
        x, a = y[:, :3], y[:, 3:]
        N = _normals(comps, x)
        J = np.zeros((len(y), 3 + m, 3 + m))
        J[:, :m, :3] = N
        J[:, m:, :3] = _lagrangian_hessian(G, comps, x, a)
        J[:, m:, 3:] = -np.swapaxes(N, 1, 2)
        return J

    x0 = _seeds(problem, seeds)
    with np.errstate(all="ignore"):
        N = _normals(comps, x0)
        ok = np.all(np.isfinite(N), axis=(1, 2))
        x0, NT = x0[ok], np.swapaxes(N[ok], 1, 2)
        a0 = (np.linalg.pinv(NT) @ _rgrad(G, x0)[..., None])[..., 0]
    return _roots(problem, STATIONARY[m], comps, fun, jac, np.column_stack([x0, a0]))


def find_conical_points(problem: ProblemSpec, comp: SingularityComponent, seeds=None):
    """Points where grad(g) = 0 on {g = 0} and Hess g has signature (2,1) or (1,2)."""
    g = comp.g
    return _roots(problem, PointKind.CONICAL, (comp,), lambda x: _rgrad(g, x),
                  lambda x: _rhess(g, x), _seeds(problem, seeds))


# ---------------------------------------------------------------------------
# classification and verdicts

def judge(problem: ProblemSpec, x: np.ndarray, comps) -> SpecialPoint:
    """Kind and frame of the real point x, given the m = len(comps) <= 3
    surfaces through it.

    With m = 1 and |grad g| <= NEAR_ZERO, x is conical (the signature test
    of `cone_axes`); its frame has the quadric's canonical axes W and
    grad_w = grad(G) in w.  Otherwise grad(G) = N^T alpha + r with alpha
    from least squares on the stacked normals N: x is NON_SPECIAL with
    witness r when |r| > NEAR_ZERO * max(1, |grad G|), else the stationary
    kind for m with multipliers alpha, `near_degenerate` by
    `degenerate`.  Its frame has the rows alpha_k * grad(g_k), then the
    tangent directions that diagonalize the restricted Hessian, in
    descending order of its eigenvalues (the betas), and J = 1/|det W|.
    The point carries no verdict.  Raises NonTransversal when
    sqrt(det(N N^T)) <= 1e-10, and Indeterminate for a multiplier within
    NEAR_ZERO of zero (G is then stationary on a larger set: the surfaces'
    intersection with one surface left out), a cone apex that is not
    double-sided, or more than three surfaces.
    """
    m, labels = len(comps), tuple(c.label for c in comps)
    if m > 3:
        raise Indeterminate(f"{m} coincident surfaces at {x}")
    G = problem.G
    G0, gG = float(np.real(G(x))), _rgrad(G, x)
    N = _normals(comps, x)
    if m == 1 and np.linalg.norm(N[0]) <= NEAR_ZERO:
        W, J, s = cone_axes(comps[0], x)
        gw = tuple(float(a) for a in np.linalg.solve(W.T, gG))
        return SpecialPoint(x, PointKind.CONICAL, labels,
                            frame=LocalFrame(W, (), J, G0, s, gw))
    # sqrt(det(N N^T)) as the product of the singular values of N: the Gram
    # determinant itself loses half its digits near tangency
    if np.prod(np.linalg.svd(N, compute_uv=False)) <= 1e-10:
        raise NonTransversal(f"surfaces {labels} not transversal at {x}")
    al = np.linalg.lstsq(N.T, gG, rcond=None)[0]
    r = gG - N.T @ al
    if np.linalg.norm(r) > NEAR_ZERO * max(1.0, np.linalg.norm(gG)):
        return SpecialPoint(x, PointKind.NON_SPECIAL, labels, witness=r,
                            reason=OFF_REASON[m])
    if np.any(np.abs(al) <= NEAR_ZERO):
        raise Indeterminate(f"zero multiplier {al} at {x}")
    alphas = tuple(float(a) for a in al)
    M, T = restricted_hessian(comps, G, x, N, alphas)
    betas, V = np.linalg.eigh(M)
    order = np.argsort(-betas)
    W = np.vstack([a * n for a, n in zip(alphas, N)] + [(T @ V[:, order]).T])
    return SpecialPoint(x, STATIONARY[m], labels, alphas=alphas,
                        near_degenerate=degenerate(M),
                        frame=LocalFrame(W, tuple(betas[order]),
                                         1.0 / abs(np.linalg.det(W)), G0))


def _with_verdict(sp: SpecialPoint, eta: np.ndarray) -> SpecialPoint:
    """`sp` with its verdict: does the point force a contribution, i.e. does
    no desired-and-allowed local deformation exist?  Read from the shift in
    the point's frame, eps = W eta: a point on m surfaces contributes iff
    eps_k < 0 on each of its m singular rows, a cone by where eps and grad_w
    lie relative to its nappes.  A non-special point keeps its reason."""
    if sp.kind is PointKind.NON_SPECIAL:
        return sp
    if sp.kind is PointKind.SP_INTERIOR:
        return replace(sp, contributes=True, reason="interior-sp")
    W = sp.frame.axes
    eps = W @ eta
    if sp.kind is PointKind.CONICAL:
        # the shift and grad(G) in the cone's canonical coordinates w
        al = sp.frame.grad_w
        re = np.hypot(eps[0], eps[1])
        ra = np.hypot(al[0], al[1])
        if abs(eps[2]) <= re + 1e-12:
            raise TangentialShift("shift not interior to either cone nappe")
        if abs(al[2] - ra) <= 1e-9 or abs(al[2] + ra) <= 1e-9:
            raise Indeterminate("grad(G) on the dual cone boundary")
        if eps[2] < 0 and al[2] > ra:
            return replace(sp, contributes=True, reason="cone-trapped:K-")
        if eps[2] > 0 and al[2] < -ra:
            return replace(sp, contributes=True, reason="cone-trapped:K+")
        return replace(sp, reason="cone-free")
    # contribution iff Gamma runs on the growth side of w^mu e^{i w}, i.e.
    # bypasses below w_k = alpha_k*g_k (eps_k < 0) for every involved surface
    for k, lab in enumerate(sp.components):
        if abs(eps[k]) <= TANGENCY_RTOL * np.linalg.norm(eta) * np.linalg.norm(W[k]):
            raise TangentialShift(f"eta tangent to {lab!r} at {sp.location}")
        if eps[k] > 0:
            return replace(sp, reason=f"bypass-above:{lab}")
    return replace(sp, contributes=True, reason="bypass-below-all")


def classify_point(problem: ProblemSpec, p) -> SpecialPoint:
    """`judge` at a single real point with the surfaces |g| <= SURFACE_TOL,
    with the verdict `detect_all` attaches."""
    x = np.asarray(p, dtype=float)
    comps = [c for c in problem.amplitude.components
             if abs(np.real(c.g(x))) <= SURFACE_TOL]
    return _with_verdict(judge(problem, x, comps), problem.eta)


def detect_all(problem: ProblemSpec, seeds=None) -> list[SpecialPoint]:
    """Run every finder, attach verdicts, and return points sorted by location."""
    comps = problem.amplitude.components
    found = [sp for m in range(4) for sub in itertools.combinations(comps, m)
             for sp in find_stationary(problem, sub, seeds)]
    for c in comps:
        found += find_conical_points(problem, c, seeds)
    judged = [_with_verdict(sp, problem.eta) for sp in found]
    return sorted(judged, key=lambda s: tuple(np.round(s.location, 12)))
