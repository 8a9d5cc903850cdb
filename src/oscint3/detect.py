"""Location and classification of the points that drive the asymptotics.

Only special points contribute to the leading order of the integral: interior
stationary points of G, stationary points of G restricted to a singularity
surface or to a crossing curve, triple crossings, and conical points of a
single surface.  Everything else admits a local deformation that kills its
contribution; for those points we report a witness vector a with a.grad(g) = 0
for every incident surface and a.grad(G) != 0, which certifies the deformation
direction.

Each kind of special point is a root of a small system F(y) = 0 (grad G = 0,
the Lagrange system on g = 0, ...).  Every finder hands its residual, its
Jacobian and its start vectors (a seed grid over the search box) to one
damped Newton solver that runs all seeds at once on (n_seeds, k) stacks, then
keeps the roots inside the box that pass the finder's membership filter and
deduplicates them.  The finder adds its own flags and multipliers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from .core import (
    ProblemSpec,
    ScalarField3,
    SingularityComponent,
    TangentialShift,
    bypass_side,
)

__all__ = [
    "PointKind",
    "SpecialPoint",
    "NoConvergence",
    "NonTransversal",
    "DecompositionResidual",
    "SingularGradientMatrix",
    "Indeterminate",
    "find_sp_interior",
    "find_sp_on_surface",
    "find_sp_on_crossing",
    "find_triple_crossings",
    "find_conical_points",
    "classify_point",
    "contribution_verdict",
    "detect_all",
]

ROOT_TOL = 1e-12
MEMBERSHIP_TOL = 1e-10
DEDUP_RADIUS = 1e-6
NEAR_ZERO = 1e-9


class PointKind(enum.Enum):
    SP_INTERIOR = "sp-interior"
    SP_ON_SURFACE = "sp-on-surface"
    SP_ON_CROSSING = "sp-on-crossing"
    TRIPLE_CROSSING = "triple-crossing"
    CONICAL = "conical"
    NON_SPECIAL = "non-special"


class NoConvergence(Exception):
    pass


class NonTransversal(Exception):
    pass


class DecompositionResidual(Exception):
    pass


class SingularGradientMatrix(Exception):
    pass


class Indeterminate(Exception):
    """A defining quantity sits within 1e-9 of zero; classification refused."""


@dataclass
class SpecialPoint:
    location: np.ndarray
    kind: PointKind
    components: tuple[str, ...] = ()
    witness: Optional[np.ndarray] = None
    contributes: bool = False
    reason: str = ""
    alphas: tuple[float, ...] = ()
    flags: frozenset = dfield(default_factory=frozenset)

    def flagged(self, name: str) -> bool:
        return name in self.flags


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


def _newton(fun, jac, y0: np.ndarray, tol: float, maxiter: int = 50):
    """Damped Newton on every row of y0 at once; returns (y, converged).

    `fun` maps (m, k) rows to (m, k) residuals, `jac` to (m, k, k) Jacobians.
    Each row stops at |F| < 1e-14 or once its step is below tol*(1 + |y|);
    it fails on a non-finite |F|, an exactly singular Jacobian, 20 step
    halvings without a decrease of |F|, or after maxiter steps.
    """
    y = np.array(y0, dtype=float)
    converged = np.zeros(len(y), dtype=bool)
    live = np.arange(len(y))
    with np.errstate(all="ignore"):
        for _ in range(maxiter):
            if live.size == 0:
                break
            f = fun(y[live])
            nf = np.linalg.norm(f, axis=-1)
            converged[live[nf < 1e-14]] = True
            go = np.isfinite(nf) & (nf >= 1e-14)
            step, ok = _steps(jac(y[live[go]]), f[go])
            live, nf, step = live[go][ok], nf[go][ok], step[ok]
            # backtracking line search on |F|, row by row
            x, lam, todo = y[live], np.ones(len(live)), np.arange(len(live))
            for _ in range(20):
                y[live[todo]] = x[todo] - lam[todo, None] * step[todo]
                fn = np.linalg.norm(fun(y[live[todo]]), axis=-1)
                todo = todo[~(np.isfinite(fn) & ((fn < nf[todo]) | (fn < 1e-14)))]
                if todo.size == 0:
                    break
                lam[todo] *= 0.5
            small = (np.linalg.norm(lam[:, None] * step, axis=-1)
                     < tol * (1 + np.linalg.norm(y[live], axis=-1)))
            small[todo] = False
            converged[live[small]] = True
            live = np.setdiff1d(live[~small], live[todo], assume_unique=True)
    return y, converged


def _dedup(x: np.ndarray, radius: float = DEDUP_RADIUS) -> list[np.ndarray]:
    """Greedy representatives of the rows of x, visited in lexicographic
    order of the rounded coordinates."""
    out: list[np.ndarray] = []
    for i in np.lexsort(np.round(x, 12).T[::-1]):
        if all(np.linalg.norm(x[i] - q) > radius for q in out):
            out.append(x[i])
    return out


def _roots(problem: ProblemSpec, fun, jac, y0, tol, on=(), keep=None):
    """Solve fun = 0 from every row of y0 and return the distinct roots.

    The first three coordinates of a row are the point.  Roots outside the
    search box, off a surface of the components `on`, or failing `keep` are
    dropped; the rest are deduplicated on the point.  The other coordinates
    (a Lagrange multiplier) come from the first root, in seed order, within
    DEDUP_RADIUS of the representative.
    """
    y, converged = _newton(fun, jac, y0, tol)
    y = y[converged]
    with np.errstate(all="ignore"):
        y = y[problem.search_region.contains(y[:, :3], margin=1e-9)]
        for c in on:
            y = y[np.abs(np.real(c.g(y[:, :3]))) <= MEMBERSHIP_TOL]
        if keep is not None:
            y = y[keep(y)]
    out = []
    for x in _dedup(y[:, :3]):
        first = np.argmax(np.linalg.norm(y[:, :3] - x, axis=-1) <= DEDUP_RADIUS)
        out.append(np.concatenate([x, y[first, 3:]]))
    return out


def _seeds(problem: ProblemSpec, seeds, n: int = 9) -> np.ndarray:
    if seeds is not None and len(seeds) > 0:
        return np.asarray(seeds, dtype=float).reshape(-1, 3)
    return problem.search_region.grid(n)


def _rgrad(f: ScalarField3, x) -> np.ndarray:
    return np.real(f.grad(x)).astype(float)


def _rhess(f: ScalarField3, x) -> np.ndarray:
    return np.real(f.hess(x)).astype(float)


# ---------------------------------------------------------------------------
# local geometry helpers (shared with the term construction in asym)

def restricted_hessian(comps, phase_G: ScalarField3, x: np.ndarray,
                       alphas) -> tuple[np.ndarray, np.ndarray]:
    """Hessian of G on the common tangent space of the surfaces `comps` at x.

    Returns (M, T): T is a 3 x (3-m) orthonormal basis of the null space of
    the m stacked normals, and M = T.T (H_G - sum_k alpha_k H_gk) T.  The
    alpha_k H_gk terms account for the curvature of the constraint surfaces;
    with grad(G) = sum_k alpha_k grad(g_k), M is the second derivative of G
    along the surfaces' intersection.  Two tangent surfaces raise
    NonTransversal.
    """
    N = np.array([_rgrad(c.g, x) for c in comps]).reshape(len(comps), 3)
    if len(comps) == 2 and np.linalg.norm(np.cross(*N)) <= 1e-10:
        raise NonTransversal(f"surfaces {comps[0].label!r}, {comps[1].label!r} "
                             f"tangent at {x}")
    T = np.linalg.eigh(N.T @ N)[1][:, :3 - len(comps)]
    H = _rhess(phase_G, x) - sum(a * _rhess(c.g, x) for a, c in zip(alphas, comps))
    return T.T @ H @ T, T


def degenerate(M: np.ndarray) -> bool:
    """Whether the restricted Hessian M is too close to singular for the
    stationary-phase factor 1/sqrt|det M|: the merge regime on a crossing
    curve (one free direction), a degenerate critical point otherwise."""
    return abs(np.linalg.det(M)) <= (1e-6 if len(M) == 1 else 1e-10)


def cone_axes(comp: SingularityComponent, x: np.ndarray):
    """Canonical coordinates at a conical point: s*g = w1^2 + w2^2 - w3^2 + ...

    Returns (W, J, s): W is the 3x3 matrix with rows grad(w_n) at x, J the
    (positive) Jacobian det d(xi)/d(w), and s = +-1 the sign that brings the
    Hessian of s*g to signature (2, 1).
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
    d = np.linalg.det(W)
    if d < 0:
        W[0] *= -1.0  # flipping w1 leaves both the quadric and the verdict invariant
        d = -d
    return W, 1.0 / d, s


def cone_vectors(comp, phase_G, shift_eta, x):
    """(eps, alpha) of the conical point: the shift and grad(G) in w-coordinates."""
    W, J, s = cone_axes(comp, x)
    eps = W @ np.asarray(shift_eta, dtype=float)
    alpha = np.linalg.solve(W.T, _rgrad(phase_G, x))
    return W, J, s, eps, alpha


# ---------------------------------------------------------------------------
# finders

def _near_degenerate(comps, G, x, alphas) -> frozenset:
    M, _ = restricted_hessian(comps, G, x, alphas)
    return frozenset({"NEAR_DEGENERATE"} if degenerate(M) else ())


def find_sp_interior(problem: ProblemSpec, seeds=None, tol: float = ROOT_TOL):
    """Interior stationary points: grad(G) = 0; a near-singular Hessian is
    flagged NEAR_DEGENERATE."""
    G = problem.phase.G
    out = []
    for x in _roots(problem, lambda x: _rgrad(G, x), lambda x: _rhess(G, x),
                    _seeds(problem, seeds), tol,
                    keep=lambda x: np.linalg.norm(_rgrad(G, x), axis=-1) <= NEAR_ZERO):
        out.append(SpecialPoint(x, PointKind.SP_INTERIOR,
                                flags=_near_degenerate((), G, x, ())))
    return out


def find_sp_on_surface(problem: ProblemSpec, comp: SingularityComponent,
                       seeds=None, tol: float = ROOT_TOL):
    """Stationary points of G restricted to {g = 0}: solve g=0, grad(G)=a*grad(g)."""
    G, g = problem.phase.G, comp.g

    def fun(y):
        x, a = y[:, :3], y[:, 3:]
        return np.column_stack([np.real(g(x)), _rgrad(G, x) - a * _rgrad(g, x)])

    def jac(y):
        x, a = y[:, :3], y[:, 3, None, None]
        J = np.zeros((len(y), 4, 4))
        J[:, 0, :3] = _rgrad(g, x)
        J[:, 1:, :3] = _rhess(G, x) - a * _rhess(g, x)
        J[:, 1:, 3] = -J[:, 0, :3]
        return J

    s = _seeds(problem, seeds)
    with np.errstate(all="ignore"):
        n, gG = _rgrad(g, s), _rgrad(G, s)
        a0 = np.sum(gG * n, axis=-1) / np.maximum(np.sum(n * n, axis=-1), 1e-30)
    y0 = np.column_stack([s, a0])[np.all(np.isfinite(n), axis=-1)]
    out = []
    # a = 0 is an interior stationary point that happens to sit on sigma
    for y in _roots(problem, fun, jac, y0, tol, on=(comp,),
                    keep=lambda y: np.abs(y[:, 3]) > NEAR_ZERO):
        x, a = y[:3], float(y[3])
        out.append(SpecialPoint(x, PointKind.SP_ON_SURFACE, (comp.label,), alphas=(a,),
                                flags=_near_degenerate((comp,), G, x, (a,))))
    return out


def find_sp_on_crossing(problem: ProblemSpec, compA, compB,
                        seeds=None, tol: float = ROOT_TOL):
    """Stationary points of G along the transversal crossing curve of two surfaces."""
    G, gA, gB = problem.phase.G, compA.g, compB.g

    def tvec(x):
        return np.cross(_rgrad(gA, x), _rgrad(gB, x))

    def fun(x):
        return np.column_stack([np.real(gA(x)), np.real(gB(x)),
                                np.sum(tvec(x) * _rgrad(G, x), axis=-1)])

    def jac(x):
        nA, nB, gG = _rgrad(gA, x), _rgrad(gB, x), _rgrad(G, x)
        # d/dx of (nA x nB).grad(G), product rule over all three factors,
        # each written as a triple product with the differentiated factor first
        d = (np.einsum("ni,nil->nl", np.cross(nB, gG), _rhess(gA, x))
             + np.einsum("ni,nil->nl", np.cross(gG, nA), _rhess(gB, x))
             + np.einsum("ni,nil->nl", np.cross(nA, nB), _rhess(G, x)))
        return np.stack([nA, nB, d], axis=1)

    out = []
    for x in _roots(problem, fun, jac, _seeds(problem, seeds), tol, on=(compA, compB),
                    keep=lambda x: np.linalg.norm(tvec(x), axis=-1) > 1e-10):
        A = np.column_stack([_rgrad(gA, x), _rgrad(gB, x)])
        gG = _rgrad(G, x)
        al, *_ = np.linalg.lstsq(A, gG, rcond=None)
        if np.linalg.norm(A @ al - gG) > 1e-9 * max(1.0, np.linalg.norm(gG)):
            raise DecompositionResidual(f"grad(G) not in span of surface normals at {x}")
        a1, a2 = float(al[0]), float(al[1])
        out.append(SpecialPoint(x, PointKind.SP_ON_CROSSING, (compA.label, compB.label),
                                alphas=(a1, a2),
                                flags=_near_degenerate((compA, compB), G, x, (a1, a2))))
    return out


def find_triple_crossings(problem: ProblemSpec, compA, compB, compC,
                          seeds=None, tol: float = ROOT_TOL):
    """Isolated points where three surfaces meet transversally."""
    G = problem.phase.G
    comps = (compA, compB, compC)

    def jac(x):
        return np.stack([_rgrad(c.g, x) for c in comps], axis=1)

    out = []
    for x in _roots(problem, lambda x: np.column_stack([np.real(c.g(x)) for c in comps]),
                    jac, _seeds(problem, seeds), tol, on=comps):
        Gm = jac(x[None])[0].T
        if abs(np.linalg.det(Gm)) <= 1e-10:
            raise SingularGradientMatrix(f"gradient matrix singular at {x}")
        gG = _rgrad(G, x)
        # the formulas assume G is non-stationary along each pairwise crossing line
        if any(abs(t @ gG) <= NEAR_ZERO * np.linalg.norm(t)
               for t in (np.cross(Gm[:, i], Gm[:, j]) for i, j in ((0, 1), (0, 2), (1, 2)))):
            continue
        out.append(SpecialPoint(x, PointKind.TRIPLE_CROSSING, tuple(c.label for c in comps),
                                alphas=tuple(float(a) for a in np.linalg.solve(Gm, gG))))
    return out


def find_conical_points(problem: ProblemSpec, comp: SingularityComponent,
                        seeds=None, tol: float = ROOT_TOL):
    """Points where grad(g) = 0 on {g = 0} and Hess g has signature (2,1) or (1,2)."""
    g = comp.g
    out = []
    for x in _roots(problem, lambda x: _rgrad(g, x), lambda x: _rhess(g, x),
                    _seeds(problem, seeds), tol, on=(comp,),
                    keep=lambda x: np.linalg.norm(_rgrad(g, x), axis=-1) <= NEAR_ZERO):
        lam = np.linalg.eigvalsh(_rhess(g, x))
        npos = int(np.sum(lam > 1e-8))
        nneg = int(np.sum(lam < -1e-8))
        if npos + nneg == 3 and npos in (1, 2):   # else not a double-sided cone
            out.append(SpecialPoint(x, PointKind.CONICAL, (comp.label,)))
    return out


# ---------------------------------------------------------------------------
# classification and verdicts

def classify_point(problem: ProblemSpec, p) -> SpecialPoint:
    """Full case analysis at a single real point of the search region."""
    x = np.asarray(p, dtype=float)
    G = problem.phase.G
    incident = [c for c in problem.amplitude.components
                if abs(np.real(c.g(x))) <= MEMBERSHIP_TOL]
    labels = tuple(c.label for c in incident)
    gG = _rgrad(G, x)

    if len(incident) == 0:
        if np.linalg.norm(gG) <= NEAR_ZERO:
            return SpecialPoint(x, PointKind.SP_INTERIOR, reason="interior-sp")
        return SpecialPoint(x, PointKind.NON_SPECIAL, witness=gG,
                            reason="off-singularities")

    if len(incident) == 1:
        c = incident[0]
        n = _rgrad(c.g, x)
        if np.linalg.norm(n) <= NEAR_ZERO:
            lam = np.linalg.eigvalsh(_rhess(c.g, x))
            if np.min(np.abs(lam)) <= 1e-8:
                raise Indeterminate(f"degenerate Hessian of g at {x}")
            npos = int(np.sum(lam > 0))
            if npos in (1, 2):
                return SpecialPoint(x, PointKind.CONICAL, labels)
            raise Indeterminate(f"definite Hessian on {c.label!r} at {x}")
        nh = n / np.linalg.norm(n)
        tang = gG - (gG @ nh) * nh
        if np.linalg.norm(tang) <= NEAR_ZERO:
            a = float(gG @ n) / float(n @ n)
            return SpecialPoint(x, PointKind.SP_ON_SURFACE, labels, alphas=(a,))
        a = np.cross(n, np.cross(n, gG))
        return SpecialPoint(x, PointKind.NON_SPECIAL, labels, witness=a,
                            reason="non-stationary-on-surface")

    if len(incident) == 2:
        cA, cB = incident
        t = np.cross(_rgrad(cA.g, x), _rgrad(cB.g, x))
        if np.linalg.norm(t) <= 1e-10:
            raise NonTransversal(f"crossing not transversal at {x}")
        if abs(t @ gG) <= NEAR_ZERO * np.linalg.norm(t) * max(1.0, np.linalg.norm(gG)):
            A = np.column_stack([_rgrad(cA.g, x), _rgrad(cB.g, x)])
            al, *_ = np.linalg.lstsq(A, gG, rcond=None)
            return SpecialPoint(x, PointKind.SP_ON_CROSSING, labels,
                                alphas=(float(al[0]), float(al[1])))
        return SpecialPoint(x, PointKind.NON_SPECIAL, labels, witness=t,
                            reason="non-stationary-on-crossing")

    if len(incident) == 3:
        return SpecialPoint(x, PointKind.TRIPLE_CROSSING, labels)

    raise Indeterminate(f"{len(incident)} coincident surfaces at {x}")


def _component(problem, label) -> SingularityComponent:
    for c in problem.amplitude.components:
        if c.label == label:
            return c
    raise KeyError(label)


def contribution_verdict(sp: SpecialPoint, problem: ProblemSpec) -> tuple[bool, str]:
    """Does the point force a contribution, i.e. does no desired-and-allowed
    local deformation exist?  Encodes the bypass-side criteria per kind."""
    if sp.kind is PointKind.NON_SPECIAL:
        return False, sp.reason or "non-special"
    if sp.kind is PointKind.SP_INTERIOR:
        return True, "interior-sp"

    x = sp.location
    if sp.kind in (PointKind.SP_ON_SURFACE, PointKind.SP_ON_CROSSING,
                   PointKind.TRIPLE_CROSSING):
        if len(sp.alphas) != len(sp.components):
            raise ValueError("missing frame data (alphas) on special point")
        for a, lab in zip(sp.alphas, sp.components):
            side = bypass_side(problem.shift, _component(problem, lab), x)
            # contribution iff Gamma runs on the growth side of w^mu e^{i w},
            # i.e. bypasses below w = alpha*g for every involved surface
            if a * side >= 0:
                return False, f"bypass-above:{lab}"
        return True, "bypass-below-all"

    if sp.kind is PointKind.CONICAL:
        comp = _component(problem, sp.components[0])
        _, _, _, eps, al = cone_vectors(comp, problem.phase.G,
                                        problem.shift.eta, x)
        re = np.hypot(eps[0], eps[1])
        ra = np.hypot(al[0], al[1])
        if abs(eps[2]) <= re + 1e-12:
            raise TangentialShift("shift not interior to either cone nappe")
        if abs(al[2] - ra) <= 1e-9 or abs(al[2] + ra) <= 1e-9:
            raise Indeterminate("grad(G) on the dual cone boundary")
        if eps[2] < 0 and al[2] > ra:
            return True, "cone-trapped:K-"
        if eps[2] > 0 and al[2] < -ra:
            return True, "cone-trapped:K+"
        return False, "cone-free"

    raise ValueError(f"unknown kind {sp.kind}")


def detect_all(problem: ProblemSpec, seeds=None) -> list[SpecialPoint]:
    """Run every finder, attach verdicts, and return points sorted by location."""
    comps = problem.amplitude.components
    found: list[SpecialPoint] = []
    found += find_sp_interior(problem, seeds)
    for c in comps:
        found += find_sp_on_surface(problem, c, seeds)
        found += find_conical_points(problem, c, seeds)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            found += find_sp_on_crossing(problem, comps[i], comps[j], seeds)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            for k in range(j + 1, len(comps)):
                found += find_triple_crossings(problem, comps[i], comps[j],
                                               comps[k], seeds)
    for sp in found:
        sp.contributes, sp.reason = contribution_verdict(sp, problem)
    found.sort(key=lambda s: tuple(np.round(s.location, 12)))
    return found
