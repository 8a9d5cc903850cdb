"""Location and classification of the points that drive the asymptotics.

Only special points contribute to the leading order of the integral: interior
stationary points of G, stationary points of G restricted to a singularity
surface or to a crossing curve, triple crossings, and conical points of a
single surface.  Everything else admits a local deformation that kills its
contribution; for those points we report a witness vector a with a.grad(g) = 0
for every incident surface and a.grad(G) != 0, which certifies the deformation
direction.

Finders are damped Newton iterations from a seed grid over the search box,
deduplicated and re-verified at tightened tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dfield
from typing import Optional, Sequence

import numpy as np

from .core import (
    Box3,
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


def _newton(fun, jac, x0, tol=ROOT_TOL, maxiter=50):
    """Damped Newton; returns the root or None."""
    x = np.asarray(x0, dtype=float).copy()
    with np.errstate(all="ignore"):
        return _newton_loop(fun, jac, x, tol, maxiter)


def _newton_loop(fun, jac, x, tol, maxiter):
    for _ in range(maxiter):
        f = np.asarray(fun(x), dtype=float)
        nf = np.linalg.norm(f)
        if not np.isfinite(nf):
            return None
        if nf < 1e-14:
            return x
        J = np.asarray(jac(x), dtype=float)
        try:
            step = np.linalg.solve(J, f)
        except np.linalg.LinAlgError:
            return None
        # backtracking line search on |F|
        lam = 1.0
        for _ in range(20):
            xn = x - lam * step
            fn = np.linalg.norm(np.asarray(fun(xn), dtype=float))
            if np.isfinite(fn) and (fn < nf or fn < 1e-14):
                break
            lam *= 0.5
        else:
            return None
        x = xn
        if np.linalg.norm(lam * step) < tol * (1 + np.linalg.norm(x)):
            return x
    return None


def _dedup(points: list[np.ndarray], radius: float = DEDUP_RADIUS) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for p in sorted(points, key=lambda q: tuple(np.round(q, 12))):
        if all(np.linalg.norm(p - q) > radius for q in out):
            out.append(p)
    return out


def _seeds(problem: ProblemSpec, seeds, n: int = 9):
    if seeds is not None and len(seeds) > 0:
        return [np.asarray(s, dtype=float) for s in seeds]
    return list(problem.search_region.grid(n))


def _rgrad(f: ScalarField3, x) -> np.ndarray:
    return np.real(f.grad(x)).astype(float)


def _rhess(f: ScalarField3, x) -> np.ndarray:
    return np.real(f.hess(x)).astype(float)


# ---------------------------------------------------------------------------
# local geometry helpers (shared with the term construction in asym)

def tangent_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair spanning the plane perpendicular to n."""
    nh = n / np.linalg.norm(n)
    e = np.eye(3)[int(np.argmin(np.abs(nh)))]
    t2 = e - (e @ nh) * nh
    t2 /= np.linalg.norm(t2)
    t3 = np.cross(nh, t2)
    return t2, t3


def restricted_hessian(comp: SingularityComponent, phase_G: ScalarField3,
                       x: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """2x2 Hessian of G on the surface tangent plane, Lagrange-corrected.

    Returns (M, P) with P the 3x2 orthonormal tangent basis.  The alpha*H_g
    term accounts for the curvature of the constraint surface.
    """
    n = _rgrad(comp.g, x)
    t2, t3 = tangent_basis(n)
    P = np.column_stack([t2, t3])
    M = P.T @ (_rhess(phase_G, x) - alpha * _rhess(comp.g, x)) @ P
    return M, P


def crossing_tangent(compA, compB, x) -> np.ndarray:
    t = np.cross(_rgrad(compA.g, x), _rgrad(compB.g, x))
    nt = np.linalg.norm(t)
    if nt <= 1e-10:
        raise NonTransversal(f"surfaces {compA.label!r}, {compB.label!r} tangent at {x}")
    return t / nt


def crossing_curvature(compA, compB, phase_G, x, a1: float, a2: float) -> float:
    """d^2/ds^2 of G along the arclength-parametrized crossing curve.

    With gamma''(0) determined by the constraints, grad(G).gamma'' collapses to
    -sum_k alpha_k t.H_k t since grad(G) = a1 grad(gA) + a2 grad(gB).
    """
    t = crossing_tangent(compA, compB, x)
    HG = _rhess(phase_G, x)
    HA = _rhess(compA.g, x)
    HB = _rhess(compB.g, x)
    return float(t @ (HG - a1 * HA - a2 * HB) @ t)


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

def _hessian_ok(problem, x) -> bool:
    H = _rhess(problem.phase.G, x)
    return abs(np.linalg.det(H)) > 1e-10


def find_sp_interior(problem: ProblemSpec, seeds=None, tol: float = ROOT_TOL):
    """Interior stationary points: grad(G) = 0 with nondegenerate Hessian."""
    G = problem.phase.G
    roots = []
    for s in _seeds(problem, seeds):
        x = _newton(lambda p: _rgrad(G, p), lambda p: _rhess(G, p), s, tol)
        if x is not None and problem.search_region.contains(x, margin=1e-9):
            if np.linalg.norm(_rgrad(G, x)) <= NEAR_ZERO:
                roots.append(x)
    out = []
    for x in _dedup(roots):
        flags = set()
        if not _hessian_ok(problem, x):
            flags.add("DEGENERATE_HESSIAN")
        out.append(SpecialPoint(x, PointKind.SP_INTERIOR, flags=frozenset(flags)))
    return out


def find_sp_on_surface(problem: ProblemSpec, comp: SingularityComponent,
                       seeds=None, tol: float = ROOT_TOL):
    """Stationary points of G restricted to {g = 0}: solve g=0, grad(G)=a*grad(g)."""
    G = problem.phase.G

    def fun(y):
        x, a = y[:3], y[3]
        return np.concatenate([[np.real(comp.g(x))],
                               _rgrad(G, x) - a * _rgrad(comp.g, x)])

    def jac(y):
        x, a = y[:3], y[3]
        J = np.zeros((4, 4))
        J[0, :3] = _rgrad(comp.g, x)
        J[1:, :3] = _rhess(G, x) - a * _rhess(comp.g, x)
        J[1:, 3] = -_rgrad(comp.g, x)
        return J

    sols = []
    for s in _seeds(problem, seeds):
        with np.errstate(all="ignore"):
            n = _rgrad(comp.g, s)
            gG = _rgrad(G, s)
        if not np.all(np.isfinite(n)):
            continue
        a0 = float(gG @ n) / max(float(n @ n), 1e-30)
        y = _newton(fun, jac, np.append(s, a0), tol)
        if y is None:
            continue
        x, a = y[:3], float(y[3])
        if not problem.search_region.contains(x, margin=1e-9):
            continue
        if abs(np.real(comp.g(x))) > MEMBERSHIP_TOL:
            continue
        if abs(a) <= NEAR_ZERO:
            continue  # an interior stationary point that happens to sit on sigma
        sols.append((x, a))
    out = []
    for x in _dedup([x for x, _ in sols]):
        a = next(a for xx, a in sols if np.linalg.norm(xx - x) <= DEDUP_RADIUS)
        flags = set()
        M, _ = restricted_hessian(comp, G, x, a)
        if abs(np.linalg.det(M)) <= 1e-10:
            flags.add("DEGENERATE_RESTRICTED_HESSIAN")
            flags.add("NEAR_DEGENERATE")
        out.append(SpecialPoint(x, PointKind.SP_ON_SURFACE, (comp.label,),
                                alphas=(a,), flags=frozenset(flags)))
    return out


def find_sp_on_crossing(problem: ProblemSpec, compA, compB,
                        seeds=None, tol: float = ROOT_TOL):
    """Stationary points of G along the transversal crossing curve of two surfaces."""
    G = problem.phase.G

    def tvec(x):
        return np.cross(_rgrad(compA.g, x), _rgrad(compB.g, x))

    def fun(x):
        return np.array([np.real(compA.g(x)), np.real(compB.g(x)),
                         tvec(x) @ _rgrad(G, x)])

    def jac(x):
        gA, gB = _rgrad(compA.g, x), _rgrad(compB.g, x)
        HA, HB, HG = _rhess(compA.g, x), _rhess(compB.g, x), _rhess(G, x)
        gG = _rgrad(G, x)
        t = np.cross(gA, gB)
        J = np.zeros((3, 3))
        J[0] = gA
        J[1] = gB
        # d/dx of (gA x gB).gradG, product rule over all three factors
        J[2] = np.array([np.cross(HA[:, l], gB) @ gG
                         + np.cross(gA, HB[:, l]) @ gG
                         + t @ HG[:, l] for l in range(3)])
        return J

    sols = []
    for s in _seeds(problem, seeds):
        x = _newton(fun, jac, s, tol)
        if x is None or not problem.search_region.contains(x, margin=1e-9):
            continue
        if max(abs(np.real(compA.g(x))), abs(np.real(compB.g(x)))) > MEMBERSHIP_TOL:
            continue
        if np.linalg.norm(tvec(x)) <= 1e-10:
            continue
        sols.append(x)
    out = []
    for x in _dedup(sols):
        A = np.column_stack([_rgrad(compA.g, x), _rgrad(compB.g, x)])
        gG = _rgrad(G, x)
        al, res, *_ = np.linalg.lstsq(A, gG, rcond=None)
        if np.linalg.norm(A @ al - gG) > 1e-9 * max(1.0, np.linalg.norm(gG)):
            raise DecompositionResidual(f"grad(G) not in span of surface normals at {x}")
        a1, a2 = float(al[0]), float(al[1])
        flags = set()
        beta = crossing_curvature(compA, compB, G, x, a1, a2)
        if abs(beta) <= 1e-6:
            flags.add("NEAR_DEGENERATE")
        out.append(SpecialPoint(x, PointKind.SP_ON_CROSSING,
                                (compA.label, compB.label),
                                alphas=(a1, a2), flags=frozenset(flags)))
    return out


def find_triple_crossings(problem: ProblemSpec, compA, compB, compC,
                          seeds=None, tol: float = ROOT_TOL):
    """Isolated points where three surfaces meet transversally."""
    G = problem.phase.G
    comps = (compA, compB, compC)

    def fun(x):
        return np.array([np.real(c.g(x)) for c in comps])

    def jac(x):
        return np.array([_rgrad(c.g, x) for c in comps])

    sols = []
    for s in _seeds(problem, seeds):
        x = _newton(fun, jac, s, tol)
        if x is None or not problem.search_region.contains(x, margin=1e-9):
            continue
        if max(abs(np.real(c.g(x))) for c in comps) > MEMBERSHIP_TOL:
            continue
        sols.append(x)
    out = []
    for x in _dedup(sols):
        Gm = np.array([_rgrad(c.g, x) for c in comps]).T
        if abs(np.linalg.det(Gm)) <= 1e-10:
            raise SingularGradientMatrix(f"gradient matrix singular at {x}")
        al = np.linalg.solve(Gm, _rgrad(G, x))
        # the formulas assume G is non-stationary along each pairwise crossing line
        stationary_on_line = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            t = np.cross(_rgrad(comps[i].g, x), _rgrad(comps[j].g, x))
            if abs(t @ _rgrad(G, x)) <= NEAR_ZERO * np.linalg.norm(t):
                stationary_on_line = True
        if stationary_on_line:
            continue
        out.append(SpecialPoint(x, PointKind.TRIPLE_CROSSING,
                                tuple(c.label for c in comps),
                                alphas=tuple(float(a) for a in al)))
    return out


def find_conical_points(problem: ProblemSpec, comp: SingularityComponent,
                        seeds=None, tol: float = ROOT_TOL):
    """Points where grad(g) = 0 on {g = 0} and Hess g has signature (2,1) or (1,2)."""
    sols = []
    for s in _seeds(problem, seeds):
        x = _newton(lambda p: _rgrad(comp.g, p), lambda p: _rhess(comp.g, p), s, tol)
        if x is None or not problem.search_region.contains(x, margin=1e-9):
            continue
        if abs(np.real(comp.g(x))) > MEMBERSHIP_TOL:
            continue
        if np.linalg.norm(_rgrad(comp.g, x)) > NEAR_ZERO:
            continue
        sols.append(x)
    out = []
    for x in _dedup(sols):
        lam = np.linalg.eigvalsh(_rhess(comp.g, x))
        npos = int(np.sum(lam > 1e-8))
        nneg = int(np.sum(lam < -1e-8))
        if npos + nneg != 3 or npos not in (1, 2):
            continue  # wrong signature: not a double-sided cone
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
