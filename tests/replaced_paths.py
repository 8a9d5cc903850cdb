"""The plain loops that the detection and contour fast paths replaced, kept
verbatim so the tests can check that each fast path gives the same bits:
Newton that evaluates F again at the top of every step, deduplication by one
distance per root and representative, and a contour rule that evaluates the
integrand separately for its real and its imaginary QUADPACK run."""

import warnings

import numpy as np
from scipy.integrate import quad

from oscint3.detect import DEDUP_RADIUS, NEWTON_MAXITER, ROOT_TOL, _steps
from oscint3.oracle import QUAD_LIMIT, NonConvergent


def newton(fun, jac, y0: np.ndarray):
    """Damped Newton on every row of y0 at once; returns (y, converged)."""
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


def dedup(x: np.ndarray) -> list[np.ndarray]:
    """Greedy representatives of the rows of x, visited in lexicographic
    order of the rounded coordinates."""
    out: list[np.ndarray] = []
    for i in np.lexsort(np.round(x, 12).T[::-1]):
        if all(np.linalg.norm(x[i] - q) > DEDUP_RADIUS for q in out):
            out.append(x[i])
    return out


def quad_contour_1d(f, contour: tuple, lam: float = 0.0) -> complex:
    """Adaptive quadrature of f(w) * exp(i*lam*w) along the contour."""
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
