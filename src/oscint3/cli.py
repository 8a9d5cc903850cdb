"""Command-line surface: run detection, asymptotics, oracles, comparisons,
and field/wavefront rendering on the shipped problems.

Config is plain `key = value` text (later keys win); any key can be overridden
on the command line as `--key value`.  Outputs are CSV tables (RFC-4180-ish,
17 significant digits) and ASCII PGM images.

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import asym, detect, oracle, problems
from .kelvin import (MASK_INVALID, DegenerateFamily, MergeProximity,
                     OutOfRange, field_map, render_wavefronts)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

MODES = ("classify", "asym", "oracle", "compare", "field", "fronts")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    mode: str = "classify"
    problem: str = "gaussian-sp"
    lambdas: tuple[float, ...] = (40.0,)
    z: tuple[float, float, float] = (2.0, 2.0, 10.0)
    grid: tuple[int, int] = (200, 200)
    z1_range: tuple[float, float] = (0.0, 14.0)
    z2_range: tuple[float, float] = (-5.0, 5.0)
    quad_r: float = 0.0          # 0 = problem default
    quad_n: int = 0
    taper: float = 0.15
    out: str = "oscint3-out"


def _parse_pairs(args: list[str]) -> dict[str, str]:
    if len(args) % 2:
        raise ConfigError(f"dangling option {args[-1]!r}")
    out = {}
    for k, v in zip(args[::2], args[1::2]):
        if not k.startswith("--"):
            raise ConfigError(f"expected --key, got {k!r}")
        out[k[2:]] = v
    return out


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    kv: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()
    kv.update(overrides or {})
    cfg = RunConfig()
    try:
        for k, v in kv.items():
            if k == "mode":
                if v not in MODES:
                    raise ConfigError(f"unknown mode {v!r}")
                cfg.mode = v
            elif k == "problem":
                if v not in problems.REGISTRY:
                    raise ConfigError(f"unknown problem {v!r}")
                cfg.problem = v
            elif k == "lambda":
                cfg.lambdas = tuple(float(s) for s in v.split(","))
                if any(l <= 0 for l in cfg.lambdas):
                    raise ConfigError("lambda must be positive")
            elif k == "z":
                parts = [float(s) for s in v.split(",")]
                if len(parts) != 3:
                    raise ConfigError("z needs three comma-separated values")
                cfg.z = tuple(parts)
            elif k == "tau":
                cfg.z = (cfg.z[0], cfg.z[1], float(v))
            elif k == "grid":
                n1, _, n2 = v.partition("x")
                cfg.grid = (int(n1), int(n2 or n1))
            elif k in ("z1-range", "z2-range"):
                a, _, b = v.partition(":")
                rng = (float(a), float(b))
                setattr(cfg, k.replace("-", "_"), rng)
            elif k == "quad-r":
                cfg.quad_r = float(v)
            elif k == "quad-n":
                cfg.quad_n = int(v)
            elif k == "taper":
                cfg.taper = float(v)
            elif k == "out":
                cfg.out = v
            else:
                raise ConfigError(f"unknown key {k!r}")
        if not np.all(np.isfinite([*cfg.lambdas, *cfg.z, *cfg.z1_range,
                                   *cfg.z2_range, cfg.quad_r, cfg.taper])):
            raise ConfigError("numbers must be finite")
        _quad_spec(cfg, problems.REGISTRY[cfg.problem])   # checks quad-*, taper
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if cfg.mode in ("field", "fronts"):
        if cfg.grid[0] < 1 or cfg.grid[1] < 1:
            raise ConfigError("grid must be nonempty in field/fronts modes")
        if cfg.problem != "kelvin":
            raise ConfigError(f"mode {cfg.mode!r} requires problem=kelvin")
    return cfg


def _fmt(v) -> str:
    return f"{float(v):.16e}"


def write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_fmt(c) if isinstance(c, (int, float, np.floating))
                              and not isinstance(c, bool) else str(c)
                              for c in row) + "\r\n")


def write_pgm(path: str, img: np.ndarray) -> None:
    """ASCII PGM; values in [-1, 1] map to 0..255, NaN (masked) to 127."""
    g = np.where(np.isnan(img), 127,
                 np.clip(np.round((img + 1) / 2 * 255), 0, 255)).astype(int)
    h, w = g.shape
    with open(path, "w") as fh:
        fh.write(f"P2\n{w} {h}\n255\n")
        for row in g:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def _quad_spec(cfg: RunConfig, entry: problems.ProblemEntry) -> oracle.QuadratureSpec:
    d = entry.default_quad
    return oracle.QuadratureSpec(R=cfg.quad_r or d.R, n=cfg.quad_n or d.n,
                                 window=d.window, taper=cfg.taper, shift=d.shift)


def run(cfg: RunConfig) -> list[str]:
    """Execute one configured run; returns the list of files written."""
    entry = problems.REGISTRY[cfg.problem]
    problem = entry.build()
    if problem.phase.family is not None:
        problem = replace(problem, phase=problem.phase.with_z(cfg.z))
    spec = _quad_spec(cfg, entry)

    def reference(lam: float):
        v = entry.reference(problem, lam, spec)
        return float(np.real(v)) if entry.real_field else v

    files: list[str] = []

    if cfg.mode == "classify":
        rows = []
        for sp in detect.detect_all(problem):
            w = sp.witness if sp.witness is not None else (float("nan"),) * 3
            rows.append([*sp.location, sp.kind.value, "+".join(sp.components),
                         sp.contributes, sp.reason, *w])
        path = f"{cfg.out}-classify.csv"
        write_csv(path, ["x1", "x2", "x3", "kind", "components", "contributes",
                         "reason", "witness1", "witness2", "witness3"], rows)
        files.append(path)

    elif cfg.mode == "asym":
        rows = [[np.real(t.coeff), np.imag(t.coeff), t.power, t.phase0]
                for t in entry.terms(problem)]
        path = f"{cfg.out}-asym.csv"
        write_csv(path, ["re_coeff", "im_coeff", "power", "phase0"], rows)
        files.append(path)

    elif cfg.mode == "oracle":
        rows = []
        for lam in cfg.lambdas:
            v = reference(lam)
            rows.append([lam, np.real(v), np.imag(v)])
        path = f"{cfg.out}-oracle.csv"
        write_csv(path, ["lambda", "re", "im"], rows)
        files.append(path)

    elif cfg.mode == "compare":
        terms = entry.terms(problem)
        rows = []
        for lam in cfg.lambdas:
            t0 = time.perf_counter()
            a = asym.evaluate(terms, lam, problem.prefactor, entry.real_field)
            o = reference(lam)
            dt = time.perf_counter() - t0
            rel = abs(a - o) / abs(o) if abs(o) > 0 else float("inf")
            rows.append([lam, np.real(a), np.imag(a), np.real(o), np.imag(o),
                         rel, dt])
        path = f"{cfg.out}-compare.csv"
        write_csv(path, ["lambda", "asym_re", "asym_im", "oracle_re",
                         "oracle_im", "rel_error", "runtime_s"], rows)
        files.append(path)

    elif cfg.mode == "field":
        lam = cfg.lambdas[0]
        tau = cfg.z[2]
        ax1 = np.linspace(*cfg.z1_range, cfg.grid[0])
        ax2 = np.linspace(*cfg.z2_range, cfg.grid[1])
        fg = field_map(ax1, ax2, tau, lam)
        rows = ([a, b, fg.values[i, j], int(fg.mask[i, j])]
                for i, a in enumerate(ax1) for j, b in enumerate(ax2))
        path = f"{cfg.out}-field.csv"
        write_csv(path, ["z1", "z2", "field", "mask"], rows)
        files.append(path)
        valid = fg.mask & MASK_INVALID == 0
        vmax = np.max(np.abs(fg.values[valid])) if np.any(valid) else 1.0
        img = np.where(valid, fg.values / (vmax or 1.0), np.nan)
        path = f"{cfg.out}-field.pgm"
        write_pgm(path, img.T[::-1])
        files.append(path)

    elif cfg.mode == "fronts":
        lam = cfg.lambdas[0]
        tau = cfg.z[2]
        ax1 = np.linspace(*cfg.z1_range, cfg.grid[0])
        ax2 = np.linspace(*cfg.z2_range, cfg.grid[1])
        for fam in (1, 2):
            img = render_wavefronts(ax1, ax2, tau, lam, fam)
            path = f"{cfg.out}-fronts-family{fam}.pgm"
            write_pgm(path, img.T[::-1])
            files.append(path)

    return files


NUMERIC_ERRORS = (
    oracle.SingularityTooClose, oracle.NonConvergent, oracle.PoleCollision,
    detect.NoConvergence, detect.NonTransversal, detect.Indeterminate,
    detect.DecompositionResidual, detect.SingularGradientMatrix,
    asym.UnsupportedExponent, asym.DegenerateConfiguration,
    asym.DegenerateCurvature, asym.DegenerateRestrictedHessian,
    DegenerateFamily, MergeProximity, OutOfRange,
    np.linalg.LinAlgError,
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        text = ""
        if argv and argv[0] == "--config":
            if len(argv) < 2:
                raise ConfigError("--config needs a path")
            with open(argv[1]) as fh:
                text = fh.read()
            argv = argv[2:]
        cfg = parse_config(text, _parse_pairs(argv))
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        files = run(cfg)
    except NUMERIC_ERRORS as e:
        print(f"numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
