"""Command-line surface: run detection, asymptotics, oracles, comparisons,
and field/wavefront rendering on the shipped problems.

Config is plain `key = value` text.  Keys apply in order, a repeated key at
its last position, so later keys win (`tau` after `z` replaces z's third
entry; `z` after `tau` replaces all three).  Any key can be overridden on the
command line as `--key value`, which applies after every key of the file.
Outputs are CSV tables (RFC-4180-ish, 17 significant digits) and ASCII PGM
images.

Exit codes: 0 success, 2 config error or an output path that cannot be
written, 3 numeric failure.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import asym, detect, oracle, problems
from .core import NumericFailure
from .kelvin import MASK_INVALID, FieldGrid, field_map, render_wavefronts

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

# the CSV header of each table mode; field and fronts write their own files
HEADERS = {
    "classify": ["x1", "x2", "x3", "kind", "components", "contributes", "reason"],
    "asym": ["re_coeff", "im_coeff", "power", "phase0"],
    "oracle": ["lambda", "re", "im"],
    "compare": ["lambda", "asym_re", "asym_im", "oracle_re", "oracle_im",
                "rel_error", "runtime_s"],
}
MODES = (*HEADERS, "field", "fronts")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    mode: str = "classify"
    problem: str = "gaussian-sp"
    lambdas: tuple[float, ...] = (40.0,)
    z: tuple[float, float, float] = problems.DEFAULT_Z
    grid: tuple[int, int] = (200, 200)
    z1_range: tuple[float, float] = (0.0, 14.0)
    z2_range: tuple[float, float] = (-5.0, 5.0)
    quad_r: float = 0.0          # 0 = problem default
    quad_n: int = 0
    taper: float = oracle.QuadratureSpec.taper
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
        k, v = (part.strip() for part in line.split("=", 1))
        kv.pop(k, None)   # a repeated key applies at its last position
        kv[k] = v
    for k, v in (overrides or {}).items():
        kv.pop(k, None)
        kv[k] = v
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


def _csv_line(row: list) -> str:
    """A table row as a CSV line: numbers (not bools) in `%.16e`, the rest by str."""
    return ",".join("%.16e" % c if isinstance(c, (int, float, np.floating))
                    and not isinstance(c, bool) else str(c) for c in row) + "\r\n"


def _field_lines(fg: FieldGrid) -> Iterator[str]:
    """The `field` CSV body in `_csv_line` form, one block per z1 row: each axis
    and mask value is formatted once (the mask's found by bincount, as np.unique
    sorts a copy of the grid), a row's field values by one %-format."""
    z2s = [",%.16e," % b for b in fg.z2_axis.tolist()]
    present = np.flatnonzero(np.bincount(fg.mask.ravel()))
    masks = {m: ",%.16e\r\n" % m for m in present.tolist()}
    for a, vals, ms in zip(fg.z1_axis.tolist(), fg.values, fg.mask):
        z1 = "%.16e" % a
        fields = ("%.16e," * len(z2s) % tuple(vals.tolist())).split(",")
        yield "".join([z1 + b + v + masks[m]
                       for b, v, m in zip(z2s, fields, ms.tolist())])


def write_csv(path: str, header: list[str], lines: Iterable[str]) -> None:
    """Write the header line and then each CSV text block of `lines` as is."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def write_pgm(path: str, img: np.ndarray) -> None:
    """ASCII PGM; values in [-1, 1] map to 0..255, NaN (masked) to 127."""
    g = np.where(np.isnan(img), 127,
                 np.clip(np.round((img + 1) / 2 * 255), 0, 255)).astype(int)
    h, w = g.shape
    gray = [str(v) for v in range(256)]
    with open(path, "w") as fh:
        fh.write(f"P2\n{w} {h}\n255\n")
        for row in g:
            fh.write(" ".join(map(gray.__getitem__, row.tolist())) + "\n")


def _quad_spec(cfg: RunConfig, entry: problems.ProblemEntry) -> oracle.QuadratureSpec:
    d = entry.default_quad or oracle.QuadratureSpec()   # no spec: check quad-* anyway
    return oracle.QuadratureSpec(R=cfg.quad_r or d.R, n=cfg.quad_n or d.n,
                                 taper=cfg.taper)


def run(cfg: RunConfig) -> list[str]:
    """Execute one configured run; returns the list of files written."""
    entry = problems.REGISTRY[cfg.problem]
    problem = entry.build(cfg.z)
    spec = _quad_spec(cfg, entry)

    if cfg.mode in ("field", "fronts"):   # the wake at tau and the first Lambda
        lam, tau = cfg.lambdas[0], cfg.z[2]
        ax1 = np.linspace(*cfg.z1_range, cfg.grid[0])
        ax2 = np.linspace(*cfg.z2_range, cfg.grid[1])
        if cfg.mode == "fronts":
            files = []
            for fam, img in enumerate(render_wavefronts(ax1, ax2, tau, lam), start=1):
                files.append(f"{cfg.out}-fronts-family{fam}.pgm")
                write_pgm(files[-1], img.T[::-1])
            return files
        fg = field_map(ax1, ax2, tau, lam)
        csv_path, pgm_path = f"{cfg.out}-field.csv", f"{cfg.out}-field.pgm"
        write_csv(csv_path, ["z1", "z2", "field", "mask"], _field_lines(fg))
        valid = fg.mask & MASK_INVALID == 0
        vmax = np.max(np.abs(fg.values[valid])) if np.any(valid) else 1.0
        img = np.where(valid, fg.values / (vmax or 1.0), np.nan)
        write_pgm(pgm_path, img.T[::-1])
        return [csv_path, pgm_path]

    if cfg.mode == "classify":
        rows = [[*sp.location, sp.kind.value, "+".join(sp.components),
                 sp.contributes, sp.reason] for sp in detect.detect_all(problem)]
    elif cfg.mode == "asym":
        rows = [[np.real(t.coeff), np.imag(t.coeff), t.power, t.phase0]
                for t in entry.terms(problem)]
    elif cfg.mode == "oracle":
        rows = []
        for lam in cfg.lambdas:
            v = entry.reference(problem, lam, spec)
            rows.append([lam, np.real(v), np.imag(v)])
    else:   # compare
        terms = entry.terms(problem)
        rows = []
        for lam in cfg.lambdas:
            t0 = time.perf_counter()
            a = asym.evaluate(terms, lam, problem.prefactor, entry.real_field)
            o = entry.reference(problem, lam, spec)
            dt = time.perf_counter() - t0
            # an exact 0 against a reference of exactly 0 is no error
            rel = (abs(a - o) / abs(o) if abs(o) > 0
                   else 0.0 if a == 0 else float("inf"))
            rows.append([lam, np.real(a), np.imag(a), np.real(o), np.imag(o),
                         rel, dt])
    path = f"{cfg.out}-{cfg.mode}.csv"
    write_csv(path, HEADERS[cfg.mode], map(_csv_line, rows))
    return [path]


NUMERIC_ERRORS = (NumericFailure, OverflowError, np.linalg.LinAlgError)


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
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 2
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
