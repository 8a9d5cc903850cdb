import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscint3
from oscint3 import cli, detect, kelvin, oracle, problems
from oscint3.cli import ConfigError, _quad_spec, main, parse_config, run, write_pgm


# ---------------------------------------------------------------------------
# config parsing

def test_parse_defaults():
    cfg = parse_config("")
    assert cfg.mode == "classify"
    assert cfg.problem == "gaussian-sp"
    assert cfg.lambdas == (40.0,)


def test_parse_basic_keys():
    cfg = parse_config("""
        # a comment line
        mode = compare
        problem = pole-sp
        lambda = 20,40,80
        out = /tmp/x   # trailing comment
    """)
    assert cfg.mode == "compare"
    assert cfg.problem == "pole-sp"
    assert cfg.lambdas == (20.0, 40.0, 80.0)
    assert cfg.out == "/tmp/x"


def test_parse_grid_and_ranges():
    cfg = parse_config("mode = field\nproblem = kelvin\n"
                       "grid = 120x80\nz1-range = 0:12\nz2-range = -4:4\n")
    assert cfg.grid == (120, 80)
    assert cfg.z1_range == (0.0, 12.0)
    assert cfg.z2_range == (-4.0, 4.0)


def test_parse_square_grid_shorthand():
    cfg = parse_config("mode = fronts\nproblem = kelvin\ngrid = 64\n")
    assert cfg.grid == (64, 64)


def test_parse_z_and_tau():
    cfg = parse_config("z = 3, 1.5, 10\ntau = 12\n")
    assert cfg.z == (3.0, 1.5, 12.0)
    # a --key override applies after the file, even to a key the file set first
    cfg = parse_config("tau = 6\nz = 1,2,10\n", {"tau": "8"})
    assert cfg.z == (1.0, 2.0, 8.0)
    # a key repeated in the file applies at its last position
    cfg = parse_config("tau = 6\nz = 1,2,10\ntau = 7\n")
    assert cfg.z == (1.0, 2.0, 7.0)


def test_later_key_wins():
    cfg = parse_config("lambda = 20\nlambda = 80\n")
    assert cfg.lambdas == (80.0,)


def test_overrides_win_over_file():
    cfg = parse_config("lambda = 20\n", {"lambda": "60"})
    assert cfg.lambdas == (60.0,)


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("mode = asym\nnot a key value line\n")


@pytest.mark.parametrize("text", [
    "mode = explode\n",
    "problem = nonexistent\n",
    "bogus-key = 3\n",
    "lambda = -5\n",
    "z = 1,2\n",
    "lambda = abc\n",
    "mode = field\nproblem = gaussian-sp\n",   # field needs kelvin
    "mode = fronts\nproblem = kelvin\ngrid = 0x0\n",
    "quad-n = 15\n",                           # odd node count
    "mode = compare\nproblem = cone\ntaper = 0.9\n",
    "lambda = nan\n",                          # non-finite numbers
    "lambda = inf\n",
    "z = nan,1,10\n",
    "z1-range = nan:3\n",
    "quad-r = nan\n",
])
def test_parse_rejections(text):
    with pytest.raises(ConfigError):
        parse_config(text)


# ---------------------------------------------------------------------------
# run modes

def test_run_classify_csv(tmp_path):
    cfg = parse_config(f"mode = classify\nproblem = double-cross\n"
                       f"out = {tmp_path}/dc\n")
    (path,) = run(cfg)
    lines = open(path, newline="").read().split("\r\n")
    assert lines[0].split(",")[:4] == ["x1", "x2", "x3", "kind"]
    body = [l for l in lines[1:] if l]
    assert any("sp-on-crossing" in l for l in body)


def test_run_classify_kelvin_builds_at_run_z(tmp_path):
    """At slope 0.178 the diverging crossing pair lies at |xi2| = 7.41, outside
    the box of the default z = (2, 2, 10); the box built at the run's z holds
    it."""
    cfg = parse_config("mode = classify\nproblem = kelvin\n"
                       "z = 4.239236727820595,1.0206955600968026,10\n"
                       f"out = {tmp_path}/k\n")
    (path,) = run(cfg)
    rows = [l.split(",") for l in open(path, newline="").read().split("\r\n")[1:] if l]
    assert sum(r[5] == "True" for r in rows) == 4


def test_run_asym_csv(tmp_path):
    cfg = parse_config(f"mode = asym\nproblem = pole-sp\nlambda = 40\n"
                       f"out = {tmp_path}/ps\n")
    (path,) = run(cfg)
    lines = [l for l in open(path, newline="").read().split("\r\n") if l]
    assert lines[0] == "re_coeff,im_coeff,power,phase0"
    assert len(lines) == 2
    re_c, im_c, p, ph = (float(s) for s in lines[1].split(","))
    assert complex(re_c, im_c) == pytest.approx(-4 * np.pi ** 2, rel=1e-9)
    assert (p, ph) == (-1.0, 1.0)


def test_run_compare_decreasing_error(tmp_path):
    cfg = parse_config(f"mode = compare\nproblem = pole-sp\n"
                       f"lambda = 20,40\nout = {tmp_path}/cmp\n")
    (path,) = run(cfg)
    lines = [l for l in open(path, newline="").read().split("\r\n") if l]
    errs = [float(l.split(",")[5]) for l in lines[1:]]
    assert errs[1] < errs[0] < 3 / 20


def _csv_body(path):
    return [[float(c) for c in l.split(",")]
            for l in open(path, newline="").read().split("\r\n")[1:] if l]


def test_run_compare_detects_once(tmp_path, monkeypatch):
    calls = []
    real = detect.detect_all

    def counting(problem, *args, **kwargs):
        calls.append(problem)
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(detect, "detect_all", counting)
    cfg = parse_config(f"mode = compare\nproblem = pole-sp\n"
                       f"lambda = 20,40,80\nout = {tmp_path}/cmp\n")
    (path,) = run(cfg)
    assert len(_csv_body(path)) == 3
    assert len(calls) == 1


def test_run_compare_kelvin_matches_closed_form_and_oracle(tmp_path):
    z1, z2, tau, lam = 3.0, 1.5, 10.0, 40.0
    cfg = parse_config(f"mode = compare\nproblem = kelvin\n"
                       f"z = {z1},{z2},{tau}\nlambda = {lam}\n"
                       f"out = {tmp_path}/kc\n")
    (path,) = run(cfg)
    ((_, asym_re, asym_im, oracle_re, oracle_im, _, _),) = _csv_body(path)
    assert asym_re == kelvin.field_point(z1, z2, tau, lam)
    spec = _quad_spec(cfg, problems.REGISTRY["kelvin"])
    assert oracle_re == oracle.kelvin_oracle(z1, z2, tau, lam, spec)
    assert asym_im == oracle_im == 0.0


@pytest.mark.parametrize("mode,header", [
    ("classify", "x1,x2,x3,kind,components,contributes,reason,"
                 "witness1,witness2,witness3"),
    ("asym", "re_coeff,im_coeff,power,phase0"),
    ("oracle", "lambda,re,im"),
    ("compare", "lambda,asym_re,asym_im,oracle_re,oracle_im,rel_error,runtime_s"),
])
def test_table_modes_write_one_csv(tmp_path, mode, header):
    out = f"{tmp_path}/t"
    paths = run(parse_config(f"mode = {mode}\nproblem = gaussian-sp\n"
                             f"lambda = 20\nout = {out}\n"))
    assert paths == [f"{out}-{mode}.csv"]
    assert open(paths[0], newline="").read().split("\r\n")[0] == header


def test_run_oracle_kelvin_writes_real_field(tmp_path):
    """Kelvin's reference is the real field: `oracle` writes im = 0 and the
    re that `compare` writes as oracle_re, bit for bit."""
    text = f"problem = kelvin\nz = 3,1.5,10\nlambda = 20\nout = {tmp_path}/k\n"
    (orc,) = run(parse_config("mode = oracle\n" + text))
    (cmp,) = run(parse_config("mode = compare\n" + text))
    ((_, re, im),) = _csv_body(orc)
    ((_, _, _, oracle_re, _, _, _),) = _csv_body(cmp)
    assert im == 0.0
    assert re == oracle_re


def test_run_oracle_seventeen_digits(tmp_path):
    cfg = parse_config(f"mode = oracle\nproblem = gaussian-sp\nlambda = 20\n"
                       f"out = {tmp_path}/orc\n")
    (path,) = run(cfg)
    lines = [l for l in open(path, newline="").read().split("\r\n") if l]
    lam, re, im = lines[1].split(",")
    assert len(re.split("e")[0].replace("-", "").replace(".", "")) == 17


def _read_pgm(path):
    toks = open(path).read().split()
    assert toks[0] == "P2"
    w, h, maxval = int(toks[1]), int(toks[2]), int(toks[3])
    assert maxval == 255
    data = np.array([int(t) for t in toks[4:]]).reshape(h, w)
    return data


def test_run_fronts_pgm(tmp_path):
    cfg = parse_config(f"mode = fronts\nproblem = kelvin\nlambda = 40\n"
                       f"z = 0,0,10\ngrid = 60x40\nz1-range = 0:12\n"
                       f"z2-range = -4:4\nout = {tmp_path}/fr\n")
    paths = run(cfg)
    assert len(paths) == 2
    for p in paths:
        img = _read_pgm(p)
        assert img.shape == (40, 60)
        assert img.min() >= 0 and img.max() <= 255
        assert np.any(img == 127)          # masked region outside the wedge


def test_run_field_outputs(tmp_path):
    cfg = parse_config(f"mode = field\nproblem = kelvin\nlambda = 40\n"
                       f"z = 0,0,10\ngrid = 40x30\nz1-range = 0:12\n"
                       f"z2-range = -4:4\nout = {tmp_path}/fl\n")
    csv_path, pgm_path = run(cfg)
    lines = [l for l in open(csv_path, newline="").read().split("\r\n") if l]
    assert lines[0] == "z1,z2,field,mask"
    assert len(lines) == 1 + 40 * 30
    img = _read_pgm(pgm_path)
    assert img.shape == (30, 40)


def test_pgm_value_mapping(tmp_path):
    p = str(tmp_path / "t.pgm")
    write_pgm(p, np.array([[-1.0, 0.0, 1.0, np.nan]]))
    assert _read_pgm(p).ravel().tolist() == [0, 128, 255, 127]


# ---------------------------------------------------------------------------
# the writers against the per-cell loops they replaced

def _percell_fmt(v) -> str:
    return f"{float(v):.16e}"


def _percell_write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_percell_fmt(c) if isinstance(c, (int, float, np.floating))
                              and not isinstance(c, bool) else str(c)
                              for c in row) + "\r\n")


def _percell_write_pgm(path: str, img: np.ndarray) -> None:
    g = np.where(np.isnan(img), 127,
                 np.clip(np.round((img + 1) / 2 * 255), 0, 255)).astype(int)
    h, w = g.shape
    with open(path, "w") as fh:
        fh.write(f"P2\n{w} {h}\n255\n")
        for row in g:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def _percell_field_csv(path, ax1, ax2, fg) -> bytes:
    rows = ([a, b, fg.values[i, j], int(fg.mask[i, j])]
            for i, a in enumerate(ax1) for j, b in enumerate(ax2))
    _percell_write_csv(path, ["z1", "z2", "field", "mask"], rows)
    return open(path, "rb").read()


_S6 = float(np.sqrt(6.0))


@pytest.mark.parametrize("grid,z1r,z2r,tau,masks", [
    # z1 = 2 meets the tau = 10 merge curve at z2 = sqrt(6): mask 5 occurs
    ("29x25", "-3:11", f"-{_S6!r}:{_S6!r}", 10.0, {2, 3, 4, 5}),
    ("20x15", "0:14", "-5:5", 0.0, {0, 4}),
    ("1x1", "3:3", "1:1", 10.0, {3}),
    ("1x9", "3:3", "-4:4", 10.0, {2, 3, 4}),
    ("9x1", "0:14", "1.5:1.5", 10.0, {2, 3}),
    ("24x10", "0:14", "-5:5", 10.0, set(range(8))),   # every bit combination
], ids=["merge", "tau0", "1x1", "1xn", "nx1", "all-bits"])
def test_field_writers_match_percell_loops(tmp_path, monkeypatch, grid, z1r,
                                           z2r, tau, masks):
    """The field CSV and every PGM are byte-identical to the per-cell loops."""
    grids = []

    def field_map(ax1, ax2, t, lam):
        fg = kelvin.field_map(ax1, ax2, t, lam)
        if masks == set(range(8)):
            fg.mask = np.arange(fg.mask.size).reshape(fg.mask.shape) % 8
            fg.values[0, 4], fg.values[0, 5] = np.nan, -0.0   # both invalid
        grids.append((ax1, ax2, fg))
        return fg

    monkeypatch.setattr(cli, "field_map", field_map)
    text = (f"mode = field\nproblem = kelvin\nlambda = 40\nz = 0,0,{tau}\n"
            f"grid = {grid}\nz1-range = {z1r}\nz2-range = {z2r}\n")
    csv_path, pgm_path = run(parse_config(text + f"out = {tmp_path}/new\n"))
    ((ax1, ax2, fg),) = grids
    assert set(np.unique(fg.mask).tolist()) == masks
    want = _percell_field_csv(str(tmp_path / "old.csv"), ax1, ax2, fg)
    assert open(csv_path, "rb").read() == want
    valid = fg.mask & kelvin.MASK_INVALID == 0
    vmax = np.max(np.abs(fg.values[valid])) if np.any(valid) else 1.0
    _percell_write_pgm(str(tmp_path / "old.pgm"),
                       np.where(valid, fg.values / (vmax or 1.0), np.nan).T[::-1])
    assert open(pgm_path, "rb").read() == (tmp_path / "old.pgm").read_bytes()
    for fam, path in enumerate(run(parse_config(
            text.replace("field", "fronts") + f"out = {tmp_path}/new\n"))):
        _percell_write_pgm(str(tmp_path / "old.pgm"),
                           kelvin.render_wavefronts(ax1, ax2, tau, 40.0)[fam].T[::-1])
        assert open(path, "rb").read() == (tmp_path / "old.pgm").read_bytes()


def test_pgm_matches_percell_loop_at_nan_clip_and_halves(tmp_path):
    """NaN, values beyond +-1 (clipped) and exact halves, which np.round
    takes to the even neighbour."""
    halves = [v for v in ((2 * np.arange(255) + 1) / 255 - 1).tolist()
              if (v + 1) / 2 * 255 % 1 == 0.5]
    assert len(halves) > 20 and {round((v + 1) / 2 * 255 - 0.5) % 2
                                 for v in halves} == {0, 1}
    img = np.array([[np.nan, -1.0, 1.0, -1.5, 1.5, -np.inf, np.inf, 0.0, -0.0]
                    + halves[:11], halves[11:31]])
    p, q = str(tmp_path / "new.pgm"), str(tmp_path / "old.pgm")
    write_pgm(p, img)
    _percell_write_pgm(q, img)
    assert open(p, "rb").read() == open(q, "rb").read()
    assert _read_pgm(p)[0, :9].tolist() == [127, 0, 255, 0, 255, 0, 255, 128, 128]


def test_table_csv_matches_percell_loop(tmp_path):
    """The table modes' cells: floats, numpy floats, ints, bools, strings,
    None and NaN."""
    rows = [[1.5, np.float64(-0.0), 3, True, "sp-interior", None, float("nan")],
            [np.float32(0.1), -7, False, "a+b", "", np.inf, 1e-300]]
    header = ["a", "b", "c", "d", "e", "f", "g"]
    p, q = str(tmp_path / "new.csv"), str(tmp_path / "old.csv")
    cli.write_csv(p, header, map(cli._csv_line, rows))
    _percell_write_csv(q, header, rows)
    assert open(p, "rb").read() == open(q, "rb").read()


def test_field_csv_round_trips_to_field_map(tmp_path):
    """Each `%.16e` keeps 17 significant digits, so parsing the CSV gives
    field_map's values and mask back bit for bit, z1 outer and z2 inner."""
    cfg = parse_config(f"mode = field\nproblem = kelvin\nlambda = 40\n"
                       f"z = 0,0,10\ngrid = 37x23\nz1-range = 0:12\n"
                       f"z2-range = -4:4\nout = {tmp_path}/rt\n")
    csv_path, _ = run(cfg)
    with open(csv_path, newline="") as fh:
        header, *body = list(csv.reader(fh))
    assert header == ["z1", "z2", "field", "mask"]
    z1, z2, field, mask = np.array([[float(c) for c in r] for r in body]).T
    ax1, ax2 = np.linspace(0, 12, 37), np.linspace(-4, 4, 23)
    fg = kelvin.field_map(ax1, ax2, 10.0, 40.0)
    assert np.array_equal(z1, np.repeat(ax1, 23))
    assert np.array_equal(z2, np.tile(ax2, 37))
    assert np.array_equal(field, fg.values.ravel())
    assert np.array_equal(mask, fg.mask.ravel())


def test_field_csv_goes_through_write_csv_once(tmp_path, monkeypatch):
    """The field rows are formatted inside one `write_csv` call, path first,
    so a span around `write_csv` times and sizes the whole CSV."""
    calls = []
    real = cli.write_csv

    def counting(*args, **kwargs):
        real(*args, **kwargs)
        calls.append((args, kwargs, os.path.getsize(args[0])))

    monkeypatch.setattr(cli, "write_csv", counting)
    cfg = parse_config(f"mode = field\nproblem = kelvin\nlambda = 40\n"
                       f"z = 0,0,10\ngrid = 12x8\nout = {tmp_path}/sp\n")
    csv_path, _ = run(cfg)
    ((args, kwargs, size),) = calls
    assert args[0] == csv_path and not kwargs
    assert size == os.path.getsize(csv_path) and size > 12 * 8 * 4 * 23


# ---------------------------------------------------------------------------
# entry point and exit codes

def test_main_success(tmp_path, capsys):
    rc = main(["--mode", "asym", "--problem", "double-cross",
               "--out", str(tmp_path / "m")])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("m-asym.csv")


def test_module_entry_point_runs_without_warning(tmp_path):
    src = str(Path(oscint3.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    res = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "oscint3.cli",
         "--mode", "asym", "--problem", "gaussian-sp", "--out", str(tmp_path / "w")],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert getattr(oscint3, "cli") is sys.modules["oscint3.cli"]


def test_main_compare_kelvin_at_onset(tmp_path, capsys):
    # at tau = 0 the closed form and the oracle are both 0
    rc = main(["--mode", "compare", "--problem", "kelvin", "--z", "2,0.5,0",
               "--out", str(tmp_path / "k0")])
    assert rc == 0
    ((_, asym_re, asym_im, oracle_re, oracle_im, rel_error, _),) = _csv_body(
        capsys.readouterr().out.strip())
    assert asym_re == asym_im == oracle_re == oracle_im == 0.0
    assert rel_error == 0.0         # an exact agreement, not an infinite error


def test_main_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode = classify\nproblem = triple-cross\n"
                   f"out = {tmp_path}/t\n")
    assert main(["--config", str(cfg)]) == 0
    assert (tmp_path / "t-classify.csv").exists()


def test_main_bad_config_exit_2(capsys):
    assert main(["--problem", "nonexistent"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["--dangling"]) == 2
    assert main(["--config", "/nonexistent/path.cfg"]) == 2


def test_main_unwritable_out_exit_2(tmp_path, capsys):
    rc = main(["--mode", "asym", "--out", str(tmp_path / "missing" / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("z", [(2.0, float(np.sqrt(10.0 - 2.0 ** 2)), 10.0),
                               (3.0, 0.0, 10.0), (0.0, 0.0, 10.0)],
                         ids=["merge-curve", "track", "origin"])
def test_main_numeric_failure_exit_3(tmp_path, capsys, z):
    # kelvin asym exactly on the transient merge curve (MergeProximity), and
    # on the track z2 = 0 behind the body or at the origin (DegenerateFamily),
    # raises and maps to 3
    rc = main(["--mode", "asym", "--problem", "kelvin",
               "--z", ",".join(map(str, z)), "--out", str(tmp_path / "n")])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_main_overflow_exit_3(tmp_path, capsys):
    # Lambda = 1e-320 overflows Lambda^p of the gaussian-sp term (p = -3/2)
    rc = main(["--mode", "compare", "--problem", "gaussian-sp", "--lambda", "1e-320",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric failure: OverflowError")
    assert not (tmp_path / "o-compare.csv").exists()


def test_main_oracle_cone_too_few_nodes_exit_3(tmp_path, capsys):
    # quad-n 16 leaves no (n-32)-node rule to check the 3D rule against
    rc = main(["--mode", "oracle", "--problem", "cone", "--lambda", "30",
               "--quad-n", "16", "--out", str(tmp_path / "c")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric failure: NonConvergent")
    assert not (tmp_path / "c-oracle.csv").exists()
