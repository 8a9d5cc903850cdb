import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscint3
from oscint3 import detect, kelvin, oracle, problems
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
    assert oracle_re == float(np.real(
        oracle.kelvin_oracle(z1, z2, tau, lam, spec)))
    assert asym_im == oracle_im == 0.0


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
