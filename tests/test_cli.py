"""Command-line front end: suites, certify, merge, determinism."""

import configparser
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from negdimcd import gradflow, transport
from negdimcd.cli import _record, main
from negdimcd.quadrature import QuadratureError
from negdimcd.report import CheckReport


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_records(out_dir):
    with open(out_dir / "records.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


ROOT = Path(__file__).resolve().parents[1]


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    """The CLI in a fresh interpreter, so stderr shows what a user sees."""
    return subprocess.run([sys.executable, "-m", "negdimcd.cli", *args],
                          capture_output=True, text=True, env=src_env(), timeout=60)


OVERFLOW_CERTIFY_CFG = """
[certify]
N = -0.25
grid = 2

[function]
expr = cosh(x)
domain = 1.0 6.0
"""


CONVEXITY_CFG = """
[run]
suite = convexity
seed = 42

[function]
kind = c

[params]
K = 0
N = -2
pairs = 25
"""


class TestRun:
    def test_convexity_equality_family(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", CONVEXITY_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        header, rows = read_records(out)
        assert header == ["check_id", "params", "worst_margin", "pass"]
        assert len(rows) == 3
        assert all(r[3] == "true" for r in rows)
        assert {r[0] for r in rows} == {"convexity/pointwise", "convexity/geodesic",
                                        "convexity/derivative"}
        for r in rows:
            assert abs(float(r[2])) <= 1e-8
        assert (out / "summary.txt").read_text().count("PASS") == 3

    # family a at K = 3.9, N = -0.47 on (-2, 2): c_{K/N}(d) f_N(x0) reaches
    # 6.7e6, and the equality case reads -1.86e-9 there, two ulps of it
    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_derivative_round_off_passes_and_a_larger_k_fails(self, tmp_path, seed):
        text = """
[run]
suite = convexity

[function]
{function}

[params]
K = {K}
N = -0.47
pairs = 400
"""
        cfg = write_cfg(tmp_path / "a.cfg", text.format(function="kind = a", K=3.9))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "a"), "--seed", seed]) == 0
        _, rows = read_records(tmp_path / "a")
        assert rows[2] == ["convexity/derivative", "K=3.9;N=-0.47;pairs=400",
                           "-1.862645149230957e-09", "true"]
        # the same function as an expression, claimed at K * (1 + 1e-6)
        function = "expr = 0.47*log(cosh(sqrt(3.9/0.47)*x))\ndomain = -2 2"
        cfg = write_cfg(tmp_path / "k.cfg", text.format(function=function,
                                                        K=3.9 * (1 + 1e-6)))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "k"), "--seed", seed]) == 1
        _, rows = read_records(tmp_path / "k")
        assert rows[2][0] == "convexity/derivative" and rows[2][3] == "false"
        assert float(rows[2][2]) < -3.0

    def test_rejects_positive_n(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg", CONVEXITY_CFG.replace("N = -2", "N = 2"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert "N must be negative" in capsys.readouterr().err

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg",
                        CONVEXITY_CFG.replace("suite = convexity", "suite = nope"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert "suite" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", CONVEXITY_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", cfg, "--out-dir", str(out1), "--seed", "7"]) == 0
        assert main(["run", cfg, "--out-dir", str(out2), "--seed", "7"]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    def test_flow_suite(self, tmp_path):
        cfg = write_cfg(tmp_path / "f.cfg", """
[run]
suite = flow

[potential]
expr = x**2/2
domain = -3 3

[params]
K = 1
N = -2
z = -1 0 2
step = 2e-3
""")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        _, rows = read_records(out)
        assert any(r[0] == "flow/evi" for r in rows)
        assert all(r[3] == "true" for r in rows)

    def test_transport_talagrand_record(self, tmp_path):
        cfg = write_cfg(tmp_path / "t.cfg", """
[run]
suite = transport

[space]
kind = gaussian

[mu0]
kind = gaussian
mean = 1.0

[params]
K = 1
N = -2
checks = talagrand
""")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        _, rows = read_records(out)
        assert rows[0][0] == "transport/talagrand"
        assert float(rows[0][2]) == pytest.approx(0.0368, abs=1e-3)

    def test_geometry_suite_sphere(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.cfg", """
[run]
suite = geometry

[space]
kind = sphere

[params]
N = -2
u = cos(theta)
mesh = 800
""")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        _, rows = read_records(out)
        by_id = {r[0]: r for r in rows}
        assert float(by_id["geometry/min-ricci"][2]) == pytest.approx(1.0, abs=1e-9)
        assert "lambda1=" in by_id["geometry/spectral-gap"][1]
        # u = cos on the round sphere has Bochner margin 4 cos^2(theta) at
        # N = -2; exact derivatives give its grid minimum to round-off
        pad = np.pi * 1e-3
        want = np.min(4.0 * np.cos(np.linspace(pad, np.pi - pad, 64)) ** 2)
        assert float(by_id["geometry/bochner"][2]) == pytest.approx(want, rel=1e-12)

    def test_shipped_sphere_bochner_record_is_correctly_rounded(self, tmp_path):
        # the record is 4 cos^2(theta) at the grid argmin, within one ulp of
        # its value to 40 digits
        out = tmp_path / "out"
        assert main(["run", str(ROOT / "configs" / "geometry-sphere.cfg"),
                     "--out-dir", str(out)]) == 0
        _, rows = read_records(out)
        got = float({r[0]: r for r in rows}["geometry/bochner"][2])
        pad = np.pi * 1e-3
        with mpmath.workdps(40):
            want = float(min(4 * mpmath.cos(mpmath.mpf(float(theta))) ** 2
                             for theta in np.linspace(pad, np.pi - pad, 64)))
        assert abs(got - want) <= math.ulp(want)

    def test_tol_reaches_the_spectral_gap(self, tmp_path):
        # lambda1 shifts by 3.1e-6 when the mesh of 2000 cells is halved,
        # which is inconclusive at a tolerance of 1e-12
        cfg = str(ROOT / "configs" / "geometry-sphere.cfg")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), "--tol", "1e-12"]) == 1
        _, rows = read_records(out)
        by_id = {r[0]: r for r in rows}
        assert by_id["geometry/spectral-gap"][3] == "false"
        assert by_id["geometry/min-ricci"][3] == "true"

    def test_inconclusive_spectral_gap_margin_is_nan(self, tmp_path):
        # at 8 cells lambda1 shifts by 0.18 when the mesh is halved, which is
        # inconclusive at a tolerance of 1e-6; lambda1 - bound is positive
        # there, so writing it would grade a positive margin as failed
        text = (ROOT / "configs" / "geometry-sphere.cfg").read_text()
        cfg = write_cfg(tmp_path / "g.cfg", text.replace("mesh = 2000", "mesh = 8"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), "--tol", "1e-6"]) == 1
        _, rows = read_records(out)
        gap = {r[0]: r for r in rows}["geometry/spectral-gap"]
        assert "mesh=8;" in gap[1]
        assert math.isnan(float(gap[2]))
        assert gap[3] == "false"

    def test_summary_shows_status_and_note(self, tmp_path):
        # only a plain checked report with an empty note goes without them;
        # records.csv keeps its four columns
        text = (ROOT / "configs" / "geometry-sphere.cfg").read_text()
        cfg = write_cfg(tmp_path / "g.cfg", text.replace("mesh = 2000", "mesh = 8"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), "--tol", "1e-6"]) == 1
        header, rows = read_records(out)
        assert {len(row) for row in rows} == {len(header)}
        ricci, bochner, gap = rows
        lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"PASS  geometry/min-ricci  margin=1.0  {ricci[1]}  status=info note="
        assert lines[1] == f"PASS  geometry/bochner  margin={bochner[2]}  {bochner[1]}"
        prefix = (f"FAIL  geometry/spectral-gap  margin=nan  {gap[1]}  "
                  "status=inconclusive note=mesh too coarse: lambda1 shifted by ")
        assert lines[2].startswith(prefix)
        assert float(lines[2][len(prefix):]) == pytest.approx(0.18, abs=0.01)


SQRT_CFG = """
[run]
suite = convexity

[function]
expr = sqrt(x)
domain = -1 3

[params]
K = 0
N = -2
"""


LOG_FLOW_CFG = """
[run]
suite = flow

[potential]
expr = log(x)
domain = 0.5 3

[params]
K = 0
N = -2
x0 = 1
step = 1e-2
"""


class TestFlowDomain:
    def test_curve_stays_in_the_potential_domain(self, tmp_path, monkeypatch, capsys):
        # the exact curve sqrt(1 - 2t) of log(x) from 1 leaves (0.5, 3) at
        # t = 0.375, so the run writes no record
        curves = []

        def integrate_flow(*args, **kwargs):
            curves.append(real(*args, **kwargs))
            return curves[-1]

        real = gradflow.integrate_flow
        monkeypatch.setattr(gradflow, "integrate_flow", integrate_flow)
        cfg = write_cfg(tmp_path / "f.cfg", LOG_FLOW_CFG)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: curve stops before the step of 0.01 from t=0.37, "
            "x=0.5099019477247225: a stage point 0.49990387017302906 is outside "
            "the domain (0.5, 3.0)\n")
        assert not (tmp_path / "o").exists()
        (curve,) = curves
        assert 0.5 < curve.points.min() and curve.points.max() <= 3.0

    def test_start_outside_the_domain_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "f.cfg", LOG_FLOW_CFG.replace("x0 = 1", "x0 = 4"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: [params] x0 4.0 outside the [potential] domain (0.5, 3.0)\n")

    def test_nan_start_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "f.cfg", LOG_FLOW_CFG.replace("x0 = 1", "x0 = nan"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: [params] x0 nan outside the [potential] domain (0.5, 3.0)\n")
        assert not (tmp_path / "o").exists()


CERTIFY_CFG = """
[certify]
N = -2 -10

[function]
expr = x**2/2
domain = -3 3
"""


TRANSPORT_CFG = (ROOT / "configs" / "transport-gaussian.cfg").read_text(encoding="utf-8")
TRANSPORT_CHECKS = "checks = entropic hwi talagrand logsobolev"


class TestConfigNumbers:
    @pytest.mark.parametrize("text, edit, message", [
        (LOG_FLOW_CFG, ("K = 0", "K = zero"), "[params] K: expected a number, got 'zero'"),
        (LOG_FLOW_CFG, ("step = 1e-2", "step = fine"),
         "[params] step: expected a number, got 'fine'"),
        (CONVEXITY_CFG, ("seed = 42", "seed = x"), "[run] seed: expected an integer, got 'x'"),
        (CONVEXITY_CFG, ("pairs = 25", "t_grid = 0.25 half"),
         "[params] t_grid: expected space-separated numbers, got '0.25 half'"),
        (CERTIFY_CFG, ("N = -2 -10", "N = -2 minus10"),
         "[certify] N: expected space-separated numbers, got '-2 minus10'"),
        (LOG_FLOW_CFG, ("domain = 0.5 3", "domain = 0.5"),
         "[potential] domain: expected two numbers, got '0.5'"),
        # the grids ended with "error: no margins to reduce", and the empty
        # lists of checks, N and z wrote records of nothing or less and exited 0
        (CONVEXITY_CFG, ("pairs = 25", "pairs = 25\ngrid = 0"),
         "[params] grid must be at least 1, got 0"),
        (CERTIFY_CFG, ("N = -2 -10", "N = -2 -10\ngrid = 0"),
         "[certify] grid must be at least 1, got 0"),
        (CONVEXITY_CFG, ("pairs = 25", "pairs = 25\nt_grid ="),
         "[params] t_grid: expected space-separated numbers, got ''"),
        (TRANSPORT_CFG, (TRANSPORT_CHECKS, "checks = entropic\nt_grid ="),
         "[params] t_grid: expected space-separated numbers, got ''"),
        (TRANSPORT_CFG, (TRANSPORT_CHECKS, "checks ="),
         "[params] checks: expected check names, got ''"),
        (CERTIFY_CFG, ("N = -2 -10", "N ="),
         "[certify] N: expected space-separated numbers, got ''"),
        (LOG_FLOW_CFG, ("x0 = 1", "x0 = 1\nz ="),
         "[params] z: expected space-separated numbers, got ''"),
        # these ended with error lines naming no section, and the windows
        # with the messages of the check, the segment draw or interior_grid
        (CONVEXITY_CFG, ("kind = c\n\n[params]\nK = 0", "kind = a\n\n[params]\nK = -1"),
         "[function] kind 'a' requires K > 0"),
        (CONVEXITY_CFG, ("kind = c", "expr = x**2\ndomain = 2 1"),
         "[function] domain (2.0, 1.0) is not a finite interval lo < hi"),
        (CONVEXITY_CFG, ("kind = c", "expr = x**2\ndomain = 0 inf"),
         "[function] domain (0.0, inf) is not a finite interval lo < hi"),
        (CERTIFY_CFG, ("domain = -3 3", "domain = nan 1"),
         "[function] domain (nan, 1.0) is not a finite interval lo < hi"),
        (LOG_FLOW_CFG, ("expr = log(x)\ndomain = 0.5 3", "kind = b"),
         "[potential] kind 'b' requires K > 0"),
        # a kind's window is held to the same rule: these ended with the
        # segment draw's message or interior_grid's, and the flow ran
        (CONVEXITY_CFG, ("kind = c\n\n[params]\nK = 0",
                         "kind = b\ndomain = 0.5 inf\n\n[params]\nK = 1"),
         "[function] domain (0.5, inf) is not a finite interval lo < hi"),
        (CERTIFY_CFG, ("N = -2 -10\n\n[function]\nexpr = x**2/2\ndomain = -3 3",
                       "N = -2 -10\nK_hint = 1\n\n[function]\nkind = b\ndomain = 0.5 inf"),
         "[function] domain (0.5, inf) is not a finite interval lo < hi"),
        (LOG_FLOW_CFG, ("expr = log(x)\ndomain = 0.5 3\n\n[params]\nK = 0",
                        "kind = b\ndomain = 0.5 inf\n\n[params]\nK = 1"),
         "[potential] domain (0.5, inf) is not a finite interval lo < hi"),
    ], ids=["K", "step", "seed", "t_grid", "certify-N", "domain", "grid0", "certify-grid0",
            "empty-t_grid", "transport-empty-t_grid", "empty-checks", "certify-empty-N",
            "empty-z", "kind-a-K", "reversed-expr-domain", "infinite-expr-domain",
            "certify-nan-domain", "flow-kind-b-K", "infinite-kind-domain",
            "certify-infinite-kind-domain", "flow-infinite-kind-domain"])
    def test_bad_number_names_its_key(self, tmp_path, capsys, text, edit, message):
        assert edit[0] in text
        cfg = write_cfg(tmp_path / "c.cfg", text.replace(*edit))
        command = "certify" if text is CERTIFY_CFG else "run"
        assert main([command, cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


def geometry_records(tmp_path, space):
    cfg = write_cfg(tmp_path / "g.cfg", f"""
[run]
suite = geometry

[space]
{space}

[params]
N = -2
""")
    out = tmp_path / space.split()[2]
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    return {r[0]: r for r in read_records(out)[1]}


class TestSpaceKinds:
    def test_line_weight_matches_the_gaussian(self, tmp_path):
        line = geometry_records(tmp_path, "kind = line\nweight = x**2/2\ninterval = -8 8")
        gauss = geometry_records(tmp_path, "kind = gaussian")
        assert line["geometry/min-ricci"] == gauss["geometry/min-ricci"]
        assert line["geometry/min-ricci"][2] == "1.000133467034336"
        assert line["geometry/bochner"] == gauss["geometry/bochner"]
        assert line["geometry/bochner"][2] == "0.0026767555219617527"
        assert float(line["geometry/spectral-gap"][2]) == pytest.approx(
            float(gauss["geometry/spectral-gap"][2]), abs=1e-12)

    def test_lebesgue_interval(self, tmp_path):
        # flat weight: Ric_N = 0 and the Neumann gap of (-1, 2) is (pi/3)^2
        rows = geometry_records(tmp_path, "kind = lebesgue\ninterval = -1 2")
        assert rows["geometry/min-ricci"][2] == "0.0"
        assert rows["geometry/bochner"][2] == "0.0"
        lambda1 = float(rows["geometry/spectral-gap"][1].split("lambda1=")[1].split(";")[0])
        assert lambda1 == pytest.approx((math.pi / 3.0) ** 2, abs=1e-6)

    def test_deep_double_well_gap(self, tmp_path):
        # e^-psi reaches 1e-167: the symmetrized matrix overflowed, and the run
        # ended with "error: array must not contain infs or NaNs"
        rows = geometry_records(tmp_path, "kind = line\nweight = 6*(x**2-1)**2\n"
                                          "interval = -3 3")
        params = dict(p.split("=") for p in rows["geometry/spectral-gap"][1].split(";"))
        assert params["mesh"] == "2000"
        assert float(params["lambda1"]) == pytest.approx(0.0248464623, rel=1e-9)

    def test_underflowing_weight_is_an_error_line(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.cfg", """
[run]
suite = geometry

[space]
kind = line
weight = 30*(x**2-1)**2
interval = -3 3

[params]
N = -2
""")
        proc = run_cli("run", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == ("error: spectral gap: the weight is 0.0 at x=-2.997; "
                               "e^-psi must be positive and finite\n")

    @pytest.mark.parametrize("suite, space, interval", [
        ("geometry", "kind = lebesgue\ninterval = 3 1", (3.0, 1.0)),
        ("geometry", "kind = gaussian\nradius = -1", (1.0, -1.0)),
        ("transport", "kind = gaussian\nradius = 0", (-0.0, 0.0)),
    ], ids=["reversed-interval", "negative-radius", "zero-radius"])
    def test_empty_line_is_an_error_line(self, tmp_path, capsys, suite, space, interval):
        # each wrote true records on an interval of length <= 0
        cfg = write_cfg(tmp_path / "e.cfg", f"""
[run]
suite = {suite}

[space]
{space}

[mu0]
kind = gaussian

[mu1]
kind = gaussian
mean = 0.5

[params]
K = 1
N = -2
checks = cd
""")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: [space] line interval {interval!r} is not a finite interval lo < hi\n")
        assert not (tmp_path / "o").exists()


SPHERE_CFG = (ROOT / "configs" / "geometry-sphere.cfg").read_text(encoding="utf-8")


class TestGeometryParams:
    def test_sphere_u_defaults_to_cos_theta(self, tmp_path):
        assert "u = cos(theta)\n" in SPHERE_CFG
        for name, text in (("shipped", SPHERE_CFG),
                           ("bare", SPHERE_CFG.replace("u = cos(theta)\n", ""))):
            cfg = write_cfg(tmp_path / f"{name}.cfg", text)
            assert main(["run", cfg, "--out-dir", str(tmp_path / name)]) == 0
        assert ((tmp_path / "bare" / "records.csv").read_bytes()
                == (tmp_path / "shipped" / "records.csv").read_bytes())

    @pytest.mark.parametrize("edit, message", [
        *[(f"mesh = {m}", f"[params] mesh must be at least 4, got {m}")
          for m in (0, 1, -5, 2, 3)],
        *[(f"mesh = 2000\ngrid = {g}", f"[params] grid must be at least 1, got {g}")
          for g in (0, -1)],
    ], ids=["mesh0", "mesh1", "mesh-5", "mesh2", "mesh3", "grid0", "grid-1"])
    def test_small_mesh_or_grid_is_an_error_line(self, tmp_path, capsys, edit, message):
        # tracebacks before: ZeroDivisionError, IndexError, scipy's
        # select_range out of bounds, numpy's argmin of an empty sequence
        cfg = write_cfg(tmp_path / "g.cfg", SPHERE_CFG.replace("mesh = 2000", edit))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestConfigSyntax:
    @pytest.mark.parametrize("text, message", [
        ("suite = flow\n", "error: File contains no section headers."),
        ("[run]\nsuite = flow\n[run]\nseed = 1\n", "section 'run' already exists"),
        ("[run]\nsuite = flow\nsuite = convexity\n", "option 'suite' in section 'run' "
                                                    "already exists"),
    ], ids=["no-section-header", "duplicate-section", "duplicate-key"])
    def test_syntax_error_is_an_error_line(self, tmp_path, capsys, text, message):
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


BATTERY = ROOT / "configs" / "battery.cfg"


GROUPS_CFG = """
[run]
seed = 3

[convexity.run]
suite = convexity

[convexity.function]
kind = c

[convexity.params]
K = 0
N = -2
pairs = 5

[flow.run]
suite = flow

[flow.potential]
expr = x**2/2
domain = -3 3

[flow.params]
K = 1
N = -2
step = 1e-2
"""


class TestSectionGroups:
    def test_battery_is_its_groups_run_one_after_another(self, tmp_path):
        # each group as a stand-alone file at the battery's seed: their
        # records, in file order, are the battery's byte for byte
        battery = configparser.ConfigParser(interpolation=None)
        battery.optionxform = str
        battery.read(BATTERY)
        groups = {}
        for name in battery.sections():
            group, dot, section = name.partition(".")
            if dot:
                groups.setdefault(group, {})[section] = dict(battery[name])
        assert list(groups) == ["convexity", "flow", "sphere", "gaussian", "model-weight"]
        rows = []
        for group, sections in groups.items():
            sections["run"]["seed"] = "42"
            single = configparser.ConfigParser(interpolation=None)
            single.optionxform = str
            single.read_dict(sections)
            with open(tmp_path / f"{group}.cfg", "w", encoding="utf-8") as fh:
                single.write(fh)
            out = tmp_path / group
            assert main(["run", str(tmp_path / f"{group}.cfg"), "--out-dir", str(out)]) == 0
            rows += (out / "records.csv").read_bytes().splitlines(keepends=True)[1:]
        assert main(["run", str(BATTERY), "--out-dir", str(tmp_path / "battery")]) == 0
        header = b"check_id,params,worst_margin,pass\n"
        assert (tmp_path / "battery" / "records.csv").read_bytes() == header + b"".join(rows)

    def test_battery_summary_has_no_info_line(self, tmp_path):
        assert main(["run", str(BATTERY), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert all(line.startswith("PASS  ") for line in lines[:-1])
        assert lines[-1] == "total: 24/24 passed"

    @pytest.mark.parametrize("edit, message", [
        (("[run]\n", "[run]\nsuite = flow\n"),
         "[run] suite: with section groups each group names its suite in [<group>.run]"),
        (("suite = flow\n", "suite = flow\nseed = 7\n"),
         "group flow: [run] seed: a group's [run] holds only suite"),
        (("suite = flow\n", "suite = flows\n"),
         "group flow: [run] suite='flows' not one of "
         "['convexity', 'flow', 'geometry', 'transport']"),
        (("K = 1\n", ""), "group flow: missing key [params] K"),
        (("[flow.params]", "[params]"), "[params] is outside every group"),
    ], ids=["suite-beside-groups", "group-seed", "unknown-suite", "missing-key",
            "section-outside-groups"])
    def test_bad_group_is_an_error_line(self, tmp_path, capsys, edit, message):
        cfg = write_cfg(tmp_path / "g.cfg", GROUPS_CFG.replace(*edit))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_groups_share_the_file_tol_and_out_dir(self, tmp_path):
        # a tolerance of -1 asks every margin to reach 1
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path / "g.cfg", GROUPS_CFG.replace(
            "seed = 3", f"seed = 3\ntol = -1\nout_dir = {out}"))
        assert main(["run", cfg]) == 1
        _, rows = read_records(out)
        assert [r[0].split("/")[0] for r in rows] == ["convexity"] * 3 + ["flow"] * 4
        assert all(r[3] == "false" for r in rows)


class TestTolReachesEveryCheck:
    @pytest.mark.parametrize("command, name, n_rows", [("run", "battery", 24),
                                                       ("certify", "certify-quadratic", 2)])
    def test_minus_one_fails_every_margin_below_one(self, tmp_path, command, name, n_rows):
        # a tolerance of -1 asks every margin to reach 1: a row below 1 that
        # passes ran at some other tolerance.  min-ricci is an info row, whose
        # margin is the measured curvature
        out = tmp_path / "o"
        assert main([command, str(ROOT / "configs" / f"{name}.cfg"), "--tol", "-1",
                     "--out-dir", str(out)]) == 1
        _, rows = read_records(out)
        assert len(rows) == n_rows
        passing = [r for r in rows if r[3] == "true"]
        assert all(float(r[2]) >= 1 or r[0] == "geometry/min-ricci" for r in passing)

    def test_no_tol_leaves_each_check_its_default(self, tmp_path, monkeypatch):
        # the CLI ran brunn_minkowski at 1e-8 and regularizing_bounds at
        # 1e-6, looser than their own 1e-9
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def called(*args, **kwargs):
                calls.append((name, kwargs.get("tol")))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, called)

        spy(transport, "brunn_minkowski")
        spy(gradflow, "regularizing_bounds")
        assert main(["run", str(BATTERY), "--out-dir", str(tmp_path / "a")]) == 0
        assert calls == [("regularizing_bounds", None)] * 3 + [("brunn_minkowski", None)]
        calls.clear()
        main(["run", str(BATTERY), "--tol", "1e-7", "--out-dir", str(tmp_path / "b")])
        assert calls == [("regularizing_bounds", 1e-7)] * 3 + [("brunn_minkowski", 1e-7)]


class TestRecordValues:
    def test_row_keeps_signs_of_infinities(self):
        rows = [_record("s", CheckReport("x", False, v, None, 1, 0.0))[2]
                for v in (-np.inf, np.inf, np.nan, -0.5, 0.0)]
        assert rows == ["-inf", "inf", "nan", "-0.5", "0.0"]
        assert [float(r) for r in rows[:2]] == [-np.inf, np.inf]

    def test_undefined_points_keep_minus_inf_and_nan(self, tmp_path, capsys):
        # sqrt is undefined on x < 0: the pointwise margin there is -inf, and
        # the pairs reaching x < 0 have NaN margins, which the reduction over
        # all pairs keeps beside the finite ones of pairs inside (0, 3)
        cfg = write_cfg(tmp_path / "s.cfg", SQRT_CFG)
        with np.errstate(invalid="ignore"):
            assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert "FAIL convexity/pointwise margin=-inf" in capsys.readouterr().out
        _, rows = read_records(tmp_path / "o")
        assert [r[0] for r in rows] == ["convexity/pointwise", "convexity/geodesic",
                                        "convexity/derivative"]
        assert [r[2:] for r in rows] == [["-inf", "false"], ["nan", "false"],
                                         ["nan", "false"]]


class TestRunErrors:
    def test_no_admissible_segment_is_a_config_error(self, tmp_path):
        # pi*sqrt(N/K) = 3.1e-7 is below 1e-6 of the window: no pair exists
        cfg = write_cfg(tmp_path / "h.cfg", """
[run]
suite = convexity

[function]
expr = x**2/2
domain = -3 3

[params]
K = -1e14
N = -1
""")
        proc = run_cli("run", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: no segment length")

    def test_infinite_n_is_a_config_error(self, tmp_path, capsys):
        # f_N/|N| = 1/inf = 0 made every margin 0: three true records,
        # although f'' = -2 < K
        cfg = write_cfg(tmp_path / "n.cfg", """
[run]
suite = convexity

[function]
expr = -x**2
domain = -1 1

[params]
K = 5
N = -inf
""")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: [params] N: N must be negative and finite, got -inf\n")
        assert not (tmp_path / "o").exists()

    def test_no_pairs_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", CONVEXITY_CFG.replace("pairs = 25", "pairs = 0"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert "pairs must be at least 1" in capsys.readouterr().err

    def test_quadrature_failure_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("integral did not stabilize after 6 doublings")

        monkeypatch.setattr(transport, "check_entropic_cd", fail)
        cfg = write_cfg(tmp_path / "t.cfg", """
[run]
suite = transport

[space]
kind = gaussian

[mu0]
kind = gaussian

[mu1]
kind = gaussian
mean = 1.0

[params]
K = 1
N = -2
checks = entropic
""")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: integral did not stabilize after 6 doublings\n")

    def test_overflowing_entropy_is_an_error_line(self, tmp_path):
        # exp(-Ent(mu0)/N) overflows for a normal 60 sd out in the Gaussian
        # reference measure: an OverflowError traceback ended the run before
        text = shipped("transport-gaussian").replace(
            "kind = gaussian\n\n[mu0]", "kind = gaussian\nradius = 100\n\n[mu0]")
        cfg = write_cfg(tmp_path / "e.cfg", text.replace("mean = 1.0", "mean = 60"))
        proc = run_cli("run", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    def test_flow_with_too_many_steps_is_an_error_line(self, tmp_path, capsys):
        text = (ROOT / "configs" / "flow-quadratic.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path / "f.cfg", text.replace("horizon = 2.0", "horizon = 1e9"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: horizon/step = 1000000000.0/0.001 is more than 1000000 RK4 steps\n")

    @pytest.mark.parametrize("name, edit, message", [
        ("transport-model-weight", ("A0 = 1 2", "A0 = 2 1"),
         "A0 (2.0, 1.0) is not a finite interval lo < hi"),
        ("transport-model-weight", ("A0 = 1 2", "A0 = -inf 0"),
         "A0 (-inf, 0.0) is not a finite interval lo < hi"),
        ("transport-gaussian", ("mean = 1.0\nsd = 1.0", "mean = 1.0\nsd = 0"),
         "[mu0] need a finite mean and a finite sd > 0, got mean=1.0, sd=0.0"),
        ("transport-gaussian", ("mean = 1.0\nsd = 1.0", "mean = 1.0\nsd = inf"),
         "[mu0] need a finite mean and a finite sd > 0, got mean=1.0, sd=inf"),
        ("transport-gaussian", ("mean = 0.0\nsd = 1.0", "mean = 0.0\nsd = -1"),
         "[mu1] need a finite mean and a finite sd > 0, got mean=0.0, sd=-1.0"),
        ("transport-gaussian", ("mean = 0.0\nsd = 1.0", "mean = nan\nsd = 1.0"),
         "[mu1] need a finite mean and a finite sd > 0, got mean=nan, sd=1.0"),
        ("transport-gaussian", ("kind = gaussian\nmean = 1.0\nsd = 1.0",
                                "kind = uniform\ninterval = 2 1"),
         "[mu0] need a < b, got a=2.0, b=1.0"),
        # an infinite end read "narrower than its 2048 intervals"
        ("transport-gaussian", ("kind = gaussian\nmean = 0.0\nsd = 1.0",
                                "kind = uniform\ninterval = 1 inf"),
         "[mu1] support (1.0, inf) is not a finite interval lo < hi"),
        ("transport-model-weight", ("interval = 0.5 8", "interval = -1 2"),
         "[space] need a finite exponent and 0 < lo < hi for a power weight, "
         "got exponent=-3.0, lo=-1.0, hi=2.0"),
        ("transport-model-weight", ("exponent = -3", "exponent = nan"),
         "[space] need a finite exponent and 0 < lo < hi for a power weight, "
         "got exponent=nan, lo=0.5, hi=8.0"),
        ("transport-gaussian", ("[space]\nkind = gaussian",
                                "[space]\nkind = gaussian\ncurv = -1"),
         "[space] curv must be positive and finite, got -1.0"),
        ("transport-gaussian", ("[space]\nkind = gaussian",
                                "[space]\nkind = gaussian\ncurv = inf"),
         "[space] curv must be positive and finite, got inf"),
    ], ids=["empty-A0", "infinite-A0", "zero-sd", "infinite-sd", "mu1-sd", "nan-mean",
            "uniform", "infinite-uniform", "power", "nan-exponent", "curv", "infinite-curv"])
    def test_bad_measure_names_its_value(self, tmp_path, capsys, name, edit, message):
        text = shipped(name)
        assert edit[0] in text
        cfg = write_cfg(tmp_path / "c.cfg", text.replace(*edit))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        CONVEXITY_CFG + "grid = 1000000000000000\n",
        CONVEXITY_CFG.replace("pairs = 25", "pairs = 1000000000000000"),
    ])
    def test_unallocatable_size_is_an_error_line(self, tmp_path, text):
        # numpy raises MemoryError at once for 8 PB; no traceback follows
        cfg = write_cfg(tmp_path / "m.cfg", text)
        proc = run_cli("run", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: Unable to allocate")
        assert proc.stderr.count("\n") == 1


def shipped(name):
    return (ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8")


class TestTimeKeys:
    @pytest.mark.parametrize("name, edit, message", [
        # t0 = 0.1005 is half a step from the grid: the records said t0=0.1005
        # while the check ran at t = 0.1 or 0.101
        ("flow-quadratic", ("t0 = 0.1", "t0 = 0.1005"),
         "[params] t0: time 0.1005 is not on the curve grid of step 0.001"),
        ("flow-quadratic", ("t1 = 0.5", "t1 = 5"),
         "[params] t1: time 5.0 is outside the curve's span [0, 2.0]"),
        ("flow-quadratic", ("t0 = 0.1", "t0 = 0.6"),
         "need 0 <= t0 <= t1, got t0=0.6 and t1=0.5"),
        ("flow-quadratic", ("horizon = 2.0", "horizon = 2.0005"),
         "[params] horizon/2: time 1.00025 is not on the curve grid of step 0.001"),
        ("convexity-log-family", ("pairs = 50", "pairs = 50\nt_grid = 0.5 1.5"),
         "[params] t_grid: expected times in [0, 1], got '0.5 1.5'"),
        ("transport-model-weight", ("checks = cd cdstar jacobian bm",
                                    "checks = cd\nt_grid = 0.5 2"),
         "[params] t_grid: expected times in [0, 1], got '0.5 2'"),
        ("transport-model-weight", ("t = 0.5", "t = 1.5"),
         "[params] t: expected times in [0, 1], got '1.5'"),
        # the energy identity runs from 10*step to horizon/2: these ended with
        # "time 5.0 is outside the curve's span [0, 2.0]" and "need 0 < t_from
        # < t_to inside the curve horizon"
        ("flow-quadratic", ("step = 1e-3\nhorizon = 2.0\nz = -1 0 2\nt0 = 0.1",
                            "step = 0.5\nhorizon = 2.0\nz = -1 0 2\nt0 = 0.5"),
         "[params] step: the energy identity runs from 10*step = 5.0 to horizon/2 = 1.0; "
         "it needs 10*step < horizon/2"),
        ("flow-quadratic", ("step = 1e-3", "step = 0.1"),
         "[params] step: the energy identity runs from 10*step = 1.0 to horizon/2 = 1.0; "
         "it needs 10*step < horizon/2"),
    ], ids=["off-grid-t0", "t1-beyond-horizon", "t0-after-t1", "off-grid-horizon",
            "convexity-t_grid", "transport-t_grid", "bm-t", "edi-start-beyond-end",
            "edi-start-at-end"])
    def test_bad_time_names_its_key(self, tmp_path, capsys, name, edit, message):
        text = shipped(name)
        assert edit[0] in text
        cfg = write_cfg(tmp_path / "c.cfg", text.replace(*edit))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestTransportMeasures:
    @pytest.mark.parametrize("name, edit, message", [
        # 44 % of the uniform's mass lay off the space, and cd-cd, cd-cdstar
        # and jacobian-convexity passed
        ("transport-model-weight", ("interval = 1 2", "interval = 0.1 1"),
         "[mu0] mass 0.444 lies outside the [space] interval (0.5, 8.0)"),
        # the whole normal lay off the Gaussian line, and the run ended in a
        # traceback
        ("transport-gaussian", ("mean = 1.0", "mean = 200"),
         "[mu0] mass 1 lies outside the [space] interval (-8.0, 8.0)"),
    ], ids=["uniform-below-the-interval", "normal-off-the-line"])
    def test_measure_off_the_space_is_an_error_line(self, tmp_path, capsys, name, edit,
                                                    message):
        text = shipped(name)
        assert edit[0] in text
        cfg = write_cfg(tmp_path / "c.cfg", text.replace(*edit))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestCertify:
    def test_quadratic_certificate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "q.cfg", """
[certify]
N = -10
grid = 401

[function]
expr = x**2/2
domain = -3 3
""")
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        _, rows = read_records(tmp_path / "o")
        kval = float(rows[0][1].split("K=")[1])
        assert kval == pytest.approx(1.0, abs=1e-5)

    def test_log_family_certificate_is_zero(self, tmp_path):
        cfg = write_cfg(tmp_path / "l.cfg", """
[certify]
N = -2
grid = 401

[function]
kind = c
domain = 0.5 4
""")
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        _, rows = read_records(tmp_path / "o")
        kval = float(rows[0][1].split("K=")[1])
        assert abs(kval) <= 1e-5

    def test_constant_certificate_every_n(self, tmp_path):
        cfg = write_cfg(tmp_path / "k.cfg", """
[certify]
N = -1 -2 -8
grid = 101

[function]
expr = 3 + 0*x
domain = -1 1
""")
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        _, rows = read_records(tmp_path / "o")
        assert len(rows) == 3
        for r in rows:
            kval = float(r[1].split("K=")[1])
            assert abs(kval) <= 1e-5

    def test_kind_family_certifies_its_k_hint(self, tmp_path, capsys):
        # K_hint is the K that builds a kind family; family b is an equality
        # case, so its Bakry-Emery term is K_hint on every grid point, at each N
        text = "[certify]\nN = -2 -5\nK_hint = 1\n\n[function]\nkind = b\n"
        cfg = write_cfg(tmp_path / "b.cfg", text)
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        _, rows = read_records(tmp_path / "o")
        assert [float(r[1].split("K=")[1]) for r in rows] == pytest.approx([1.0, 1.0],
                                                                           abs=1e-12)
        # without it the family is built at K = 0, which family b does not take
        cfg = write_cfg(tmp_path / "b0.cfg", text.replace("K_hint = 1\n", ""))
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "o0")]) == 2
        assert capsys.readouterr().err == "error: [function] kind 'b' requires K > 0\n"

    def test_infinite_n_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "n.cfg", """
[certify]
N = -2 -inf

[function]
expr = x**2/2
domain = -3 3
""")
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: [certify] N: N must be negative and finite, got -inf\n")

    def test_shipped_quadratic_config_records(self, tmp_path):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "certify-quadratic.cfg"
        assert main(["certify", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "records.csv").read_text(encoding="utf-8") == (
            "check_id,params,worst_margin,pass\n"
            "certify/pointwise,N=-10.0;K=1.0,0.0,true\n"
            "certify/pointwise,N=-2.0;K=1.0,0.0,true\n")

    def test_overflowed_f_n_certifies_its_own_k(self, tmp_path):
        # exp(cosh(6)/0.25) overflows; f'' - f'^2/N is finite and above K there
        cfg = write_cfg(tmp_path / "o.cfg", OVERFLOW_CERTIFY_CFG)
        with np.errstate(over="ignore"):
            assert main(["certify", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "records.csv").read_text(encoding="utf-8") == (
            "check_id,params,worst_margin,pass\n"
            "certify/pointwise,N=-0.25;K=7.06755043059214,0.0,true\n")


class TestOutDir:
    @pytest.mark.parametrize("command, text", [("run", CONVEXITY_CFG),
                                               ("certify", CERTIFY_CFG)])
    @pytest.mark.parametrize("sub, reason", [("", "File exists"),
                                             ("sub", "Not a directory")],
                             ids=["file", "below-a-file"])
    def test_unwritable_out_dir_is_an_error_line(self, tmp_path, capsys, command, text,
                                                 sub, reason):
        # tracebacks before: FileExistsError and NotADirectoryError
        cfg = write_cfg(tmp_path / "c.cfg", text)
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out = blocker / sub if sub else blocker
        assert main([command, cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write to the output directory {str(out)!r}: {reason}\n")
        assert blocker.read_text(encoding="utf-8") == ""


class TestQuietStderr:
    def test_nan_expression_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", CONVEXITY_CFG.replace(
            "kind = c", "expr = (2 - 3)**0.5 + x**2\ndomain = -1 1"))
        proc = run_cli("run", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_overflowing_certify(self, tmp_path):
        cfg = write_cfg(tmp_path / "o.cfg", OVERFLOW_CERTIFY_CFG)
        proc = run_cli("certify", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 0
        assert proc.stderr == ""


COLD_IMPORT_PROBE = """
import sys
import negdimcd.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = [scipy_modules()]
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    command = "certify" if "certify-" in config else "run"
    assert cli.main([command, config, "--out-dir", out]) == 0
    loaded.append(scipy_modules())
print(loaded)
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # the CLI needs numpy only: importing it, a transport run, a
    # certificate, the spectral gap and the battery load no scipy module
    names = ("transport-gaussian", "certify-quadratic", "geometry-sphere", "battery")
    args = [str(a) for name in names
            for a in (ROOT / "configs" / f"{name}.cfg", tmp_path / name)]
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT_PROBE, *args],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr([[]] * (len(names) + 1))


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, for its record reader and comparison."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.cfg")))
def test_shipped_config_matches_its_reference_records(config, tmp_path, workloads):
    # deleting code must not change a record: each shipped config, at its
    # own seed, against the references the benchmark checks
    ref = json.loads((ROOT / "perfbench" / "cli_references.json").read_text())[config]
    command = "certify" if config.startswith("certify-") else "run"
    code = main([command, str(ROOT / "configs" / config), "--out-dir", str(tmp_path)])
    assert code == ref["exit_code"]
    rows = workloads.read_records(tmp_path / "records.csv")
    assert rows[0] == ["check_id", "params", "worst_margin", "pass"]
    assert workloads.compare_records(rows[1:], ref["rows"]) is None


class TestMerge:
    def _mk(self, path, rows):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["check_id", "params", "worst_margin", "pass"])
            w.writerows(rows)
        return str(path)

    def test_merge_passing(self, tmp_path, capsys):
        a = self._mk(tmp_path / "a.csv", [["s1/x", "", "0.1", "true"]])
        b = self._mk(tmp_path / "b.csv", [["s2/y", "", "0.2", "true"]])
        assert main(["merge", a, b]) == 0
        out = capsys.readouterr().out
        assert "total: 2/2 passed" in out

    def test_merge_failure_listed_first(self, tmp_path, capsys):
        a = self._mk(tmp_path / "a.csv", [["s1/x", "", "0.1", "true"],
                                          ["s1/z", "", "-0.5", "false"]])
        assert main(["merge", a]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL s1/z")
        assert "s1: 1/2 passed" in "\n".join(lines)

    def test_merge_empty(self, capsys):
        assert main(["merge"]) == 0
        assert "total: 0/0 passed" in capsys.readouterr().out

    def test_merge_schema_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["merge", str(bad)]) == 2
        assert "schema mismatch" in capsys.readouterr().err

    def test_merge_missing_file(self, tmp_path, capsys):
        # an unmatched shell glob reaches merge as the pattern itself
        pattern = str(tmp_path / "*" / "records.csv")
        assert main(["merge", pattern]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read record file {pattern!r}: No such file or directory\n")

    def test_merge_short_row(self, tmp_path, capsys):
        a = self._mk(tmp_path / "a.csv", [["s1/x", "", "0.1", "true"], ["s1/y", "0.2"]])
        assert main(["merge", a]) == 2
        assert capsys.readouterr().err == f"error: {a} line 3: 2 fields, expected 4\n"

    @pytest.mark.parametrize("flag", ["True", "1", "", "pass", "false "])
    def test_merge_pass_field_is_true_or_false(self, tmp_path, capsys, flag):
        # such a row used to count silently as a failure
        a = self._mk(tmp_path / "a.csv", [["s1/x", "", "0.1", "true"],
                                          ["s1/y", "", "0.2", flag]])
        assert main(["merge", a]) == 2
        assert capsys.readouterr().err == (
            f"error: {a} line 3: pass field {flag!r} is not true or false\n")

    def test_merge_echoes_infinite_and_nan_margins_as_written(self, tmp_path, capsys):
        a = self._mk(tmp_path / "a.csv", [["s1/x", "K=1", "inf", "true"],
                                          ["s1/y", "K=2", "-inf", "false"],
                                          ["s1/z", "K=3", "nan", "false"]])
        assert main(["merge", a]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL s1/y margin=-inf K=2", "FAIL s1/z margin=nan K=3",
            "s1: 1/3 passed", "total: 1/3 passed"]

    def test_merge_prints_the_fail_lines_run_printed(self, tmp_path, capsys):
        cfg = str(ROOT / "configs" / "convexity-log-family.cfg")
        assert main(["run", cfg, "--tol", "-1", "--out-dir", str(tmp_path)]) == 1
        ran = capsys.readouterr().out.splitlines()[1:]
        assert len(ran) == 3 and all(line.startswith("FAIL ") for line in ran)
        assert main(["merge", str(tmp_path / "records.csv")]) == 1
        assert capsys.readouterr().out.splitlines()[:-2] == ran

    @pytest.mark.parametrize("flag", ["--tol", "--seed", "--out-dir"])
    def test_merge_takes_no_run_flags(self, tmp_path, capsys, flag):
        a = self._mk(tmp_path / "a.csv", [["s1/x", "", "0.1", "true"]])
        with pytest.raises(SystemExit) as exc:
            main(["merge", flag, "1", a])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestFunctionSection:
    @pytest.mark.parametrize("kind", ["c", "e"])
    def test_kind_beside_expr_is_an_error_line(self, tmp_path, capsys, kind):
        # whichever key the run took, the other would be ignored without a word
        cfg = write_cfg(tmp_path / "f.cfg", CONVEXITY_CFG.replace(
            "kind = c", f"kind = {kind}\nexpr = x**4\ndomain = 0.5 2"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: [function] needs kind=a|b|c|d or expr=..., not both\n")
        assert not (tmp_path / "o").exists()

    def test_unknown_kind_is_an_error_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "f.cfg", CONVEXITY_CFG.replace("kind = c", "kind = e"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: [function] unknown kind 'e'; expected one of a, b, c, d\n")


class TestExpressionGrammar:
    def test_rejects_outside_grammar(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", CONVEXITY_CFG.replace(
            "kind = c", "expr = __import__('os')\ndomain = 0.5 4"))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "grammar" in err or "not in the grammar" in err

    def test_complex_constant_fails_every_record(self, tmp_path, capsys):
        # (2 - 3)**0.5 is NaN, as in an array, not a complex number
        cfg = write_cfg(tmp_path / "c.cfg", CONVEXITY_CFG.replace(
            "kind = c", "expr = (2 - 3)**0.5 + x**2\ndomain = -1 1"))
        with np.errstate(invalid="ignore"):
            assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        assert "Traceback" not in capsys.readouterr().err
        _, rows = read_records(tmp_path / "o")
        assert len(rows) == 3 and all(r[3] == "false" for r in rows)

    def test_complex_constant_certify_fails(self, tmp_path):
        cfg = write_cfg(tmp_path / "k.cfg", """
[certify]
N = -2

[function]
expr = (2 - 3)**0.5 + x**2
domain = -1 1
""")
        with np.errstate(invalid="ignore"):
            assert main(["certify", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        _, rows = read_records(tmp_path / "o")
        assert [r[2:] for r in rows] == [["-inf", "false"]]

    def test_nonfinite_density_mass_is_an_error_line(self, tmp_path, capsys):
        # pdf(0) = inf would make the Simpson mass NaN; the node is named
        cfg = write_cfg(tmp_path / "m.cfg", """
[run]
suite = transport

[space]
kind = gaussian

[mu0]
kind = expr
expr = 0.5/sqrt(x)
support = 0 1

[mu1]
kind = gaussian

[params]
K = 1
N = -2
checks = cd jacobian
""")
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: [mu0] pdf inf is not finite at x=0.0\n"

    def test_endpoint_singularity_is_an_error_line(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", """
[run]
suite = transport

[space]
kind = gaussian

[mu0]
kind = expr
expr = 1/sqrt(x)
support = 0 1

[mu1]
kind = gaussian

[params]
K = 1
N = -2
checks = entropic
""")
        proc = run_cli("run", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: [mu0] pdf inf is not finite at x=0.0\n"

    def test_unbounded_support_is_an_error_line(self, tmp_path):
        # read "pdf nan is not finite at x=nan"
        cfg = write_cfg(tmp_path / "s.cfg", """
[run]
suite = transport

[space]
kind = gaussian

[mu0]
kind = expr
expr = exp(-x**2)
support = -inf 5

[mu1]
kind = gaussian

[params]
K = 1
N = -2
checks = entropic
""")
        proc = run_cli("run", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: [mu0] support (-inf, 5.0) is not a finite interval lo < hi\n"

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        import os
        monkeypatch.setenv("NEGDIMCD_OUT_DIR", str(tmp_path / "envout"))
        cfg = write_cfg(tmp_path / "c.cfg", CONVEXITY_CFG)
        assert main(["run", cfg]) == 0
        assert os.path.exists(tmp_path / "envout" / "records.csv")
