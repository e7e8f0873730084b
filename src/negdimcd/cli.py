"""Batch command-line front end.

Config files are flat key-value INI files (section headers in brackets).
``negdimcd run`` executes a named check suite, or one suite per group of
``[<group>.<section>]`` sections in file order, and writes a human-readable
summary plus a machine-readable CSV record file (fixed column order:
check_id, params, worst_margin, pass).  ``negdimcd certify`` reports, per
N, the largest K whose pointwise criterion holds on the grid: the grid
minimum of the Bakry-Emery term f'' - f'^2/N.  ``negdimcd merge`` combines
record files.  Identical config + seed yields byte-identical record files.

Randomized checks draw from numpy Generators seeded by the splittable scheme
SeedSequence([seed, crc32(label)]): one 64-bit run seed, one stable label per
check family.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np

from . import convexity, geometry, gradflow, transport
from .comparison import negative_n
from .expr import compile_expr
from .quadrature import QuadratureError
from .report import CheckReport

__all__ = ["main"]

RECORD_HEADER = ["check_id", "params", "worst_margin", "pass"]
ENV_OUT_DIR = "NEGDIMCD_OUT_DIR"
_FAILURES = (ValueError, ArithmeticError, QuadratureError, MemoryError)


class ConfigError(ValueError):
    """Bad config or record file; the message names the offending key or line."""


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode())]))


def _record(suite: str, report: CheckReport, **params) -> list[str]:
    """The records.csv row of a report, in RECORD_HEADER order, then the
    report's status and note, which only the summary shows."""
    return [f"{suite}/{report.name}", ";".join(f"{k}={v}" for k, v in params.items()),
            repr(float(report.worst_margin)), "true" if report.passed else "false",
            report.status, report.note]


def _n_passed(rows: Sequence[list[str]]) -> int:
    return sum(row[3] == "true" for row in rows)


def _print_failures(rows: Sequence[list[str]]) -> int:
    """A FAIL line per failed row; the exit status, 1 if there was one."""
    failed = [row for row in rows if row[3] != "true"]
    for check_id, params, margin, *_ in failed:
        print(f"FAIL {check_id} margin={margin} {params}")
    return 1 if failed else 0


def _floats(raw: str) -> list[float]:
    if not raw.split():
        raise ValueError("no numbers")
    return [float(tok) for tok in raw.split()]


def _pair(raw: str) -> tuple[float, float]:
    lo, hi = _floats(raw)
    return lo, hi


_EXPECTED = {float: "a number", int: "an integer", _floats: "space-separated numbers",
             _pair: "two numbers"}


def _get(cfg, section: str, key: str, default=None, required: bool = False,
         conv=str):
    """[section] key converted by conv (str, float, int, _floats or _pair),
    else the default as given; a value conv rejects is an error naming the key."""
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"missing key [{section}] {key}")
        return default
    raw = cfg.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: expected {_EXPECTED[conv]}, "
                          f"got {raw!r}") from exc


def _unit_times(cfg, key: str, default, conv):
    """[params] key converted by conv (float or _floats), each time in [0, 1]."""
    value = _get(cfg, "params", key, default, conv=conv)
    if not all(0.0 <= t <= 1.0 for t in np.atleast_1d(value)):
        raise ConfigError(f"[params] {key}: expected times in [0, 1], "
                          f"got {cfg.get('params', key)!r}")
    return value


def _count(cfg, section: str, key: str, default: int, least: int = 1) -> int:
    """[section] key as an integer of at least ``least``."""
    n = _get(cfg, section, key, default, conv=int)
    if n < least:
        raise ConfigError(f"[{section}] {key} must be at least {least}, got {n}")
    return n


def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                    interpolation=None)
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        # its messages span lines: one line for the error: prefix
        raise ConfigError(" ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    return cfg


def _negative_n(value: float, key: str) -> float:
    try:
        return negative_n(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _params_n(cfg) -> float:
    return _negative_n(_get(cfg, "params", "N", required=True, conv=float), "[params] N")


def _tol(cli_value: float | None, cfg, section: str) -> dict:
    """--tol, else [section] tol, as each check's tol keyword; none keeps its default."""
    tol = cli_value if cli_value is not None else _get(cfg, section, "tol", conv=float)
    return {"tol": tol} if tol is not None else {}


# ---------------------------------------------------------------------------
# builders from config sections


def _naming_section(build):
    """build(cfg, section, ...) with a builder's ValueError prefixed by the section."""
    def built(cfg, section: str, *args):
        try:
            return build(cfg, section, *args)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    return built


@_naming_section
def _function_from(cfg, section: str, K: float, N: float):
    """A scalar function plus evaluation window from a [function] section."""
    kind = _get(cfg, section, "kind")
    expr = _get(cfg, section, "expr")
    window = _get(cfg, section, "domain", conv=_pair)
    if (kind is None) == (expr is None):
        raise ConfigError(f"[{section}] needs kind=a|b|c|d or expr=..., not both")
    if kind is not None:
        f, dom = convexity.example_function(kind, K, N)
        # without a domain, a default window inside the stated open domain
        window = window or {
            "a": (-2.0, 2.0),
            "b": (0.25, 3.0),
            "c": (0.25, 4.0),
            "d": (dom[0] * 0.9, dom[1] * 0.9),
        }[kind]
        if not (dom[0] <= window[0] < window[1] <= dom[1]):
            raise ConfigError(f"[{section}] domain {window} outside {dom}")
    elif window is None:
        raise ConfigError(f"[{section}] expr functions need an explicit domain")
    else:
        f = compile_expr(expr)
    if not -math.inf < window[0] < window[1] < math.inf:
        raise ValueError(f"domain {window} is not a finite interval lo < hi")
    return f, window


@_naming_section
def _space_from(cfg, section: str) -> geometry.WeightedLine | geometry.RotSphere:
    kind = _get(cfg, section, "kind", required=True)
    if kind == "gaussian":
        curv = _get(cfg, section, "curv", 1.0, conv=float)
        radius = _get(cfg, section, "radius", 8.0, conv=float)
        return geometry.gaussian_line(curv, radius)
    if kind == "power":
        exponent = _get(cfg, section, "exponent", required=True, conv=float)
        lo, hi = _get(cfg, section, "interval", required=True, conv=_pair)
        return geometry.power_weight_line(exponent, lo, hi)
    if kind == "lebesgue":
        lo, hi = _get(cfg, section, "interval", required=True, conv=_pair)
        return geometry.lebesgue_line(lo, hi)
    if kind == "line":
        lo, hi = _get(cfg, section, "interval", required=True, conv=_pair)
        weight = _get(cfg, section, "weight", required=True)
        return geometry.WeightedLine((lo, hi), compile_expr(weight))
    if kind == "sphere":
        return geometry.RotSphere(compile_expr(_get(cfg, section, "weight") or "0", var="theta"))
    raise ConfigError(f"[{section}] kind={kind!r} not one of "
                      "gaussian|power|lebesgue|line|sphere")


@_naming_section
def _density_from(cfg, section: str, space: geometry.WeightedLine) -> transport.Density1D:
    """A measure from a [mu0]/[mu1] section, at most MASS_TOL of it off the space."""
    kind = _get(cfg, section, "kind", required=True)
    if kind == "gaussian":
        mean = _get(cfg, section, "mean", 0.0, conv=float)
        sd = _get(cfg, section, "sd", 1.0, conv=float)
        mu = transport.gaussian_density(mean, sd)
    elif kind == "uniform":
        lo, hi = _get(cfg, section, "interval", required=True, conv=_pair)
        mu = transport.uniform_density(lo, hi)
    elif kind == "expr":
        expr = _get(cfg, section, "expr", required=True)
        lo, hi = _get(cfg, section, "support", required=True, conv=_pair)
        fun = compile_expr(expr)
        mu = transport.Density1D(support=(lo, hi), pdf=fun, d_pdf=fun.deriv,
                                 normalize=True, name=expr)
    else:
        raise ConfigError(f"[{section}] kind={kind!r} not one of gaussian|uniform|expr")
    below, upto = mu.cdf(space.interval)
    outside = below + (1.0 - upto)
    if outside > transport.MASS_TOL:
        raise ValueError(f"mass {outside:.3g} lies outside the [space] interval "
                         f"{space.interval}")
    return mu


# ---------------------------------------------------------------------------
# suites


def _admissible_pairs(rng, window, limit, count):
    """Ends x0, x1 of segments of length in (1e-6 * window, min(limit, window))."""
    lo, hi = window
    shortest, longest = 1e-6 * (hi - lo), min(limit, hi - lo)
    if not shortest < longest:
        raise ConfigError(f"no segment length lies between 1e-6 of the window "
                          f"{window} and pi*sqrt(N/K)={limit!r}")
    lengths = rng.uniform(shortest, longest, size=count)
    starts = rng.uniform(lo, hi - lengths)
    return starts, starts + lengths


def run_convexity(cfg, seed: int, tol: dict) -> list[list[str]]:
    K = _get(cfg, "params", "K", required=True, conv=float)
    N = _params_n(cfg)
    f, window = _function_from(cfg, "function", K, N)
    p = convexity.ConvexityParams(K, N, window)
    n_pairs = _count(cfg, "params", "pairs", 40)
    grid_n = _count(cfg, "params", "grid", 200)
    t_grid = _unit_times(cfg, "t_grid", [0.25, 0.5, 0.75], _floats)
    rng = _rng(seed, "convexity-pairs")
    x0, x1 = _admissible_pairs(rng, window, p.radius_limit(), n_pairs)
    grid = convexity.interior_grid(window, grid_n)
    return [_record("convexity", convexity.check_pointwise(f, p, grid, **tol),
                    K=K, N=N, grid=grid_n),
            _record("convexity", convexity.check_geodesic(f, p, x0, x1, t_grid, **tol),
                    K=K, N=N, pairs=n_pairs),
            _record("convexity", convexity.check_derivative(f, p, x0, x1, **tol),
                    K=K, N=N, pairs=n_pairs)]


def run_flow(cfg, seed: int, tol: dict) -> list[list[str]]:
    del seed  # flow checks are deterministic
    K = _get(cfg, "params", "K", required=True, conv=float)
    N = _params_n(cfg)
    f, domain = _function_from(cfg, "potential", K, N)
    x0 = _get(cfg, "params", "x0", 1.0, conv=float)
    if not domain[0] <= x0 <= domain[1]:
        raise ConfigError(f"[params] x0 {x0!r} outside the [potential] domain {domain}")
    step = _get(cfg, "params", "step", 1e-3, conv=float)
    horizon = _get(cfg, "params", "horizon", 2.0, conv=float)
    zs = _get(cfg, "params", "z", [0.0], conv=_floats)
    t0 = _get(cfg, "params", "t0", 0.1, conv=float)
    t1 = _get(cfg, "params", "t1", 0.5, conv=float)
    curve = gradflow.integrate_flow(f, x0, horizon, step, domain)
    if curve.note:
        raise ConfigError(curve.note)
    mid = horizon / 2.0
    for key, t in (("t0", t0), ("t1", t1), ("horizon/2", mid)):
        try:
            curve.index_at(t)
        except ValueError as exc:
            raise ConfigError(f"[params] {key}: {exc}") from exc
    if not step * 10 < mid:
        raise ConfigError(f"[params] step: the energy identity runs from 10*step = "
                          f"{step * 10!r} to horizon/2 = {mid!r}; it needs "
                          "10*step < horizon/2")
    records = [_record("flow", gradflow.verify_edi(curve, f, step * 10, mid, **tol),
                       x0=x0, step=step)]
    for z in zs:
        rep = gradflow.verify_evi(curve, f, K, N, z, **tol)
        records.append(_record("flow", rep, K=K, N=N, z=z))
        rep = gradflow.verify_evi_integrated(curve, f, K, N, z, t0, t1, **tol)
        records.append(_record("flow", rep, K=K, N=N, z=z, t0=t0, t1=t1))
        rep = gradflow.regularizing_bounds(curve, f, K, N, "regularity", z=z, t=mid, **tol)
        records.append(_record("flow", rep, K=K, N=N, z=z, t=mid))
    return records


def run_geometry(cfg, seed: int, tol: dict) -> list[list[str]]:
    del seed
    N = _params_n(cfg)
    space = _space_from(cfg, "space")
    grid_n = _count(cfg, "params", "grid", 400)
    cert = geometry.min_ricci_n(space, N,
                                convexity.interior_grid(space.interval, grid_n, 1e-3))
    records = [_record("geometry", cert, N=N, grid=grid_n)]
    var = "theta" if isinstance(space, geometry.RotSphere) else "x"
    u_expr = _get(cfg, "params", "u", "cos(theta)" if var == "theta" else "x")
    u = compile_expr(u_expr, var=var)
    rep = geometry.bochner_margin(space, u, N,
                                  convexity.interior_grid(space.interval, 64, 1e-3), **tol)
    records.append(_record("geometry", rep, N=N, u=u_expr))
    mesh = _count(cfg, "params", "mesh", 2000, least=4)
    eig = geometry.lichnerowicz(space, N, mesh_size=mesh, **tol)
    records.append(_record("geometry", eig, N=N, mesh=mesh, lambda1=eig.lambda1,
                           bound=eig.bound))
    return records


def run_transport(cfg, seed: int, tol: dict) -> list[list[str]]:
    del seed
    K = _get(cfg, "params", "K", required=True, conv=float)
    N = _params_n(cfg)
    space = _space_from(cfg, "space")
    if not isinstance(space, geometry.WeightedLine):
        raise ConfigError("[space] transport suite needs a line-type space")
    checks = _get(cfg, "params", "checks",
                  "cd cdstar jacobian bm entropic hwi talagrand logsobolev").split()
    if not checks:
        raise ConfigError("[params] checks: expected check names, got ''")
    t_grid = _unit_times(cfg, "t_grid", [0.25, 0.5, 0.75], _floats)
    wanted = set(checks)
    pair = {"cd", "cdstar", "jacobian", "entropic", "hwi"}
    mu0 = (_density_from(cfg, "mu0", space)
           if wanted & (pair | {"talagrand", "logsobolev"}) else None)
    mu1 = _density_from(cfg, "mu1", space) if wanted & pair else None
    t_bm = _unit_times(cfg, "t", 0.5, float) if "bm" in wanted else None

    def bm():
        A0 = _get(cfg, "params", "A0", required=True, conv=_pair)
        A1 = _get(cfg, "params", "A1", required=True, conv=_pair)
        return transport.brunn_minkowski(space, A0, A1, t_bm, K, N, **tol)

    calls = {
        "cd": lambda: transport.check_cd(space, mu0, mu1, K, N, t_grid, **tol),
        "cdstar": lambda: transport.check_cd(space, mu0, mu1, K, N, t_grid,
                                             mode="CDstar", **tol),
        "jacobian": lambda: transport.check_jacobian_convexity(space, mu0, mu1, K, N,
                                                               t_grid, **tol),
        "bm": bm,
        "entropic": lambda: transport.check_entropic_cd(space, mu0, mu1, K, N, t_grid,
                                                        **tol),
        "hwi": lambda: transport.hwi_check(space, mu0, mu1, K, N, **tol),
        "talagrand": lambda: transport.talagrand_check(space, mu0, K, N, **tol),
        "logsobolev": lambda: transport.log_sobolev_check(space, mu0, K, N, **tol),
    }
    for check in checks:
        if check not in calls:
            raise ConfigError(f"[params] checks: unknown check {check!r}")
    return [_record("transport", calls[check](), K=K, N=N,
                    **({"t": t_bm} if check == "bm" else {}))
            for check in checks]


_SUITES = {
    "convexity": run_convexity,
    "flow": run_flow,
    "geometry": run_geometry,
    "transport": run_transport,
}


def _write_records(rows: Sequence[list[str]], out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "records.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [RECORD_HEADER, *(row[:len(RECORD_HEADER)] for row in rows)])
    return path


def _write_summary(rows: Sequence[list[str]], out_dir: Path) -> Path:
    path = out_dir / "summary.txt"
    lines = [f"{'PASS' if passed == 'true' else 'FAIL'}  {check_id}  margin={margin}  {params}"
             + (f"  status={status} note={note}" if status != "checked" or note else "")
             for check_id, params, margin, passed, status, note in rows]
    lines.append(f"total: {_n_passed(rows)}/{len(rows)} passed")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write(rows: Sequence[list[str]], out_dir: Path, *writers) -> list[Path]:
    """The file of each writer in out_dir; an OSError is a ConfigError."""
    try:
        return [write(rows, out_dir) for write in writers]
    except OSError as exc:
        raise ConfigError(f"cannot write to the output directory {str(out_dir)!r}: "
                          f"{exc.strerror}") from exc


def _resolve_out_dir(cli_value: str | None, cfg) -> Path:
    if cli_value:
        return Path(cli_value)
    if cfg is not None and cfg.has_option("run", "out_dir"):
        return Path(cfg.get("run", "out_dir"))
    return Path(os.environ.get(ENV_OUT_DIR, "negdimcd-out"))


def _run_suite(cfg, seed: int, tol: dict) -> list[list[str]]:
    suite = _get(cfg, "run", "suite", required=True)
    if suite not in _SUITES:
        raise ConfigError(f"[run] suite={suite!r} not one of {sorted(_SUITES)}")
    return _SUITES[suite](cfg, seed, tol)


def _run_groups(cfg, seed: int, tol: dict) -> list[list[str]]:
    """Each group of [<group>.<section>] sections, read as a config of its own
    with the prefix stripped, in file order.  The file's [run] holds seed, tol
    and out_dir for every group and stands alone outside the groups, so no
    key is silently ignored."""
    if cfg.has_option("run", "suite"):
        raise ConfigError("[run] suite: with section groups each group names "
                          "its suite in [<group>.run]")
    groups = {}
    for name in cfg.sections():
        group, dot, section = name.partition(".")
        if dot:
            groups.setdefault(group, configparser.ConfigParser(
                interpolation=None)).read_dict({section: cfg[name]})
        elif name != "run":
            raise ConfigError(f"[{name}] is outside every group")
    records = []
    for group, gcfg in groups.items():
        try:
            for key in gcfg.options("run") if gcfg.has_section("run") else ():
                if key != "suite":
                    raise ConfigError(f"[run] {key}: a group's [run] holds only suite")
            records += _run_suite(gcfg, seed, tol)
        except _FAILURES as exc:
            raise ConfigError(f"group {group}: {exc}") from exc
    return records


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else _get(cfg, "run", "seed", 0, conv=int)
    tol = _tol(args.tol, cfg, "run")
    records = (_run_groups(cfg, seed, tol) if any("." in s for s in cfg.sections())
               else _run_suite(cfg, seed, tol))
    out_dir = _resolve_out_dir(args.out_dir, cfg)
    rec_path, sum_path = _write(records, out_dir, _write_records, _write_summary)
    print(f"{len(records)} checks, {_n_passed(records)} passed; "
          f"records: {rec_path}; summary: {sum_path}")
    return _print_failures(records)


def cmd_certify(args) -> int:
    cfg = _load_config(args.config)
    n_values = [_negative_n(v, "[certify] N")
                for v in _get(cfg, "certify", "N", required=True, conv=_floats)]
    grid_n = _count(cfg, "certify", "grid", 400)
    tol = _tol(args.tol, cfg, "certify")
    out_dir = _resolve_out_dir(args.out_dir, cfg)
    records = []
    for N in n_values:
        f, window = _function_from(cfg, "function",
                                   _get(cfg, "certify", "K_hint", 0.0, conv=float), N)
        grid = convexity.interior_grid(window, grid_n)
        # f_N'' + (K/N) f_N = (f_N/|N|) (f'' - f'^2/N - K) with f_N > 0, so the
        # largest K that passes on the grid is the grid minimum of the
        # Bakry-Emery term (points where it is undefined fail at any K)
        be = convexity.bakry_emery(f, N, grid)
        K = float(np.min(be, where=np.isfinite(be), initial=math.inf))
        rep = convexity.check_pointwise(f, convexity.ConvexityParams(K, N, window),
                                        grid, **tol)
        records.append(_record("certify", rep, N=N, K=K))
        if rep.passed:
            print(f"N={N}: largest passing K = {K!r}")
    rec_path, = _write(records, out_dir, _write_records)
    print(f"records: {rec_path}")
    return 0 if _n_passed(records) == len(records) else 1


def cmd_merge(args) -> int:
    rows = []
    for path in args.reports:
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header != RECORD_HEADER:
                    raise ConfigError(f"schema mismatch in {path}: {header}")
                for row in reader:
                    if len(row) != len(RECORD_HEADER):
                        raise ConfigError(f"{path} line {reader.line_num}: "
                                          f"{len(row)} fields, expected {len(RECORD_HEADER)}")
                    if row[3] not in ("true", "false"):
                        raise ConfigError(f"{path} line {reader.line_num}: pass field "
                                          f"{row[3]!r} is not true or false")
                    rows.append(row)
        except OSError as exc:
            raise ConfigError(f"cannot read record file {path!r}: {exc.strerror}") from exc
    suites = {}
    for row in rows:
        suites.setdefault(row[0].split("/", 1)[0], []).append(row)
    status = _print_failures(rows)
    for suite in sorted(suites):
        print(f"{suite}: {_n_passed(suites[suite])}/{len(suites[suite])} passed")
    print(f"total: {_n_passed(rows)}/{len(rows)} passed")
    return status


def main(argv: Sequence[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="override the tolerance for every check")
    common.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    common.add_argument("--out-dir", default=None,
                        help=f"output directory (default: [run] out_dir, then ${ENV_OUT_DIR})")
    parser = argparse.ArgumentParser(prog="negdimcd",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common],
                           help="run a check suite from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(fn=cmd_run)
    p_cert = sub.add_parser("certify", parents=[common],
                            help="largest K passing the pointwise criterion, per N")
    p_cert.add_argument("config")
    p_cert.set_defaults(fn=cmd_certify)
    p_merge = sub.add_parser("merge", help="combine record files")
    p_merge.add_argument("reports", nargs="*")
    p_merge.set_defaults(fn=cmd_merge)
    args = parser.parse_args(argv)
    try:
        # floating-point events are not printed: the records carry them
        # as -inf, nan and pass=false
        with np.errstate(all="ignore"):
            return args.fn(args)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
