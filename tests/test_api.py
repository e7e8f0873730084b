"""The public surface: the one range of N every checker takes, the one rule for
every interval, the one result type every checker returns, and the README
tour, which must run as written."""

import configparser
import math
import re
from pathlib import Path

import numpy as np
import pytest

import negdimcd as nd
from negdimcd import cli
from negdimcd.comparison import negative_n
from negdimcd.quadrature import integrate

from conftest import quadratic

ROOT = Path(__file__).resolve().parents[1]

F = quadratic(1.0)
LINE = nd.gaussian_line(1.0)
CURVE = nd.integrate_flow(F, 1.0, 0.5, 1e-2)
MU0, MU1 = nd.gaussian_density(0.0, 1.0, quad_nodes=64), nd.gaussian_density(0.5, 1.0, quad_nodes=64)

# Every public function that takes N, with arguments that are valid at N = -2.
# Left out: geodesic_margin, exp_transform and bakry_emery, which are formulas
# for any N != 0 (the sum-rule counterexamples use N > 0, and bakry_emery at
# N = -inf is its limit f''); and the calculus of parameters (sum_rule,
# weighted_sum_certificate, product_certificate, product_direction_check),
# which has its own rules for each dimension.
CHECKERS = {
    "tau": lambda N: nd.tau(1.0, N, 0.5, 1.0),
    "ConvexityParams": lambda N: nd.ConvexityParams(1.0, N, (-1.0, 1.0)),
    "example_function": lambda N: nd.example_function("a", 1.0, N),
    "ricci_n": lambda N: nd.ricci_n(LINE, 0.5, N),
    "min_ricci_n": lambda N: nd.min_ricci_n(LINE, N, [0.0, 1.0]),
    "bochner_margin": lambda N: nd.bochner_margin(LINE, F, N, [0.5]),
    "lichnerowicz": lambda N: nd.lichnerowicz(LINE, N, mesh_size=8),
    "verify_evi": lambda N: nd.verify_evi(CURVE, F, 0.0, N, 0.0),
    "verify_evi_integrated": lambda N: nd.verify_evi_integrated(CURVE, F, 0.0, N, 0.0,
                                                                0.1, 0.3),
    "regularizing_bounds": lambda N: nd.regularizing_bounds(CURVE, F, 0.0, N, "regularity",
                                                            z=0.0, t=0.2),
    "expansion_bound": lambda N: nd.expansion_bound(F, 1.0, 2.0, 0.0, N, 3.0, 0.1, 0.2,
                                                    1e-2),
    "claim_convexity_margin": lambda N: nd.claim_convexity_margin(F, 0.0, N, 1.0, [0.5]),
    "renyi_entropy": lambda N: nd.renyi_entropy(MU0, LINE, N),
    "check_cd": lambda N: nd.check_cd(LINE, MU0, MU1, 1.0, N, [0.5]),
    "check_jacobian_convexity": lambda N: nd.check_jacobian_convexity(LINE, MU0, MU1, 1.0,
                                                                      N, [0.5]),
    "brunn_minkowski": lambda N: nd.brunn_minkowski(LINE, (0.0, 1.0), (1.0, 2.0), 0.5,
                                                    1.0, N),
    "check_entropic_cd": lambda N: nd.check_entropic_cd(LINE, MU0, MU1, 1.0, N, [0.5]),
    "hwi_check": lambda N: nd.hwi_check(LINE, MU0, MU1, 1.0, N),
    "talagrand_check": lambda N: nd.talagrand_check(LINE, MU1, 1.0, N),
    "log_sobolev_check": lambda N: nd.log_sobolev_check(LINE, MU1, 1.0, N),
}


class TestRangeOfN:
    @pytest.mark.parametrize("N", [-math.inf, math.nan, 0.0, 1.0])
    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_every_checker_rejects_n_outside_the_negative_reals(self, name, N):
        with pytest.raises(ValueError, match="N must be negative and finite"):
            CHECKERS[name](N)

    def test_the_validator_returns_n_and_names_it(self):
        assert negative_n(-2.5) == -2.5
        with pytest.raises(ValueError, match=r"N must be negative and finite, got -inf$"):
            negative_n(-math.inf)


def _window(interval):
    cfg = configparser.ConfigParser()
    cfg.read_dict({"function": {"expr": "x**2", "domain": "%r %r" % interval}})
    return cli._function_from(cfg, "function", 1.0, -2.0)


# Every entry point that takes an interval, with the name its error gives it.
INTERVAL_TAKERS = {
    "WeightedLine": ("line interval", lambda iv: nd.WeightedLine(iv, F)),
    "Density1D": ("support", lambda iv: nd.Density1D(iv, np.ones_like, quad_nodes=8,
                                                     normalize=True)),
    "uniform_density": ("support", lambda iv: nd.uniform_density(*iv, quad_nodes=8)),
    "brunn_minkowski A0": ("A0", lambda iv: nd.brunn_minkowski(LINE, iv, (1.0, 2.0), 0.5,
                                                               1.0, -2.0)),
    "brunn_minkowski A1": ("A1", lambda iv: nd.brunn_minkowski(LINE, (1.0, 2.0), iv, 0.5,
                                                               1.0, -2.0)),
    "cli domain": ("[function] domain", _window),
    "ConvexityParams": ("domain", lambda iv: nd.ConvexityParams(1.0, -2.0, iv)),
    "interior_grid": ("domain", lambda iv: nd.interior_grid(iv, 5)),
    "integrate": ("integration interval", lambda iv: integrate(np.cos, *iv)),
}


class TestFiniteInterval:
    @pytest.mark.parametrize("interval", [(2.0, 1.0), (1.0, 1.0), (0.0, math.inf),
                                          (-math.inf, 0.0), (math.nan, 1.0)])
    @pytest.mark.parametrize("name", sorted(INTERVAL_TAKERS))
    def test_every_interval_taker_rejects_what_is_not_a_finite_interval(self, name,
                                                                          interval):
        label, take = INTERVAL_TAKERS[name]
        message = f"{label} {interval!r} is not a finite interval lo < hi"
        with pytest.raises(ValueError, match=re.escape(message)):
            take(interval)

    @pytest.mark.parametrize("name", sorted(INTERVAL_TAKERS))
    def test_every_interval_taker_accepts_a_finite_interval(self, name):
        INTERVAL_TAKERS[name][1]((0.5, 1.5))


# the entries of CHECKERS that compute a quantity rather than check an inequality;
# min_ricci_n measures one too, and reports it as a CheckReport with status "info"
NON_CHECKERS = {"tau", "ConvexityParams", "example_function", "ricci_n", "renyi_entropy"}


@pytest.mark.parametrize("name", sorted(set(CHECKERS) - NON_CHECKERS))
def test_every_checker_returns_a_check_report(name):
    assert isinstance(CHECKERS[name](-2.0), nd.CheckReport)


def test_readme_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
