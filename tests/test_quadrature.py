"""Panel-doubling Gauss-Legendre quadrature."""

import numpy as np
import pytest

from negdimcd import quadrature
from negdimcd.quadrature import MAX_DOUBLINGS, QuadratureError, integrate


def test_evaluation_count_formula():
    # n0 * panels * (2**(d + 1) - 1) evaluations after d doublings
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, n0=8, panels=2,
                    strict=False)
    assert not res.converged
    assert res.n_evaluations == 8 * 2 * (2 ** (MAX_DOUBLINGS + 1) - 1)


def test_gauss_order_never_grows(monkeypatch):
    orders = []
    leggauss = quadrature._leggauss

    def recording(n):
        orders.append(n)
        return leggauss(n)

    monkeypatch.setattr(quadrature, "_leggauss", recording)
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert max(orders) == 64


def test_failure_reports_the_last_change():
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, strict=False)
    assert not res.converged and res.error_estimate > 0.0
    with pytest.raises(QuadratureError, match="last delta") as exc:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert float(str(exc.value).split("last delta ")[1].rstrip(")")) == res.error_estimate
