"""Uniform result record for every inequality checker."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = ["CheckReport"]


@dataclass
class CheckReport:
    """Outcome of a margin check.

    ``worst_margin`` is signed: nonnegative means the inequality held with
    slack, and the check passes iff worst_margin >= -tolerance, or, for a
    checker that gives each margin a scale, iff every margin is at least
    -tolerance times its scale.  ``status``
    is one of "checked", "trivial" (every margin was +inf by an extended-real
    convention), "vacuous" (hypotheses make the claim empty),
    "inconclusive" (discretization did not converge; counts as a failure), or
    "info" (a measurement: it always passes, and its margin is the measured
    value).
    """

    name: str
    passed: bool
    worst_margin: float
    worst_location: Any
    n_evaluations: int
    tolerance: float
    status: str = "checked"
    note: str = ""
    details: dict = field(default_factory=dict)

    @classmethod
    def from_margins(cls, name: str, margins: Sequence[float],
                     locations: Sequence[Any], tolerance: float,
                     note: str = "", details: dict | None = None,
                     scale: Sequence[float] | None = None) -> "CheckReport":
        """Reduce pointwise margins by index-ordered min.

        +inf margins record trivially-true evaluations and never drag the
        minimum; a check whose every margin is +inf passes with status
        "trivial".  The first NaN makes the check "inconclusive".
        ``locations`` aligns with ``margins``; a numpy array of locations
        yields a float (one column) or a tuple of floats (one row).
        ``scale``, when given, aligns with ``margins`` too: margin i passes
        when it is at least -tolerance * scale[i], for margins that are
        differences of quantities far larger than 1.
        """
        m = np.asarray(margins, dtype=float)
        if m.ndim != 1 or len(m) != len(locations):
            raise ValueError("margins and locations must align")
        if not len(m):
            raise ValueError("no margins to reduce")
        i = int(np.argmin(m))  # argmin stops at the first NaN
        where = locations[i]
        if isinstance(locations, np.ndarray):
            where = where.item() if where.ndim == 0 else tuple(where.tolist())
        worst = float(m[i])
        common = dict(name=name, n_evaluations=len(m), tolerance=tolerance,
                      details=details or {})
        if math.isnan(worst):
            return cls(passed=False, worst_margin=math.nan, worst_location=where,
                       status="inconclusive", note=note or "nan margin", **common)
        if worst == math.inf:
            return cls(passed=True, worst_margin=math.inf, worst_location=None,
                       status="trivial", note=note, **common)
        passed = (worst >= -tolerance if scale is None
                  else (m >= -tolerance * np.asarray(scale, dtype=float)).all())
        return cls(passed=bool(passed), worst_margin=worst,
                   worst_location=where, note=note, **common)

    @classmethod
    def vacuous(cls, name: str, tolerance: float, note: str) -> "CheckReport":
        return cls(name=name, passed=True, worst_margin=math.inf,
                   worst_location=None, n_evaluations=0, tolerance=tolerance,
                   status="vacuous", note=note)
