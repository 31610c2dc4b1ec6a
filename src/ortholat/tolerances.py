"""Named numerical thresholds governing every approximate comparison."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Bundle of thresholds used by all predicates and decompositions.

    tol_zero   -- zero-product threshold (relative)
    tol_psd    -- cone-membership slack (relative)
    tol_eq     -- matrix/vector equality threshold (relative Frobenius)
    """

    tol_zero: float = 1e-9
    tol_psd: float = 1e-9
    tol_eq: float = 1e-9

    def __post_init__(self):
        for name in ("tol_zero", "tol_psd", "tol_eq"):
            # an infinite tol_zero calls every pair orthogonal; below 1e-300 a ratio overflows
            if not 1e-300 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and at least 1e-300")

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOL = Tolerances()
