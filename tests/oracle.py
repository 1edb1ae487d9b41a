"""Reference computations that the package itself no longer needs: the
tests compare the package's routes against them."""

import math

import numpy as np

from matpress import linalg, pressure
from matpress.errors import InvalidInputError
from matpress.measure import FiniteMatrixMeasure


def hat_measure_2d(mu, s):
    """Determinant-tilted companion measure for the planar exponent range.

    For d = 2 and 1 < s < 2, reweights each invertible atom by |det A|^(s-1)
    and drops singular atoms.  Word for word,

        w_hat(w) * ||A_w||^(2-s) == w(w) * phi^s(A_w),

    so phi^s power sums for mu equal norm power sums at exponent 2-s for the
    tilted measure.  Returns None when no atom is invertible (the tilted
    measure would be empty).
    """
    if mu.dimension != 2:
        raise InvalidInputError("hat_measure_2d needs a 2x2 measure")
    s = float(s)
    if not (1.0 < s < 2.0):
        raise InvalidInputError(f"hat_measure_2d needs 1 < s < 2, got {s}")
    dets = np.abs([linalg._det(m) for m in mu._mats])
    keep = dets > 0.0
    if not np.any(keep):
        return None
    new_w = mu._weights[keep] * dets[keep] ** (s - 1.0)
    return FiniteMatrixMeasure(zip(new_w, mu._mats[keep]))


def det_pressure(mu, s):
    """Exact pressure log sum w_i |det A_i|^(s/d) for s >= d.

    phi^s is multiplicative there, so the one-step sum already equals P.
    Returns -inf when every atom is singular.
    """
    pressure._validate_mu(mu)
    s = float(s)
    d = mu.dimension
    if not (s >= d):
        raise InvalidInputError(f"det_pressure needs s >= d = {d}, got {s}")
    ratio = s / d
    best = -math.inf
    vals = []
    for w, m in zip(mu._weights, mu._mats):
        det = abs(linalg._det(m))
        v = -math.inf if det == 0.0 else math.log(w) + ratio * math.log(det)
        vals.append(v)
        best = max(best, v)
    if best == -math.inf:
        return -math.inf
    return best + math.log(sum(math.exp(v - best) for v in vals))


def kronecker(a, b):
    """Kronecker product of two square matrices (norm-multiplicative)."""
    return np.kron(linalg.as_matrix(a), linalg.as_matrix(b))
