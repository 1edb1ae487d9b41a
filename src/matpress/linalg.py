"""Dense small-matrix primitives: singular values, singular-value functions,
exterior powers, Kronecker lifts.

Everything here works on plain float64 numpy arrays.  Matrices are small
(ambient dimension is a few dozen at most even after lifting), so the
quadratic/cubic loops below are never a bottleneck; the hot paths in
``_engine`` use their own batched kernels.
"""

import itertools
import math

import numpy as np

from .errors import DimensionCapError, InvalidInputError

__all__ = [
    "as_matrix",
    "singular_values",
    "operator_norm",
    "phi",
    "exterior_power",
    "lift",
]

_DIM_CAP = 256  # the largest lifted dimension of lift and of a svpressure._lift_rows row


def as_matrix(a, d=None):
    """Validate and return ``a`` as a finite square float64 array.

    Raises InvalidInputError on anything that is not a finite square
    two-dimensional real matrix (or whose size differs from ``d`` if given).
    """
    try:
        m = np.array(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"not a numeric matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InvalidInputError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix entries must be finite")
    if d is not None and m.shape[0] != d:
        raise InvalidInputError(f"expected a {d}x{d} matrix, got {m.shape[0]}x{m.shape[0]}")
    return m


def singular_values(a):
    """Singular values of ``a`` in descending order, from LAPACK's SVD
    (``np.linalg.svd``, the routine the engine uses for d >= 4)."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def operator_norm(a):
    """Spectral norm (largest singular value)."""
    return float(singular_values(a)[0])


def phi(a, s):
    """Singular-value function of ``a`` at exponent ``s > 0``.

    For k <= s <= k+1 (k = floor(s)) this is sigma_1 ... sigma_k * sigma_{k+1}^(s-k);
    for s >= d it is |det a|^(s/d).  Continuous and submultiplicative in ``a``
    for every fixed s.
    """
    a = as_matrix(a)
    s = float(s)
    if not (s > 0.0 and math.isfinite(s)):
        raise InvalidInputError(f"exponent s must be positive and finite, got {s}")
    d = a.shape[0]
    sig = singular_values(a)
    if s >= d:
        return float(np.prod(sig)) ** (s / d)
    k = int(s)
    out = float(np.prod(sig[:k])) if k else 1.0
    if s > k:
        out *= float(sig[k]) ** (s - k)
    return out


def _det(a):
    # Explicit cofactor formulas up to 3x3; LAPACK beyond.  The explicit
    # forms keep the exterior-power multiplicativity tests at ~1 ulp.
    d = a.shape[0]
    if d == 1:
        return float(a[0, 0])
    if d == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if d == 3:
        return float(
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
    return float(np.linalg.det(a))


# The connecting-word search (_connecting_c1): a box closes once its bound
# reaches this share of the least centre value seen; the first grid has this
# many boxes a side; a search that needs more rounds or boxes gives up.
_C1_SHARE = 0.9
_C1_GRID = 16
_C1_ROUNDS = 12
_C1_BOXES = 2**14
# the first grid's centres as rows t, t - pi/2, p, p - pi/2 (cos of the
# second and fourth is sin t and sin p), and the offsets of a box's four
# children in units of their half-width
_C1_HALF = math.pi / (2 * _C1_GRID)
_C1_CENTRES = (2 * np.arange(_C1_GRID) + 1) * _C1_HALF
_C1_START = np.stack([angle - shift
                      for angle in (np.repeat(_C1_CENTRES, _C1_GRID), np.tile(_C1_CENTRES, _C1_GRID))
                      for shift in (0.0, 0.5 * math.pi)])
_C1_CORNERS = np.array([[-1.0, 1.0, -1.0, 1.0]] * 2 + [[-1.0, -1.0, 1.0, 1.0]] * 2)[:, :, None]


def _connecting_c1(mats):
    """A certified lower bound on c1 = min over unit r, l of max over words
    |w| <= 1 of |r' A_w l| (A_empty = I) for the 2x2 atoms ``mats``, or 0.0
    where the search certifies no positive one within its caps (a family
    with a common invariant line has c1 = 0).

    Branch and bound over the angle box [0, pi]^2, r = (cos t, sin t),
    l = (cos p, sin p).  Each g_w = r' A_w l moves by at most ||A_w|| (|dt|
    + |dp|), so a box of half-width h has max_w |g_w| >= max_w (|g_w(centre)|
    - L_w (2 h + 2^-44)), L_w the closed-form sigma_1 of A_w rounded up.
    The 2^-44 (512 u) covers the rounding of the centres, of cos (sin t is
    cos(t - pi/2)), of the four-term product and of the bound itself, and
    float(pi) < pi.  A box closes once its bound reaches _C1_SHARE of the
    least centre value seen, which only falls; the others split in four.
    So every closed box, and the whole square with them, is at least
    _C1_SHARE times the final least centre value, which is the result.
    """
    words = np.concatenate((np.eye(2).reshape(1, 4), mats.reshape(-1, 4)))
    a, b, c, d = words.T
    with np.errstate(over="ignore"):
        lip = (0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) * (1.0 + 2.0**-40))[:, None]
    if not lip.max() < 2.0**1000:  # near the float range: no search
        return 0.0
    h, angles, least, boxes = _C1_HALF, _C1_START, math.inf, 0
    for _ in range(_C1_ROUNDS):
        boxes += angles.shape[1]
        if not angles.shape[1] or boxes > _C1_BOXES:
            break
        trig = np.cos(angles)  # rows cos t, sin t, cos p, sin p
        v = words @ (trig[:2, None] * trig[None, 2:]).reshape(4, -1)
        np.abs(v, out=v)
        least = min(least, float(v.max(axis=0).min()))
        if not least > 0.0:
            return 0.0
        v -= lip * (2.0 * h * (1.0 + 2.0**-40) + 2.0**-44)
        h *= 0.5
        angles = (angles[:, v.max(axis=0) < _C1_SHARE * least][:, None]
                  + h * _C1_CORNERS).reshape(4, -1)
    return _C1_SHARE * least if not angles.shape[1] else 0.0


def exterior_power(a, k):
    """k-th exterior power: the C(d,k) x C(d,k) matrix of k x k minors.

    Rows and columns are indexed by k-subsets of {0,...,d-1} in lexicographic
    order.  exterior_power(a, 0) is the 1x1 identity and exterior_power(a, d)
    is the 1x1 determinant.  Multiplicative: (AB)^wedge = A^wedge B^wedge.
    """
    a = as_matrix(a)
    d = a.shape[0]
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= d:
        raise InvalidInputError(f"exterior power order must be an integer in [0, {d}], got {k}")
    k = int(k)
    if k == 0:
        return np.ones((1, 1))
    if k == 1:
        return a.copy()
    subsets = list(itertools.combinations(range(d), k))
    out = np.empty((len(subsets), len(subsets)))
    for i, rows in enumerate(subsets):
        sub = a[np.ix_(rows, range(d))]
        for j, cols in enumerate(subsets):
            out[i, j] = _det(sub[:, cols])
    return out


def lift(a, k, p, q):
    """Kronecker/exterior lift whose operator norm encodes phi^(k + p/q).

    Returns (a^wedge k)^(tensor (q-p)) tensor (a^wedge (k+1))^(tensor p).
    The defining identity, exact in exact arithmetic:

        operator_norm(lift(a, k, p, q)) ** (1/q) == phi(a, k + p/q)

    and the lift of a product is the product of the lifts, so power sums of
    phi^s at rational s reduce to norm power sums in the lifted dimension.

    Preconditions: 0 < k < d, 0 <= p < q, gcd(p, q) = 1.  Raises
    DimensionCapError when the lifted dimension C(d,k)^(q-p) * C(d,k+1)^p
    would exceed _DIM_CAP (256).
    """
    a = as_matrix(a)
    d = a.shape[0]
    if not (isinstance(k, (int, np.integer)) and 0 < k < d):
        raise InvalidInputError(f"lift order k must satisfy 0 < k < {d}, got {k}")
    if not (isinstance(p, (int, np.integer)) and isinstance(q, (int, np.integer))):
        raise InvalidInputError("lift exponents p, q must be integers")
    if not (0 <= p < q):
        raise InvalidInputError(f"lift exponents must satisfy 0 <= p < q, got p={p} q={q}")
    if p and math.gcd(int(p), int(q)) != 1:
        raise InvalidInputError(f"lift exponents must be coprime, got p={p} q={q}")
    k, p, q = int(k), int(p), int(q)
    dim = math.comb(d, k) ** (q - p) * math.comb(d, k + 1) ** p
    if dim > _DIM_CAP:
        raise DimensionCapError(
            f"lifted dimension {dim} exceeds cap {_DIM_CAP} (d={d}, k={k}, p={p}, q={q})"
        )
    lo = exterior_power(a, k)
    hi = exterior_power(a, k + 1) if p else None
    out = np.ones((1, 1))
    for _ in range(q - p):
        out = np.kron(out, lo)
    for _ in range(p):
        out = np.kron(out, hi)
    return out
