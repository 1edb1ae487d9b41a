"""Finitely supported matrix measures, enumeration budgets, and the
measure-level transforms (lifts, restriction, scaling).

A measure is a finite list of atoms (w_i, A_i) with w_i > 0 and all A_i of
one common square dimension.  Power sums over words of length n are weighted
by the product of the atom weights along the word.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError

__all__ = [
    "LogValue",
    "WordBudget",
    "Kernel",
    "norm_kernel",
    "phi_kernel",
    "FiniteMatrixMeasure",
    "weighted_power_sum",
    "lifted_measure",
    "restrict_invertible",
    "scale_measure",
]


@dataclass(frozen=True)
class LogValue:
    """A nonnegative quantity stored as its natural log (-inf encodes zero)."""

    log: float

    def __post_init__(self):
        if math.isnan(self.log) or self.log == math.inf:
            raise InvalidInputError(f"log magnitude must be finite or -inf, got {self.log}")

    @classmethod
    def from_linear(cls, value):
        if not (value >= 0.0):
            raise InvalidInputError(f"linear value must be nonnegative, got {value}")
        return cls(math.log(value) if value > 0.0 else -math.inf)

    @property
    def linear(self):
        return math.exp(self.log)

    @property
    def is_zero(self):
        return self.log == -math.inf


@dataclass(frozen=True)
class WordBudget:
    """Enumeration limits: longest word, nominal word count, and wall clock.

    ``max_words`` meters the *nominal* count N^n of words of length n for an
    N-atom measure; internal dedup may evaluate far fewer actual products,
    but the budget semantics stay tied to the nominal count.
    """

    max_word_length: int = 64
    max_words: int = 10_000_000
    wall_clock_cap: float = 600.0

    def __post_init__(self):
        if not (isinstance(self.max_word_length, int) and self.max_word_length >= 1):
            raise InvalidInputError("max_word_length must be a positive integer")
        if not (isinstance(self.max_words, int) and self.max_words >= 1):
            raise InvalidInputError("max_words must be a positive integer")
        if not (self.wall_clock_cap > 0):
            raise InvalidInputError("wall_clock_cap must be positive")


@dataclass(frozen=True)
class Kernel:
    """Per-word integrand: ||A_w||^s ("norm") or phi^s(A_w) ("phi")."""

    kind: str
    s: float

    def __post_init__(self):
        if self.kind not in ("norm", "phi"):
            raise InvalidInputError(f"unknown kernel kind {self.kind!r}")
        if not (self.s > 0.0 and math.isfinite(self.s)):
            raise InvalidInputError(f"kernel exponent must be positive and finite, got {self.s}")


def norm_kernel(s):
    """Kernel w -> ||A_w||^s."""
    return Kernel("norm", float(s))


def phi_kernel(s):
    """Kernel w -> phi^s(A_w) (singular-value function)."""
    return Kernel("phi", float(s))


class FiniteMatrixMeasure:
    """Finitely supported measure on d x d real matrices.

    Atoms are (weight, matrix) pairs; weights must be positive and finite but
    need not sum to one.  Instances are immutable; enumeration caches attach
    lazily and are shared across all computations on the same instance.
    """

    __slots__ = ("_weights", "_mats", "_engine_caches")

    def __init__(self, atoms):
        atoms = list(atoms)
        if not atoms:
            raise InvalidInputError("a measure needs at least one atom")
        weights = []
        mats = []
        d = None
        for idx, atom in enumerate(atoms):
            try:
                w, m = atom
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"atom {idx}: expected a (weight, matrix) pair"
                ) from None
            w = float(w)
            if not (w > 0.0 and math.isfinite(w)):
                raise InvalidInputError(f"atom {idx}: weight must be positive and finite, got {w}")
            m = linalg.as_matrix(m, d)
            if d is None:
                d = m.shape[0]
            weights.append(w)
            mats.append(m)
        self._weights = np.array(weights, dtype=np.float64)
        self._mats = np.array(mats, dtype=np.float64)
        self._weights.setflags(write=False)
        self._mats.setflags(write=False)
        self._engine_caches = {}

    @classmethod
    def from_matrices(cls, matrices, weights=None):
        """Build a measure from matrices, defaulting every weight to 1."""
        matrices = list(matrices)
        if weights is None:
            weights = [1.0] * len(matrices)
        weights = list(weights)
        if len(weights) != len(matrices):
            raise InvalidInputError(
                f"got {len(weights)} weights for {len(matrices)} matrices"
            )
        return cls(zip(weights, matrices))

    @property
    def dimension(self):
        return int(self._mats.shape[1])

    @property
    def n_atoms(self):
        return int(self._mats.shape[0])

    @property
    def weights(self):
        return self._weights.copy()

    @property
    def matrices(self):
        return self._mats.copy()

    @property
    def atoms(self):
        return [(float(w), m.copy()) for w, m in zip(self._weights, self._mats)]

    @property
    def total_mass(self):
        return float(np.sum(self._weights))

    @property
    def has_unit_weights(self):
        return bool(np.all(self._weights == 1.0))

    def __repr__(self):
        return f"FiniteMatrixMeasure(n_atoms={self.n_atoms}, dimension={self.dimension})"


def weighted_power_sum(mu, n, kernel, budget=None, workers=None):
    """Log of the weighted power sum over all words of length ``n``.

    Sums (prod of weights along w) * kernel(A_w) over the N^n words w, in log
    space, and returns a LogValue (-inf when every product vanishes).  Raises
    BudgetExhaustedError if the nominal word count or word length exceeds the
    budget before any enumeration starts.
    """
    if not isinstance(mu, FiniteMatrixMeasure):
        raise InvalidInputError("weighted_power_sum expects a FiniteMatrixMeasure")
    if not isinstance(kernel, Kernel):
        raise InvalidInputError("kernel must come from norm_kernel()/phi_kernel()")
    from . import _engine  # here, not at module load: parsing a measure needs no engine

    if budget is None:
        budget = WordBudget()
    logs = _engine.weighted_sums(mu, n, kernel.kind, [kernel.s], budget, workers=workers)
    return LogValue(float(logs[0]))


def lifted_measure(mu, k, p, q):
    """Pushforward of the measure under the exterior/Kronecker lift.

    Weights are unchanged; each atom matrix is replaced by
    linalg.lift(A, k, p, q).  Since the lift is multiplicative and
    ||lift(A_w)||^(1/q) = phi^(k+p/q)(A_w), norm power sums of the lifted
    measure at exponent 1/q equal phi power sums of ``mu`` at k + p/q.
    """
    return FiniteMatrixMeasure(
        (w, linalg.lift(m, k, p, q)) for w, m in zip(mu._weights, mu._mats)
    )


def restrict_invertible(mu):
    """Sub-measure of atoms with |det A| > 0; None if none survive."""
    keep = np.abs([linalg._det(m) for m in mu._mats]) > 0.0
    if not np.any(keep):
        return None
    return FiniteMatrixMeasure(zip(mu._weights[keep], mu._mats[keep]))


def scale_measure(mu, c):
    """Measure with every atom matrix multiplied by the scalar c > 0.

    Norm and phi power sums transform exactly: the log sum at exponent s and
    length n shifts by n*s*log(c).
    """
    c = float(c)
    if not (c > 0.0 and math.isfinite(c)):
        raise InvalidInputError(f"scale factor must be positive and finite, got {c}")
    return FiniteMatrixMeasure((w, c * m) for w, m in zip(mu._weights, mu._mats))
