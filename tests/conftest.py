import collections
import itertools

import numpy as np
import pytest

from matpress import FiniteMatrixMeasure, WordBudget, _engine, pressure
from matpress.linalg import phi


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


class SplitSizes(list):
    """Process counts of the engine's level x suffix splits that forked, one
    entry per split; ``lower_work(w)`` sets _engine._SPLIT_WORK to w, so
    that small inputs split."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def lower_work(self, work):
        self._monkeypatch.setattr(_engine, "_SPLIT_WORK", work)


@pytest.fixture
def split_sizes(monkeypatch):
    """SplitSizes of one test."""
    sizes = SplitSizes(monkeypatch)
    forks = []
    real_split, real_fork = _engine._split_fold, _engine._fork_slice

    def fork(results):
        child = real_fork(results)  # in the child this never returns
        if child is not None:
            forks[-1] += 1
        return child

    def split(*args, **kwargs):
        forks.append(0)
        try:
            return real_split(*args, **kwargs)
        finally:
            if forks[-1]:
                sizes.append(1 + forks[-1])
            forks.pop()

    monkeypatch.setattr(_engine, "_fork_slice", fork)
    monkeypatch.setattr(_engine, "_split_fold", split)
    return sizes


@pytest.fixture
def engine_calls(monkeypatch):
    """Calls of the engine's enumeration entries in one test, by name, so a
    test can assert that it reached the engine and not a closed form."""
    counts = collections.Counter()
    for name in ("weighted_sums", "max_norm_word"):
        def spy(*args, _name=name, _real=getattr(_engine, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(_engine, name, spy)
    return counts


@pytest.fixture
def enumeration_only(monkeypatch, engine_calls):
    """Public calls in one test skip the triangular closed form and take
    their enumeration routes; returns the engine_calls counter."""
    monkeypatch.setattr(pressure, "_triangular_diagonals", lambda mats: None)
    return engine_calls


def engine_norm_bracket(mu, s, eps, budget=None):
    """pressure.bracket's enumeration route, whatever the family."""
    d = mu.dimension
    return pressure._bracket(mu, "norm", s, d, pressure.log_norm_constant(d, s), eps,
                             budget or WordBudget(), 1, pressure.PROVENANCE_NORM)


def log_sum(mu, kind, s, n):
    """log S_n, the engine's weighted power sum at length n that every
    upper end reads ((1/n) log S_n bounds the pressure from above)."""
    return float(_engine.weighted_sums(mu, n, kind, [s], WordBudget())[0])


def sandwich(mu, kind, s, block, log_k, steps):
    """The first ``steps`` yields (n, lower, upper) of pressure._sandwich,
    the running max and min of the two bound families, on a fresh run."""
    budget = WordBudget()
    sums = pressure._Sums(budget, 1)
    return list(itertools.islice(pressure._sandwich(mu, kind, s, block, log_k, sums), steps))


def norm_sandwich(mu, s, steps):
    """sandwich on pressure.bracket's norm route: block d, constant K(d, s)."""
    d = mu.dimension
    return sandwich(mu, "norm", s, d, pressure.log_norm_constant(d, s), steps)


def word_products(mats, n):
    """All length-n products A_{i1} ... A_{in}, with their index words."""
    d = mats[0].shape[0]
    for word in itertools.product(range(len(mats)), repeat=n):
        prod = np.eye(d)
        for i in word:
            prod = prod @ mats[i]
        yield word, prod


def brute_norm_sum(weights, mats, n, s):
    """Reference weighted power sum of ||A_w||^s by direct enumeration."""
    total = 0.0
    for word, prod in word_products(mats, n):
        w = 1.0
        for i in word:
            w *= weights[i]
        total += w * np.linalg.norm(prod, 2) ** s
    return total


def brute_phi_sum(weights, mats, n, s):
    """Reference weighted power sum of phi^s(A_w) by direct enumeration."""
    total = 0.0
    for word, prod in word_products(mats, n):
        w = 1.0
        for i in word:
            w *= weights[i]
        total += w * phi(prod, s)
    return total


def random_measure(rng, n_atoms=2, d=2, scale=0.9, unit_weights=False):
    atoms = []
    for _ in range(n_atoms):
        w = 1.0 if unit_weights else float(rng.uniform(0.5, 1.5))
        atoms.append((w, rng.uniform(-scale, scale, (d, d))))
    return FiniteMatrixMeasure(atoms)
