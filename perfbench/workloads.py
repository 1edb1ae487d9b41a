"""The three workloads: their measure families and their fixed call lists.

A family is a (weights, matrices) pair of float64 arrays.  The benchmark
writes every family of a workload as a JSON measure document and the
program reads it back through ``cli.parse_input``, so the program only ever
receives the generated inputs.

Seeds.  ``DEFAULT_SEED`` reproduces the pinned measures W1, W2 and W4
exactly.  Any other seed multiplies every entry of those pinned matrices by
its own factor 1 + 0.001*U(-1, 1): fresh bits of the same shape, but with
the same amount of work and nearly the same widths.  A full redraw from the
pinned distribution is not used because it moves W1's certification depth
between n = 8 and n = 10 (0.3 s to 8 s over six redraws), which would swamp
the run-to-run spread the benchmark's bounds allow.
Fixed literals (the W3 triple, both item-1 reproducers and every
closed-form family) ignore the seed.

Budgets.  Every call passes word and length budgets only; the wall-clock cap
is ``FAR`` seconds, so no status, endpoint or width depends on machine speed.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import checks

DEFAULT_SEED = 0
JITTER = 1e-3
FAR = 1.0e6  # wall-clock cap: far above any run, never the binding limit


def _family(mats, weights=None):
    mats = np.array(mats, dtype=np.float64)
    if weights is None:
        weights = np.ones(len(mats))
    return np.array(weights, dtype=np.float64), mats


def _jitter(mats, seed, tag):
    if seed == DEFAULT_SEED:
        return mats
    rng = np.random.default_rng([seed % 2 ** 63, tag])
    return mats * (1.0 + JITTER * rng.uniform(-1.0, 1.0, mats.shape))


def _diag(*entries):
    return np.diag(entries)


# ---- pinned and literal families ------------------------------------------

def w1_family(seed):
    """W1: the first ``random_measure`` of the test suite's rng fixture."""
    rng = np.random.default_rng(20260817)
    weights, mats = [], []
    for _ in range(2):
        weights.append(float(rng.uniform(0.5, 1.5)))
        mats.append(rng.uniform(-0.9, 0.9, (2, 2)))
    return _family(_jitter(np.array(mats), seed, 1), weights)


W3_TRIPLE = _family([
    [[0.6, 0.2], [0.1, 0.4]],
    [[0.3, -0.2], [0.25, 0.5]],
    [[0.45, 0.0], [0.3, 0.2]],
])

# ROADMAP item 1, planar reproducer: "certified" with lower > upper at s=1.5.
PLANAR_REPRODUCER = _family([
    [[1.0, 0.3], [0.2, 0.05]],
    [[0.9, -0.2], [0.4, 0.1]],
])


def w2_family(seed):
    """W2: three 3x3 atoms, U(-1, 1) entries from default_rng(1), unit weights."""
    mats = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 3, 3))
    return _family(_jitter(mats, seed, 2))


def w4_family(seed):
    """W4: two standard-normal 3x3 atoms from default_rng(7), unit weights.

    At the default seed the JSR bracket is [1.3882, 1.4097] under the default
    word budget, and [1.3882, 1.4151] under the benchmark's ``W4_WORDS``.
    """
    mats = np.random.default_rng(7).standard_normal((2, 3, 3))
    return _family(_jitter(mats, seed, 4))


def det_probe_family(seed):
    """0.85 * (orthogonal factor of each W4 atom): |det| = 0.85^3 exactly
    up to rounding, so the affinity dimension is log 2 / log(1/0.85)."""
    _, mats = w4_family(seed)
    qs = [np.linalg.qr(m)[0] for m in mats]
    return _family([0.85 * q for q in qs])


def dominated_d3_family():
    """ROADMAP item 1, d=3 reproducer: diag(1, .05, .01) @ U(-1,1), rng(5)."""
    rng = np.random.default_rng(5)
    scale = _diag(1.0, 0.05, 0.01)
    return _family([scale @ rng.uniform(-1.0, 1.0, (3, 3)) for _ in range(2)])


DIAG_PAIR = _family([_diag(0.5, 1.0 / 3.0), _diag(0.25, 0.5)])
MORAN3 = _family([_diag(0.5, 0.5)] * 3)
DET4 = _family([_diag(0.8, 0.8)] * 4)
REPEATED_AAB = _family([
    [[0.6, 0.2], [0.1, 0.4]],
    [[0.6, 0.2], [0.1, 0.4]],
    [[0.3, -0.2], [0.25, 0.5]],
])
# dyadic entries keep every product exact, so commuting words merge bit-exactly
DYADIC4 = _family([
    _diag(0.5, 0.25), _diag(0.25, 0.5), _diag(0.5, 0.125), _diag(0.125, 0.25),
])
# common dominant direction e1: phi^s(A_w) = prod a * prod b^(s-1) on (1, 2)
CARPET = _family([
    _diag(0.5, 0.25), _diag(-0.5, 0.25), _diag(0.5, 1.0 / 16.0), _diag(0.5, -1.0 / 16.0),
])

# closed forms
LOG_5_6 = math.log(5.0 / 6.0)
MORAN3_P15 = math.log(3.0 * 2.0 ** -1.5)
MORAN3_DIM = math.log(3.0) / math.log(2.0)
DET4_DIM = 2.0 * math.log(4.0) / math.log(1.0 / 0.64)  # 4 * 0.64^(s/2) = 1
DYADIC4_M1 = math.log(1.375)  # largest column sum of the commuting diagonals
CARPET_DIM = 1.0 + math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.log(4.0)
DET_PROBE_DIM = math.log(2.0) / math.log(1.0 / 0.85)


# ---- calls -----------------------------------------------------------------

@dataclass
class Call:
    """One timed call: ``run(mp, measures, **kw)`` -> the program's result.

    ``kw`` is empty in timed repetitions, so every call takes the package's
    default ``workers=1``; only the pool probe passes ``workers``.
    ``families`` names the measures it receives; ``check(result, fams)`` runs
    after timing and returns a list of problems (empty when it passes).
    ``n`` is the word length of a bare power sum, for the result record.
    ``known_defect`` marks an item-1 reproducer: its failure is counted in
    ``failed`` but does not make the run incorrect.
    """

    name: str
    families: tuple
    run: object
    check: object
    kind: str = "bracket"  # "bracket" | "jsr" | "affinity" | "sum"
    n: int = 0
    known_defect: bool = False
    pool_probe: bool = False


def _budget(mp, **kw):
    return mp.WordBudget(wall_clock_cap=FAR, **kw)


def _long(mp, length, n_atoms):
    # raise the nominal word cap so that word length, not N^n, stops the run
    return _budget(mp, max_word_length=length, max_words=n_atoms ** length)


def generic2(seed):
    fams = {
        "w1": w1_family(seed),
        "w3_triple": W3_TRIPLE,
        "planar_reproducer": PLANAR_REPRODUCER,
    }
    calls = [
        Call(
            "w1_pressure", ("w1",),
            lambda mp, m, **kw: mp.pressure.bracket(
                m[0], 0.8, 0.4, budget=_budget(mp), **kw),
            lambda r, f: checks.norm_bracket(r, *f[0], s=0.8),
            pool_probe=True,
        ),
        Call(
            "w3_affinity", ("w3_triple",),
            lambda mp, m, **kw: mp.affinity.affinity_dimension(
                m[0], 0.05, budget=_budget(mp), **kw),
            lambda r, f: checks.affinity(r, *f[0]),
            kind="affinity",
        ),
        Call(
            "planar_reproducer", ("planar_reproducer",),
            lambda mp, m, **kw: mp.svpressure.bracket(
                m[0], 1.5, 0.05, budget=_budget(mp), **kw),
            lambda r, f: checks.planar_bracket(r, *f[0], s=1.5),
            known_defect=True,
        ),
        Call(
            "w3_jsr", ("w3_triple",),
            lambda mp, m, **kw: mp.jsr.jsr_bracket(
                m[0], eps=1e-3, budget=_budget(mp, max_words=3 ** 10), **kw),
            lambda r, f: checks.jsr_bracket(r, *f[0]),
            kind="jsr",
        ),
    ]
    return fams, calls


def structured2(seed):
    fams = {
        "diag_pair": DIAG_PAIR,
        "moran3": MORAN3,
        "det4": DET4,
        "repeated_aab": REPEATED_AAB,
        "dyadic4": DYADIC4,
        "carpet": CARPET,
    }
    calls = [
        Call(
            "diag_pair_pressure", ("diag_pair",),
            lambda mp, m, **kw: mp.pressure.bracket(
                m[0], 1.0, 0.2, budget=_long(mp, 48, 2), **kw),
            lambda r, f: checks.norm_bracket(r, *f[0], s=1.0, exact=LOG_5_6),
        ),
        Call(
            "moran3_svpressure", ("moran3",),
            lambda mp, m, **kw: mp.svpressure.bracket(
                m[0], 1.5, 0.2, budget=_long(mp, 48, 3), **kw),
            lambda r, f: checks.planar_bracket(r, *f[0], s=1.5, exact=MORAN3_P15),
        ),
        Call(
            "moran3_affinity", ("moran3",),
            lambda mp, m, **kw: mp.affinity.affinity_dimension(
                m[0], 0.2, budget=_long(mp, 48, 3), **kw),
            lambda r, f: checks.affinity(r, *f[0], exact=MORAN3_DIM),
            kind="affinity",
        ),
        Call(
            "det4_affinity", ("det4",),
            lambda mp, m, **kw: mp.affinity.affinity_dimension(
                m[0], 1e-7, budget=_budget(mp), **kw),
            lambda r, f: checks.affinity(r, *f[0], exact=DET4_DIM),
            kind="affinity",
        ),
        Call(
            "aab_pressure", ("repeated_aab",),
            lambda mp, m, **kw: mp.pressure.bracket(
                m[0], 1.0, 0.05, budget=_long(mp, 12, 3), **kw),
            lambda r, f: checks.norm_bracket(r, *f[0], s=1.0),
        ),
        Call(
            "aab_svpressure", ("repeated_aab",),
            lambda mp, m, **kw: mp.svpressure.bracket(
                m[0], 1.5, 0.05, budget=_long(mp, 12, 3), **kw),
            lambda r, f: checks.planar_bracket(r, *f[0], s=1.5),
        ),
        Call(
            "dyadic4_pressure", ("dyadic4",),
            lambda mp, m, **kw: mp.pressure.bracket(
                m[0], 1.0, 1e-9, budget=_long(mp, 48, 4), **kw),
            lambda r, f: checks.norm_bracket(r, *f[0], s=1.0, exact=DYADIC4_M1),
            pool_probe=True,
        ),
        Call(
            "carpet_affinity", ("carpet",),
            lambda mp, m, **kw: mp.affinity.affinity_dimension(
                m[0], 0.01, budget=_long(mp, 48, 4), **kw),
            lambda r, f: checks.affinity(r, *f[0], exact=CARPET_DIM),
            kind="affinity",
        ),
        Call(
            "aab_jsr", ("repeated_aab",),
            lambda mp, m, **kw: mp.jsr.jsr_bracket(
                m[0], eps=1e-3, budget=_budget(mp, max_words=3 ** 10), **kw),
            lambda r, f: checks.jsr_bracket(r, *f[0]),
            kind="jsr",
        ),
    ]
    return fams, calls


W2_N = 12
W4_WORDS = 2 ** 18  # stops the sweep at n=6 (words of length 18)
DOMINATED_N = 18


def dense3(seed):
    fams = {
        "w2": w2_family(seed),
        "w4": w4_family(seed),
        "det_probe": det_probe_family(seed),
        "dominated_d3": dominated_d3_family(),
    }
    calls = [
        Call(
            "w2_power_sum", ("w2",),
            lambda mp, m, **kw: mp.measure.weighted_power_sum(
                m[0], W2_N, mp.measure.phi_kernel(1.3), budget=_budget(mp), **kw),
            lambda r, f: checks.phi_power_sum(r, *f[0], n=W2_N, s=1.3),
            kind="sum", n=W2_N, pool_probe=True,
        ),
        Call(
            "w4_jsr", ("w4",),
            lambda mp, m, **kw: mp.jsr.jsr_bracket(
                m[0], eps=1e-3, budget=_budget(mp, max_words=W4_WORDS), **kw),
            lambda r, f: checks.jsr_bracket(r, *f[0]),
            kind="jsr",
        ),
        Call(
            "w4_lift_svpressure", ("w4",),
            lambda mp, m, **kw: mp.svpressure.bracket(
                m[0], Fraction(3, 2), 0.05, budget=_budget(mp), **kw),
            lambda r, f: checks.lift_bracket(r, *f[0], k=1, p=1, q=2),
        ),
        Call(
            "dominated_d3_power_sum", ("dominated_d3",),
            lambda mp, m, **kw: mp.measure.weighted_power_sum(
                m[0], DOMINATED_N, mp.measure.phi_kernel(1.5), budget=_budget(mp),
                **kw),
            lambda r, f: checks.lift_oracle(r, *f[0], n=DOMINATED_N),
            kind="sum", n=DOMINATED_N, known_defect=True,
        ),
        Call(
            "det_probe_affinity", ("det_probe",),
            lambda mp, m, **kw: mp.affinity.affinity_dimension(
                m[0], 1e-6, budget=_budget(mp), **kw),
            lambda r, f: checks.affinity(r, *f[0], exact=DET_PROBE_DIM),
            kind="affinity",
        ),
    ]
    return fams, calls


WORKLOADS = {"generic2": generic2, "structured2": structured2, "dense3": dense3}
