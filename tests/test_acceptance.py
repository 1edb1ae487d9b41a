"""One end-to-end check per numbered deliverable criterion.

Every test finishes by printing "[criterion NN] PASS"; run

    python3 -m pytest tests/test_acceptance.py -v -s

to see those lines next to pytest's own pass/fail report.  Each check is
desk-scale: the slowest (criteria 8 and 14) stay well under two minutes.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_norm_sum, engine_norm_bracket, log_sum, norm_sandwich, sandwich
from matpress import affinity, cli, jsr, pressure, svpressure
from matpress.linalg import lift, operator_norm, phi
from matpress.measure import FiniteMatrixMeasure, WordBudget
from oracle import det_pressure

DIAG_PAIR = FiniteMatrixMeasure(
    [
        (1.0, [[0.5, 0.0], [0.0, 1.0 / 3.0]]),
        (1.0, [[0.25, 0.0], [0.0, 0.5]]),
    ]
)
SCALAR_HALF = FiniteMatrixMeasure([(1.0, [[0.5, 0.0], [0.0, 0.5]])])
MORAN3 = FiniteMatrixMeasure([(1.0, [[0.5, 0.0], [0.0, 0.5]])] * 3)
DET4 = FiniteMatrixMeasure([(1.0, [[0.8, 0.0], [0.0, 0.8]])] * 4)


def _pass(num, detail=""):
    print(f"[criterion {num:02d}] PASS" + (f"  ({detail})" if detail else ""))


def test_criterion_01_diagonal_closed_form(engine_calls):
    # commuting diagonal atoms: growth rate = log of the largest column sum
    cols = [0.5 + 0.25, 1.0 / 3.0 + 0.5]
    target = math.log(max(cols))
    assert target == pytest.approx(math.log(5.0 / 6.0), abs=1e-12)

    # the closed form itself cross-checked by direct word enumeration
    mats = [np.asarray(m) for _, m in DIAG_PAIR.atoms]
    for n in range(1, 7):
        brute = math.log(brute_norm_sum([1.0, 1.0], mats, n, 1.0)) / n
        assert log_sum(DIAG_PAIR, "norm", 1.0, n) / n == pytest.approx(brute, rel=1e-10)

    engine_calls.clear()
    br = engine_norm_bracket(DIAG_PAIR, 1.0, 0.75)
    assert engine_calls["weighted_sums"] > 0
    assert br.status == "certified"
    assert br.upper - br.lower <= 0.75
    assert br.lower - 1e-9 <= target <= br.upper + 1e-9
    for _, lo, up in norm_sandwich(DIAG_PAIR, 1.0, 8):
        assert lo - 1e-9 <= target <= up + 1e-9
    _pass(1, f"[{br.lower:.6f}, {br.upper:.6f}] contains log(5/6)")


def test_criterion_02_scalar_exactness():
    for s in (0.5, 1.0, 2.0):
        target = s * math.log(0.5)
        u1 = log_sum(SCALAR_HALF, "norm", s, 1)
        l1 = norm_sandwich(SCALAR_HALF, s, 1)[0][1]
        assert abs(u1 - target) <= 1e-12
        assert abs(l1 - (target - math.log(pressure.norm_constant(2, s)))) <= 1e-12
        br = pressure.bracket(SCALAR_HALF, s, 1.0)  # triangular: the closed form
        assert br.status == "certified"
        assert br.lower - 1e-12 <= target <= br.upper + 1e-12
    _pass(2, "U1 and L1 exact at s in {0.5, 1, 2}")


def test_criterion_03_minus_infinity_detection(engine_calls):
    mu = FiniteMatrixMeasure(
        [
            (1.0, [[0.0, 1.0], [0.0, 0.0]]),
            (1.0, [[0.0, 3.0], [0.0, 0.0]]),
        ]
    )
    br = engine_norm_bracket(mu, 1.0, 0.5)
    assert engine_calls["weighted_sums"] == 1
    assert br.status == "minus_infinity"
    assert br.lower == br.upper == -math.inf
    assert br.words_evaluated == 4  # exactly the N^2 length-2 products
    _pass(3, "4 words settle the -inf verdict")


def test_criterion_04_gelfand_single_matrix():
    # rho([[0,1],[1/2,0]]) = sqrt(1/2), so the s=2 growth rate is -log 2
    mu = FiniteMatrixMeasure([(1.0, [[0.0, 1.0], [0.5, 0.0]])])
    br = pressure.bracket(mu, 2.0, 0.5)
    assert br.status == "certified"
    assert br.lower - 1e-9 <= -math.log(2.0) <= br.upper + 1e-9
    _pass(4, "contains -log 2")


def test_criterion_05_lift_identity():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        d = int(rng.integers(2, 4))
        a = rng.uniform(-1.0, 1.0, (d, d)) * rng.uniform(0.2, 1.5)
        q = int(rng.integers(2, 4))
        p = int(rng.integers(1, q))
        k = int(rng.integers(1, d))
        s = Fraction(k * q + p, q)
        value = phi(a, s)
        lifted = operator_norm(lift(a, k, p, q)) ** (1.0 / q)
        assert abs(lifted - value) <= 1e-8 * (1.0 + value)
        checked += 1
    _pass(5, "200 random lift identities within 1e-8")


def test_criterion_06_planar_bracket_validity():
    rng = np.random.default_rng(2026)
    for _ in range(50):
        atoms = [(1.0, rng.uniform(-0.9, 0.9, (2, 2))) for _ in range(2)]
        mu = FiniteMatrixMeasure(atoms)
        for s in (0.5, 1.0, 1.5):
            block, log_k, _ = svpressure._route(2, s)
            los = [lo for _, lo, _ in sandwich(mu, "phi", s, block, log_k, 3)]
            ups = [log_sum(mu, "phi", s, m) / m for m in (1, 2, 3)]
            for lo in los:
                for up in ups:
                    assert lo <= up + 1e-9
        # above the ambient dimension the determinant sum is the exact value
        det_lo = det_pressure(mu, 2.5)
        for m in (1, 2, 3):
            assert det_lo <= log_sum(mu, "phi", 2.5, m) / m + 1e-9
    _pass(6, "no ordering violation over 50 random measures")


def test_criterion_07_similarity_pressure():
    target = math.log(3.0 * 2.0 ** (-1.5))
    br = svpressure.bracket(MORAN3, 1.5, 0.5)  # triangular: the closed form
    assert br.status == "certified"
    assert br.lower - 1e-9 <= target <= br.upper + 1e-9
    _pass(7, f"contains log(3/2^1.5) = {target:.7f}")


def test_criterion_08_affinity_moran():
    target = math.log(3.0) / math.log(2.0)
    # MORAN3 is triangular: this checks the closed form's branch
    res = affinity.affinity_dimension(
        MORAN3, 0.7, budget=WordBudget(max_words=10**8, wall_clock_cap=240.0)
    )
    lo, up = res.interval
    assert res.status == "certified"
    assert up - lo <= 0.7
    assert lo - 1e-9 <= target <= up + 1e-9
    _pass(8, f"width {up - lo:.4f} around log3/log2")


def test_criterion_09_affinity_determinant_branch():
    res = affinity.affinity_dimension(DET4, 1e-7)
    assert res.branch == "determinant"
    assert res.status == "certified"
    assert abs(res.midpoint - 6.212567) <= 1e-6
    _pass(9, f"midpoint {res.midpoint:.7f}")


def test_criterion_10_continuity_diagnostic():
    jump = FiniteMatrixMeasure(
        [
            (1.0, [[1.0, 0.0], [0.0, 1.0]]),
            (1.0, [[1.0, 0.0], [0.0, 0.0]]),
        ]
    )
    # every word product of the jump pair has norm 1: value log 2, but the
    # invertible restriction is the identity alone, value 0
    assert log_sum(jump, "phi", 1.0, 4) / 4 == pytest.approx(math.log(2.0), rel=1e-12)
    assert svpressure.continuity_at_one(jump, 0.6) == svpressure.DISCONTINUOUS

    flat = FiniteMatrixMeasure(
        [
            (1.0, [[1.0, 0.0], [0.0, 1.0]]),
            (1.0, [[0.0, 1.0], [0.0, 0.0]]),
        ]
    )
    assert svpressure.continuity_at_one(flat, 0.6) == svpressure.CONTINUOUS
    _pass(10, "jump detected, nilpotent companion stays continuous")


def test_criterion_11_block_triangular_invariance(engine_calls):
    rng = np.random.default_rng(42)
    for _ in range(20):
        tri_atoms, diag_atoms = [], []
        for _ in range(2):
            a = np.triu(rng.uniform(-0.9, 0.9, (2, 2)))
            tri_atoms.append((1.0, a))
            diag_atoms.append((1.0, np.diag(np.diag(a))))
        br_tri = engine_norm_bracket(FiniteMatrixMeasure(tri_atoms), 1.0, 1.0)
        br_diag = engine_norm_bracket(FiniteMatrixMeasure(diag_atoms), 1.0, 1.0)
        assert br_tri.status == br_diag.status == "certified"
        assert max(br_tri.lower, br_diag.lower) <= min(br_tri.upper, br_diag.upper) + 1e-9
    assert engine_calls["weighted_sums"] > 0
    _pass(11, "20 triangular/diagonal bracket pairs intersect")


def test_criterion_12_jsr_and_zero_temperature():
    # DIAG_PAIR is triangular: the JSR and every scan point are closed forms
    br = jsr.jsr_bracket(DIAG_PAIR)
    assert br.lower - 1e-12 <= 0.5 <= br.upper + 1e-12

    scan = jsr.zero_temperature_scan(DIAG_PAIR, [1, 2, 4, 8, 16, 32, 64], eps=0.5)

    def dist(pt):
        return max(pt.radius_lower - 0.5, 0.5 - pt.radius_upper, 0.0)

    dists = [dist(pt) for pt in scan.points]
    for prev, nxt in zip(dists, dists[1:]):
        assert nxt <= prev + 1e-12
    assert dists[-1] <= 0.01
    _pass(12, f"scan distances {', '.join(f'{x:.4f}' for x in dists)}")


def test_criterion_13_p_radius():
    mu = FiniteMatrixMeasure(
        [
            (1.0, [[0.3, 0.0], [0.0, 0.3]]),
            (1.0, [[0.3, 0.0], [0.0, 0.3]]),
        ]
    )
    br = pressure.p_radius_bracket(mu, 2.0, 1.0)  # triangular: the closed form
    assert br.status == "certified"
    assert br.lower - 1e-9 <= 0.3 <= br.upper + 1e-9
    assert abs(br.upper - 0.3) <= 1e-12  # the n=1 average is already exact
    _pass(13, "contains 0.3, upper endpoint exact")


def test_criterion_14_worker_determinism(tmp_path, capsys, split_sizes, enumeration_only):
    # DIAG_PAIR and MORAN3 are triangular: with the closed form off they
    # take the enumeration routes whose worker counts this compares
    diag_doc = tmp_path / "diag.json"
    diag_doc.write_text(cli.emit_input(DIAG_PAIR))
    moran_doc = tmp_path / "moran.json"
    moran_doc.write_text(cli.emit_input(MORAN3))

    def run(argv, expect=0):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == expect
        return json.loads(out)

    per_workers = [
        run(["pressure", str(diag_doc), "--s", "1", "--eps", "0.75",
             "--workers", w, "--format", "json"])
        for w in ("1", "4")
    ]
    for key in ("lower", "upper"):
        a, b = (r["bracket"][key] for r in per_workers)
        assert abs(a - b) <= 1e-10

    per_workers = [
        run(["affdim", str(moran_doc), "--eps", "0.7",
             "--max-words", "100000000", "--workers", w, "--format", "json"])
        for w in ("1", "4")
    ]
    for key in ("lower", "upper"):
        a, b = (r["interval"][key] for r in per_workers)
        assert abs(a - b) <= 1e-10
    assert enumeration_only["weighted_sums"] > 0
    assert split_sizes == []

    # The runs above never pass the engine's row cap, so nothing splits.
    # Three 3x3 atoms do at n=12: the bracket needs that sum for its lower
    # bound at n=4 (width 1.96; 2.60 at n=3), and its 27 units (level 9
    # times each length-3 suffix) carry work for three processes.  Three
    # 2x2 atoms pass it at lengths 10 and 12, which a run capped at n=12
    # reaches, and split under a lowered work rule.
    rng = np.random.default_rng(14)
    for d, argv, expect, splits in (
        (3, ["--eps", "2.2"], 0, 1),
        (2, ["--eps", "1e-6", "--max-n", "12"], 2, 2),
    ):
        mu = FiniteMatrixMeasure([(1.0, rng.uniform(-1.0, 1.0, (d, d))) for _ in range(3)])
        doc = tmp_path / f"dense{d}.json"
        doc.write_text(cli.emit_input(mu))
        if d == 2:
            split_sizes.lower_work(1 << 10)
        reports = []
        for w in (1, 2, 3):
            reports.append(run(["pressure", str(doc), "--s", "1", *argv,
                                "--workers", str(w), "--format", "json"], expect))
            assert split_sizes == ([w] * splits if w > 1 else [])
            split_sizes.clear()
        for key in ("bracket", "status", "n_used", "words_evaluated"):
            assert reports[0][key] == reports[1][key] == reports[2][key]
    _pass(14, "workers 1, 2 and 3 agree on every endpoint")
