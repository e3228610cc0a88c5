import math

import numpy as np
import pytest

from anisospec import (
    BoxD,
    DegenerateSeminormError,
    InputError,
    InvalidDomainError,
    UnsupportedError,
    unit_ball_volume,
)
from anisospec.closed_forms import (
    _J01,
    kj_sequence_value,
    lambda_euclid_ball,
    lambda_rank1_ellipsoid,
    m_tilde_q_ellipsoid,
    q_threshold_ellipsoid,
    rank1_box,
    t_max_ellipsoid,
    torsion_euclid_ellipsoid,
    torsion_quadratic_ball,
    torsion_rank1_ellipsoid,
)

# First zero of J0, frozen from an independent series-plus-bisection solve
# (see test_disc_eigenvalue_oracle below).
J01_SQUARED = 5.783185962946785


def _j0_series(x: float) -> float:
    # power series sum_k (-1)^k (x/2)^{2k} / (k!)^2, fine for 0 <= x <= 4
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        term *= -((x / 2.0) ** 2) / (k * k)
        total += term
    return total


class TestDiscEigenvalueOracle:
    def test_disc_eigenvalue_oracle(self):
        # bisection on the series between 2 and 3
        lo, hi = 2.0, 3.0
        assert _j0_series(lo) > 0 > _j0_series(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _j0_series(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root**2 == pytest.approx(J01_SQUARED, abs=1e-12)
        assert lambda_euclid_ball(2) == pytest.approx(J01_SQUARED, abs=1e-12)

    def test_j01_literal_is_scipy_root(self):
        # closed_forms keeps the root as a literal so that importing it loads no SciPy
        from scipy.special import jn_zeros

        assert _J01 == float(jn_zeros(0, 1)[0])
        assert lambda_euclid_ball(2) == 5.783185962946783

    def test_interval(self):
        assert lambda_euclid_ball(1) == pytest.approx(math.pi**2 / 4.0, abs=1e-15)

    def test_high_dimension_rejected(self):
        with pytest.raises(UnsupportedError):
            lambda_euclid_ball(3)


class TestEllipsoidTorsion:
    def test_disc(self):
        assert torsion_euclid_ellipsoid([1.0, 1.0]) == pytest.approx(math.pi / 8.0, abs=1e-15)

    def test_two_one_ellipse(self):
        assert torsion_euclid_ellipsoid([2.0, 1.0]) == pytest.approx(2.0 * math.pi / 5.0, rel=1e-15)

    def test_interval(self):
        assert torsion_euclid_ellipsoid([1.0]) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_scaling_law(self, rng):
        # T(tE) = t^{d+2} T(E)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            a = rng.uniform(0.5, 3.0, size=d)
            t = rng.uniform(0.5, 2.0)
            assert torsion_euclid_ellipsoid(t * a) == pytest.approx(
                t ** (d + 2) * torsion_euclid_ellipsoid(a), rel=1e-12
            )

    def test_bad_axes(self):
        with pytest.raises(InvalidDomainError):
            torsion_euclid_ellipsoid([1.0, -2.0])


class TestRank1Ellipsoid:
    def test_disc_any_direction(self, rng):
        # projection seminorm on the disc: T = omega_2/4 = pi/4, twice the
        # Euclidean disc torsion pi/8
        for _ in range(10):
            th = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(th), np.sin(th)])
            assert lambda_rank1_ellipsoid([1.0, 1.0], v) == pytest.approx(np.pi**2 / 4, rel=1e-14)
            assert torsion_rank1_ellipsoid([1.0, 1.0], v) == pytest.approx(np.pi / 4, rel=1e-14)

    def test_axis_values(self):
        assert lambda_rank1_ellipsoid([2.0, 1.0], [1.0, 0.0]) == pytest.approx(np.pi**2 / 16)
        assert lambda_rank1_ellipsoid([2.0, 1.0], [0.0, 1.0]) == pytest.approx(np.pi**2 / 4)
        assert torsion_rank1_ellipsoid([2.0, 1.0], [1.0, 0.0]) == pytest.approx(2 * np.pi)
        assert torsion_rank1_ellipsoid([2.0, 1.0], [0.0, 1.0]) == pytest.approx(np.pi / 2)

    def test_axis_torsion_identity(self, rng):
        # along e_i the torsion reduces to omega_d prod(a) a_i^2 / (d+2)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            a = rng.uniform(0.5, 3.0, size=d)
            i = int(rng.integers(d))
            e = np.zeros(d)
            e[i] = 1.0
            expect = unit_ball_volume(d) * np.prod(a) * a[i] ** 2 / (d + 2)
            assert torsion_rank1_ellipsoid(a, e) == pytest.approx(expect, rel=1e-12)

    def test_product_constant_at_q_one(self, rng):
        # lambda * T is direction independent: the rank-1 product is flat
        for _ in range(50):
            a = rng.uniform(0.5, 3.0, size=2)
            th = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(th), np.sin(th)])
            prod = lambda_rank1_ellipsoid(a, v) * torsion_rank1_ellipsoid(a, v)
            expect = np.pi**2 / 4 * unit_ball_volume(2) * np.prod(a) / 4.0
            assert prod == pytest.approx(expect, rel=1e-12)

    def test_nonunit_direction_rejected(self):
        from anisospec import InvalidSeminormError

        with pytest.raises(InvalidSeminormError):
            lambda_rank1_ellipsoid([1.0, 1.0], [1.0, 1.0])


class TestRank1Box:
    def test_unit_square(self):
        lam, tor = rank1_box(BoxD([[0, 1], [0, 1]]))
        assert lam == pytest.approx(np.pi**2, rel=1e-15)
        assert tor == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_tall_box(self):
        lam, tor = rank1_box(BoxD([[0, 1], [0, 2]]))
        assert lam == pytest.approx(np.pi**2 / 4.0)
        assert tor == pytest.approx(2.0 / 3.0)

    def test_wide_box(self):
        lam, tor = rank1_box(BoxD([[0, 3], [0, 1]]))
        assert lam == pytest.approx(np.pi**2)
        assert tor == pytest.approx(0.25)

    def test_other_axis(self):
        lam, tor = rank1_box(BoxD([[0, 1], [0, 2]]), axis=0)
        assert lam == pytest.approx(np.pi**2)
        assert tor == pytest.approx(2.0 / 12.0)

    def test_product_law_3d(self):
        lam, tor = rank1_box(BoxD([[0, 2], [0, 3], [0, 1]]))
        assert lam == pytest.approx(np.pi**2)
        assert tor == pytest.approx(6.0 / 12.0)

    def test_negative_axis_counts_from_the_end(self):
        box = BoxD([[0, 1], [0, 2]])
        assert rank1_box(box, axis=-2) == rank1_box(box, axis=0)

    @pytest.mark.parametrize("axis", [2, 5, -3, 1.5, np.float64(1.0)])
    def test_bad_axis_rejected(self, axis):
        with pytest.raises(InvalidDomainError, match="axis"):
            rank1_box(BoxD([[0, 1], [0, 2]]), axis=axis)


class TestQuadraticBall:
    def test_euclidean(self):
        assert torsion_quadratic_ball([1.0, 1.0]) == pytest.approx(np.pi / 8)

    def test_degenerate(self):
        assert torsion_quadratic_ball([0.0, 1.0]) == pytest.approx(np.pi / 4)

    def test_intermediate(self):
        assert torsion_quadratic_ball([0.5, 1.0]) == pytest.approx(np.pi / 5.0, rel=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(DegenerateSeminormError):
            torsion_quadratic_ball([0.0, 0.0])


class TestMinRank1Product:
    def test_unit_disc_q_one(self):
        value, e = m_tilde_q_ellipsoid([1.0, 1.0], 1.0)
        assert value == pytest.approx(np.pi**3 / 16.0, rel=1e-14)

    def test_unit_disc_q_zero(self):
        value, _ = m_tilde_q_ellipsoid([1.0, 1.0], 0.0)
        assert value == pytest.approx(np.pi**2 / 4.0, rel=1e-14)

    def test_two_one_ellipse_q_one(self):
        value, e = m_tilde_q_ellipsoid([2.0, 1.0], 1.0)
        assert value == pytest.approx(np.pi**3 / 8.0, rel=1e-14)
        assert e.vector == pytest.approx([1.0, 0.0])

    def test_matches_rank1_formulas_along_long_axis(self, rng):
        # the reported value equals the rank-1 product along the longest axis
        for _ in range(50):
            d = int(rng.integers(2, 5))
            a = rng.uniform(0.5, 3.0, size=d)
            q = rng.uniform(-0.5, 1.0)
            value, e = m_tilde_q_ellipsoid(a, q)
            v = e.vector
            direct = lambda_rank1_ellipsoid(a, v) * torsion_rank1_ellipsoid(a, v) ** q
            assert value == pytest.approx(direct, rel=1e-12)

    def test_longest_axis_minimizes(self, rng):
        # scan 64 directions; no rank-1 product beats the formula for q < 1
        for _ in range(20):
            a = rng.uniform(0.5, 3.0, size=2)
            q = rng.uniform(0.0, 0.95)
            value, _ = m_tilde_q_ellipsoid(a, q)
            for th in np.linspace(0, np.pi, 64, endpoint=False):
                v = np.array([np.cos(th), np.sin(th)])
                cand = lambda_rank1_ellipsoid(a, v) * torsion_rank1_ellipsoid(a, v) ** q
                assert cand >= value - 1e-12 * abs(value)

    def test_q_above_one_rejected(self):
        with pytest.raises(UnsupportedError, match="q <= 1"):
            m_tilde_q_ellipsoid([1.0, 1.0], 1.5)

    def test_nonfinite_q_rejected(self):
        # as in kj_sequence_value, +inf fails the range check first
        for q in (float("nan"), float("-inf")):
            with pytest.raises(InputError, match="q must be finite"):
                m_tilde_q_ellipsoid([1.0, 1.0], q)
        with pytest.raises(UnsupportedError, match="q <= 1"):
            m_tilde_q_ellipsoid([1.0, 1.0], float("inf"))


class TestTMax:
    def test_disc(self):
        assert t_max_ellipsoid([1.0, 1.0]) == pytest.approx(np.pi / 4)

    def test_ellipse(self):
        assert t_max_ellipsoid([2.0, 1.0]) == pytest.approx(2 * np.pi)

    def test_ball_3d(self):
        assert t_max_ellipsoid([1.0, 1.0, 1.0]) == pytest.approx(4 * np.pi / 15)

    def test_equals_rank1_torsion_at_longest_axis(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 5))
            a = rng.uniform(0.5, 3.0, size=d)
            e = np.zeros(d)
            e[int(np.argmax(a))] = 1.0
            assert t_max_ellipsoid(a) == pytest.approx(torsion_rank1_ellipsoid(a, e), rel=1e-12)

    def test_dominates_all_directions(self, rng):
        for _ in range(20):
            a = rng.uniform(0.5, 3.0, size=2)
            tmax = t_max_ellipsoid(a)
            for th in np.linspace(0, np.pi, 64, endpoint=False):
                v = np.array([np.cos(th), np.sin(th)])
                assert torsion_rank1_ellipsoid(a, v) <= tmax * (1 + 1e-12)


class TestQThreshold:
    def test_disc(self):
        assert q_threshold_ellipsoid([1.0, 1.0]) == pytest.approx(2.0, abs=1e-15)

    def test_two_one(self):
        expect = 1.0 + math.log(2.0) / math.log(1.25)
        assert q_threshold_ellipsoid([2.0, 1.0]) == pytest.approx(expect, rel=1e-15)
        assert expect == pytest.approx(4.10628371950539, abs=1e-10)

    def test_ball_3d(self):
        assert q_threshold_ellipsoid([1.0, 1.0, 1.0]) == pytest.approx(2.0)

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidDomainError):
            q_threshold_ellipsoid([1.0, 2.0])

    def test_range(self, rng):
        # ratio a_d/a_{d-1} <= 1 pins the threshold at >= 2; collapsing the
        # last axis pushes it to infinity
        for _ in range(30):
            a = np.sort(rng.uniform(0.2, 3.0, size=3))[::-1]
            qe = q_threshold_ellipsoid(a)
            assert qe >= 2.0 - 1e-12
        assert q_threshold_ellipsoid([1.0, 1.0, 1e-6]) > 1e10


class TestKJSequence:
    def test_reference_values(self):
        v1 = kj_sequence_value(2, 1, 0.5, 1)
        assert v1 == pytest.approx(np.pi**2 / (4 * math.sqrt(3.0)), abs=1e-12)
        assert v1 == pytest.approx(1.424554689441014, abs=1e-12)
        assert kj_sequence_value(2, 1, 0.5, 10) == pytest.approx(0.14245546894410144, abs=1e-13)
        assert kj_sequence_value(2, 1, 0.5, 100) == pytest.approx(0.014245546894410141, abs=1e-14)

    def test_strictly_decreasing_to_zero(self, rng):
        for _ in range(20):
            q = rng.uniform(-1.0, 0.99)
            k = int(rng.integers(1, 3))
            vals = [kj_sequence_value(3, k, q, n) for n in (1, 2, 5, 10, 100, 10000)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        assert kj_sequence_value(2, 1, 0.5, 10**9) < 1e-8

    def test_q_zero_scaling(self):
        # at q=0 the value is lambda(B^k)/n^2
        assert kj_sequence_value(2, 1, 0.0, 7) == pytest.approx(np.pi**2 / 4 / 49, rel=1e-14)
        assert kj_sequence_value(3, 2, 0.0, 3) == pytest.approx(J01_SQUARED / 9, rel=1e-12)

    def test_out_of_scope_branches(self):
        with pytest.raises(UnsupportedError, match="out of scope"):
            kj_sequence_value(2, 1, 1.0, 5)
        with pytest.raises(UnsupportedError):
            kj_sequence_value(4, 3, 0.5, 5)

    def test_bad_k(self):
        from anisospec import InvalidSeminormError

        with pytest.raises(InvalidSeminormError):
            kj_sequence_value(2, 2, 0.5, 1)
