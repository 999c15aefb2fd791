import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import coneapprox as ca
from coneapprox.errors import InadmissibleCone

from conftest import cone_contains, cone_params, gammas, oracle_transform, vectors
from reference_intervals import ZeroDirection, dominating_rotations, rotation_window

PI = math.pi


def cone_leq(params, y, y2):
    """y precedes y2 in the cone order: y2 - y lies in the cone."""
    return cone_contains(params, (y2[0] - y[0], y2[1] - y[1]))


class TestAdmissible:
    def test_pareto_cone(self):
        assert ca.admissible(PI / 2, 0.0)

    def test_halfplane_excludes_axis_rotations(self):
        assert not ca.admissible(PI, 0.0)
        assert not ca.admissible(PI, PI / 2)
        assert ca.admissible(PI, PI / 4)

    def test_closed_interval_below_pi(self):
        assert ca.admissible(3 * PI / 4, PI / 4)
        assert ca.admissible(3 * PI / 4, 0.0)
        assert not ca.admissible(3 * PI / 4, PI / 4 + 1e-6)
        assert not ca.admissible(PI / 3, 0.0)

    def test_cone_params_rejects_inadmissible(self):
        with pytest.raises(InadmissibleCone):
            ca.ConeParams(PI, 0.0)
        with pytest.raises(InadmissibleCone):
            ca.ConeParams(PI / 2, 0.1)

    def test_right_angle_band_has_one_rotation(self):
        # Within TAU_ANGLE of pi/2 the inner angle is the right angle.
        for gamma in (PI / 2 - 5e-13, PI / 2 + 5e-13, PI / 2 + 9e-13):
            assert ca.admissible_range(gamma) == (0.0, 0.0)
        assert ca.admissible_range(PI / 2 + 2e-12)[1] > 0.0
        with pytest.raises(InadmissibleCone):
            ca.ConeParams(PI / 2 + 5e-13, 1.5e-12)


class TestTransform:
    def test_pareto_is_identity(self):
        p = ca.ConeParams.pareto()
        assert ca.transform(p, (3.0, 7.0)) == (3.0, 7.0)

    def test_halfplane_symmetric_rows(self):
        p = ca.ConeParams(PI, PI / 4)
        t = ca.transform(p, (1.0, 1.0))
        assert t == pytest.approx((math.sqrt(2), math.sqrt(2)), abs=1e-12)

    def test_hand_evaluated_matrix(self):
        # gamma = 3pi/4, phi = pi/4 makes phi' = 0: rows (1, 0) and
        # (sqrt(2)/2, sqrt(2)/2), so (2, 1/3) maps to (2, 7*sqrt(2)/6).
        p = ca.ConeParams(3 * PI / 4, PI / 4)
        t = ca.transform(p, (2.0, 1.0 / 3.0))
        assert t == pytest.approx((2.0, 7.0 * math.sqrt(2) / 6.0), abs=1e-12)

    @given(cone_params(), vectors(lo=0.001, hi=20.0))
    def test_positive_vectors_stay_positive(self, params, y):
        t = ca.transform(params, y)
        assert t[0] > 0.0 and t[1] > 0.0

    @given(cone_params(), vectors(), vectors(), st.floats(0.1, 5.0))
    def test_linear(self, params, y, z, lam):
        ty = ca.transform(params, y)
        tz = ca.transform(params, z)
        ts = ca.transform(params, (y[0] + lam * z[0], y[1] + lam * z[1]))
        assert ts[0] == pytest.approx(ty[0] + lam * tz[0], abs=1e-9)
        assert ts[1] == pytest.approx(ty[1] + lam * tz[1], abs=1e-9)


class TestConeContains:
    @given(cone_params())
    def test_origin_and_orthant(self, params):
        assert cone_contains(params, (0.0, 0.0))
        assert cone_contains(params, (1.0, 1.0))
        assert not cone_contains(params, (-1.0, 0.0))
        assert not cone_contains(params, (-1.0, -1.0))

    @given(cone_params(), cone_params(), vectors())
    def test_containment_monotone(self, p1, p2, d):
        # p1's cone is contained in p2's exactly when both extreme rays are
        # rotated no further: phi1 <= phi2 and phi1' <= phi2'.
        if not (p1.phi <= p2.phi and p1.phi_prime <= p2.phi_prime):
            return
        if cone_contains(p1, d, tol=0.0):
            assert cone_contains(p2, d)


class TestConeLeq:
    def test_pareto_reduces_to_componentwise(self):
        p = ca.ConeParams.pareto()
        assert cone_leq(p, (1.0, 2.0), (1.0, 3.0))
        assert not cone_leq(p, (2.0, 1.0), (1.0, 2.0))

    def test_wider_cone_compares_more(self):
        p = ca.ConeParams(3 * PI / 4, PI / 4)
        assert cone_leq(p, (1.0, 1.0), (2.0, 1.0 / 3.0))

    @given(cone_params(), vectors(), vectors())
    def test_matches_transformed_componentwise(self, params, y, y2):
        ty = ca.transform(params, y)
        ty2 = ca.transform(params, y2)
        margin = min(ty2[0] - ty[0], ty2[1] - ty[1])
        if abs(margin) < 1e-6:
            return
        assert cone_leq(params, y, y2) == (margin > 0)

    @given(cone_params(), vectors(), vectors(), vectors())
    def test_translation_invariant(self, params, y, y2, z):
        shifted = cone_leq(
            params, (y[0] + z[0], y[1] + z[1]), (y2[0] + z[0], y2[1] + z[1])
        )
        assert cone_leq(params, y, y2) == shifted


class TestDominatingRotations:
    def test_orthant_direction_gives_full_range(self):
        got = dominating_rotations(3 * PI / 4, (1.0, 1.0))
        assert got.is_full()

    def test_boundary_direction_gives_single_point(self):
        got = dominating_rotations(3 * PI / 4, (1.0, -1.0))
        assert got.interval is not None
        lo, hi = got.interval
        assert lo == pytest.approx(PI / 4, abs=1e-12)
        assert hi - lo <= 1e-12

    def test_negative_orthant_gives_empty(self):
        assert dominating_rotations(3 * PI / 4, (-1.0, -1.0)).is_empty()
        assert dominating_rotations(PI, (-1.0, 0.0)).is_empty()

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            dominating_rotations(3 * PI / 4, (0.0, 0.0))

    def test_gamma_outside_range_rejected(self):
        with pytest.raises(InadmissibleCone):
            dominating_rotations(PI / 3, (1.0, 1.0))

    @given(gammas(), vectors())
    @example(gamma=PI, d=(0.0, -0.001))
    def test_agrees_with_membership_on_grid(self, gamma, d):
        if d == (0.0, 0.0):
            return
        got = dominating_rotations(gamma, d)
        lo, hi = ca.admissible_range(gamma)
        if hi <= lo:
            return
        edge = 1e-7
        # Membership is relaxed by TAU_VAL, so rotations next to a window
        # endpoint are skipped, also when clipping removed that endpoint.
        ends = (*(got.interval or ()), *rotation_window(gamma, d))
        for phi in np.linspace(lo, hi, 200):
            phi = float(phi)
            if any(abs(phi - e) < edge for e in ends):
                continue
            member = cone_contains(ca.ConeParams(gamma, phi), d)
            assert member == got.contains(phi)


def test_dense_grid_agreement_for_fixed_cases():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gamma = float(rng.uniform(PI / 2 + 1e-3, PI))
        d = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        if d == (0.0, 0.0):
            continue
        got = dominating_rotations(gamma, d)
        lo, hi = ca.admissible_range(gamma)
        for phi in np.linspace(lo, hi, 10_000):
            phi = float(phi)
            if any(abs(phi - e) < 1e-7 for e in got.interval or ()):
                continue
            assert cone_contains(ca.ConeParams(gamma, phi), d) == got.contains(phi)


@given(cone_params())
def test_identity_order_at_pareto(params):
    if params.gamma != PI / 2:
        return
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = tuple(rng.uniform(-5, 5, 2))
        y2 = tuple(rng.uniform(-5, 5, 2))
        assert cone_leq(params, y, y2) == (
            y[0] <= y2[0] + ca.TAU_VAL and y[1] <= y2[1] + ca.TAU_VAL
        )


def test_identity_order_random_pairs():
    p = ca.ConeParams.pareto()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        y = tuple(float(v) for v in rng.uniform(-5.0, 5.0, 2))
        y2 = tuple(float(v) for v in rng.uniform(-5.0, 5.0, 2))
        assert ca.transform(p, y) == y
        assert cone_leq(p, y, y2) == (y[0] <= y2[0] + ca.TAU_VAL and y[1] <= y2[1] + ca.TAU_VAL)


@given(cone_params(), vectors())
def test_transform_matches_independent_evaluation(params, y):
    t = ca.transform(params, y)
    o = oracle_transform(params.gamma, params.phi, y)
    assert t == pytest.approx(o, abs=1e-12)
