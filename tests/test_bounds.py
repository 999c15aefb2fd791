import math

import numpy as np
import pytest

import coneapprox as ca
from coneapprox.bounds import BoundTable
from coneapprox.errors import DegeneratePhi, InadmissibleCone

PI = math.pi


class TestGuaranteeFactor:
    def test_exact_endpoints(self):
        assert ca.guarantee_factor(PI / 2) == 1.0
        assert ca.guarantee_factor(PI) == 2.0

    def test_three_quarters(self):
        assert ca.guarantee_factor(3 * PI / 4) == pytest.approx(1.0 + math.sqrt(2) - 1.0, abs=1e-12)

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(PI / 2, PI, 10_000)
        vals = ca.guarantee_factor(grid)
        assert np.all(np.diff(vals) > 0)

    def test_vectorized_matches_scalar(self):
        grid = np.linspace(PI / 2, PI, 17)
        vals = ca.guarantee_factor(grid)
        for g, v in zip(grid, vals):
            assert ca.guarantee_factor(float(g)) == v


class TestAlternativeForms:
    def test_right_angle_limit(self):
        assert ca.alternative_forms(PI / 2) == (0.0, 0.0, 0.0, 0.0)

    def test_halfplane_all_one(self):
        forms = ca.alternative_forms(PI)
        assert forms == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)

    def test_three_quarters_value(self):
        forms = ca.alternative_forms(3 * PI / 4)
        assert forms == pytest.approx((math.sqrt(2) - 1,) * 4, abs=1e-12)

    def test_forms_agree_even_near_right_angle(self):
        grid = np.linspace(PI / 2 + 1e-6, PI, 10_000)
        forms = ca.alternative_forms(grid)
        spread = forms.max(axis=0) - forms.min(axis=0)
        assert float(spread.max()) <= 1e-12

    def test_consistent_with_factor(self):
        grid = np.linspace(PI / 2, PI, 101)
        forms = ca.alternative_forms(grid)
        assert np.allclose(1.0 + forms[2], ca.guarantee_factor(grid), atol=1e-14)


class TestRuleOfThumb:
    def test_endpoints_and_midpoint(self):
        assert ca.rule_of_thumb(PI / 2) == 1.0
        assert ca.rule_of_thumb(PI) == 2.0
        assert ca.rule_of_thumb(3 * PI / 4) == pytest.approx(1.5, abs=1e-15)

    def test_dominates_guarantee(self):
        grid = np.linspace(PI / 2, PI, 10_000)
        slack = ca.rule_of_thumb(grid) - ca.guarantee_factor(grid)
        assert float(slack.min()) >= -1e-12


class TestDistortionGap:
    def test_boundary_rotation_gap_is_symmetric_tangent(self):
        gamma = 0.8 * PI
        assert ca.distortion_gap(gamma, 0.0) == pytest.approx(
            math.tan(gamma / 2 - PI / 4), abs=1e-12
        )

    def test_zero_at_symmetric_rotation(self):
        for gamma in (PI / 2 + 0.3, 3 * PI / 4, 0.95 * PI, PI):
            assert abs(ca.distortion_gap(gamma, gamma / 2 - PI / 4)) < 1e-12

    def test_complementary_product_identity_at_halfplane(self):
        # tan(pi/8) * tan(3pi/8) = 1, so the gap closes at phi = pi/8 too?
        # No: the gap is tan(pi/4) - 1 = 0 only because the product is 1.
        assert ca.distortion_gap(PI, PI / 8) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_grid(self):
        gammas = np.linspace(PI / 2, PI, 500)
        for g in gammas:
            span = g - PI / 2
            phis = np.linspace(0.0, span, 40)
            gaps = ca.distortion_gap(float(g), phis)
            assert float(np.min(gaps)) >= -1e-9


class TestIdentityResidual:
    def test_symmetric_case(self):
        for gamma in (2 * PI / 3, 3 * PI / 4, 0.9 * PI):
            r = ca.distortion_identity_residual(gamma, gamma / 2 - PI / 4)
            assert abs(r) < 1e-12

    def test_generic_point(self):
        assert abs(ca.distortion_identity_residual(3 * PI / 4, PI / 8)) < 1e-12

    def test_near_degenerate_stress(self):
        assert abs(ca.distortion_identity_residual(PI - 0.1, 0.01)) < 1e-9

    def test_rejects_boundary(self):
        with pytest.raises(DegeneratePhi):
            ca.distortion_identity_residual(3 * PI / 4, 0.0)
        with pytest.raises(InadmissibleCone):
            ca.distortion_identity_residual(PI / 2, 0.0)

    def test_right_angle_band_edge(self):
        # Inside the band the inner angle is the right angle; 0.5 * PI + 1e-12
        # lies just outside it, where only the rotation is degenerate.
        with pytest.raises(InadmissibleCone):
            ca.distortion_identity_residual(PI / 2 + 5e-13, 1e-13)
        with pytest.raises(DegeneratePhi):
            ca.distortion_identity_residual(0.5 * PI + 1e-12, 5e-13)

    def test_small_on_grid(self):
        gammas = [PI / 2 + 1e-8, PI / 2 + 1e-6, *np.linspace(PI / 2 + 1e-3, PI, 200)]
        for g in gammas:
            span = g - PI / 2
            phis = span * np.linspace(0.001, 0.999, 50)
            res = ca.distortion_identity_residual(float(g), phis)
            assert float(np.max(np.abs(res))) < 1e-9


class TestBoundTable:
    def test_invariants(self):
        for g in np.linspace(PI / 2, PI, 25):
            row = BoundTable.at(float(g))
            assert 1.0 <= row.factor <= 2.0
            assert row.factor <= row.rule_of_thumb + 1e-12
            assert max(row.forms) - min(row.forms) <= 1e-12

    def test_csv_round_trip(self):
        row = BoundTable.at(3 * PI / 4)
        cells = row.csv_row().split(",")
        assert len(cells) == 7
        assert float(cells[0]) == row.gamma
        assert float(cells[1]) == row.factor
