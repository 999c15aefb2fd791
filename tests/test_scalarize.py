import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coneapprox as ca
from coneapprox.errors import (
    AlphaBelowOne,
    DegeneratePhi,
    InadmissibleCone,
    InvalidRatio,
    UnsupportedSense,
)
from coneapprox.generators import random_front
from coneapprox.tolerances import TAU_VAL

from conftest import lattice_floats, min_instances, random_min_instance, transformed_instance

PI = math.pi


def bisect_rotation_for_ratio(gamma: float, q: float) -> float:
    """Reference for rotation_for_ratio: bisection on the defining property.

    g(phi) = tan(phi') - q^2 * tan(phi) falls strictly from tan(span) > 0
    to -q^2 * tan(span) < 0 on [0, span], span = gamma - pi/2; the loop
    halves the bracket until no double lies strictly inside it.
    """
    span = gamma - PI / 2
    lo, hi = 0.0, span
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if math.tan(span - mid) - q * q * math.tan(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def max_ordering_level_set(
    inst: ca.Instance, weights: tuple[float, float], alpha: float = 1.0, params: ca.ConeParams | None = None
) -> set[str]:
    """The solutions whose max-ordering value max(w1*y1, w2*y2) on the images
    y = inst.min_images(params) is at most alpha * best + TAU_VAL, with best
    the smallest value (alpha = 1 gives the optima)."""
    images = inst.min_images(params)
    vals = np.maximum(weights[0] * images[:, 0], weights[1] * images[:, 1])
    level = alpha * vals.min(initial=np.inf) + TAU_VAL
    ids = inst.ids()
    return {ids[i] for i in np.flatnonzero(vals <= level)}


def reference_cover_set(inst: ca.Instance, gamma: float, alpha: float = 1.0) -> set[str]:
    """Reference for build_cover_set: per realized ratio, the balanced
    max-ordering scalarization of the instance transformed at the matched
    rotation, with the lexicographically smallest id of its level set
    alpha * best + TAU_VAL.  Raises DegeneratePhi where balanced_weights does.
    """
    images = inst.min_images()
    out = set()
    for q in sorted({float(r) for r in images[:, 0] / images[:, 1]}):
        params = ca.ConeParams(gamma, ca.rotation_for_ratio(gamma, q))
        out.add(min(max_ordering_level_set(inst, ca.balanced_weights(params), alpha, params)))
    return out


def lattice_instance(seed: int, n: int) -> ca.Instance:
    """Objectives in (1..23)/8, so ties and duplicates are common."""
    pts = np.random.default_rng(seed).integers(1, 24, size=(n, 2)) / 8.0
    return ca.make_instance("min", [(f"x{i}", float(a), float(b)) for i, (a, b) in enumerate(pts)])


def scaled(inst: ca.Instance, s1: float, s2: float) -> ca.Instance:
    return ca.make_instance("min", [(s.id, s.objectives[0] * s1, s.objectives[1] * s2) for s in inst.solutions])


COVER_GAMMAS = (0.51 * PI, 0.6 * PI, 0.75 * PI, 0.9 * PI, PI)


class TestMaxOrdering:
    """max_ordering_level_set at alpha = 1: the optima that
    reference_cover_set and the covering chain read."""

    def test_symmetric_tie(self):
        inst = ca.make_instance("min", [("x1", 1, 3), ("x2", 3, 1)])
        assert max_ordering_level_set(inst, (1.0, 1.0)) == {"x1", "x2"}

    def test_unbalanced(self):
        inst = ca.make_instance("min", [("x1", 2, 2), ("x2", 1, 5)])
        assert max_ordering_level_set(inst, (1.0, 1.0)) == {"x1"}

    def test_reciprocal_weights_select_target(self):
        # For an efficient solution x with weights 1/f_i(x) the scalarized
        # value of x is 1 and nothing can beat it by more than a tie.
        inst = ca.make_instance("min", [("a", 1, 4), ("b", 2, 2), ("c", 4, 1)])
        for sid in ca.efficient_set(inst):
            f = inst.objectives_of(sid)
            got = max_ordering_level_set(inst, (1 / f[0], 1 / f[1]))
            assert sid in got

    @given(min_instances())
    def test_some_optimum_is_efficient(self, inst):
        got = max_ordering_level_set(inst, (1.0, 1.0))
        assert got & ca.efficient_set(inst)


class TestAlphaApproximateLevelSet:
    def test_alpha_one_is_optima(self):
        inst = ca.make_instance("min", [("x1", 2, 2), ("x2", 3, 3)])
        assert max_ordering_level_set(inst, (1.0, 1.0), 1.0) == {"x1"}

    def test_level_inclusion(self):
        w = (1.0, 1.0)
        inst = ca.make_instance("min", [("x1", 2, 2), ("x2", 3, 3)])
        assert max_ordering_level_set(inst, w, 1.5) == {"x1", "x2"}
        inst2 = ca.make_instance("min", [("x1", 2, 2), ("x2", 3.1, 3.1)])
        assert max_ordering_level_set(inst2, w, 1.5) == {"x1"}

    def test_alpha_below_one_rejected(self):
        # The level-set factor is checked where the level set is drawn.
        inst = ca.make_instance("min", [("x1", 1, 1)])
        with pytest.raises(AlphaBelowOne):
            ca.build_cover_set(inst, PI, 0.5)

    def test_nan_alpha_rejected(self):
        inst = ca.make_instance("min", [("x1", 1, 1)])
        for alpha in (math.nan, math.inf):
            with pytest.raises(AlphaBelowOne):
                ca.build_cover_set(inst, PI, alpha)


class TestBalancedWeights:
    def test_symmetric_halfplane(self):
        w1, w2 = ca.balanced_weights(ca.ConeParams(PI, PI / 4))
        assert w1 == pytest.approx(2.0, abs=1e-12)
        assert w2 == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_rotation_weights_equal(self):
        gamma = 3 * PI / 4
        p = ca.ConeParams(gamma, 0.5 * gamma - 0.25 * PI)
        w1, w2 = ca.balanced_weights(p)
        x = math.sqrt(math.sin(PI / 8)) / math.sqrt(math.cos(PI / 8))
        assert w1 == pytest.approx(x + 1 / x, abs=1e-12)
        assert w1 == pytest.approx(w2, abs=1e-12)

    def test_degenerate_rotation_rejected(self):
        with pytest.raises(DegeneratePhi):
            ca.balanced_weights(ca.ConeParams(3 * PI / 4, 0.0))
        with pytest.raises(DegeneratePhi):
            ca.balanced_weights(ca.ConeParams(3 * PI / 4, PI / 4))

    @given(st.floats(PI / 2 + 0.01, PI), st.floats(0.01, 0.99))
    def test_balance_identity(self, gamma, frac):
        # Any solution with f1/f2 = sqrt(tan phi')/sqrt(tan phi) has equal
        # weighted transformed components.
        phi = frac * (gamma - PI / 2)
        if phi <= 1e-9 or (gamma - PI / 2 - phi) <= 1e-9:
            return
        p = ca.ConeParams(gamma, phi)
        w1, w2 = ca.balanced_weights(p)
        r = math.sqrt(math.tan(p.phi_prime)) / math.sqrt(math.tan(p.phi))
        f = (r, 1.0)
        t = ca.transform(p, f)
        lhs = w1 * t[0]
        rhs = w2 * t[1]
        assert abs(lhs - rhs) / max(lhs, rhs) < 1e-10


class TestRotationForRatio:
    def test_ratio_one_gives_symmetric_rotation(self):
        for gamma in (PI / 2 + 0.2, 2 * PI / 3, 3 * PI / 4, 0.9 * PI, PI):
            phi = ca.rotation_for_ratio(gamma, 1.0)
            assert phi == pytest.approx(0.5 * gamma - 0.25 * PI, abs=1e-9)

    def test_halfplane_is_arctan_reciprocal(self):
        assert ca.rotation_for_ratio(PI, 2.0) == pytest.approx(math.atan(0.5), abs=1e-12)

    def test_defining_property_hand_case(self):
        gamma = 3 * PI / 4
        phi = ca.rotation_for_ratio(gamma, 3.0)
        phi_p = gamma - PI / 2 - phi
        assert math.sqrt(math.tan(phi_p) / math.tan(phi)) == pytest.approx(3.0, abs=1e-9)

    def test_invalid_ratio(self):
        with pytest.raises(InvalidRatio):
            ca.rotation_for_ratio(PI, 0.0)
        with pytest.raises(InvalidRatio):
            ca.rotation_for_ratio(PI, -2.0)

    def test_gamma_out_of_range(self):
        with pytest.raises(InadmissibleCone):
            ca.rotation_for_ratio(PI / 2, 1.0)

    def test_defining_property_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            gamma = float(rng.uniform(PI / 2 + 1e-4, PI))
            q = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            phi = ca.rotation_for_ratio(gamma, q)
            assert 0.0 < phi < gamma - PI / 2
            phi_p = gamma - PI / 2 - phi
            got = math.sqrt(math.tan(phi_p) / math.tan(phi))
            assert abs(got - q) <= 1e-9 * max(1.0, q)

    def test_bisection_fallback_near_right_angle(self):
        gamma = PI / 2 + 1e-8
        for q in (0.5, 1.0, 7.0):
            phi = ca.rotation_for_ratio(gamma, q)
            assert 0.0 < phi < gamma - PI / 2
            phi_p = gamma - PI / 2 - phi
            got = math.sqrt(math.tan(phi_p) / math.tan(phi))
            assert abs(got - q) <= 1e-9 * max(1.0, q)

    def test_matches_bisection_reference(self):
        # A log grid of gamma - pi/2 from just above TAU_ANGLE to just below
        # pi/2, and of q over the ratio range 1e-3 .. 1e3.
        spans = np.geomspace(2e-12, PI / 2 - 1e-9, 60)
        ratios = np.geomspace(1e-3, 1e3, 41)
        for span in spans:
            gamma = PI / 2 + float(span)
            for q in ratios:
                phi = ca.rotation_for_ratio(gamma, float(q))
                assert 0.0 < phi < gamma - PI / 2
                want = bisect_rotation_for_ratio(gamma, float(q))
                assert abs(phi - want) <= 1e-12 * want, (gamma, q)

    def test_halfplane_endpoint_exact(self):
        for q in (1e-3, 0.5, 1.0, 3.0, 1e3):
            assert ca.rotation_for_ratio(PI, q) == math.atan(1.0 / q)


class TestBuildCoverSet:
    def test_single_solution(self):
        inst = ca.make_instance("min", [("only", 1.0, 2.0)])
        assert ca.build_cover_set(inst, PI, 1.0) == {"only"}

    def test_convex_front_halfplane_subset_of_supported(self):
        t = np.linspace(1.0, 2.0, 7)
        inst = ca.make_instance("min", [(f"x{i}", float(x), float(2.0 / x)) for i, x in enumerate(t)])
        cover = ca.build_cover_set(inst, PI, 1.0)
        assert cover <= ca.supported_set(inst)

    def test_guarantee_on_random_instances(self):
        for seed in range(20):
            inst = random_min_instance(seed, 30)
            for gamma in (2 * PI / 3, PI):
                for alpha in (1.0, 1.5):
                    cover = ca.build_cover_set(inst, gamma, alpha)
                    bound = alpha * ca.guarantee_factor(gamma)
                    assert ca.min_alpha(inst, cover) <= bound + 1e-6

    def test_min_sense_only(self):
        inst = ca.make_instance("max", [("a", 1, 1)])
        with pytest.raises(UnsupportedSense):
            ca.build_cover_set(inst, PI, 1.0)

    def test_nan_alpha_rejected(self):
        inst = ca.make_instance("min", [("x1", 1, 2), ("x2", 2, 1)])
        for alpha in (math.nan, math.inf):
            with pytest.raises(AlphaBelowOne):
                ca.build_cover_set(inst, 0.75 * PI, alpha)

    def test_right_angle_edge(self):
        # The extreme ratios' matched rotations fall within TAU_ANGLE of the
        # range ends at pi/2 + 1e-10, where balanced_weights refuses them;
        # the direct scalarization never forms phi' and still covers.
        inst = random_front(50, 1, "convex")
        for gamma in (PI / 2 + 1e-9, PI / 2 + 1e-10):
            cover = ca.build_cover_set(inst, gamma, 1.0)
            assert ca.min_alpha(inst, cover) <= ca.guarantee_factor(gamma) + 1e-9

    def test_right_angle_band_edge(self):
        # 0.5 * PI + 1e-12 rounds to pi/2 + 1.00009e-12, just outside the
        # right-angle band: admissible_range gives it two rotations, and so
        # must the cover.  Inside the band the angle is the right angle.
        inst = random_front(50, 1, "convex")
        gamma = 0.5 * PI + 1e-12
        assert ca.admissible_range(gamma)[1] > 0.0
        assert 0.0 < ca.rotation_for_ratio(gamma, 1.0) < gamma - PI / 2
        cover = ca.build_cover_set(inst, gamma, 1.0)
        assert ca.min_alpha(inst, cover) <= ca.guarantee_factor(gamma) + TAU_VAL
        for right in (PI / 2, PI / 2 + 5e-13):
            with pytest.raises(InadmissibleCone):
                ca.rotation_for_ratio(right, 1.0)
            with pytest.raises(InadmissibleCone):
                ca.build_cover_set(inst, right, 1.0)

    def test_matches_reference_cover_set(self):
        fronts = [random_front(60, seed, shape) for seed in range(4) for shape in ("convex", "concave", "mixed")]
        fronts += [lattice_instance(seed, 30) for seed in range(8)]
        for inst in fronts:
            for gamma in COVER_GAMMAS:
                for alpha in (1.0, 1.3):
                    assert ca.build_cover_set(inst, gamma, alpha) == reference_cover_set(inst, gamma, alpha)

    def test_guarantee_on_badly_scaled_fronts(self):
        # Each objective scaled by 10^k, k in {-3, 0, 3}, and two-point
        # fronts whose ratios reach 1e+-12: balanced_weights would refuse
        # the matched rotations of the extreme ratios below pi.
        fronts = [
            scaled(base, 10.0**k1, 10.0**k2)
            for base in (random_front(30, 4, "convex"), random_front(30, 5, "concave"), lattice_instance(9, 20))
            for k1 in (-3, 0, 3)
            for k2 in (-3, 0, 3)
        ]
        fronts += [ca.make_instance("min", [("q", 10.0**j, 1.0), ("one", 1.0, 1.0)]) for j in range(-12, 13) if j]
        for inst in fronts:
            for gamma in COVER_GAMMAS:
                for alpha in (1.0, 1.3):
                    cover = ca.build_cover_set(inst, gamma, alpha)
                    assert ca.min_alpha(inst, cover) <= alpha * ca.guarantee_factor(gamma) + 1e-9, (gamma, alpha)

    def test_deterministic(self):
        inst = random_min_instance(3, 25)
        a = ca.build_cover_set(inst, 3 * PI / 4, 1.5)
        b = ca.build_cover_set(inst, 3 * PI / 4, 1.5)
        assert a == b


class TestMaxOrderingCoverage:
    @given(min_instances(min_size=1, max_size=8), st.floats(1.0, 3.0))
    def test_balanced_target_is_covered(self, inst, alpha):
        # If x is alpha-approximate for the scalarization and the target has
        # w1*f1 = w2*f2, the target is alpha-approximated componentwise.
        base = inst.objectives_of(inst.ids()[0])
        # Append a solution with balanced weighted components for w = (1, 2).
        balanced = ca.Solution("balanced", (2.0 * base[0], base[0]))
        inst = ca.Instance("min", inst.solutions + (balanced,))
        for x in max_ordering_level_set(inst, (1.0, 2.0), alpha):
            assert ca.is_alpha_approx_pair(inst, None, x, "balanced", alpha)

    @given(
        min_instances(min_size=1, max_size=8),
        st.floats(PI / 2 + 0.05, PI),
        st.floats(0.05, 0.95),
        st.floats(1.0, 2.5),
        lattice_floats(0.2, 5.0),
    )
    def test_matched_ratio_covering_chain(self, inst, gamma, frac, alpha, scale):
        # The full chain behind the covering guarantee: add a solution whose
        # objective ratio matches the rotation; any alpha-approximate
        # solution of the balanced scalarization of the transformed instance
        # covers it in the cone order at alpha and componentwise at
        # alpha * (1 + sqrt(tan(phi) * tan(phi'))).
        phi = frac * (gamma - PI / 2)
        params = ca.ConeParams(gamma, phi)
        r = math.sqrt(math.tan(params.phi_prime)) / math.sqrt(math.tan(params.phi))
        target = ca.Solution("matched", (scale * r, scale))
        inst = ca.Instance("min", inst.solutions + (target,))
        w = ca.balanced_weights(params)
        transformed = transformed_instance(inst, params)
        cone_factor = alpha * (
            1.0 + math.sqrt(math.tan(params.phi) * math.tan(params.phi_prime))
        )
        for x in max_ordering_level_set(transformed, w, alpha):
            assert ca.is_alpha_approx_pair(inst, params, x, "matched", alpha * (1 + 1e-9))
            assert ca.is_alpha_approx_pair(inst, None, x, "matched", cone_factor * (1 + 1e-9))
            assert cone_factor <= alpha * ca.guarantee_factor(gamma) + 1e-9
