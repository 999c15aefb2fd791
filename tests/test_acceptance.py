"""Acceptance suite: one test per claim bundle, each printing a PASS line.

Every criterion is checked at its stated tolerance and wall-clock budget.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import itertools
import json
import math
import re
import time

import numpy as np
import pytest

import coneapprox as ca
from coneapprox import generators as gen
from coneapprox.cli import main as cli_main
from coneapprox.cli import read_sweep_csv
from coneapprox.errors import InvalidParams
from coneapprox.svg import svg_to_data

from conftest import brute_efficient, brute_min_alpha, grid_oracle_gamma_supported

PI = math.pi


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name}: {elapsed:.3f}s exceeded budget {budget}s"
    print(f"criterion {name}: PASS ({elapsed:.3f}s)")


def test_criterion_01_endpoint_factors():
    ca.guarantee_factor(3 * PI / 4)  # warm numpy up outside the timed region
    t0 = time.perf_counter()
    lo = ca.guarantee_factor(PI / 2)
    hi = ca.guarantee_factor(PI)
    elapsed = time.perf_counter() - t0
    assert lo == 1.0
    assert hi == 2.0
    assert elapsed < 1e-3
    print(f"criterion 01 endpoint factors: PASS ({elapsed * 1e6:.0f}us)")


def test_criterion_02_alternative_forms_agree():
    t0 = time.perf_counter()
    grid = np.linspace(PI / 2 + 1e-6, PI, 10_000)
    forms = ca.alternative_forms(grid)
    spread = float((forms.max(axis=0) - forms.min(axis=0)).max())
    assert spread <= 1e-12, f"forms disagree by {spread}"
    _report("02 alternative forms", t0, 1.0)


def test_criterion_03_rule_of_thumb_dominates():
    t0 = time.perf_counter()
    grid = np.linspace(PI / 2 + 1e-6, PI, 10_000)
    slack = ca.rule_of_thumb(grid) - ca.guarantee_factor(grid)
    assert float(slack.min()) >= -1e-12
    _report("03 rule of thumb", t0, 1.0)


def test_criterion_04_distortion_gap_nonnegative():
    t0 = time.perf_counter()
    gammas = np.linspace(PI / 2, PI, 1000)
    fracs = np.linspace(0.0, 1.0, 1000)
    spans = gammas - PI / 2
    phis = spans[:, None] * fracs[None, :]
    gaps = ca.distortion_gap(gammas[:, None], phis)
    assert float(gaps.min()) >= -1e-9
    sym = ca.distortion_gap(gammas, 0.5 * gammas - 0.25 * PI)
    assert float(np.abs(sym).max()) < 1e-9
    _report("04 distortion gap", t0, 5.0)


def test_criterion_05_identity_residuals():
    t0 = time.perf_counter()
    gammas = np.linspace(PI / 2, PI, 1000)[1:]
    fracs = np.linspace(0.001, 0.999, 1000)
    phis = (gammas - PI / 2)[:, None] * fracs[None, :]
    res = ca.distortion_identity_residual(gammas[:, None], phis)
    assert float(np.abs(res).max()) <= 1e-9
    forms = ca.alternative_forms(gammas)
    assert float((forms.max(axis=0) - forms.min(axis=0)).max()) <= 1e-9
    _report("05 closed-form identities", t0, 5.0)


def test_criterion_06_single_cone_trap_grid():
    t0 = time.perf_counter()
    for alpha, gamma in itertools.product((1.5, 2.0, 4.0), (2 * PI / 3, 3 * PI / 4, PI)):
        for phi in (0.5 * gamma - 0.25 * PI, gamma - PI / 2):
            if gamma >= PI - 1e-12 and phi >= PI / 2 - 1e-12:
                with pytest.raises(InvalidParams):
                    gen.single_cone_trap(alpha, gamma, phi)
                continue
            inst = gen.single_cone_trap(alpha, gamma, phi)
            assert ca.cone_efficient_set(inst, ca.ConeParams(gamma, phi)) == {"x1"}
            assert not ca.verify_approx_set(inst, {"x1"}, alpha).is_valid
            assert ca.verify_approx_set(inst, {"x2"}, alpha).is_valid
    _report("06 single-cone trap grid", t0, 1.0)


def test_criterion_07_tightness_grid():
    t0 = time.perf_counter()
    combos = itertools.product(
        (1.0, 2.0), (PI / 2 + 0.1, 3 * PI / 4, PI - 0.01, PI), (0.05, 0.2)
    )
    for alpha, gamma, epsilon in combos:
        inst = gen.tightness_instance(alpha, gamma, epsilon)
        selection = {"x1", "x2"}
        # exact: covered at every admissible rotation
        assert ca.is_alpha_approx_for_all_rotations(inst, selection, gamma, alpha)
        # sampled: covered at 1000 equally spaced rotations
        lo, hi = ca.admissible_range(gamma)
        for phi in np.linspace(lo, hi, 1000):
            params = ca.ConeParams(gamma, float(phi))
            assert ca.verify_approx_set(inst, selection, alpha, params).is_valid
        # componentwise the guarantee is tight: the selection misses the
        # level alpha * (1 + tan(gamma/2 - pi/4)) - epsilon (which may fall
        # below 1, where the exact minimal factor carries the claim).
        level = alpha * ca.guarantee_factor(gamma) - epsilon
        assert ca.min_alpha(inst, selection) > level + ca.TAU_VAL
        if level >= 1.0:
            assert not ca.verify_approx_set(inst, selection, level).is_valid
    _report("07 tightness grid", t0, 10.0)


def test_criterion_08_maximization_grid():
    t0 = time.perf_counter()
    for alpha, gamma in itertools.product((1.0, 2.0, 10.0), (2 * PI / 3, 3 * PI / 4, PI)):
        inst = gen.maximization_trap(alpha, gamma)
        assert ca.optimal_phi_set(inst, gamma, "x3").is_empty()
        assert "x3" in ca.efficient_set(inst)
        assert not ca.verify_approx_set(inst, {"x1", "x2"}, alpha).is_valid
    _report("08 maximization trap grid", t0, 1.0)


def test_criterion_09_cover_set_guarantee_suite():
    t0 = time.perf_counter()
    shapes = ("convex", "concave", "mixed")
    gammas = (2 * PI / 3, 3 * PI / 4, 0.9 * PI, PI)
    for seed in range(100):
        inst = gen.random_front(50, seed, shapes[seed % 3])
        for gamma in gammas:
            bound = ca.guarantee_factor(gamma)
            for alpha in (1.0, 1.5):
                cover = ca.build_cover_set(inst, gamma, alpha)
                assert ca.min_alpha(inst, cover) <= alpha * bound + 1e-6
            supported = ca.gamma_supported_set(inst, gamma)
            assert ca.min_alpha(inst, supported) <= bound + 1e-6
    _report("09 covering guarantees", t0, 60.0)


def test_criterion_10_oracle_equivalences():
    t0 = time.perf_counter()
    # efficient set against the quadratic sweep
    rng = np.random.default_rng(0)
    for seed in range(100):
        n = int(rng.integers(2, 201))
        pts = np.random.default_rng(seed).uniform(0.1, 10.0, size=(n, 2))
        inst = ca.make_instance("min", [(f"x{i}", float(a), float(b)) for i, (a, b) in enumerate(pts)])
        assert ca.efficient_set(inst) == brute_efficient(inst)
    # supported sets against the sampled-rotation oracle
    gamma = 3 * PI / 4
    steps = 10_000
    lo, hi = ca.admissible_range(gamma)
    pitch = (hi - lo) / (steps - 1)
    equality_checked = 0
    for seed in range(10):
        inst = gen.random_front(20, seed, ("convex", "concave", "mixed")[seed % 3])
        exact = ca.gamma_supported_set(inst, gamma)
        oracle = grid_oracle_gamma_supported(inst, gamma, steps)
        assert oracle <= exact
        min_len = min(ca.optimal_phi_set(inst, gamma, sid).total_length() for sid in exact)
        if min_len > 1.05 * pitch:
            assert oracle == exact
            equality_checked += 1
    assert equality_checked > 0
    # exact minimal factors against the double loop
    for seed in range(20):
        pts = np.random.default_rng(seed).uniform(0.1, 10.0, size=(60, 2))
        inst = ca.make_instance("min", [(f"x{i}", float(a), float(b)) for i, (a, b) in enumerate(pts)])
        selection = inst.ids()[::5]
        assert ca.min_alpha(inst, selection) == pytest.approx(
            brute_min_alpha(inst, selection, None), abs=1e-12
        )
        params = ca.ConeParams(2 * PI / 3, 0.2)
        assert ca.min_alpha(inst, selection, params) == pytest.approx(
            brute_min_alpha(inst, selection, params), abs=1e-12, rel=1e-12
        )
    _report("10 oracle equivalences", t0, 60.0)


def test_criterion_11_nesting():
    t0 = time.perf_counter()
    grid = [float(g) for g in np.linspace(PI / 2, PI, 10)]
    for seed in range(100):
        pts = np.random.default_rng(seed).uniform(0.1, 10.0, size=(15, 2))
        inst = ca.make_instance("min", [(f"x{i}", float(a), float(b)) for i, (a, b) in enumerate(pts)])
        sets = [ca.gamma_supported_set(inst, g) for g in grid]
        for small, large in zip(sets, sets[1:]):
            assert large <= small
    _report("11 nesting", t0, 30.0)


def test_criterion_12_balanced_weights():
    t0 = time.perf_counter()
    checked = 0
    for gamma in np.linspace(PI / 2 + 1e-3, PI, 40):
        span = gamma - PI / 2
        for frac in np.linspace(0.02, 0.98, 30):
            params = ca.ConeParams(float(gamma), float(frac * span))
            w1, w2 = ca.balanced_weights(params)
            r = math.sqrt(math.tan(params.phi_prime)) / math.sqrt(math.tan(params.phi))
            t = ca.transform(params, (r, 1.0))
            lhs, rhs = w1 * t[0], w2 * t[1]
            assert abs(lhs - rhs) / max(lhs, rhs) <= 1e-10
            checked += 1
    assert checked >= 1000
    _report("12 balanced weights", t0, 1.0)


def test_criterion_13_cli_round_trip(tmp_path, capsys):
    t0 = time.perf_counter()
    inst_path = tmp_path / "tightness.json"
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    assert cli_main(
        ["generate", "tightness", "--alpha", "1", "--gamma", "0.75pi",
         "--epsilon", "0.1", "-o", str(inst_path)]
    ) == 0
    assert cli_main(["validate", str(inst_path)]) == 0
    assert cli_main(["sets", str(inst_path), "--mode", "gamma-supported", "--gamma", "0.75pi"]) == 0
    ids = json.loads(capsys.readouterr().out)
    assert ids == sorted(ids)
    assert cli_main(["verify", str(inst_path), "--set", ",".join(ids), "--alpha", "1.5"]) == 0
    capsys.readouterr()
    assert cli_main(
        ["sweep", "--gamma-from", "0.5pi", "--gamma-to", "pi", "--steps", "9",
         "--generator", "tightness:alpha=1,epsilon=0.1", str(csv_path)]
    ) == 0
    rows = read_sweep_csv(str(csv_path))
    assert csv_path.read_text().splitlines()[0] == "gamma,instance_id,empirical_alpha,theory_bound,rule_of_thumb"
    for r in rows:
        assert r["empirical_alpha"] <= r["theory_bound"] + ca.TAU_VAL
        assert r["theory_bound"] <= r["rule_of_thumb"] + 1e-12
    assert cli_main(["plot", str(csv_path), str(svg_path)]) == 0
    text = svg_path.read_text()
    pts = re.search(r'class="theory"[^>]*points="([^"]+)"', text).group(1).split()
    g0, f0 = svg_to_data(*(float(v) for v in pts[0].split(",")))
    g1, f1 = svg_to_data(*(float(v) for v in pts[-1].split(",")))
    assert abs(g0 - PI / 2) < 0.01 and abs(f0 - 1.0) < 0.01
    assert abs(g1 - PI) < 0.01 and abs(f1 - 2.0) < 0.01
    _report("13 cli round trip", t0, 10.0)
