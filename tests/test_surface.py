"""The public surface: the exported names, that each has a caller outside
the unit tests, and every entry point the bench harness wraps by module path
(so a deletion cannot silently break its per-layer trace)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import coneapprox as ca
from coneapprox.instances import Instance

EXPORTED = {
    "ApproxReport", "BoundTable", "ConeParams", "Instance", "PhiIntervalSet", "Solution", "TAU_ANGLE",
    "TAU_VAL", "Violation", "admissible", "admissible_range", "alternative_forms", "balanced_weights",
    "build_cover_set", "cone_efficient_set", "distortion_gap", "distortion_identity_residual",
    "dump_instance", "efficient_set", "gamma_supported_set", "guarantee_factor", "instance_from_obj",
    "instance_to_obj", "is_alpha_approx_for_all_rotations", "is_alpha_approx_pair", "load_instance",
    "make_instance", "min_alpha", "optimal_phi_set", "rotation_coverage_gaps", "rotation_for_ratio",
    "rule_of_thumb", "supported_set", "transform", "validate", "verify_approx_set",
}

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_exported_names():
    assert len(ca.__all__) == len(set(ca.__all__))
    assert set(ca.__all__) == EXPORTED
    for name in ca.__all__:
        assert getattr(ca, name) is not None, name


def _referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_export_is_reached():
    # An export earns its place when the package itself, a script, the
    # bench or an acceptance criterion refers to it; unit tests alone do not
    # count.
    package = ROOT / "src" / "coneapprox"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    files.append(ROOT / "tests" / "test_acceptance.py")
    reached = set().union(*map(_referenced_names, files))
    assert sorted(set(ca.__all__) - reached) == []


def _bench_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("module_name,attr", _bench_targets())
def test_bench_targets_resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if attr.startswith("Instance."):
        owner, attr = Instance, attr.split(".", 1)[1]
    assert callable(getattr(owner, attr))


def test_bench_hooks_resolve():
    # The cover-count hook reads the images of the instance it is given.
    assert callable(Instance.objective_array)
