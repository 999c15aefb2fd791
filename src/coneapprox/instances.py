"""Finite biobjective problem instances and their efficient sets.

An instance is an ordered list of labeled solutions with strictly positive
objective pairs and a sense (min or max).  Dominance treats values within
TAU_VAL as equal, so solutions with (tolerance-) equal images never dominate
each other and are all retained as efficient.

Every computation reads the images through Instance.min_images(), the one
place where the sense is applied: maximization images are negated, so
smaller is better in both senses and the efficient set, the cone-order
efficient set and the rotation kernel are stated once, for minimization.

The cone-order efficient set is computed by reducing to the componentwise
order: transform all images and run the componentwise sweep on the result.
For inner angles below pi the reduction map is invertible and this is the
same as comparing original images directly; at gamma = pi the map collapses
both coordinates to the weighted sum, so solutions with (tolerance-) equal
weighted sums are all optimal, which matches the usual argmin-with-ties
reading of a weighted sum scalarization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError, UnknownId
from .geometry import ConeParams, Vector2
from .tolerances import TAU_VAL

MIN = "min"
MAX = "max"


@dataclass(frozen=True)
class Solution:
    id: str
    objectives: Vector2


@dataclass(frozen=True)
class Instance:
    sense: str
    solutions: tuple[Solution, ...]

    def ids(self) -> list[str]:
        return [s.id for s in self.solutions]

    @cached_property
    def _index(self) -> dict[str, int]:
        # Id -> first position, built on first use; duplicate ids are left
        # for validate() to report.
        return {s.id: i for i, s in reversed(list(enumerate(self.solutions)))}

    def objectives_of(self, solution_id: str) -> Vector2:
        return self.solutions[self.index_of(solution_id)].objectives

    @cached_property
    def _images(self) -> np.ndarray:
        arr = np.array([s.objectives for s in self.solutions], dtype=float).reshape(len(self.solutions), 2)
        arr.flags.writeable = False
        return arr

    def objective_array(self) -> np.ndarray:
        """Images as a float array of shape (n, 2), in solution order (also for n = 0)."""
        return self._images.copy()

    def min_images(self, params: ConeParams | None = None) -> np.ndarray:
        """Images for computation: shape (n, 2), smaller is better in both senses.

        With params, the cone's reduction map is applied first, so the cone
        order becomes the componentwise order.  Maximization images are then
        negated.  The result may be shared between calls: treat it as
        read-only.
        """
        arr = self._images if params is None else self._images @ np.array(params.matrix(), dtype=float).T
        return -arr if self.sense == MAX else arr

    def index_of(self, solution_id: str) -> int:
        try:
            return self._index[solution_id]
        except KeyError:
            raise UnknownId(solution_id) from None


def make_instance(sense: str, items: list[tuple[str, float, float]]) -> Instance:
    """Convenience constructor from (id, f1, f2) triples."""
    return Instance(sense, tuple(Solution(i, (a, b)) for i, a, b in items))


@dataclass(frozen=True)
class Violation:
    kind: str
    solution_id: str | None
    detail: str

    def __str__(self) -> str:
        where = f" [{self.solution_id}]" if self.solution_id else ""
        return f"{self.kind}{where}: {self.detail}"


def validate(instance: Instance) -> list[Violation]:
    """All invariant breaches of the instance, as data (empty list if valid)."""
    out: list[Violation] = []
    if instance.sense not in (MIN, MAX):
        out.append(Violation("bad-sense", None, f"sense must be 'min' or 'max', got {instance.sense!r}"))
    if not instance.solutions:
        out.append(Violation("empty-instance", None, "an instance needs at least one solution"))
    seen: set[str] = set()
    for s in instance.solutions:
        if not s.id:
            out.append(Violation("empty-id", s.id, "solution ids must be nonempty"))
        if s.id in seen:
            out.append(Violation("duplicate-id", s.id, "solution ids must be unique"))
        seen.add(s.id)
        for k, v in enumerate(s.objectives, start=1):
            if not isfinite(v):
                out.append(Violation("nonfinite-objective", s.id, f"component {k} is {v!r}"))
            elif v <= 0.0:
                out.append(Violation("nonpositive-objective", s.id, f"component {k} is {v!r}, must be > 0"))
    return out


def dominates(instance: Instance, a: str, b: str) -> bool:
    """Whether solution `a` dominates solution `b` in the instance's sense.

    Minimization: f(a) <= f(b) componentwise and the images differ, with
    both comparisons relaxed by TAU_VAL.  Maximization mirrors with >=.
    """
    fa = instance.objectives_of(a)
    fb = instance.objectives_of(b)
    if instance.sense == MAX:
        fa, fb = (-fa[0], -fa[1]), (-fb[0], -fb[1])
    if fa[0] > fb[0] + TAU_VAL or fa[1] > fb[1] + TAU_VAL:
        return False
    return fa[0] < fb[0] - TAU_VAL or fa[1] < fb[1] - TAU_VAL


def dominated_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of rows dominated under componentwise minimization.

    Row x is dominated iff some row y has y <= x + TAU_VAL componentwise and
    y < x - TAU_VAL in at least one component.  Sort by the first coordinate,
    then one prefix-minimum pass answers both cases in O(n log n):
      A) a row with strictly smaller first coordinate and second coordinate
         within TAU_VAL of x's, or
      B) a row with first coordinate at most x's (up to TAU_VAL) and strictly
         smaller second coordinate.
    """
    n = len(values)
    order = np.lexsort((values[:, 1], values[:, 0]))
    f1 = values[order, 0]
    f2 = values[order, 1]
    prefix_min_f2 = np.minimum.accumulate(f2)

    j_a = np.searchsorted(f1, f1 - TAU_VAL, side="left")
    min_a = np.where(j_a > 0, prefix_min_f2[np.maximum(j_a - 1, 0)], np.inf)
    dominated = min_a <= f2 + TAU_VAL

    j_b = np.searchsorted(f1, f1 + TAU_VAL, side="right")
    min_b = prefix_min_f2[j_b - 1]
    dominated |= min_b < f2 - TAU_VAL

    mask = np.empty(n, dtype=bool)
    mask[order] = dominated
    return mask


def efficient_set(instance: Instance) -> set[str]:
    """Ids of all undominated solutions (the classical efficient set)."""
    mask = dominated_mask(instance.min_images())
    return {s.id for s, dom in zip(instance.solutions, mask) if not dom}


def cone_efficient_set(instance: Instance, params: ConeParams) -> set[str]:
    """Ids of solutions optimal with respect to the cone order.

    The componentwise sweep on the transformed images, negated for
    maximization (no transformed instance is formed).
    """
    mask = dominated_mask(instance.min_images(params))
    return {s.id for s, dom in zip(instance.solutions, mask) if not dom}


# --- JSON instance format ---------------------------------------------------
#
# {"sense": "min"|"max", "solutions": [{"id": <string>, "f": [<num>, <num>]}]}
#
# Field order is irrelevant; unknown fields are rejected.


def instance_to_obj(instance: Instance) -> dict:
    return {
        "sense": instance.sense,
        "solutions": [{"id": s.id, "f": [s.objectives[0], s.objectives[1]]} for s in instance.solutions],
    }


def instance_from_obj(obj: object) -> Instance:
    if not isinstance(obj, dict):
        raise InstanceFormatError("top level must be a JSON object")
    unknown = set(obj) - {"sense", "solutions"}
    if unknown:
        raise InstanceFormatError(f"unknown fields: {sorted(unknown)}")
    if "sense" not in obj or "solutions" not in obj:
        raise InstanceFormatError("fields 'sense' and 'solutions' are required")
    sense = obj["sense"]
    if sense not in (MIN, MAX):
        raise InstanceFormatError(f"sense must be 'min' or 'max', got {sense!r}")
    raw = obj["solutions"]
    if not isinstance(raw, list):
        raise InstanceFormatError("'solutions' must be an array")
    sols = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise InstanceFormatError("each solution must be an object")
        unknown = set(entry) - {"id", "f"}
        if unknown:
            raise InstanceFormatError(f"unknown solution fields: {sorted(unknown)}")
        if "id" not in entry or "f" not in entry:
            raise InstanceFormatError("each solution needs 'id' and 'f'")
        sid = entry["id"]
        f = entry["f"]
        if not isinstance(sid, str):
            raise InstanceFormatError("solution ids must be strings")
        if not (isinstance(f, list) and len(f) == 2 and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in f)):
            raise InstanceFormatError("'f' must be an array of two numbers")
        try:
            sols.append(Solution(sid, (float(f[0]), float(f[1]))))
        except OverflowError:
            raise InstanceFormatError(f"objective of {sid!r} is too large for a float") from None
    return Instance(sense, tuple(sols))


def load_instance(path: str | Path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(f"not UTF-8 text: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    return instance_from_obj(obj)


def dump_instance(instance: Instance, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_obj(instance), fh, indent=2)
        fh.write("\n")
