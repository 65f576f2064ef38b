"""Control-space geometry: boxes, request halfspaces, projections.

Everything here lives in one node's control space R^M.  Admissible regions
are axis-aligned boxes intersected with request halfspaces
{u : a . u + b >= 0}; a frozen region is a single compromise point.  Every
model in the package has a scalar control, and the 1-D case is handled with
exact interval arithmetic.  `closest_point` and `is_empty` also take higher
dimensions, by alternating projection between box and polytope with
Dykstra's correction inside the polytope projection, which converges for
this polyhedral family.  These are the per-node reference's regions; the
step kernels' requests only raise a helper's floor and need none of them,
so a run does not load this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import NEGLIGIBLE_NORMAL
from .errors import DimensionError, EmptyRegionError, GeometryConvergenceError

# iteration budget and tolerance for the projection loops
PROJECTION_TOL = 1e-9
PROJECTION_SWEEP_CAP = 100_000


@dataclass(frozen=True, eq=False)
class Halfspace:
    """The set {u : normal . u + offset >= 0}.

    A zero normal makes the set trivial: everything (offset >= 0) or empty
    (offset < 0).  Protocol code keeps zero normals out of the geometry and
    handles them by bookkeeping instead.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.atleast_1d(np.asarray(self.normal, dtype=float)))
        object.__setattr__(self, "offset", float(self.offset))
        if self.normal.ndim != 1:
            raise DimensionError("halfspace normal must be a vector")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def value(self, u: np.ndarray) -> float:
        return float(self.normal @ np.asarray(u, dtype=float) + self.offset)


Box = tuple[tuple[float, float], ...]


def normalize_box(box) -> Box:
    out = tuple((float(lo), float(hi)) for lo, hi in box)
    for d, (lo, hi) in enumerate(out):
        if not (lo <= hi):
            raise EmptyRegionError(f"box component {d} has lo > hi ({lo} > {hi})")
    return out


def clamp_to_box(u: np.ndarray, box: Box) -> np.ndarray:
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return np.minimum(np.maximum(np.asarray(u, dtype=float), lo), hi)


def box_center(box: Box) -> np.ndarray:
    return np.array([(lo + hi) / 2.0 for lo, hi in box])


@dataclass(frozen=True, eq=False)
class ControlRegion:
    """Box intersected with request halfspaces, or a frozen compromise point.

    The box and requests are kept even when frozen so diagnostics can show
    what forced the freeze.
    """

    box: Box
    requests: tuple[Halfspace, ...] = ()
    frozen_point: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "box", normalize_box(self.box))
        object.__setattr__(self, "requests", tuple(self.requests))
        for h in self.requests:
            if h.dim != self.dim:
                raise DimensionError(f"halfspace dim {h.dim} != box dim {self.dim}")
        if self.frozen_point is not None:
            p = np.asarray(self.frozen_point, dtype=float)
            if p.shape != (self.dim,):
                raise DimensionError("frozen point has wrong dimension")
            object.__setattr__(self, "frozen_point", p)

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def frozen(self) -> bool:
        return self.frozen_point is not None

    def interval(self) -> tuple[float, float]:
        """Exact [lo, hi] reduction for 1-D regions; lo > hi means empty.

        A zero normal with a negative offset excludes every control and
        yields (inf, -inf).
        """
        if self.dim != 1:
            raise DimensionError("interval() is only defined for 1-D regions")
        if self.frozen:
            p = float(self.frozen_point[0])
            return p, p
        lo, hi = self.box[0]
        for h in self.requests:
            a = float(h.normal[0])
            if a == 0.0:
                if h.offset < 0.0:
                    return np.inf, -np.inf
                continue
            bound = -h.offset / a
            if a > 0.0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
        return lo, hi


def intersect(box, halfspaces) -> ControlRegion:
    """Region whose membership is box AND every halfspace."""
    return ControlRegion(tuple(box), tuple(halfspaces))


def project_onto_halfspace(u: np.ndarray, h: Halfspace) -> np.ndarray:
    v = h.value(u)
    if v >= 0.0:
        return np.asarray(u, dtype=float)
    nn = float(h.normal @ h.normal)
    return u - (v / nn) * h.normal


def _project_polytope(point: np.ndarray, halfspaces) -> np.ndarray:
    """Dykstra cycles over the halfspace family; exact in the limit."""
    if not halfspaces:
        return np.asarray(point, dtype=float)
    u = np.asarray(point, dtype=float)
    corrections = [np.zeros_like(u) for _ in halfspaces]
    for _ in range(PROJECTION_SWEEP_CAP):
        prev = u
        for k, h in enumerate(halfspaces):
            y = u + corrections[k]
            z = project_onto_halfspace(y, h)
            corrections[k] = y - z
            u = z
        worst = max(0.0, *(-h.value(u) for h in halfspaces))
        if worst <= PROJECTION_TOL and np.max(np.abs(u - prev)) <= PROJECTION_TOL:
            return u
    raise GeometryConvergenceError(
        "polytope projection did not converge (the request set may be empty)",
        last_iterate=u,
        residual=worst,
    )


def nearest_point(plo: float, phi: float, lo: float, hi: float) -> float:
    """The point of the 1-D box [lo, hi] nearest the request interval [plo, phi].

    plo > phi means contradictory requests: GeometryConvergenceError.
    """
    if plo > phi:
        raise GeometryConvergenceError("empty request polytope",
                                       last_iterate=np.array([lo]), residual=plo - phi)
    if phi < lo:
        return lo
    if plo > hi:
        return hi
    inside = lo if lo > plo else plo
    return hi if hi < inside else inside


def closest_point(box, halfspaces) -> tuple[np.ndarray, float]:
    """Point of the box closest to the request polytope, with the distance.

    The polytope itself must be nonempty; mutually contradictory requests
    surface as GeometryConvergenceError.
    """
    box = normalize_box(box)
    halfspaces = tuple(halfspaces)
    if len(box) == 1:
        lo, hi = box[0]
        # the request polytope alone, as an unbounded interval
        plo, phi = ControlRegion(((-np.inf, np.inf),), halfspaces).interval()
        # the gap between that interval and the box, 0 where they meet
        return np.array([nearest_point(plo, phi, lo, hi)]), max(lo - phi, plo - hi, 0.0)
    u = box_center(box)
    y = _project_polytope(u, halfspaces)
    for _ in range(PROJECTION_SWEEP_CAP):
        u_new = clamp_to_box(y, box)
        y_new = _project_polytope(u_new, halfspaces)
        if np.max(np.abs(u_new - u)) <= PROJECTION_TOL \
                and np.max(np.abs(y_new - y)) <= PROJECTION_TOL:
            return u_new, float(np.linalg.norm(u_new - y_new))
        u, y = u_new, y_new
    raise GeometryConvergenceError(
        "alternating projection did not converge",
        last_iterate=u,
        residual=float(np.linalg.norm(u - y)),
    )


def is_empty(region: ControlRegion) -> bool:
    """Exact for 1-D; distance-based via closest_point otherwise."""
    if region.frozen:
        return False
    if region.dim == 1:
        lo, hi = region.interval()
        return lo > hi
    for h in region.requests:
        if np.max(np.abs(h.normal)) == 0.0 and h.offset < 0.0:
            return True
    live = [h for h in region.requests if np.max(np.abs(h.normal)) > 0.0]
    _, dist = closest_point(region.box, live)
    return dist > PROJECTION_TOL


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    n = v.shape[0]
    srt = np.sort(v)[::-1]
    css = np.cumsum(srt) - 1.0
    idx = np.arange(1, n + 1)
    cond = srt - css / idx > 0.0
    rho = int(np.max(idx[cond]))
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def weakly_non_interfering(normals) -> tuple[bool, np.ndarray | None]:
    """Does some direction make a strictly positive inner product with every normal?

    Decided by the minimum-norm point of the convex hull of the normalized
    normals: the origin strictly outside the hull is equivalent to a witness
    existing, and the normalized min-norm point is one.  Zero normals fail
    immediately (no direction can help a dead channel).
    """
    rows = [np.atleast_1d(np.asarray(a, dtype=float)) for a in normals]
    if not rows:
        return True, None
    if any(np.max(np.abs(a)) <= NEGLIGIBLE_NORMAL for a in rows):
        return False, None
    mat = np.vstack([a / np.linalg.norm(a) for a in rows])
    k = mat.shape[0]
    if k == 1:
        return True, mat[0]
    gram = mat @ mat.T
    step = 1.0 / (2.0 * max(float(np.max(np.linalg.eigvalsh(gram))), 1e-12))
    lam = np.full(k, 1.0 / k)
    for _ in range(20_000):
        grad = 2.0 * (gram @ lam)
        new = _project_simplex(lam - step * grad)
        if np.max(np.abs(new - lam)) <= 1e-13:
            lam = new
            break
        lam = new
    p = mat.T @ lam
    norm = float(np.linalg.norm(p))
    if norm > PROJECTION_TOL:
        return True, p / norm
    return False, None
