"""Tangency circle packing for triangulations.

Radii come from a uniform-neighbor fixed-point iteration (Collins-Stephenson
style) with the three outer radii pinned to 1; centers are then laid out by a
breadth-first walk over inner faces. The packing realizes: disks tangent iff
vertices adjacent, interior angle sums 2*pi.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentRadii, NoConvergence, NotTriangulated, PrecisionExhausted
from .graphs import Embedding

log = logging.getLogger(__name__)

__all__ = ["ALPHA", "PackParams", "CirclePacking", "pack_radii", "layout_centers", "ratio_check"]

# smallest possible radius ratio between tangent disks is alpha^(d-2)
ALPHA = 1.0 / (3.0 + 2.0 * math.sqrt(3.0))

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PackParams:
    epsilon: float = 1e-10
    max_iters: int = 10 ** 6


@dataclass(frozen=True)
class CirclePacking:
    """Converged packing: one disk per vertex, outer three pinned at radius 1.

    epsilon is the achieved tolerance (at least the requested one); the
    embedding is carried along for downstream stages and is not serialized.
    """

    centers: tuple[tuple[float, float], ...]
    radii: tuple[float, ...]
    outer: tuple[int, int, int]
    epsilon: float
    embedding: Embedding | None = None

    def __post_init__(self):
        if not all(0 < r < math.inf for r in self.radii):
            raise ValueError("all radii must be positive and finite")
        if not all(math.isfinite(x) for c in self.centers for x in c):
            raise ValueError("all centers must be finite")
        o = [self.radii[v] for v in self.outer]
        if max(o) - min(o) > self.epsilon * max(o):
            raise ValueError("outer radii not equal within epsilon")
        if self.embedding is not None:
            self._validate_tangencies()

    def _validate_tangencies(self):
        g = self.embedding.graph
        c = np.asarray(self.centers)
        r = np.asarray(self.radii)
        for u, v in g.edges:
            gap = np.hypot(*(c[u] - c[v])) - (r[u] + r[v])
            if abs(gap) > self.epsilon * (r[u] + r[v]):
                raise ValueError(f"edge ({u},{v}) tangency residual {gap:.3e} too large")
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                dist = np.hypot(*(c[u] - c[v]))
                if dist < (r[u] + r[v]) * (1.0 - self.epsilon):
                    raise ValueError(f"non-adjacent disks {u},{v} overlap")

    def max_tangency_residual(self) -> float:
        g = self.embedding.graph
        worst = 0.0
        for u, v in g.edges:
            su = self.radii[u] + self.radii[v]
            gap = math.hypot(
                self.centers[u][0] - self.centers[v][0],
                self.centers[u][1] - self.centers[v][1],
            ) - su
            worst = max(worst, abs(gap) / su)
        return worst


def _check_packable(e: Embedding):
    if e.graph.n < 4:
        raise ValueError("packing needs at least 4 vertices")
    if not e.is_triangulated():
        raise NotTriangulated("packing requires a triangulated embedding")
    if len(e.outer_face) != 3:
        raise NotTriangulated("outer face must be a triangle")


def pack_radii(e: Embedding, p: PackParams | None = None) -> np.ndarray:
    """Radii of the tangency packing with outer radii = 1.

    Interior radii are iterated until every interior angle sum is within
    p.epsilon of 2*pi.
    """
    p = p or PackParams()
    _check_packable(e)
    g = e.graph
    n = g.n
    outer = set(e.outer_face)
    interior = np.array([v for v in range(n) if v not in outer], dtype=int)
    if len(interior) == 0:
        raise ValueError("no interior vertices")

    # corner (v; a, b): consecutive neighbors a,b of interior v in rotation
    cv, ca, cb = [], [], []
    for pos, v in enumerate(interior):
        rot = e.rotation[v]
        k = len(rot)
        for j in range(k):
            cv.append(pos)
            ca.append(rot[j])
            cb.append(rot[(j + 1) % k])
    cv = np.array(cv, dtype=int)
    ca = np.array(ca, dtype=int)
    cb = np.array(cb, dtype=int)
    degs = np.array([g.degree(v) for v in interior], dtype=float)
    m = len(interior)

    r = np.ones(n, dtype=float)
    r[interior] = 0.5

    def angle_sums(rr) -> np.ndarray:
        rv = rr[interior][cv]
        ra = rr[ca]
        rb = rr[cb]
        s2 = (ra * rb) / ((rv + ra) * (rv + rb))
        theta = 2.0 * np.arcsin(np.sqrt(np.clip(s2, 0.0, 1.0)))
        return np.bincount(cv, weights=theta, minlength=m)

    delta_prev = None
    lam_prev = None
    iters = 0
    while True:
        sums = angle_sums(r)
        residual = float(np.max(np.abs(sums - _TWO_PI)))
        if residual <= p.epsilon:
            break
        if iters >= p.max_iters:
            raise NoConvergence(p.max_iters, residual)
        iters += 1
        # uniform-neighbor update: pretend all k neighbors share one radius
        ri = r[interior]
        beta = np.sin(sums / (2.0 * degs))
        rhat = ri * beta / (1.0 - beta)
        delta_ang = np.sin(np.pi / degs)
        rnew = rhat * (1.0 - delta_ang) / delta_ang
        delta = rnew - ri
        # superstep: extrapolate along the (near-geometric) convergence path
        nd = float(np.linalg.norm(delta))
        if delta_prev is not None and nd > 0:
            lam = nd / delta_prev
            if lam_prev is not None and 0.0 < lam < 1.0 and abs(lam - lam_prev) < 0.05 * lam:
                boosted = ri + delta * (1.0 + lam / (1.0 - lam))
                if np.all(boosted > 0):
                    trial = r.copy()
                    trial[interior] = boosted
                    if np.max(np.abs(angle_sums(trial) - _TWO_PI)) < residual:
                        r = trial
                        delta_prev, lam_prev = None, None
                        continue
            lam_prev = lam
        delta_prev = nd
        r[interior] = rnew
    log.debug("pack_radii converged in %d sweeps, residual %.3e", iters, residual)
    return r


def layout_centers(radii, e: Embedding) -> CirclePacking:
    """Place centers by BFS over inner faces from the outer edge.

    Outer vertex a sits at the origin, b on the positive x axis; the interior
    fills the upper half plane, realizing every rotation clockwise (and hence
    each traced inner face as a clockwise cycle). Re-placements of an already
    placed vertex are cross-checked and raise InconsistentRadii beyond
    tolerance. Centers that come out non-finite or not a valid packing, as
    when the radii span more than floats resolve, raise PrecisionExhausted.
    """
    _check_packable(e)
    r = np.asarray(radii, dtype=float)
    g = e.graph
    a, b = e.outer_face[0], e.outer_face[1]
    pos: dict[int, np.ndarray] = {
        a: np.array([0.0, 0.0]),
        b: np.array([r[a] + r[b], 0.0]),
    }
    eps = 1e-10

    outer_darts = {
        (e.outer_face[i], e.outer_face[(i + 1) % len(e.outer_face)])
        for i in range(len(e.outer_face))
    }
    seen_darts = set()
    queue = deque([(b, a)])
    while queue:
        u, v = queue.popleft()
        if (u, v) in seen_darts or (u, v) in outer_darts:
            continue
        face = e.trace_face(u, v)
        assert len(face) == 3
        w = face[2]
        for i in range(3):
            seen_darts.add((face[i], face[(i + 1) % 3]))
        ou, ov = pos[u], pos[v]
        du = r[u] + r[w]
        dv = r[v] + r[w]
        link = ov - ou
        ell = float(np.hypot(*link))
        if ell == 0.0:
            raise PrecisionExhausted(f"centers of {u} and {v} coincide in floats")
        x = (du * du - dv * dv + ell * ell) / (2.0 * ell)
        y2 = du * du - x * x
        y = math.sqrt(max(0.0, y2))
        uhat = link / ell
        nhat = np.array([uhat[1], -uhat[0]])  # right of u->v: inner faces wind cw
        ow = ou + x * uhat + y * nhat
        if not np.all(np.isfinite(ow)):
            raise PrecisionExhausted(f"center of {w} is not finite")
        if w in pos:
            err = float(np.hypot(*(pos[w] - ow)))
            tol = max(1e3 * eps, 1e-12) * max(1.0, float(np.hypot(*ow)))
            if not err <= tol:
                raise InconsistentRadii(
                    f"vertex {w} re-placed {err:.3e} away from its first position"
                )
        else:
            pos[w] = ow
        for dart in ((v, u), (w, v), (u, w)):
            if dart not in seen_darts and dart not in outer_darts:
                queue.append(dart)

    assert len(pos) == g.n, "layout BFS failed to reach every vertex"
    arr = np.array([pos[v] for v in range(g.n)])
    worst = _polish_centers(arr, r, e, anchors=(a, b))
    centers = tuple((float(x), float(y)) for x, y in arr)
    stored_eps = max(1e-10, worst * 1.5)
    try:
        return CirclePacking(
            centers=centers,
            radii=tuple(float(x) for x in r),
            outer=(e.outer_face[0], e.outer_face[1], e.outer_face[2]),
            epsilon=stored_eps,
            embedding=e,
        )
    except ValueError as exc:
        raise PrecisionExhausted(f"float center layout is not a packing: {exc}") from exc


def _polish_centers(pos: np.ndarray, r: np.ndarray, e: Embedding, anchors) -> float:
    """Gauss-Newton sweeps on per-vertex relative tangency residuals.

    BFS placement alone drifts to ~1e-8 relative residual on deeply nested
    circles; a few local refits push that to ~1e-10. The two anchor vertices
    stay fixed to preserve the normalization. Returns the final worst
    relative residual over edges; raises PrecisionExhausted when a center
    meets a neighbor's in floats.
    """
    g = e.graph
    order = sorted(range(g.n), key=lambda v: -r[v])
    nbrs = {v: np.array(g.neighbors(v), dtype=int) for v in range(g.n)}

    def worst_residual() -> float:
        worst = 0.0
        for u, v in g.edges:
            su = r[u] + r[v]
            gap = abs(math.hypot(*(pos[u] - pos[v])) - su) / su
            if not gap <= worst:  # keeps a NaN gap
                worst = gap
        return worst

    for _ in range(50):
        for w in order:
            if w in anchors:
                continue
            nb = nbrs[w]
            t = r[w] + r[nb]
            for _ in range(2):
                d = pos[nb] - pos[w]
                dist = np.hypot(d[:, 0], d[:, 1])
                if not dist.all():
                    raise PrecisionExhausted(f"center of {w} meets a neighbor's in floats")
                res = (dist - t) / t
                u = d / dist[:, None]
                jac = u / t[:, None]
                a_mat = jac.T @ jac
                grad = jac.T @ res
                try:
                    step = np.linalg.solve(a_mat, grad)
                except np.linalg.LinAlgError:
                    break
                pos[w] += step
        worst = worst_residual()
        if worst < 1e-12:
            break
    return worst


@dataclass(frozen=True)
class RatioReport:
    min_ratio: float
    bound: float
    ok: bool
    witness_edge: tuple[int, int] | None


def ratio_check(cp: CirclePacking, d: int) -> RatioReport:
    """Extremal tangent-pair radius ratio versus the alpha^(d-2) bound.

    The bound holds for the exact packing; the epsilon-approximate one is
    checked with slack (1 - 10*epsilon), and near-misses are logged.
    """
    g = cp.embedding.graph
    worst = None
    witness = None
    for u, v in g.edges:
        lo, hi = sorted((cp.radii[u], cp.radii[v]))
        ratio = lo / hi
        if worst is None or ratio < worst:
            worst = ratio
            witness = (u, v)
    bound = ALPHA ** (d - 2)
    slack = bound * (1.0 - 10.0 * cp.epsilon)
    ok = worst >= slack
    if ok and worst < bound * (1.0 + 100.0 * cp.epsilon):
        log.info("ratio_check near the bound: min ratio %.12g vs bound %.12g", worst, bound)
    return RatioReport(min_ratio=worst, bound=bound, ok=ok, witness_edge=None if ok else witness)
