"""Tangency circle packing for triangulations.

Radii come from damped Newton steps on the log-radii of the interior
vertices, the three outer radii pinned to 1: the interior angle sums are the
gradient of a convex functional (Bobenko-Springborn 2004), whose Hessian is a
weighted graph Laplacian, solved by conjugate gradients without BLAS so the
radii do not depend on its thread count. Centers are then laid out by a
breadth-first walk over inner faces, with no further refit. The packing
realizes: disks tangent iff vertices adjacent, interior angle sums 2*pi.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotTriangulated, PrecisionExhausted, TooFewVertices
from .graphs import Embedding

log = logging.getLogger(__name__)

__all__ = ["ALPHA", "CirclePacking", "pack_radii", "layout_centers", "ratio_check"]

# smallest possible radius ratio between tangent disks is alpha^(d-2)
ALPHA = 1.0 / (3.0 + 2.0 * math.sqrt(3.0))

_TWO_PI = 2.0 * math.pi

# Newton steps pack_radii takes at most; a stalled line search stops it sooner
_MAX_STEPS = 10 ** 6

# relative slack of ratio_check; it does not depend on the layout's epsilon,
# as the radii it reads come from pack_radii
_RATIO_SLACK = 1e-6


@dataclass(frozen=True)
class CirclePacking:
    """Converged packing: one disk per vertex, outer three pinned at radius 1.

    epsilon is the worst relative tangency residual of the centers, as
    measured; nothing here checks tangency or overlap. The fields are
    checked: radii positive and finite, centers finite, outer radii equal
    within epsilon. The embedding is carried along for downstream stages and
    is not serialized.
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


def _tangency_residual(centers, radii, edges) -> float:
    """Worst relative tangency residual |dist(u, v) - (r_u + r_v)| / (r_u + r_v)
    over the given edges."""
    c = np.asarray(centers, dtype=float)
    r = np.asarray(radii, dtype=float)
    u, v = np.asarray(edges, dtype=np.intp).T
    s = r[u] + r[v]
    return float(np.max(np.abs(np.hypot(*(c[u] - c[v]).T) - s) / s))


def _check_packable(e: Embedding):
    if e.graph.n < 4:
        raise TooFewVertices("packing needs at least 4 vertices")
    if not e.is_triangulated():
        raise NotTriangulated("packing requires a triangulated embedding")
    if len(e.outer_face) != 3:
        raise NotTriangulated("outer face must be a triangle")


def _inner_faces(e: Embedding) -> np.ndarray:
    """Inner faces as rows (i, j, k); the outer face holds dart outer[0:2]."""
    outer = e.face_of[e.outer_face[0], e.outer_face[1]]
    return np.array([f for i, f in enumerate(e.faces) if i != outer], dtype=np.intp)


def _face_terms(u: np.ndarray, faces: np.ndarray):
    """Corner angles and Laplacian side weights of every inner face at log-radii u.

    Row f holds face (i, j, k); theta[f, c] is the angle at corner faces[f, c]
    of the triangle of centers, and w[f, c] = h / (r_a + r_b) on the side from
    a = faces[f, c] to b = faces[f, c + 1 mod 3], with h the inradius of the
    triangle. Each face is scaled by its largest radius first: both are
    scale-free, and the ratios stay in floats however far the radii spread.
    """
    uf = u[faces]
    rho = np.exp(uf - uf.max(axis=1, keepdims=True))
    h = np.sqrt(rho.prod(axis=1, keepdims=True) / rho.sum(axis=1, keepdims=True))
    theta = 2.0 * np.arctan2(h, rho)
    w = h / (rho + np.roll(rho, -1, axis=1))
    return theta, w


def _laplacian_solve(ia, ib, w, m: int, rhs: np.ndarray) -> np.ndarray:
    """Solve L x = rhs for the weighted Laplacian on interior vertices 0..m-1.

    Side k joins ia[k] and ib[k] with weight w[k]; index m stands for every
    pinned outer vertex, whose value is 0. Jacobi-preconditioned conjugate
    gradients to relative residual 1e-6, with products from np.bincount and
    dot products from np.add.reduce (np.sum's own pairwise reduction):
    nothing goes through BLAS, so the result does not depend on its thread
    count. The iteration updates preallocated vectors in place; the search
    direction lives in a buffer padded with the pinned 0 at index m.
    """
    dot = np.add.reduce
    mul = np.multiply
    inv_diag = 1.0 / (np.bincount(ia, w, m + 1) + np.bincount(ib, w, m + 1))[:m]
    x = np.zeros(m)
    res = rhs.copy()
    z = inv_diag * res
    padded = np.zeros(m + 1)
    step = padded[:m]
    step[:] = z
    tmp = np.empty(m)
    ends = np.stack((ia, ib))
    at_ends = np.empty(ends.shape)
    flow = at_ends[0]
    rz = dot(res * z)
    stop = 1e-12 * dot(rhs * rhs)
    for _ in range(10 * m):
        if dot(mul(res, res, out=tmp)) <= stop:
            break
        padded.take(ends, out=at_ends)
        np.subtract(flow, at_ends[1], out=flow)
        mul(w, flow, out=flow)
        q = np.subtract(np.bincount(ia, flow, m + 1), np.bincount(ib, flow, m + 1))[:m]
        alpha = rz / dot(mul(step, q, out=tmp))
        x += mul(alpha, step, out=tmp)
        res -= mul(alpha, q, out=q)
        mul(inv_diag, res, out=z)
        rz, rz_old = dot(mul(res, z, out=tmp)), rz
        step *= rz / rz_old
        step += z
    return x


def pack_radii(e: Embedding, epsilon: float = 1e-10) -> np.ndarray:
    """Radii of the tangency packing with outer radii = 1.

    Damped Newton on the log-radii u of the interior vertices, from radii
    0.5, until every interior angle sum is within epsilon of 2*pi; the
    angle sums are the gradient of a convex functional (Bobenko-Springborn
    2004). Their Jacobian is minus a weighted graph Laplacian: in an inner
    face (i, j, k), d(theta_i)/d(u_j) = h / (r_i + r_j) with h the inradius
    of the triangle of centers, and the diagonal is minus the row sum, as
    angles are scale-free. Each step solves L delta = Theta - 2*pi by
    deterministic conjugate gradients and halves its length until the
    2-norm of the angle residual decreases. _MAX_STEPS caps Newton steps.
    Radii that underflow to 0 in floats raise PrecisionExhausted.
    """
    _check_packable(e)
    n = e.graph.n
    interior = np.ones(n, dtype=bool)
    interior[list(e.outer_face)] = False
    m = int(interior.sum())  # n - 3 >= 1, as _check_packable passed
    faces = _inner_faces(e)
    pos = np.full(n, m, dtype=np.intp)
    pos[interior] = np.arange(m)
    ia = pos[faces].ravel()
    ib = pos[np.roll(faces, -1, axis=1)].ravel()

    def residuals(u):
        theta, w = _face_terms(u, faces)
        sums = np.bincount(faces.ravel(), theta.ravel(), n)[interior]
        return sums - _TWO_PI, w.ravel()

    u = np.zeros(n)
    u[interior] = math.log(0.5)
    res, w = residuals(u)
    iters = 0
    while True:
        residual = float(np.max(np.abs(res)))
        if residual <= epsilon:
            break
        if iters >= _MAX_STEPS:
            raise NoConvergence(_MAX_STEPS, residual)
        iters += 1
        delta = _laplacian_solve(ia, ib, w, m, res)
        norm = np.sum(res * res)
        for halvings in range(60):
            trial = u.copy()
            trial[interior] += delta / 2.0 ** halvings
            trial_res, trial_w = residuals(trial)
            if np.sum(trial_res * trial_res) < norm:
                break
        else:
            # no step length lowers the residual: floats resolve no more
            raise NoConvergence(iters, residual)
        u, res, w = trial, trial_res, trial_w
    # bench/tracer.py parses this record; each "sweep" is one Newton step
    log.debug("pack_radii converged in %d sweeps, residual %.3e", iters, residual)
    radii = np.exp(u)
    if not radii.all():
        v = int(np.flatnonzero(radii == 0.0)[0])
        raise PrecisionExhausted(f"radius of vertex {v} underflows to 0 in floats")
    return radii


def layout_centers(radii, e: Embedding) -> CirclePacking:
    """Place centers by BFS over inner faces from the outer edge.

    Outer vertex a sits at the origin, b on the positive x axis; the interior
    fills the upper half plane, realizing every rotation clockwise (and hence
    each traced inner face as a clockwise cycle). The first placement of a
    vertex stands. Centers that coincide or come out non-finite, and radii
    that underflow to 0, as when the radii span more than floats resolve,
    raise PrecisionExhausted. The centers are not refitted afterwards; the
    stored epsilon is the measured worst relative tangency residual of the
    placement, a report and not a gate: draw_straight's exact orientation
    check decides the drawing.
    """
    _check_packable(e)
    r = np.asarray(radii, dtype=float)
    rl = r.tolist()
    g = e.graph
    a, b = e.outer_face[0], e.outer_face[1]
    pos: dict[int, tuple[float, float]] = {a: (0.0, 0.0), b: (rl[a] + rl[b], 0.0)}

    # each inner dart of a face not yet laid out -> the face's third corner
    third = {}
    for i, j, k in _inner_faces(e).tolist():
        third[i, j], third[j, k], third[k, i] = k, i, j
    # on Python floats, each coordinate evaluated as (ou + x*uhat) + y*nhat,
    # numpy's order on 2-vectors; np.hypot is libm's hypot, and math.hypot
    # rounds some inputs differently
    queue = deque([(b, a)])
    while queue:
        u, v = queue.popleft()
        w = third.get((u, v))
        if w is None:
            continue
        for dart in ((u, v), (v, w), (w, u)):
            del third[dart]
        (ux, uy), (vx, vy) = pos[u], pos[v]
        du = rl[u] + rl[w]
        dv = rl[v] + rl[w]
        lx, ly = vx - ux, vy - uy
        ell = float(np.hypot(lx, ly))
        if ell == 0.0:
            raise PrecisionExhausted(f"centers of {u} and {v} coincide in floats")
        x = (du * du - dv * dv + ell * ell) / (2.0 * ell)
        y2 = du * du - x * x
        y = math.sqrt(max(0.0, y2))
        hx, hy = lx / ell, ly / ell  # nhat = (hy, -hx), right of u->v: inner faces wind cw
        ow = ((ux + x * hx) + y * hy, (uy + x * hy) + y * -hx)
        if not (math.isfinite(ow[0]) and math.isfinite(ow[1])):
            raise PrecisionExhausted(f"center of {w} is not finite")
        pos.setdefault(w, ow)
        queue.extend(dart for dart in ((v, u), (w, v), (u, w)) if dart in third)

    assert len(pos) == g.n, "layout BFS failed to reach every vertex"
    if not all(0.0 < x < math.inf for x in rl):
        raise PrecisionExhausted("a radius is zero or not finite in floats")
    centers = tuple(pos[v] for v in range(g.n))
    return CirclePacking(
        centers=centers,
        radii=tuple(rl),
        outer=(e.outer_face[0], e.outer_face[1], e.outer_face[2]),
        epsilon=_tangency_residual(centers, r, g.edges),
        embedding=e,
    )


@dataclass(frozen=True)
class RatioReport:
    min_ratio: float
    bound: float
    ok: bool
    witness_edge: tuple[int, int] | None


def ratio_check(cp: CirclePacking, d: int) -> RatioReport:
    """Extremal tangent-pair radius ratio versus the alpha^(d-2) bound.

    The bound holds for the exact packing; the radii of pack_radii are
    checked with the fixed relative slack _RATIO_SLACK, and ratios within
    that slack below the bound are logged.
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
    ok = worst >= bound * (1.0 - _RATIO_SLACK)
    if ok and worst < bound:
        log.info("ratio_check within slack below the bound: min ratio %.12g vs %.12g",
                 worst, bound)
    return RatioReport(min_ratio=worst, bound=bound, ok=ok, witness_edge=None if ok else witness)
