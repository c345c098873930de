"""Quality triangulation of simple closed contours.

Delaunay triangulation with exact integer predicates (input coordinates are
snapped to a fine integer grid for the predicates only; output vertices keep
their original float coordinates), boundary conformity by diametral-circle
encroachment splitting, and Ruppert-style refinement to a minimum angle and
maximum triangle area. The boundary of the result contains every input
contour vertex.

The points known before refinement (contour vertices, conformity and
long-segment midpoints, hex seed points) are only registered; their
placement reads coordinates alone. They are then triangulated in one Qhull
call (Barber, Dobkin & Huhdanpaa 1996), and every edge is legalized under
the exact incircle test by Lawson flips, with Shewchuk's (1997) float
filters deciding where they can. Refinement points go in one at a time by
Bowyer-Watson insertion under the same predicates.

The triangles are flat records indexed by triangle id, as in Shewchuk's
Triangle (1996): three corners, three neighbour slots and a live flag, and
no map keyed by edges. Point location, insertion, the interior flood, the
quality scans and the extraction read neighbours by index.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.spatial import Delaunay, cKDTree

from .contour import Polyline, polygon_area
from .mesh import TriMesh2D

__all__ = ["triangulate", "first_self_intersection"]

# Shewchuk's (1997) static error bounds of the float orient2d and incircle
# determinants: beyond them the sign of the float value is the exact sign
_EPS = 2.0**-53
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS


def _widen(radius, pts):
    """A KD-tree query radius widened past the rounding of distances at the
    magnitude of ``pts``; the exact tests on the returned pairs decide."""
    return radius * (1.0 + 1e-9) + 1e-12 * float(np.abs(pts).max())


def _orient(p0, p1, q):
    return (p1[..., 0] - p0[..., 0]) * (q[..., 1] - p0[..., 1]) - (
        p1[..., 1] - p0[..., 1]
    ) * (q[..., 0] - p0[..., 0])


def first_self_intersection(points: np.ndarray):
    """Index pair (i, j) of the first intersecting segment pair, or None.

    Segments i and j are ``points[i]-points[i+1]`` (cyclic); adjacent
    segments sharing an endpoint are ignored. Only segments whose midpoints
    lie within twice the longest half-length of each other can meet, so the
    exact tests run on those pairs alone; the answer is the lexicographically
    smallest intersecting (i, j), i < j. The points must be finite (a
    ``Polyline``'s are).
    """
    p = np.asarray(points, dtype=float)
    n = len(p)
    if n < 4:
        return None
    a = p
    b = np.roll(p, -1, axis=0)
    reach = np.sqrt(((b - a) ** 2).sum(axis=1)).max()  # twice the longest half-length
    i, j = cKDTree(0.5 * (a + b)).query_pairs(_widen(reach, p), output_type="ndarray").T
    keep = (j - i >= 2) & ((i > 0) | (j < n - 1))  # not adjacent, cyclically
    i, j = i[keep], j[keep]
    ai, bi, aj, bj = a[i], b[i], a[j], b[j]
    d1 = _orient(ai, bi, aj)
    d2 = _orient(ai, bi, bj)
    d3 = _orient(aj, bj, ai)
    d4 = _orient(aj, bj, bi)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    # collinear overlap / endpoint touching counts as non-simple too, but
    # only if the bounding boxes overlap and the touching point lies on the
    # other segment
    bbox = np.all(np.minimum(ai, bi) <= np.maximum(aj, bj), axis=1) & np.all(
        np.minimum(aj, bj) <= np.maximum(ai, bi), axis=1
    )
    touch = (
        ((d1 == 0) & _on_segment(ai, bi, aj))
        | ((d2 == 0) & _on_segment(ai, bi, bj))
        | ((d3 == 0) & _on_segment(aj, bj, ai))
        | ((d4 == 0) & _on_segment(aj, bj, bi))
    )
    hit = np.nonzero(proper | (bbox & touch))[0]
    if not hit.size:
        return None
    k = hit[np.lexsort((j[hit], i[hit]))[0]]
    return int(i[k]), int(j[k])


def _on_segment(p0, p1, q):
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    return np.all((q >= lo) & (q <= hi), axis=-1)


def _ball_pairs(tree: cKDTree, centers: np.ndarray, radii: np.ndarray):
    """(point, center) index arrays: the tree's points within ``radii`` of ``centers``."""
    near = tree.query_ball_point(centers, _widen(radii, tree.data))
    counts = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
    pts = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=int(counts.sum()))
    return pts, np.repeat(np.arange(len(near)), counts)


class _Triangulator:
    """Delaunay triangulation with integer-exact predicates.

    Points are only registered until ``build``, which triangulates them all
    at once; after it, ``insert`` adds points incrementally (Bowyer-Watson).

    Triangle t has the counter-clockwise corners ``tv[3 t]``, ``tv[3 t + 1]``
    and ``tv[3 t + 2]``; its neighbour slot ``tn[3 t + k]`` holds the triangle
    across the edge from corner k to corner k + 1, or -1 on the hull, and
    ``live[t]`` is 0 once it is gone. Ids are never reused, so the live ids
    count up in the order the triangles were made. ``vt[v]`` is a live
    triangle with corner v.
    """

    def __init__(self, bbox_lo, bbox_hi):
        extent = max(bbox_hi[0] - bbox_lo[0], bbox_hi[1] - bbox_lo[1], 1e-9)
        self.scale = (2.0**31) / (8.0 * extent)
        self.fx = []  # float coords
        self.fy = []
        self.ix = []  # snapped int coords (predicates only)
        self.iy = []
        self.by_int = {}
        self.tv = []
        self.tn = array("q")
        self.live = bytearray()
        self.vt = []
        self._corners = np.empty((0, 3), dtype=np.int64)
        self.last_tid = 0
        self.built = False

        cx = (bbox_lo[0] + bbox_hi[0]) / 2.0
        cy = (bbox_lo[1] + bbox_hi[1]) / 2.0
        L = 4.0 * extent
        self._add_point(cx - 3.0 * L, cy - 2.0 * L)
        self._add_point(cx + 3.0 * L, cy - 2.0 * L)
        self._add_point(cx, cy + 3.0 * L)

    @property
    def next_tid(self) -> int:
        return len(self.live)

    # -- low-level helpers -------------------------------------------------

    def _snap(self, x, y):
        return int(round(x * self.scale)), int(round(y * self.scale))

    def _add_point(self, x, y):
        key = self._snap(x, y)
        if key in self.by_int:
            return self.by_int[key], False
        vid = len(self.fx)
        self.fx.append(float(x))
        self.fy.append(float(y))
        self.ix.append(key[0])
        self.iy.append(key[1])
        self.by_int[key] = vid
        return vid, True

    def _add_points(self, xy) -> list:
        """Register the points of ``xy`` (n, 2) in order, as ``_add_point`` does one
        at a time; returns their vertex ids. A point that snaps onto a registered
        one, or onto an earlier one of ``xy``, gets that point's id."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        snapped = np.rint(xy * self.scale)  # the products ``_snap`` rounds, half to even as ``round`` does
        keys = list(zip(map(int, snapped[:, 0].tolist()), map(int, snapped[:, 1].tolist())))
        first, by_int = len(self.fx), self.by_int
        vids = [by_int.setdefault(key, len(by_int)) for key in keys]  # new ids count up from ``first``
        ids, at = np.unique(vids, return_index=True)
        fresh = at[ids >= first].tolist()  # the first point of each new id, in input order
        self.fx += xy[fresh, 0].tolist()
        self.fy += xy[fresh, 1].tolist()
        self.ix += [keys[i][0] for i in fresh]
        self.iy += [keys[i][1] for i in fresh]
        return vids

    def _load(self, corners: np.ndarray, slots: np.ndarray, live: np.ndarray):
        """Fill the store from (n, 3) corners, (n, 3) neighbour slots and (n,) live
        flags of the triangle ids 0 .. n - 1; ``vt`` is taken from the live ones."""
        self.tv = corners.ravel().tolist()
        self.tn = array("q", slots.astype(np.int64).ravel().tobytes())
        self.live = bytearray(live.astype(np.uint8).tobytes())
        self._corners = corners
        alive = np.flatnonzero(live)
        vt = np.full(len(self.ix), -1, dtype=np.int64)
        vt[corners[alive].ravel()] = np.repeat(alive, 3)
        self.vt = vt.tolist()

    def corners(self) -> np.ndarray:
        """(next_tid, 3) corners of every triangle id, as an array not to be written.

        A triangle's corners never change after ``build``, so each call
        converts only the triangles made since the last one.
        """
        done = self._corners
        if 3 * len(done) < len(self.tv):
            tail = self.tv[3 * len(done) :]
            self._corners = done = np.concatenate([done, np.fromiter(tail, dtype=np.int64, count=len(tail)).reshape(-1, 3)])
        return done

    def coords(self, vids: np.ndarray):
        """The float x and y of the vertex ids ``vids`` (an int array of any shape)."""
        return tuple(np.fromiter(f, dtype=float, count=len(f))[vids] for f in (self.fx, self.fy))  # fromiter: no type discovery

    def edge_tri(self, u, v) -> int:
        """The triangle whose edge from one corner to the next runs u -> v, or -1
        (always before ``build``).

        The walk turns around u from ``vt[u]``: counter-clockwise until it
        finds the edge, closes the fan or meets the hull, then clockwise.
        """
        if not self.built:
            return -1
        tv, tn = self.tv, self.tn
        start = self.vt[u]
        for turn in (2, 0):  # the slot crossed: edge (c, u), or edge (u, b)
            t = start
            while t >= 0:
                i = 3 * t
                k = 0 if tv[i] == u else 1 if tv[i + 1] == u else 2
                if tv[i + (k + 1) % 3] == v:
                    return t
                t = tn[i + (k + turn) % 3]
                if t == start:
                    return -1
        return -1

    def _locate(self, vid, hint=None):
        """Visibility walk to a triangle containing vertex vid; None if outside."""
        tv, tn, live, ix, iy = self.tv, self.tn, self.live, self.ix, self.iy
        tid = hint if hint is not None and live[hint] else self.last_tid
        if not live[tid]:
            tid = live.index(1)
        px, py = ix[vid], iy[vid]
        guard = 4 * len(live) + 64
        while guard:
            guard -= 1
            i = 3 * tid
            a, b, c = tv[i], tv[i + 1], tv[i + 2]
            xa, ya, xb, yb, xc, yc = ix[a], iy[a], ix[b], iy[b], ix[c], iy[c]
            # step across the first edge that has vid strictly on its right
            if (xb - xa) * (py - ya) - (yb - ya) * (px - xa) < 0:
                tid = tn[i]
            elif (xc - xb) * (py - yb) - (yc - yb) * (px - xb) < 0:
                tid = tn[i + 1]
            elif (xa - xc) * (py - yc) - (ya - yc) * (px - xc) < 0:
                tid = tn[i + 2]
            else:
                return tid
            if tid < 0:
                return None
        raise RuntimeError("point location walk failed to terminate")

    # -- insertion ---------------------------------------------------------

    def insert(self, x, y, hint=None):
        """Insert a point; returns (vertex id, list of cavity tids removed).

        Returns (vid, None) when the point coincides with an existing vertex.
        Before ``build`` the point is only registered, with an empty cavity.
        The new triangles (u, v, vid), one per cavity boundary edge (u, v),
        take consecutive ids in the order of that edge list.
        """
        vid, fresh = self._add_point(x, y)
        if not fresh:
            return vid, None
        if not self.built:
            return vid, []
        t0 = self._locate(vid, hint)
        if t0 is None:
            # outside the triangulation: undo the point registration
            self.by_int.pop((self.ix[vid], self.iy[vid]))
            for coords in (self.fx, self.fy, self.ix, self.iy):
                coords.pop()
            return None, None

        # the incircle and orientation predicates and the triangle
        # bookkeeping are written out on locals: this is most of the
        # mesher's time
        tv, tn, live, vt, ix, iy = self.tv, self.tn, self.live, self.vt, self.ix, self.iy
        dx, dy = ix[vid], iy[vid]
        cavity = {t0}
        stack = [t0]
        while stack:
            i = 3 * stack.pop()
            for nb in (tn[i], tn[i + 1], tn[i + 2]):
                if nb < 0 or nb in cavity:
                    continue
                j = 3 * nb
                na, nbv, nc = tv[j], tv[j + 1], tv[j + 2]
                # incircle: > 0 iff vid is strictly inside the circumcircle of CCW (na, nbv, nc)
                adx, ady = ix[na] - dx, iy[na] - dy
                bdx, bdy = ix[nbv] - dx, iy[nbv] - dy
                cdx, cdy = ix[nc] - dx, iy[nc] - dy
                ad2 = adx * adx + ady * ady
                bd2 = bdx * bdx + bdy * bdy
                cd2 = cdx * cdx + cdy * cdy
                if adx * (bdy * cd2 - cdy * bd2) - ady * (bdx * cd2 - cdx * bd2) + ad2 * (bdx * cdy - cdx * bdy) > 0:
                    cavity.add(nb)
                    stack.append(nb)

        # boundary edges must see the new point strictly; pull grazed
        # neighbors (cocircular degeneracies) into the cavity
        while True:
            boundary = []  # (u, v, the triangle across it)
            grazed = []
            for t in cavity:
                i = 3 * t
                a, b, c = tv[i], tv[i + 1], tv[i + 2]
                for u, v, nb in ((a, b, tn[i]), (b, c, tn[i + 1]), (c, a, tn[i + 2])):
                    if nb in cavity:
                        continue
                    if (ix[v] - ix[u]) * (dy - iy[u]) - (iy[v] - iy[u]) * (dx - ix[u]) <= 0:  # orient(u, v, vid)
                        if nb < 0:
                            raise RuntimeError("degenerate insertion at the hull")
                        grazed.append(nb)
                    else:
                        boundary.append((u, v, nb))
            if not grazed:
                break
            cavity.update(grazed)

        for t in cavity:
            live[t] = 0
        # the boundary is one loop around vid: new triangle (u, v, vid) meets the
        # one starting at v across (v, vid) and the one ending at u across (vid, u)
        first = tid = len(live)
        for u, _, _ in boundary:
            vt[u] = tid
            tid += 1
        corners, slots = [], []
        tid = first
        for u, v, nb in boundary:
            corners += (u, v, vid)
            slots += (nb, vt[v], -1)
            if nb >= 0:  # its slot across (v, u) starts at corner v
                j = 3 * nb
                tn[j if tv[j] == v else j + 1 if tv[j + 1] == v else j + 2] = tid
            tid += 1
        for k in range(1, len(slots), 3):
            slots[3 * (slots[k] - first) + 2] = first + k // 3
        tv += corners
        tn.extend(slots)
        live.extend(b"\x01" * len(boundary))
        vt.append(first)
        self.last_tid = tid - 1
        return vid, list(cavity)

    # -- the initial triangulation ------------------------------------------

    def build(self):
        """Triangulate every registered point at once.

        Qhull (``scipy.spatial.Delaunay``) triangulates the snapped integer
        points, taken relative to the center of their bounding box (the
        super-triangle's): all of them then lie below 2**32 in magnitude, so
        float64 holds them and their differences exactly, and Shewchuk's
        error bounds make the float orientation and incircle signs exact
        wherever they clear them. Each triangle is made counter-clockwise
        (Python ints where the float sign is unsure), and every edge that the
        float incircle test does not clear is settled by the exact one and
        Lawson-flipped if it fails, so the result is Delaunay under the
        predicates ``insert`` uses. Returns the number of flips.
        """
        ix = np.array(self.ix, dtype=np.int64)
        iy = np.array(self.iy, dtype=np.int64)
        x = (ix - (ix.min() + ix.max()) // 2).astype(np.float64)
        y = (iy - (iy.min() + iy.max()) // 2).astype(np.float64)
        qh = Delaunay(np.column_stack([x, y]))
        if len(qh.coplanar):
            raise RuntimeError(f"Qhull left {len(qh.coplanar)} coplanar points out of the triangulation")
        s = qh.simplices.astype(np.int64)
        nb = qh.neighbors.astype(np.int64)

        xs, ys = x[s], y[s]
        left = (xs[:, 0] - xs[:, 2]) * (ys[:, 1] - ys[:, 2])
        right = (ys[:, 0] - ys[:, 2]) * (xs[:, 1] - xs[:, 2])
        det = left - right
        pix, piy = self.ix, self.iy
        for t in np.flatnonzero(np.abs(det) <= _CCW_BOUND * (np.abs(left) + np.abs(right))).tolist():
            a, b, c = s[t].tolist()
            det[t] = (pix[a] - pix[c]) * (piy[b] - piy[c]) - (piy[a] - piy[c]) * (pix[b] - pix[c])
            if det[t] == 0:
                raise RuntimeError("Qhull made a triangle of exact orientation 0")
        cw = det < 0
        s[cw] = s[cw][:, [0, 2, 1]]
        nb[cw] = nb[cw][:, [0, 2, 1]]

        # triangles numbered by their lowest vertex id: neighbours then sit
        # close in the store. Qhull's neighbour j lies opposite corner j, so
        # slot k (the edge from corner k to corner k + 1) reads column k + 2
        m = len(s)
        order = np.argsort(s.min(axis=1), kind="stable")
        rank = np.empty(m + 1, dtype=np.int64)
        rank[order], rank[-1] = np.arange(m), -1  # Qhull's -1 (the hull) stays -1
        self._load(s[order], rank[nb[order][:, [2, 0, 1]]], np.ones(m, dtype=bool))
        self.last_tid = m - 1
        self.built = True

        # every interior edge once: side k of t (opposite s[t, k]) and the
        # corner of its neighbor across it; incircle > 0 means illegal
        t, k = np.nonzero(nb > np.arange(m)[:, None])
        o = nb[t, k]
        u, v, w = s[t, (k + 1) % 3], s[t, (k + 2) % 3], s[t, k]
        d = s[o].sum(axis=1) - u - v
        adx, ady = x[u] - x[d], y[u] - y[d]
        bdx, bdy = x[v] - x[d], y[v] - y[d]
        cdx, cdy = x[w] - x[d], y[w] - y[d]
        ad2, bd2, cd2 = adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
        bc, cb = bdx * cdy, cdx * bdy
        ca, ac = cdx * ady, adx * cdy
        ab, ba = adx * bdy, bdx * ady
        det = ad2 * (bc - cb) + bd2 * (ca - ac) + cd2 * (ab - ba)
        perm = (np.abs(bc) + np.abs(cb)) * ad2 + (np.abs(ca) + np.abs(ac)) * bd2 + (np.abs(ab) + np.abs(ba)) * cd2
        unsure = det >= -_ICC_BOUND * perm
        return self._legalize(list(zip(u[unsure].tolist(), v[unsure].tolist())))

    def _legalize(self, stack) -> int:
        """Lawson-flip until every edge passes the exact incircle test.

        ``stack`` holds directed edges (u, v) to check; a flip pushes the four
        outer edges of its quadrilateral. Edges no longer present, and hull
        edges, are skipped. Returns the number of flips.
        """
        tv, tn, vt, ix, iy = self.tv, self.tn, self.vt, self.ix, self.iy
        flips = 0
        while stack:
            u, v = stack.pop()
            t1 = self.edge_tri(u, v)
            if t1 < 0:
                continue
            i = 3 * t1
            k = 0 if tv[i] == u else 1 if tv[i + 1] == u else 2  # edge (u, v) is slot k
            t2 = tn[i + k]
            if t2 < 0:
                continue
            a, b, c = tv[i], tv[i + 1], tv[i + 2]
            w = a + b + c - u - v
            j = 3 * t2
            p, q, r = tv[j], tv[j + 1], tv[j + 2]
            z = p + q + r - u - v
            # incircle: > 0 iff z is strictly inside the circumcircle of CCW (a, b, c)
            dx, dy = ix[z], iy[z]
            adx, ady = ix[a] - dx, iy[a] - dy
            bdx, bdy = ix[b] - dx, iy[b] - dy
            cdx, cdy = ix[c] - dx, iy[c] - dy
            ad2 = adx * adx + ady * ady
            bd2 = bdx * bdx + bdy * bdy
            cd2 = cdx * cdx + cdy * cdy
            if adx * (bdy * cd2 - cdy * bd2) - ady * (bdx * cd2 - cdx * bd2) + ad2 * (bdx * cdy - cdx * bdy) <= 0:
                continue
            # the quadrilateral u, z, v, w (counter-clockwise) takes diagonal z-w
            n_vw, n_wu = tn[i + (k + 1) % 3], tn[i + (k + 2) % 3]
            k2 = 0 if p == v else 1 if q == v else 2  # t2's edge (v, u) is slot k2
            n_uz, n_zv = tn[j + (k2 + 1) % 3], tn[j + (k2 + 2) % 3]
            tv[i : i + 3] = u, z, w
            tn[i : i + 3] = array("q", (n_uz, t2, n_wu))
            tv[j : j + 3] = z, v, w
            tn[j : j + 3] = array("q", (n_zv, n_vw, t1))
            if n_uz >= 0:  # its slot across (z, u) starts at corner z, and now faces t1
                h = 3 * n_uz
                tn[h if tv[h] == z else h + 1 if tv[h + 1] == z else h + 2] = t1
            if n_vw >= 0:  # its slot across (w, v) now faces t2
                h = 3 * n_vw
                tn[h if tv[h] == w else h + 1 if tv[h + 1] == w else h + 2] = t2
            vt[u], vt[v] = t1, t2
            stack += ((u, z), (z, v), (v, w), (w, u))
            flips += 1
        if flips:
            self._corners = np.empty((0, 3), dtype=np.int64)
        return flips

    # -- geometry in float coordinates --------------------------------------

    def tri_coords(self, tid):
        tv, i = self.tv, 3 * tid
        a, b, c = tv[i], tv[i + 1], tv[i + 2]
        fx, fy = self.fx, self.fy
        return (fx[a], fy[a]), (fx[b], fy[b]), (fx[c], fy[c])


def _circumcenter(pa, pb, pc):
    ax, ay = pa
    bx, by = pb
    cx, cy = pc
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return ux, uy


class _Refiner:
    """Conforming Delaunay refinement driver for one polygon.

    One rule places every refinement point p for a bad interior triangle t:
    if p encroaches a constraint segment (lies inside its diametral circle),
    those segments are split instead, each followed by the splits its
    midpoint causes, and t is queued again; otherwise p is inserted and the
    new triangles are queued. The circumcenter of t is tried first, then the
    midpoint of its longest edge; t stalls if neither can be placed.
    """

    def __init__(self, poly: np.ndarray, max_area: float, min_angle: float):
        self.poly = poly
        self.max_area = float(max_area)
        self.min_angle = float(min_angle)
        self.tr = _Triangulator(poly.min(axis=0), poly.max(axis=0))
        self.work = []  # the tids queued by ``_place`` in the current wave

        # contour vertices and directed constraint segments
        n = len(poly)
        first = len(self.tr.fx)
        vids = self.tr._add_points(poly)
        if len(self.tr.fx) - first < n:
            raise ValueError("contour points coincide after snapping; contour too fine")
        # directed constraint segment -> its row in the append-only segment arrays; a split
        # retires its row and appends its two halves, so the live rows keep the dict's order
        nxt = vids[1:] + vids[:1]
        self.segs = dict(zip(zip(vids, nxt), range(n)))
        self._rows = n
        self._uv = np.zeros((2 * n, 2), dtype=np.int64)
        self._mid = np.zeros((2 * n, 2))
        # a live row's encroachment bound, its squared diametral radius times (1 - 1e-12); -1 once retired
        self._lim = np.full(2 * n, -1.0)
        # the arithmetic of ``_add_seg``, row by row
        p, q = poly, np.roll(poly, -1, axis=0)
        d = p - q
        self._uv[:n] = np.column_stack([vids, nxt])
        self._mid[:n] = 0.5 * (p + q)
        self._lim[:n] = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) / 4.0 * (1.0 - 1e-12)
        self.unsplittable = set()

    # -- segment bookkeeping -------------------------------------------------

    def _add_seg(self, u, v):
        """Append segment (u, v) as a live row with its midpoint and encroachment bound."""
        row = self._rows
        if row == len(self._lim):  # full: double the capacity
            self._uv, self._mid, self._lim = (
                np.concatenate([a, np.full_like(a, fill)])
                for a, fill in ((self._uv, 0), (self._mid, 0.0), (self._lim, -1.0))
            )
        fx, fy = self.tr.fx, self.tr.fy
        dx, dy = fx[u] - fx[v], fy[u] - fy[v]
        self._uv[row] = u, v
        self._mid[row] = 0.5 * (fx[u] + fx[v]), 0.5 * (fy[u] + fy[v])
        self._lim[row] = (dx * dx + dy * dy) / 4.0 * (1.0 - 1e-12)
        self.segs[(u, v)] = row
        self._rows += 1

    def _seg_arrays(self):
        """(uv, mid, encroachment bound) of the live segments, in the order of ``self.segs``."""
        alive = self._lim[: self._rows] >= 0
        return self._uv[: self._rows][alive], self._mid[: self._rows][alive], self._lim[: self._rows][alive]

    def _encroached_by(self, x, y):
        """The live segments whose diametral circle holds (x, y), in row order."""
        n = self._rows
        mid = self._mid[:n]
        hits = np.flatnonzero((mid[:, 0] - x) ** 2 + (mid[:, 1] - y) ** 2 < self._lim[:n])
        return list(map(tuple, self._uv[hits].tolist())) if hits.size else []

    def _encroaching(self, tree: cKDTree):
        """(point, segment) index arrays: the tree's points inside a segment's diametral circle."""
        _, mid, lim = self._seg_arrays()
        p, s = _ball_pairs(tree, mid, np.sqrt(lim))
        hit = (mid[s, 0] - tree.data[p, 0]) ** 2 + (mid[s, 1] - tree.data[p, 1]) ** 2 < lim[s]
        return p[hit], s[hit]

    def _split_segment(self, seg):
        """Insert the midpoint of a constraint segment; returns new vertex or None."""
        if seg not in self.segs or seg in self.unsplittable:
            return None
        u, v = seg
        x = 0.5 * (self.tr.fx[u] + self.tr.fx[v])
        y = 0.5 * (self.tr.fy[u] + self.tr.fy[v])
        left = self.tr.edge_tri(u, v)
        vid, cavity = self.tr.insert(x, y, hint=left if left >= 0 else None)
        if vid is None or cavity is None:
            self.unsplittable.add(seg)
            return None
        self._lim[self.segs.pop(seg)] = -1.0
        self._add_seg(u, vid)
        self._add_seg(vid, v)
        return vid

    def _split(self, seg) -> bool:
        """Split ``seg``, then every segment a new midpoint encroaches, recursively.

        Returns whether ``seg`` itself was split.
        """
        first = self._split_segment(seg)
        stack = [] if first is None else [first]
        while stack:
            m = stack.pop()
            for s in self._encroached_by(self.tr.fx[m], self.tr.fy[m]):
                m = self._split_segment(s)
                if m is not None:
                    stack.append(m)
        return first is not None

    def _segment_sides(self):
        """(left, closed): the triangle left of each live segment in the order of
        ``self.segs`` (-1 where the segment is no edge), and the store's slot
        indices that lie along a segment, either way.

        Only the live slots whose two corners are both segment ends are looked
        up, by one search in the sorted undirected segment keys.
        """
        tr = self.tr
        tv = tr.corners().ravel()
        uv = self._seg_arrays()[0]
        nv = len(tr.fx)
        on = np.zeros(nv, dtype=bool)
        on[uv[:, 0]] = True
        slot = np.flatnonzero(on[tv])
        k = slot % 3
        nxt = slot - k + (k + 1) % 3  # slot k runs from corner k to corner k + 1
        keep = on[tv[nxt]] & np.frombuffer(tr.live, dtype=bool)[slot // 3]
        slot, nxt = slot[keep], nxt[keep]
        u, v = tv[slot], tv[nxt]
        seg_key = np.minimum(uv[:, 0], uv[:, 1]) * nv + np.maximum(uv[:, 0], uv[:, 1])
        by_key = np.argsort(seg_key)
        key = np.minimum(u, v) * nv + np.maximum(u, v)
        at = by_key[np.minimum(np.searchsorted(seg_key[by_key], key), len(uv) - 1)]
        hit = seg_key[at] == key
        runs = hit & (u == uv[at, 0])  # the slot runs the segment's way
        left = np.full(len(uv), -1, dtype=np.int64)
        left[at[runs]] = slot[runs] // 3
        return left, slot[hit]

    def _interior(self, sides):
        """Interior triangle ids in flood order, bounded by the directed constraint segments.

        The flood is breadth-first. It starts from the triangle left of each
        segment, in the order of ``self.segs``, and takes each triangle's
        neighbours across its edges (a, b), (b, c), (c, a) in turn, never across
        a segment. ``sides`` is ``_segment_sides()``; csgraph's breadth-first
        order runs the flood over the neighbour slots of the live triangles,
        from a virtual source whose neighbours are the seeds.
        """
        left, closed = sides
        tr = self.tr
        n = tr.next_tid
        across = np.array(tr.tn)
        open_ = np.repeat(np.frombuffer(tr.live, dtype=bool), 3) & (across >= 0)
        open_[closed] = False
        indptr = np.zeros(n + 2, dtype=np.int32)
        indptr[1:-1] = np.cumsum(open_)[2::3]
        seeds = left[left >= 0]
        indptr[-1] = indptr[-2] + len(seeds)
        indices = np.concatenate([across[open_], seeds]).astype(np.int32)
        graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
        return breadth_first_order(graph, n, directed=True, return_predecessors=False)[1:].tolist()

    # -- phases ----------------------------------------------------------------

    def initial_conformity(self):
        """Split any segment encroached by an existing vertex, with one query per sweep;
        the vertices a sweep adds are tested by the cascade in ``_split``."""
        changed = True
        while changed:
            changed = False
            uv = self._seg_arrays()[0]
            p, s = self._encroaching(cKDTree(np.column_stack([self.tr.fx, self.tr.fy])))
            s = s[(p != uv[s, 0]) & (p != uv[s, 1])]  # a segment's own endpoints
            for seg in map(tuple, uv[np.unique(s)].tolist()):
                if seg in self.segs and self._split(seg):
                    changed = True

    def presplit_long_segments(self, target_len: float):
        """Split every segment longer than 1.3 ``target_len``, sweep by sweep; a
        segment's length is fixed, so each sweep tests the lengths at once."""
        changed = True
        while changed:
            changed = False
            uv = self._seg_arrays()[0]
            fx, fy = np.asarray(self.tr.fx), np.asarray(self.tr.fy)
            length = np.hypot(fx[uv[:, 0]] - fx[uv[:, 1]], fy[uv[:, 0]] - fy[uv[:, 1]])
            for seg in map(tuple, uv[length > 1.3 * target_len].tolist()):
                if seg in self.segs and self._split(seg):
                    changed = True

    def seed_grid(self, spacing: float):
        """Hex-grid interior points away from the boundary, registered row by row.

        A candidate is kept when it is inside the polygon (even-odd rule),
        farther than a margin from every polygon edge and encroaches no
        constraint segment. The edge crossings of all hex rows are sorted
        once, together with the candidates; the distance and encroachment
        tests run only on the candidate and segment pairs a KD-tree ball
        query around each segment returns.
        """
        a = self.poly
        b = np.roll(a, -1, axis=0)
        lo = a.min(axis=0)
        hi = a.max(axis=0)
        dy = spacing * np.sqrt(3.0) / 2.0
        ys = np.arange(lo[1] + 0.5 * dy, hi[1], dy)
        # the candidates row by row, odd rows shifted by half a spacing, x ascending in a row
        xs = [np.arange(lo[0] + 0.5 * spacing + off, hi[0], spacing) for off in (0.0, 0.5 * spacing)]
        x = np.concatenate([xs[k % 2] for k in range(len(ys))] or [np.empty(0)])
        row = np.repeat(np.arange(len(ys)), [len(xs[k % 2]) for k in range(len(ys))])
        # edge e crosses row r when its ends lie on either side of the row
        e, r = np.nonzero((a[:, 1, None] <= ys) != (b[:, 1, None] <= ys))
        xc = a[e, 0] + (ys[r] - a[e, 1]) * (b[e, 0] - a[e, 0]) / (b[e, 1] - a[e, 1])
        # even-odd rule: inside when an odd number of the row's crossings lie right of x. A
        # closed polygon crosses every row an even number of times, so that is when an odd
        # number of crossings sort before the candidate by row, then x (a crossing first at
        # equal x)
        is_cand = np.concatenate([np.zeros(len(xc), dtype=bool), np.ones(len(x), dtype=bool)])
        order = np.lexsort((is_cand, np.concatenate([xc, x]), np.concatenate([r, row])))
        cand_at = is_cand[order]
        crossings_before = np.cumsum(~cand_at)[cand_at]
        inside = np.zeros(len(x), dtype=bool)
        inside[order[cand_at] - len(xc)] = crossings_before % 2 == 1
        cand = np.column_stack([x[inside], ys[row[inside]]])
        if not len(cand):
            return
        tree = cKDTree(cand)
        keep = np.ones(len(cand), dtype=bool)

        margin = 0.62 * spacing
        d = b - a
        l2 = (d * d).sum(axis=1)
        p, s = _ball_pairs(tree, 0.5 * (a + b), 0.5 * np.sqrt(l2) + margin)
        l2 = np.where(l2 == 0, 1.0, l2)
        t = np.clip(((cand[p] - a[s]) * d[s]).sum(axis=1) / l2[s], 0.0, 1.0)
        dist = np.linalg.norm(cand[p] - (a[s] + t[:, None] * d[s]), axis=1)
        keep[p[dist <= margin]] = False

        keep[self._encroaching(tree)[0]] = False

        self.tr._add_points(cand[keep])

    def refine(self) -> list:
        """Refine until every interior triangle is good; returns the interior triangle ids.

        Each round runs one refinement pass, splits the segments that are no
        longer edges, floods the interior and tests every interior triangle.
        """
        # one insertion budget per mesh: each round gets what the rounds before it left
        budget = 40 * len(self.tr.fx) + int(20.0 * abs(polygon_area(self.poly)) / self.max_area) + 4000
        interior = self._interior(self._segment_sides())
        bad = list(compress(interior, self._bad(interior)))
        for _ in range(40):
            given = budget
            budget = self._refine_pass(bad, budget)
            sides = self._segment_sides()
            missing = list(compress(self.segs, sides[0] < 0))
            if any([self._split(seg) for seg in missing]):  # a list: every missing segment is split
                sides = self._segment_sides()
            interior = self._interior(sides)
            bad = list(compress(interior, self._bad(interior)))
            if not missing and not bad:
                return interior
            if budget == given and not missing:  # nothing placed
                break
        raise RuntimeError("mesh refinement did not converge")

    def _bad(self, tids) -> np.ndarray:
        """Whether each triangle is larger than ``max_area`` or has an angle below ``min_angle``."""
        fx, fy = self.tr.coords(self.tr.corners()[tids])
        ax, bx, cx = fx.T
        ay, by, cy = fy.T
        area = 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        l2a = (cx - bx) ** 2 + (cy - by) ** 2  # edge opposite a
        l2b = (cx - ax) ** 2 + (cy - ay) ** 2
        l2c = (bx - ax) ** 2 + (by - ay) ** 2
        # the smallest angle is opposite the shortest edge; sin(A) = 2*area/(b*c)
        l2min = np.minimum(np.minimum(l2a, l2b), l2c)
        denom = np.sqrt(np.where(l2min == l2a, l2b * l2c, np.where(l2min == l2b, l2a * l2c, l2a * l2b)))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.clip(2.0 * area / denom, -1.0, 1.0)
        ang = np.where(area <= 0, 0.0, np.degrees(np.arcsin(s)))
        return (area > self.max_area * (1.0 + 1e-12)) | (ang < self.min_angle - 1e-9)

    def _refinement_points(self, tid):
        """The circumcenter of ``tid`` (when defined), then the midpoint of its longest edge."""
        pts = self.tr.tri_coords(tid)
        p, q = max(
            ((pts[(k + 1) % 3], pts[(k + 2) % 3]) for k in range(3)),
            key=lambda e: (e[0][0] - e[1][0]) ** 2 + (e[0][1] - e[1][1]) ** 2,
        )
        mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
        cc = _circumcenter(*pts)
        return [mid] if cc is None else [cc, mid]

    def _place(self, tid, x, y) -> int:
        """Place the refinement point (x, y) of bad triangle ``tid`` (the rule above).

        Returns the number of points placed: the segments split, or 1 for
        an insertion, or 0 if the point could not be placed.
        """
        enc = self._encroached_by(x, y)
        if enc:
            placed = sum(self._split(seg) for seg in enc)
            if placed and self.tr.live[tid]:
                self.work.append(tid)
            return placed
        first = self.tr.next_tid
        _, cavity = self.tr.insert(x, y, hint=tid)
        if cavity is None:
            return 0
        # an insertion numbers its new triangles consecutively
        self.work.extend(range(first, self.tr.next_tid))
        return 1

    def _refine_pass(self, work, budget) -> int:
        """Place a point for each bad triangle of ``work`` in order; the bad ones
        among the triangles this wave queued are the next wave. A triangle's
        vertices never change after ``build``, so the waves visit the triangles
        of one first-in first-out queue that tests each when taking it out.
        Returns the part of the insertion ``budget`` left."""
        live = self.tr.live
        stall = set()
        while work:
            self.work = []
            for tid in work:
                if budget <= 0:
                    raise RuntimeError("mesh refinement exceeded its insertion budget")
                if not live[tid] or tid in stall:
                    continue
                placed = 0
                for x, y in self._refinement_points(tid):
                    placed = self._place(tid, x, y)
                    if placed:
                        break
                if placed:
                    budget -= placed
                else:
                    stall.add(tid)
            if budget <= 0 and self.work:  # the queue's next item would raise
                raise RuntimeError("mesh refinement exceeded its insertion budget")
            made = [t for t in self.work if live[t]]
            work = list(compress(made, self._bad(made)))
        return budget

    def extract(self, interior) -> TriMesh2D:
        if not interior:
            raise RuntimeError("triangulation produced no interior triangles")
        used, tris = np.unique(self.tr.corners()[np.sort(interior)], return_inverse=True)
        verts = np.column_stack(self.tr.coords(used))
        # refine() leaves every constraint segment an edge, so they are the mesh boundary
        flags = np.isin(used, self._seg_arrays()[0][:, 0])
        return TriMesh2D(verts, tris.reshape(-1, 3), flags)


class SmallAngleError(ValueError):
    """A contour corner is sharper than ``min_angle_deg``.

    Every triangle at that corner has a smaller angle, so no mesh meets the bound.
    """


def _check_corners(pts: np.ndarray, orientation: float, min_angle_deg: float) -> None:
    """Raise ``SmallAngleError`` for the first vertex whose interior angle is below ``min_angle_deg``.

    ``orientation`` is +1 for a counter-clockwise contour and -1 for a
    clockwise one; the tolerance is ``_Refiner._bad``'s.
    """
    to_next, to_prev = np.roll(pts, -1, axis=0) - pts, np.roll(pts, 1, axis=0) - pts
    cross = to_next[:, 0] * to_prev[:, 1] - to_next[:, 1] * to_prev[:, 0]
    angle = np.degrees(np.arctan2(orientation * cross, (to_next * to_prev).sum(axis=1))) % 360.0
    sharp = np.flatnonzero(angle < min_angle_deg - 1e-9)
    if sharp.size:
        raise SmallAngleError(
            f"contour vertex {int(sharp[0])} has an interior angle of {angle[sharp[0]]:.4g} deg, below "
            f"min_angle_deg {min_angle_deg:g}: no mesh can keep its angles at or above it"
        )


def triangulate(contour: Polyline, max_area_mm2: float, min_angle_deg: float = 20.0) -> TriMesh2D:
    """Constrained quality triangulation of a simple closed contour.

    Every contour vertex appears on the mesh boundary and the contour is
    preserved as the boundary (possibly subdivided). Interior refinement
    enforces triangle area <= ``max_area_mm2`` and minimum angle >=
    ``min_angle_deg``.

    Raises
    ------
    ValueError
        For open, self-intersecting, or degenerate contours; the
        self-intersection error names the first intersecting segment pair.
    SmallAngleError
        A ``ValueError`` raised before any point is inserted when a contour
        vertex's interior angle is below ``min_angle_deg``; it names the
        vertex, its angle and the bound.
    """
    if not isinstance(contour, Polyline) or not contour.closed:
        raise ValueError("triangulate requires a closed contour")
    if max_area_mm2 <= 0:
        raise ValueError("max_area must be positive")
    pts = contour.points
    hit = first_self_intersection(pts)
    if hit is not None:
        raise ValueError(
            f"contour is self-intersecting: segments {hit[0]} and {hit[1]} intersect"
        )
    area = polygon_area(pts)
    if area == 0:
        raise ValueError("contour encloses zero area")
    _check_corners(pts, np.sign(area), min_angle_deg)
    if area < 0:
        pts = pts[::-1]

    ref = _Refiner(np.asarray(pts, dtype=float), max_area_mm2, min_angle_deg)
    target_len = float(np.sqrt(max_area_mm2 * 4.0 / np.sqrt(3.0)))
    ref.initial_conformity()
    ref.presplit_long_segments(target_len)
    ref.seed_grid(target_len)
    ref.tr.build()
    return ref.extract(ref.refine())
