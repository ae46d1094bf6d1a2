"""Conforming 2D triangulations with red-green-blue adaptive refinement.

A :class:`Triangulation` stores vertices and positively oriented triangles and
derives the full side (edge) structure at construction time: a deterministic
global side ordering, side/triangle adjacency, canonical side normals, and
boundary labels (Dirichlet or Neumann per boundary side).

Conventions
-----------
* Sides are ordered lexicographically by their sorted vertex index pair
  ``(a, b)``, ``a < b``.  They are numbered through the int64 key
  ``a * nv + b`` (``nv`` vertices), whose numeric order is that
  lexicographic order; a mesh whose ``nv * nv`` does not fit in int64 is
  rejected.
* Every side has one or two incident triangles.  The canonical unit normal of
  an interior side points from the incident triangle with the *smaller* index
  toward the one with the larger index; boundary normals point outward.
* Refinement is red-green-blue: marked triangles are red-refined (all three
  side midpoints inserted), conformity is restored by green (one bisection) or
  blue (two bisections) closure, and every bisection uses the triangle's
  refinement edge -- its longest side, ties broken by smallest side index.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_LABEL_TO_CODE = {"D": DIRICHLET, "N": NEUMANN}
_CODE_TO_LABEL = {DIRICHLET: "D", NEUMANN: "N"}

# Absolute geometric tolerance (the domains are unit scale).
GEOM_TOL = 1e-12


class MeshError(ValueError):
    """Raised for invalid mesh input (non-conforming, degenerate, ...)."""


def _side_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _side_keys(pairs: np.ndarray, nv: int) -> np.ndarray:
    """int64 keys ``min * nv + max`` of the (n, 2) vertex pairs ``pairs``.

    Sorting the keys sorts the pairs lexicographically by their sorted
    vertex indices; ``keys // nv, keys % nv`` decodes them.
    """
    if nv * nv > np.iinfo(np.int64).max:
        raise MeshError(f"{nv} vertices: side keys overflow int64")
    return np.minimum(pairs[:, 0], pairs[:, 1]) * nv \
        + np.maximum(pairs[:, 0], pairs[:, 1])


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of the cross product of stacked 2D vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class Triangulation:
    """Immutable conforming triangle mesh with full side adjacency.

    Parameters
    ----------
    vertices : (nv, 2) float array of vertex coordinates.
    triangles : (nt, 3) int array of vertex indices, counterclockwise.
    boundary_labels : mapping from boundary vertex pairs to 'D'/'N' that
        names every boundary side exactly once, in either vertex order, or
        the string 'dirichlet' to label every boundary side Dirichlet.

    Attributes (all derived, treat as read-only)
    --------------------------------------------
    sides : (ns, 2) sorted vertex pairs, lexicographic order.
    tri_sides : (nt, 3) global side index of local side j = (v_j, v_{j+1}).
    side_tris : (ns, 2) incident triangles (t_minus, t_plus); t_plus = -1 on
        boundary sides.
    side_normals : (ns, 2) canonical unit normals (outward from t_minus).
    tri_side_orient : (nt, 3) +1 where the canonical normal is outward for
        that triangle, -1 otherwise.
    side_labels : (ns,) INTERIOR / DIRICHLET / NEUMANN codes.
    parent_elements : set by :func:`refine`; for each triangle the index of
        its ancestor in the refined mesh's source, else None.
    """

    def __init__(self, vertices, triangles, boundary_labels="dirichlet"):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise MeshError("triangle vertex index out of range")

        coords = self.vertices[self.triangles]
        e1 = coords[:, 1] - coords[:, 0]
        e2 = coords[:, 2] - coords[:, 0]
        signed = 0.5 * _cross2(e1, e2)
        # scale-invariant degeneracy test: deep local refinement produces
        # arbitrarily small (but well-shaped) triangles, so compare the area
        # against the squared edge length instead of an absolute threshold
        edge_sq = np.maximum(np.einsum("td,td->t", e1, e1),
                             np.einsum("td,td->t", e2, e2))
        if np.any(np.abs(signed) <= GEOM_TOL * edge_sq):
            raise MeshError("degenerate (zero-area) triangle")
        if np.any(signed < 0):
            raise MeshError("triangle with clockwise orientation")
        self.areas = signed

        nt = len(self.triangles)
        self.barycenters = coords.mean(axis=1)

        # Side structure: unique keys of the sorted vertex pairs.
        nv = len(self.vertices)
        raw = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        # One stable sort of the keys numbers the sides and, within each
        # side, lists its local sides 3 t + j by increasing triangle t.
        keys = _side_keys(raw, nv)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        side_keys = sorted_keys[first]
        self.sides = np.column_stack((side_keys // nv, side_keys % nv))
        ns = len(self.sides)
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        self.tri_sides = inverse.reshape(nt, 3)

        indptr = np.append(np.flatnonzero(first), len(keys))
        counts = np.diff(indptr)
        if np.any(counts > 2):
            raise MeshError("non-manifold input: side with >2 incident triangles")
        owner = order // 3
        t_minus = owner[indptr[:-1]]
        t_plus = np.where(counts == 2, owner[np.minimum(indptr[:-1] + 1, len(owner) - 1)], -1)
        self.side_tris = np.column_stack((t_minus, t_plus))

        # Canonical normal: outward from t_minus across its directed edge.
        loc = order[indptr[:-1]] % 3
        a = self.triangles[t_minus, loc]
        b = self.triangles[t_minus, (loc + 1) % 3]
        edge = self.vertices[b] - self.vertices[a]
        self.side_lengths = np.hypot(edge[:, 0], edge[:, 1])
        self.side_normals = np.column_stack((edge[:, 1], -edge[:, 0])) \
            / self.side_lengths[:, None]
        self.side_midpoints = 0.5 * (self.vertices[self.sides[:, 0]]
                                     + self.vertices[self.sides[:, 1]])
        self.tri_side_orient = np.where(
            self.side_tris[self.tri_sides, 0] == np.arange(nt)[:, None], 1.0, -1.0)
        self.diameters = self.side_lengths[self.tri_sides].max(axis=1)

        # Boundary labels.
        boundary = counts == 1
        self.side_labels = np.zeros(ns, dtype=np.int8)
        if isinstance(boundary_labels, str):
            if boundary_labels != "dirichlet":
                raise MeshError(f"unknown label shorthand {boundary_labels!r}")
            self.side_labels[boundary] = DIRICHLET
        else:
            labs = list(boundary_labels.values())
            pairs = np.array(list(boundary_labels.keys()),
                             dtype=np.int64).reshape(len(labs), 2)
            codes = np.array([_LABEL_TO_CODE.get(lab, INTERIOR) for lab in labs],
                             dtype=np.int8)
            keys = _side_keys(pairs, nv)
            # idx == ns past the last key; the appended entries cover it
            idx = np.searchsorted(side_keys, keys)
            missing = (np.append(side_keys, -1)[idx] != keys) \
                | (pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= nv)
            interior = ~missing & ~np.append(boundary, True)[idx]
            bad = missing | interior | (codes == INTERIOR)
            if np.any(bad):
                # report the first offending entry, in mapping order
                i = int(np.argmax(bad))
                key = _side_key(int(pairs[i, 0]), int(pairs[i, 1]))
                if missing[i]:
                    raise MeshError(f"labeled side {key} not present in mesh")
                if interior[i]:
                    raise MeshError(f"label on interior side {key}")
                raise MeshError(f"unknown boundary label {labs[i]!r}")
            twice = np.flatnonzero(np.bincount(idx, minlength=ns) > 1)
            if twice.size:
                side = tuple(self.sides[twice[0]].tolist())
                raise MeshError(f"side {side} labeled more than once")
            self.side_labels[idx] = codes
            unlabeled = boundary & (self.side_labels == INTERIOR)
            if np.any(unlabeled):
                miss = self.sides[np.flatnonzero(unlabeled)[0]]
                raise MeshError(f"unlabeled boundary side {tuple(miss)}")

        self.parent_elements: np.ndarray | None = None

    # -- basic counts -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_sides(self) -> int:
        return len(self.sides)

    # -- derived lookups ----------------------------------------------------

    @cached_property
    def triangle_coords(self) -> np.ndarray:
        """(nt, 3, 2) vertex coordinates per triangle."""
        return self.vertices[self.triangles]

    @cached_property
    def barycentric_gradients(self) -> np.ndarray:
        """(nt, 3, 2) gradients of the barycentric coordinate functions.

        ``barycentric_gradients[t, i]`` is the constant gradient of the hat
        coordinate that equals 1 at local vertex i of triangle t.
        """
        c = self.triangle_coords
        edge = c[:, [2, 0, 1]] - c[:, [1, 2, 0]]  # opposite edge of vertex i
        rot = np.stack((-edge[..., 1], edge[..., 0]), axis=-1)
        return rot / (2.0 * self.areas[:, None, None])

    @cached_property
    def cr_basis_gradients(self) -> np.ndarray:
        """(nt, 3, 2) gradients of the Crouzeix-Raviart basis functions.

        The basis function of local side j = (v_j, v_{j+1}) is
        ``1 - 2 lambda_{j+2}``, so its gradient is ``-2 grad lambda_{j+2}``.
        """
        return -2.0 * self.barycentric_gradients[:, [2, 0, 1], :]

    @cached_property
    def boundary_side_ids(self) -> np.ndarray:
        return np.flatnonzero(self.side_tris[:, 1] < 0)

    @cached_property
    def interior_side_ids(self) -> np.ndarray:
        return np.flatnonzero(self.side_tris[:, 1] >= 0)

    @cached_property
    def dirichlet_side_mask(self) -> np.ndarray:
        return self.side_labels == DIRICHLET

    @cached_property
    def dirichlet_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.sides[self.dirichlet_side_mask].ravel()] = True
        return mask

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        c = self.triangle_coords
        angles = []
        for i in range(3):
            u = c[:, (i + 1) % 3] - c[:, i]
            v = c[:, (i + 2) % 3] - c[:, i]
            cosang = np.einsum("td,td->t", u, v) / (
                np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1]))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        return float(np.min(angles))

    @cached_property
    def refinement_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-triangle refinement edge: (global side id, local index).

        The refinement edge is the longest side; equal lengths are resolved by
        the smaller global side id.
        """
        lengths = self.side_lengths[self.tri_sides]
        longest = lengths.max(axis=1, keepdims=True)
        candidates = np.where(lengths == longest, self.tri_sides,
                              np.iinfo(np.int64).max)
        ref_side = candidates.min(axis=1)
        ref_local = np.argmax(self.tri_sides == ref_side[:, None], axis=1)
        return ref_side, ref_local


# ---------------------------------------------------------------------------
# Mesh generators
# ---------------------------------------------------------------------------

def _grid_mesh(xs: np.ndarray, ys: np.ndarray, keep_cell) -> Triangulation:
    """Squares of a tensor grid split along the bottom-left/top-right diagonal."""
    nx, ny = len(xs) - 1, len(ys) - 1
    vid = -np.ones((len(xs), len(ys)), dtype=np.int64)
    verts: list[tuple[float, float]] = []
    tris: list[tuple[int, int, int]] = []

    def vertex(ix: int, iy: int) -> int:
        if vid[ix, iy] < 0:
            vid[ix, iy] = len(verts)
            verts.append((xs[ix], ys[iy]))
        return int(vid[ix, iy])

    for iy in range(ny):
        for ix in range(nx):
            if not keep_cell(xs[ix], ys[iy]):
                continue
            a = vertex(ix, iy)
            b = vertex(ix + 1, iy)
            c = vertex(ix + 1, iy + 1)
            d = vertex(ix, iy + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return Triangulation(np.array(verts), np.array(tris), "dirichlet")


def make_lshape_mesh() -> Triangulation:
    """Initial mesh of the L-shaped domain (-1,1)^2 minus [0,1]x[-1,0].

    The domain is covered by squares of side 1/4, each split along its
    bottom-left to top-right diagonal: 96 triangles, 65 vertices, and a fully
    Dirichlet boundary.
    """
    grid = np.linspace(-1.0, 1.0, 9)
    return _grid_mesh(grid, grid,
                      lambda x0, y0: not (x0 >= -GEOM_TOL and y0 <= -0.25 + GEOM_TOL))


def make_square_mesh(n: int = 1) -> Triangulation:
    """Unit square (0,1)^2 as n-by-n cells split along the diagonal."""
    grid = np.linspace(0.0, 1.0, n + 1)
    return _grid_mesh(grid, grid, lambda x0, y0: True)


# ---------------------------------------------------------------------------
# Red-green-blue refinement
# ---------------------------------------------------------------------------

_N_CHILDREN = np.array([1, 2, 3, 4])


def _refine_once(mesh: Triangulation, marked: np.ndarray) -> tuple[Triangulation, np.ndarray]:
    ts = mesh.tri_sides
    ref_side, ref_local = mesh.refinement_edges

    side_marked = np.zeros(mesh.num_sides, dtype=bool)
    side_marked[ts[marked].ravel()] = True
    # Closure: a triangle with any marked side must have its refinement edge
    # marked; iterate to the fixpoint.
    while True:
        touched = side_marked[ts].any(axis=1)
        need = touched & ~side_marked[ref_side]
        if not need.any():
            break
        side_marked[ref_side[need]] = True

    msides = np.flatnonzero(side_marked)
    nv = mesh.num_vertices
    new_vertex = np.full(mesh.num_sides, -1, dtype=np.int64)
    new_vertex[msides] = nv + np.arange(len(msides))
    new_verts = np.vstack([mesh.vertices, mesh.side_midpoints[msides]])

    nmark = side_marked[ts].sum(axis=1)

    # Rotate each triangle so that local side 0 is its refinement edge.
    nt = mesh.num_triangles
    idx = np.arange(nt)
    r = ref_local
    v0 = mesh.triangles[idx, r]
    v1 = mesh.triangles[idx, (r + 1) % 3]
    v2 = mesh.triangles[idx, (r + 2) % 3]
    s0 = ts[idx, r]
    s1 = ts[idx, (r + 1) % 3]
    s2 = ts[idx, (r + 2) % 3]
    m0 = new_vertex[s0]
    m1 = new_vertex[s1]
    m2 = new_vertex[s2]
    f1 = side_marked[s1]
    f2 = side_marked[s2]

    counts = _N_CHILDREN[nmark]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    children = np.empty((total, 3), dtype=np.int64)
    parents = np.repeat(idx, counts)

    def put(mask: np.ndarray, slot: int, tri_rows: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        rows = offsets[:-1][mask] + slot
        children[rows, 0] = tri_rows[0][mask]
        children[rows, 1] = tri_rows[1][mask]
        children[rows, 2] = tri_rows[2][mask]

    keep = nmark == 0
    put(keep, 0, (mesh.triangles[:, 0], mesh.triangles[:, 1], mesh.triangles[:, 2]))

    green = nmark == 1
    put(green, 0, (v0, m0, v2))
    put(green, 1, (m0, v1, v2))

    blue_r = (nmark == 2) & f1
    put(blue_r, 0, (v0, m0, v2))
    put(blue_r, 1, (m0, v1, m1))
    put(blue_r, 2, (m0, m1, v2))

    blue_l = (nmark == 2) & f2
    put(blue_l, 0, (m0, v1, v2))
    put(blue_l, 1, (v0, m0, m2))
    put(blue_l, 2, (m2, m0, v2))

    red = nmark == 3
    put(red, 0, (v0, m0, m2))
    put(red, 1, (m0, v1, m1))
    put(red, 2, (m2, m1, v2))
    put(red, 3, (m0, m1, m2))

    # Carry boundary labels: a split boundary side passes its label to both
    # halves through the inserted midpoint vertex.
    labels: dict[tuple[int, int], str] = {}
    for sid in mesh.boundary_side_ids:
        a, b = (int(x) for x in mesh.sides[sid])
        lab = _CODE_TO_LABEL[int(mesh.side_labels[sid])]
        if side_marked[sid]:
            m = int(new_vertex[sid])
            labels[_side_key(a, m)] = lab
            labels[_side_key(m, b)] = lab
        else:
            labels[_side_key(a, b)] = lab

    refined = Triangulation(new_verts, children, labels)
    return refined, parents


def refine(mesh: Triangulation, marked, interior_node: bool = False) -> Triangulation:
    """Red-green-blue refinement of the marked triangles.

    ``marked`` holds triangle ids (a sequence or an integer array).
    Marked triangles are red-refined (a new vertex on each of their sides);
    green/blue closure keeps the mesh conforming.  With ``interior_node=True``
    a second red pass refines the central child of every originally marked
    triangle, which places a vertex strictly inside each marked triangle.

    Returns a new :class:`Triangulation` whose ``parent_elements`` maps each
    child triangle to its ancestor in ``mesh``.  An empty marked set returns
    an (equal) copy.
    """
    marked_mask = np.zeros(mesh.num_triangles, dtype=bool)
    marked_mask[np.asarray(marked, dtype=np.int64)] = True

    refined, parents = _refine_once(mesh, marked_mask)
    if interior_node and marked_mask.any():
        # Central children sit in slot 3 of red-refined (= marked) parents.
        counts = np.bincount(parents, minlength=mesh.num_triangles)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        central = offsets[:-1][marked_mask & (counts == 4)] + 3
        central_mask = np.zeros(refined.num_triangles, dtype=bool)
        central_mask[central] = True
        refined2, parents2 = _refine_once(refined, central_mask)
        refined2.parent_elements = parents[parents2]
        return refined2
    refined.parent_elements = parents
    return refined


def uniform_refine(mesh: Triangulation, levels: int = 1) -> Triangulation:
    """Red-refine every triangle ``levels`` times."""
    out = mesh
    for _ in range(levels):
        out = refine(out, np.arange(out.num_triangles))
    return out


# ---------------------------------------------------------------------------
# Text format: line 1 "nv nt nb"; nv lines "x y"; nt lines "i j k" (0-based);
# nb lines "i j label" with label D or N.
# ---------------------------------------------------------------------------

def load_mesh(path) -> Triangulation:
    """Read a mesh from the plain text format (see module docstring)."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MeshError(f"{path}: empty mesh file")
    try:
        nv, nt, nb = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise MeshError(f"{path}: bad header line {lines[0]!r}") from exc
    if len(lines) != 1 + nv + nt + nb:
        raise MeshError(f"{path}: expected {1 + nv + nt + nb} lines, got {len(lines)}")
    try:
        verts = np.array([[float(t) for t in ln.split()] for ln in lines[1:1 + nv]])
        tris = np.array([[int(t) for t in ln.split()] for ln in lines[1 + nv:1 + nv + nt]])
    except ValueError as exc:
        raise MeshError(f"{path}: malformed vertex or triangle line") from exc
    if nv and verts.shape != (nv, 2):
        raise MeshError(f"{path}: vertex lines must hold two coordinates")
    if nt and tris.shape != (nt, 3):
        raise MeshError(f"{path}: triangle lines must hold three indices")
    labels: dict[tuple[int, int], str] = {}
    for ln in lines[1 + nv + nt:]:
        toks = ln.split()
        if len(toks) != 3 or toks[2] not in _LABEL_TO_CODE:
            raise MeshError(f"{path}: malformed boundary line {ln!r}")
        labels[_side_key(int(toks[0]), int(toks[1]))] = toks[2]
    if len(labels) != nb:
        raise MeshError(f"{path}: duplicate boundary side entries")
    return Triangulation(verts, tris, labels)


def save_mesh(mesh: Triangulation, path) -> None:
    """Write a mesh in the plain text format (inverse of :func:`load_mesh`)."""
    out = []
    nb = len(mesh.boundary_side_ids)
    out.append(f"{mesh.num_vertices} {mesh.num_triangles} {nb}")
    for x, y in mesh.vertices:
        out.append(f"{x:.17g} {y:.17g}")
    for i, j, k in mesh.triangles:
        out.append(f"{i} {j} {k}")
    for sid in mesh.boundary_side_ids:
        a, b = mesh.sides[sid]
        out.append(f"{a} {b} {_CODE_TO_LABEL[int(mesh.side_labels[sid])]}")
    Path(path).write_text("\n".join(out) + "\n")
