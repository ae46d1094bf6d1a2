"""Tests for triangulation construction and red-green-blue refinement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdgap.fespaces import CrFunction, prolong_cr
from pdgap.mesh import (DIRICHLET, INTERIOR, NEUMANN, MeshError,
                        Triangulation, _side_keys, load_mesh,
                        make_lshape_mesh, make_square_mesh, refine,
                        save_mesh, uniform_refine)

LSHAPE_AREA = 3.0
LSHAPE_PERIMETER = 8.0


@pytest.fixture(scope="module")
def lshape():
    return make_lshape_mesh()


def _check_structure(mesh, area=LSHAPE_AREA, perimeter=LSHAPE_PERIMETER):
    """Conformity oracles: Euler characteristic of a disk, exact area and
    boundary length, canonical adjacency and normal conventions."""
    assert mesh.num_vertices - mesh.num_sides + mesh.num_triangles == 1
    assert np.isclose(mesh.areas.sum(), area, atol=1e-12)
    assert np.isclose(mesh.side_lengths[mesh.boundary_side_ids].sum(),
                      perimeter, atol=1e-12)
    # sides sorted lexicographically, each pair sorted
    assert np.all(mesh.sides[:, 0] < mesh.sides[:, 1])
    order = np.lexsort((mesh.sides[:, 1], mesh.sides[:, 0]))
    assert np.array_equal(order, np.arange(mesh.num_sides))
    # interior adjacency ordered by triangle id
    interior = mesh.interior_side_ids
    assert np.all(mesh.side_tris[interior, 0] < mesh.side_tris[interior, 1])
    # unit normals pointing from t_minus toward t_plus
    assert np.allclose(np.hypot(*mesh.side_normals.T), 1.0, atol=1e-13)
    jump = mesh.barycenters[mesh.side_tris[interior, 1]] \
        - mesh.barycenters[mesh.side_tris[interior, 0]]
    assert np.all(np.einsum("sd,sd->s", jump, mesh.side_normals[interior]) > 0)
    # orientation signs turn canonical normals into outward normals
    out = mesh.tri_side_orient[..., None] * mesh.side_normals[mesh.tri_sides]
    to_mid = mesh.side_midpoints[mesh.tri_sides] - mesh.barycenters[:, None, :]
    assert np.all(np.einsum("tjd,tjd->tj", out, to_mid) > 0)
    # tri_sides matches the local vertex pairs
    for j in range(3):
        pair = np.sort(np.column_stack(
            [mesh.triangles[:, j], mesh.triangles[:, (j + 1) % 3]]), axis=1)
        assert np.array_equal(mesh.sides[mesh.tri_sides[:, j]], pair)


def test_lshape_counts(lshape):
    assert lshape.num_vertices == 65
    assert lshape.num_triangles == 96
    assert lshape.num_sides == 160
    assert len(lshape.boundary_side_ids) == 32
    assert np.all(lshape.side_labels[lshape.boundary_side_ids] == DIRICHLET)
    assert np.all(lshape.side_labels[lshape.interior_side_ids] == INTERIOR)
    _check_structure(lshape)


def test_lshape_is_right_isoceles(lshape):
    assert np.isclose(lshape.min_angle(), 45.0, atol=1e-10)
    assert np.allclose(lshape.areas, 1.0 / 32.0)


def test_square_mesh():
    sq = make_square_mesh(3)
    assert sq.num_vertices == 16
    assert sq.num_triangles == 18
    _check_structure(sq, area=1.0, perimeter=4.0)


def test_orientation_validation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="clockwise"):
        Triangulation(verts, np.array([[0, 2, 1]]))
    assert Triangulation(verts, np.array([[0, 1, 2]])).areas[0] > 0


def test_cr_basis_gradients():
    mesh = refine(make_lshape_mesh(), [3, 40, 77])
    grads = mesh.cr_basis_gradients
    assert np.array_equal(
        grads, -2.0 * mesh.barycentric_gradients[:, [2, 0, 1], :])
    # the CR basis functions of a triangle sum to one, and their gradients
    # reproduce the gradient of an affine function from its midpoint values
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)
    slope = np.array([0.7, -1.3])
    values = mesh.side_midpoints[mesh.tri_sides] @ slope + 0.25
    assert np.allclose(np.einsum("tj,tjd->td", values, grads), slope,
                       rtol=0.0, atol=1e-12)


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError, match="degenerate"):
        Triangulation(verts, np.array([[0, 1, 2]]))


def test_degeneracy_check_is_scale_invariant():
    # deep local refinement produces tiny but well-shaped triangles; they
    # must be accepted (area 5e-15 here), while collinearity at the same
    # scale must still be rejected
    tiny = 1e-7
    verts = tiny * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Triangulation(verts, np.array([[0, 1, 2]]))
    assert mesh.areas[0] == pytest.approx(0.5 * tiny ** 2)
    flat = tiny * np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-14]])
    with pytest.raises(MeshError, match="degenerate"):
        Triangulation(flat, np.array([[0, 1, 2]]))


def test_label_validation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    with pytest.raises(MeshError, match="interior side"):
        Triangulation(verts, tris, {(0, 1): "D", (1, 2): "D", (2, 3): "D",
                                    (0, 3): "D", (0, 2): "D"})
    with pytest.raises(MeshError, match="unlabeled"):
        Triangulation(verts, tris, {(0, 1): "D", (1, 2): "D", (2, 3): "D"})
    with pytest.raises(MeshError, match="unknown boundary label"):
        Triangulation(verts, tris, {(0, 1): "X", (1, 2): "D", (2, 3): "D",
                                    (0, 3): "D"})
    with pytest.raises(MeshError, match=r"\(0, 5\) not present in mesh"):
        Triangulation(verts, tris, {(0, 1): "D", (1, 2): "D", (2, 3): "D",
                                    (0, 3): "D", (5, 0): "D"})
    # (0, 6) must not alias side (1, 2) through its key 0 * 4 + 6 = 1 * 4 + 2
    with pytest.raises(MeshError, match=r"\(0, 6\) not present in mesh"):
        Triangulation(verts, tris, {(0, 1): "D", (0, 6): "D", (2, 3): "D",
                                    (0, 3): "D"})
    with pytest.raises(MeshError, match=r"\(1, 2\) labeled more than once"):
        Triangulation(verts, tris, {(0, 1): "D", (1, 2): "D", (2, 3): "D",
                                    (0, 3): "D", (2, 1): "N"})
    mixed = Triangulation(verts, tris, {(0, 1): "D", (1, 2): "N", (2, 3): "D",
                                        (0, 3): "N"})
    assert sorted(mixed.side_labels[mixed.boundary_side_ids]) == \
        [DIRICHLET, DIRICHLET, NEUMANN, NEUMANN]


def test_refinement_edge_is_longest_side(lshape):
    ref_side, ref_local = lshape.refinement_edges
    lengths = lshape.side_lengths[lshape.tri_sides]
    assert np.allclose(lshape.side_lengths[ref_side], lengths.max(axis=1))
    assert np.all(lshape.tri_sides[np.arange(96), ref_local] == ref_side)


def test_refinement_edge_tie_break_smallest_side_id():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    tri = Triangulation(verts, np.array([[0, 1, 2]]),
                        {(0, 1): "D", (1, 2): "D", (0, 2): "D"})
    ref_side, _ = tri.refinement_edges
    assert ref_side[0] == 0  # all sides equal; side (0,1) has the lowest id


def test_refine_empty_marked_returns_copy(lshape):
    out = refine(lshape, [])
    assert np.array_equal(out.triangles, lshape.triangles)
    assert np.array_equal(out.vertices, lshape.vertices)
    assert np.array_equal(out.parent_elements, np.arange(96))


def _assert_children_inside_parents(parent, child):
    coords = parent.triangle_coords[child.parent_elements]
    p = child.barycenters[:, None, :]
    a, b = coords, np.roll(coords, -1, axis=1)
    cross = (b[..., 0] - a[..., 0]) * (p[..., 1] - a[..., 1]) \
        - (b[..., 1] - a[..., 1]) * (p[..., 0] - a[..., 0])
    assert np.all(cross > -1e-12)


def test_refine_single_triangle(lshape):
    out = refine(lshape, [0])
    _check_structure(out)
    assert out.min_angle() > 44.9  # right-isoceles children stay right-isoceles
    assert np.array_equal(out.vertices[:65], lshape.vertices)
    _assert_children_inside_parents(lshape, out)
    # marked triangle produced four children
    assert np.count_nonzero(out.parent_elements == 0) == 4
    kids = np.flatnonzero(out.parent_elements == 0)
    assert np.allclose(out.areas[kids], lshape.areas[0] / 4)


def test_uniform_refine(lshape):
    out = uniform_refine(lshape, 2)
    assert out.num_triangles == 96 * 16
    _check_structure(out)
    assert np.isclose(out.min_angle(), 45.0, atol=1e-10)


def test_random_adaptive_refinements_stay_conforming(lshape):
    rng = np.random.default_rng(7)
    mesh = lshape
    for _ in range(5):
        marked = rng.choice(mesh.num_triangles,
                            size=max(1, mesh.num_triangles // 8), replace=False)
        refined = refine(mesh, marked)
        _check_structure(refined)
        assert np.isclose(refined.min_angle(), 45.0, atol=1e-10)
        _assert_children_inside_parents(mesh, refined)
        # every marked triangle was fully (red) refined
        n_children = np.bincount(refined.parent_elements,
                                 minlength=mesh.num_triangles)
        assert np.all(n_children[marked] == 4)
        mesh = refined


def test_refine_is_deterministic(lshape):
    a = refine(make_lshape_mesh(), [3, 8, 40])
    b = refine(make_lshape_mesh(), [3, 8, 40])
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.side_labels, b.side_labels)


def test_interior_node_refinement(lshape):
    marked = [10, 50]
    out = refine(lshape, marked, interior_node=True)
    _check_structure(out)
    _assert_children_inside_parents(lshape, out)
    # each marked triangle received at least one strictly interior new vertex
    def cross2(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    for t in marked:
        a, b, c = lshape.triangle_coords[t]
        newv = out.vertices[lshape.num_vertices:]
        d0 = cross2(b - a, newv - a)
        d1 = cross2(c - b, newv - b)
        d2 = cross2(a - c, newv - c)
        strictly_inside = (d0 > 1e-13) & (d1 > 1e-13) & (d2 > 1e-13)
        assert strictly_inside.any()


def test_save_load_roundtrip(tmp_path, lshape):
    refined = refine(lshape, [4, 9])
    path = tmp_path / "mesh.txt"
    save_mesh(refined, path)
    back = load_mesh(path)
    assert np.array_equal(back.triangles, refined.triangles)
    assert np.allclose(back.vertices, refined.vertices, atol=0)
    assert np.array_equal(back.side_labels, refined.side_labels)


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1 9\n0 0\n1 0\n0 1\n0 1 2\n0 1 D\n1 2 D\n0 2 D\n")
    with pytest.raises(MeshError, match="expected"):
        load_mesh(bad)
    bad.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 D\n1 2 Q\n0 2 D\n")
    with pytest.raises(MeshError, match="malformed boundary"):
        load_mesh(bad)


def test_vertex_in_no_triangle_rejected():
    # a vertex that no triangle uses has no gradient, no average and a zero
    # row in every P1 system
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    with pytest.raises(MeshError, match="vertex 3 is in no triangle"):
        Triangulation(verts, np.array([[0, 1, 2]]))
    verts[[1, 3]] = verts[[3, 1]]
    with pytest.raises(MeshError, match="vertex 1 is in no triangle"):
        Triangulation(verts, np.array([[0, 3, 2]]))


def test_nonmanifold_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                      [1.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
    with pytest.raises(MeshError, match="non-manifold"):
        Triangulation(verts, tris)


def test_side_keys_order_decode_and_overflow_guard():
    nv = 2 ** 31  # keys up to 2**62 still fit in int64
    pairs = np.array([[nv - 1, 3], [0, nv - 1], [3, nv - 2], [2, 1]])
    keys = _side_keys(pairs, nv)
    decoded = np.column_stack((keys // nv, keys % nv))
    assert np.array_equal(decoded, np.sort(pairs, axis=1))
    order = np.lexsort((decoded[:, 1], decoded[:, 0]))
    assert np.array_equal(np.argsort(keys), order)
    with pytest.raises(MeshError, match="overflow"):
        _side_keys(pairs, 2 ** 32)


# ---------------------------------------------------------------------------
# Properties of refinement on relabelled L-shape meshes
# ---------------------------------------------------------------------------

_LSHAPE = make_lshape_mesh()


def _reference_side_structure(triangles):
    """Sides by ``np.unique(axis=0)`` and their triangles by a plain loop."""
    raw = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    sides, inverse = np.unique(np.sort(raw, axis=1), axis=0,
                               return_inverse=True)
    tri_sides = inverse.reshape(-1, 3)
    incident = [[] for _ in range(len(sides))]
    for t, row in enumerate(tri_sides):
        for s in row:
            incident[s].append(t)
    side_tris = np.array([ts + [-1] * (2 - len(ts)) for ts in incident])
    return sides, tri_sides, side_tris


def _on_lshape_boundary(points, tol=1e-12):
    x, y = points[:, 0], points[:, 1]
    outer = (np.abs(np.abs(x) - 1.0) <= tol) | (np.abs(np.abs(y) - 1.0) <= tol)
    notch = ((np.abs(x) <= tol) & (y <= tol)) | ((np.abs(y) <= tol) & (x >= -tol))
    return outer | notch


def _containing_side(mesh, points, side_ids, tol=1e-12):
    """For each point, the one side among ``side_ids`` whose segment holds it."""
    a = mesh.vertices[mesh.sides[side_ids, 0]]
    b = mesh.vertices[mesh.sides[side_ids, 1]]
    rel = points[:, None, :] - a[None]
    edge = (b - a)[None]
    cross = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
    along = np.einsum("psd,psd->ps", rel, edge) / np.einsum("psd,psd->ps",
                                                             edge, edge)
    hit = (np.abs(cross) <= tol) & (along >= -tol) & (along <= 1.0 + tol)
    assert np.all(hit.sum(axis=1) == 1)
    return side_ids[np.argmax(hit, axis=1)]


@st.composite
def _relabelled_lshapes(draw):
    """The L-shape mesh with permuted vertex and triangle numbers (each
    triangle keeps its counterclockwise order) and random D/N labels."""
    order = np.array(draw(st.permutations(range(_LSHAPE.num_vertices))))
    new_id = np.argsort(order)
    triangles = new_id[_LSHAPE.triangles][
        np.array(draw(st.permutations(range(_LSHAPE.num_triangles))))]
    boundary = _LSHAPE.sides[_LSHAPE.boundary_side_ids]
    labels = draw(st.lists(st.sampled_from("DN"), min_size=len(boundary),
                           max_size=len(boundary)))
    return Triangulation(_LSHAPE.vertices[order], triangles, {
        tuple(sorted(new_id[pair].tolist())): lab
        for pair, lab in zip(boundary, labels)})


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(mesh=_relabelled_lshapes(), data=st.data())
def test_refine_properties_on_relabelled_lshape(mesh, data):
    for _ in range(2):
        marked = data.draw(st.sets(st.integers(0, mesh.num_triangles - 1),
                                   min_size=1, max_size=12), label="marked")
        fine = refine(mesh, sorted(marked))
        _check_structure(fine)
        _assert_children_inside_parents(mesh, fine)

        # conforming: a side has one triangle exactly when it lies on the
        # boundary, so no vertex hangs on an interior side
        on_boundary = _on_lshape_boundary(fine.side_midpoints)
        assert np.array_equal(fine.side_tris[:, 1] < 0, on_boundary)

        # side numbering and adjacency as the np.unique(axis=0) reference
        sides, tri_sides, side_tris = _reference_side_structure(fine.triangles)
        assert np.array_equal(fine.sides, sides)
        assert np.array_equal(fine.tri_sides, tri_sides)
        assert np.array_equal(fine.side_tris, side_tris)

        # children tile their parent
        child_area = np.bincount(fine.parent_elements, weights=fine.areas,
                                 minlength=mesh.num_triangles)
        assert np.allclose(child_area, mesh.areas, rtol=1e-13, atol=0.0)

        # each half of a split boundary side keeps the side's label
        bsides = fine.boundary_side_ids
        source = _containing_side(mesh, fine.side_midpoints[bsides],
                                  mesh.boundary_side_ids)
        assert np.array_equal(fine.side_labels[bsides],
                              mesh.side_labels[source])

        # prolong_cr reproduces a coarse P1 function at the fine midpoints
        vals = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=mesh.num_vertices,
            max_size=mesh.num_vertices), label="p1 values"))
        coarse = CrFunction(mesh, vals[mesh.sides].mean(axis=1))
        parent = fine.parent_elements[fine.side_tris[:, 0]]
        lam = 1.0 / 3.0 + np.einsum(
            "sjd,sd->sj", mesh.barycentric_gradients[parent],
            fine.side_midpoints - mesh.barycenters[parent])
        exact = np.einsum("sj,sj->s", lam, vals[mesh.triangles[parent]])
        assert np.allclose(prolong_cr(coarse, fine).values, exact,
                           rtol=0.0, atol=1e-13)
        mesh = fine
