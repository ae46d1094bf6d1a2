"""Tests for P1 / Crouzeix-Raviart / Raviart-Thomas spaces and operations."""

from __future__ import annotations

import numpy as np
import pytest

from pdgap.fespaces import (CrFunction, P1Function, PwConstantVector, Rt0Field,
                            ibp_residual, node_average, project_pw,
                            prolong_cr, side_jump, vector_jump)
from pdgap.mesh import make_lshape_mesh, refine


def _affine(p):
    return 2.0 * p[..., 0] - 3.0 * p[..., 1] + 1.0


@pytest.fixture(scope="module")
def lshape():
    return make_lshape_mesh()


def test_affine_reproduction(lshape):
    m = lshape
    p1 = P1Function(m, _affine(m.vertices))
    cr = CrFunction(m, _affine(m.side_midpoints))
    assert np.allclose(p1.gradients(), [2.0, -3.0])
    assert np.allclose(cr.gradients(), [2.0, -3.0])
    assert np.allclose(p1.element_means(), _affine(m.barycenters))
    assert np.allclose(cr.element_means(), _affine(m.barycenters))
    assert np.allclose(cr.triangle_vertex_values(), _affine(m.triangle_coords))


def test_rt0_represents_global_linear_field(lshape):
    m = lshape
    const, slope, center = np.array([0.3, -1.1]), 0.7, np.array([0.2, 0.4])

    def field(p):
        return const + slope * (p - center)

    coeffs = np.einsum("sd,sd->s", field(m.side_midpoints), m.side_normals)
    z = Rt0Field(m, coeffs)
    assert np.allclose(z.element_means(), field(m.barycenters))
    assert np.allclose(z.divergence().values, 2.0 * slope)
    assert np.allclose(z.at_triangle_vertices(), field(m.triangle_coords))


def test_rt0_basis_normal_trace_is_kronecker(lshape):
    """Unit coefficient on one side gives unit normal trace there, zero on
    every other side (evaluated from the first incident triangle)."""
    m = lshape
    t_minus = m.side_tris[:, 0]
    for s0 in (0, 57, m.num_sides - 1):
        coeffs = np.zeros(m.num_sides)
        coeffs[s0] = 1.0
        a, b = Rt0Field(m, coeffs).element_linear()
        vals = a[t_minus] + b[t_minus, None] * (m.side_midpoints
                                                - m.barycenters[t_minus])
        trace = np.einsum("sd,sd->s", vals, m.side_normals)
        expected = np.zeros(m.num_sides)
        expected[s0] = 1.0
        assert np.allclose(trace, expected, atol=1e-13)


def test_rt0_normal_trace_constant_along_side(lshape):
    m = lshape
    rng = np.random.default_rng(5)
    z = Rt0Field(m, rng.standard_normal(m.num_sides))
    a, b = z.element_linear()
    t_minus = m.side_tris[:, 0]
    for endpoint in (0, 1):
        pts = m.vertices[m.sides[:, endpoint]]
        vals = a[t_minus] + b[t_minus, None] * (pts - m.barycenters[t_minus])
        trace = np.einsum("sd,sd->s", vals, m.side_normals)
        assert np.allclose(trace, z.coeffs, atol=1e-12)


def test_ibp_residual_vanishes(lshape):
    m = lshape
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(30):
        z = Rt0Field(m, rng.standard_normal(m.num_sides))
        v = CrFunction(m, rng.standard_normal(m.num_sides))
        w = P1Function(m, rng.standard_normal(m.num_vertices))
        worst = max(worst, abs(ibp_residual(z, v)), abs(ibp_residual(z, w)))
    assert worst < 1e-12


def test_cr_jumps_have_zero_side_means(lshape):
    m = lshape
    rng = np.random.default_rng(3)
    v = CrFunction(m, rng.standard_normal(m.num_sides))
    mean_jump = side_jump(v).mean(axis=1)
    assert np.abs(mean_jump[m.interior_side_ids]).max() < 1e-13
    # but the endpoint jumps themselves are generically nonzero
    assert np.abs(side_jump(v)[m.interior_side_ids]).max() > 0.1


def test_p1_jumps_vanish_identically(lshape):
    m = lshape
    rng = np.random.default_rng(4)
    w = P1Function(m, rng.standard_normal(m.num_vertices))
    assert np.abs(side_jump(w)[m.interior_side_ids]).max() == 0.0


def test_vector_jump_conventions(lshape):
    m = lshape
    q = PwConstantVector(m, np.tile([1.0, 2.0], (m.num_triangles, 1)))
    vj = vector_jump(q)
    assert np.allclose(vj[m.interior_side_ids], 0.0)
    assert np.allclose(vj[m.boundary_side_ids], [1.0, 2.0])


def test_node_average(lshape):
    m = lshape
    cr = CrFunction(m, _affine(m.side_midpoints))
    averaged = node_average(cr)
    assert np.allclose(averaged.values, _affine(m.vertices))
    rng = np.random.default_rng(6)
    v = CrFunction(m, rng.standard_normal(m.num_sides))
    forced = node_average(v, dirichlet_values=np.zeros(m.num_vertices))
    assert np.allclose(forced.values[m.dirichlet_vertex_mask], 0.0)
    # interior vertices: plain average of incident corner values
    corner = v.triangle_vertex_values()
    vid = int(np.flatnonzero(~m.dirichlet_vertex_mask)[0])
    inc = [(t, list(m.triangles[t]).index(vid))
           for t in np.flatnonzero((m.triangles == vid).any(axis=1))]
    manual = np.mean([corner[t, i] for t, i in inc])
    assert np.isclose(forced.values[vid], manual)


def test_project_pw(lshape):
    m = lshape
    assert np.allclose(project_pw(m, _affine).values, _affine(m.barycenters))
    const = project_pw(m, lambda p: np.ones(p.shape[:-1]))
    assert np.isclose(m.areas @ const.values, 3.0)


def test_prolongation_exact_for_members(lshape):
    m = lshape
    fine = refine(m, [0, 12, 40, 88])
    cr = CrFunction(m, _affine(m.side_midpoints))
    assert np.allclose(prolong_cr(cr, fine).values, _affine(fine.side_midpoints))
    # a general P1 member, written as a CR function, is prolonged exactly:
    # new vertices are coarse side midpoints, where it takes the side mean
    rng = np.random.default_rng(7)
    w = rng.standard_normal(m.num_vertices)
    side_mean = w[m.sides].mean(axis=1)
    at_midpoint = {tuple(x): v for x, v in zip(m.side_midpoints, side_mean)}
    fine_w = np.concatenate((w, [at_midpoint[tuple(x)]
                                 for x in fine.vertices[m.num_vertices:]]))
    fine_cr = prolong_cr(CrFunction(m, side_mean), fine)
    assert np.allclose(fine_cr.values, fine_w[fine.sides].mean(axis=1),
                       rtol=0.0, atol=1e-14)

    # random inputs over a few rounds of random marking, with and without
    # the interior node (whose parent map composes two refinement passes):
    # a child inherits its parent's affine function whenever each of its
    # sides takes its value from that parent.  That holds for every child
    # of a P1 member.  For a general CR function it holds where each side is
    # owned by a child of the same parent or is an unsplit coarse side; on a
    # half of a split side the two parents disagree, and prolong_cr takes
    # the value of the one that owns the side.
    for interior_node in (False, True):
        mesh = m
        for _ in range(3):
            marked = rng.choice(mesh.num_triangles,
                                size=max(1, mesh.num_triangles // 8),
                                replace=False)
            fine = refine(mesh, marked, interior_node=interior_node)
            parent = fine.parent_elements
            sides = fine.tri_sides
            own = parent[fine.side_tris[sides, 0]] == parent[:, None]
            unsplit = (fine.sides[sides] < mesh.num_vertices).all(axis=2)
            random_cr = rng.standard_normal(mesh.num_sides)
            p1_member = rng.standard_normal(mesh.num_vertices)[mesh.sides]
            for values, inherits in (
                    (random_cr, (own | unsplit).all(axis=1)),
                    (p1_member.mean(axis=1), np.ones(len(parent), bool))):
                v = CrFunction(mesh, values)
                w = prolong_cr(v, fine)
                grads = v.gradients()[parent]
                means = v.element_means()[parent] + np.einsum(
                    "td,td->t", grads,
                    fine.barycenters - mesh.barycenters[parent])
                assert np.count_nonzero(inherits) > len(marked)
                for got, want in ((w.gradients(), grads),
                                  (w.element_means(), means)):
                    assert np.allclose(got[inherits], want[inherits],
                                       rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())
            mesh = fine


def test_prolongation_requires_parent_map(lshape):
    other = make_lshape_mesh()
    v = CrFunction(lshape, np.zeros(lshape.num_sides))
    with pytest.raises(ValueError, match="parent"):
        prolong_cr(v, other)


def test_element_means_equal_numpy_mean():
    # the explicit three-term sum is bit-identical to .mean(axis=1)
    mesh = refine(make_lshape_mesh(), np.arange(0, 24, 2))
    rng = np.random.default_rng(11)
    p1 = P1Function(mesh, rng.standard_normal(mesh.num_vertices))
    cr = CrFunction(mesh, rng.standard_normal(mesh.num_sides))
    assert np.array_equal(p1.element_means(),
                          p1.values[mesh.triangles].mean(axis=1))
    assert np.array_equal(cr.element_means(),
                          cr.values[mesh.tri_sides].mean(axis=1))
