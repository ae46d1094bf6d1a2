"""Exactness checks for the triangle quadrature rules.

Oracle: the factorial formula for barycentric monomials,
``integral over T of l1^a l2^b l3^c = 2|T| a! b! c! / (a+b+c+2)!``.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from pdgap.mesh import make_lshape_mesh, uniform_refine
from pdgap.quadrature import RULE_ORDER4, RULE_ORDER8, integrate


def _exact_bary_monomial(a: int, b: int, c: int, area: float = 0.5) -> float:
    return 2.0 * area * math.factorial(a) * math.factorial(b) \
        * math.factorial(c) / math.factorial(a + b + c + 2)


def _rule_bary_monomial(rule, a: int, b: int, c: int, area: float = 0.5) -> float:
    lam = rule.barycentric
    vals = lam[:, 0] ** a * lam[:, 1] ** b * lam[:, 2] ** c
    return area * float(vals @ rule.weights)


def _max_monomial_error(rule, degree: int) -> float:
    worst = 0.0
    for a, b, c in product(range(degree + 1), repeat=3):
        if a + b + c != degree:
            continue
        err = abs(_rule_bary_monomial(rule, a, b, c)
                  - _exact_bary_monomial(a, b, c))
        worst = max(worst, err)
    return worst


def test_rules_are_partitions_of_unity():
    for rule in (RULE_ORDER4, RULE_ORDER8):
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        assert np.all(rule.weights > 0)
        assert np.allclose(rule.barycentric.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(rule.barycentric > 0)


def test_order4_rule_exact_through_degree_4():
    for degree in range(5):
        assert _max_monomial_error(RULE_ORDER4, degree) < 1e-14


def test_order4_rule_not_exact_at_degree_5():
    assert _max_monomial_error(RULE_ORDER4, 5) > 1e-6


def test_order8_rule_exact_through_degree_8():
    for degree in range(9):
        assert _max_monomial_error(RULE_ORDER8, degree) < 1e-13


def test_order8_rule_not_exact_at_degree_9():
    assert _max_monomial_error(RULE_ORDER8, 9) > 1e-8


def test_integrate_constant_and_centroid_on_mapped_triangle():
    verts = np.array([[[0.2, -0.1], [1.4, 0.3], [0.5, 1.1]]])
    area = 0.5 * abs((1.4 - 0.2) * (1.1 + 0.1) - (0.5 - 0.2) * (0.3 + 0.1))
    pts = RULE_ORDER4.points(verts)
    assert pts.shape == (1, RULE_ORDER4.npoints, 2)
    ones = np.ones(pts.shape[:2])
    assert np.isclose(integrate(RULE_ORDER4, np.array([area]), ones)[0], area)
    centroid = verts[0].mean(axis=0)
    got = integrate(RULE_ORDER4, np.array([area]), pts[..., 0])[0]
    assert np.isclose(got, area * centroid[0], atol=1e-14)


def test_rules_agree_on_low_degree_polynomial():
    rng = np.random.default_rng(3)
    verts = rng.uniform(-1, 1, size=(1, 3, 2))
    e1 = verts[0, 1] - verts[0, 0]
    e2 = verts[0, 2] - verts[0, 0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])

    def poly(p):
        x, y = p[..., 0], p[..., 1]
        return 1.0 + x - 2 * y + x * y ** 2 + 0.3 * x ** 4 - y ** 3

    a = integrate(RULE_ORDER4, np.array([area]), poly(RULE_ORDER4.points(verts)))
    b = integrate(RULE_ORDER8, np.array([area]), poly(RULE_ORDER8.points(verts)))
    assert np.isclose(a[0], b[0], rtol=0, atol=1e-14)


def test_points_bit_identical_to_einsum_mapping():
    coords = uniform_refine(make_lshape_mesh(), 2).triangle_coords
    rng = np.random.default_rng(8)
    for verts in (coords, rng.uniform(-1, 1, size=(4, 5, 3, 2)), coords[0]):
        for rule in (RULE_ORDER4, RULE_ORDER8):
            ref = np.einsum("qi,...id->...qd", rule.barycentric, verts)
            assert np.array_equal(rule.points(verts), ref)
