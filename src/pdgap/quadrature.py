"""Symmetric Gauss quadrature rules on triangles.

Rules are stored in barycentric coordinates with weights normalized to sum to
one, so that ``integral ~= area * sum(w_q * g(x_q))``.  The 6-point rule is
exact for polynomials of total degree <= 4 and is the workhorse rule for all
non-polynomial integrands; the 16-point rule is exact through degree 8 and
serves as the higher-order cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriangleRule:
    """A quadrature rule on the triangle in barycentric form.

    Attributes
    ----------
    barycentric : (nq, 3) array of barycentric point coordinates.
    weights : (nq,) array of weights, summing to 1 (area-normalized).
    degree : highest polynomial degree integrated exactly.
    """

    barycentric: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def npoints(self) -> int:
        return len(self.weights)

    def points(self, vertices: np.ndarray) -> np.ndarray:
        """Map the rule points into physical triangles.

        Parameters
        ----------
        vertices : (..., 3, 2) array of triangle vertex coordinates.

        Returns
        -------
        (..., nq, 2) array of quadrature point coordinates.
        """
        # one point at a time on contiguous vertex planes, summed as
        # l0 v0 + l1 v1 + l2 v2 without fused multiply-adds: the points of
        # the einsum mapping bit for bit (a matmul may differ in the last
        # bit), at a third of the time of broadcasting all points at once
        planes = np.moveaxis(vertices, -2, 0).copy()
        out = np.empty((self.npoints,) + planes.shape[1:])
        term = np.empty(planes.shape[1:])
        for point, (l0, l1, l2) in zip(out, self.barycentric):
            np.multiply(planes[0], l0, out=point)
            point += np.multiply(planes[1], l1, out=term)
            point += np.multiply(planes[2], l2, out=term)
        return np.ascontiguousarray(np.moveaxis(out, 0, -2))


def _orbit3(repeated: float) -> list[tuple[float, float, float]]:
    """3-orbit of a point with two barycentric coordinates equal."""
    a, c = repeated, 1.0 - 2.0 * repeated
    return [(c, a, a), (a, c, a), (a, a, c)]


def _orbit6(a: float, b: float) -> list[tuple[float, float, float]]:
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _make_rule(groups: list[tuple[list[tuple[float, float, float]], float]],
               degree: int) -> TriangleRule:
    pts = [p for orbit, _ in groups for p in orbit]
    wts = [w for orbit, w in groups for _ in orbit]
    return TriangleRule(np.array(pts, dtype=float), np.array(wts, dtype=float),
                        degree)


# Degree-4 exact, 6 points (two symmetric 3-orbits).
RULE_ORDER4 = _make_rule(
    [
        (_orbit3(0.445948490915965), 0.223381589678011),
        (_orbit3(0.091576213509771), 0.109951743655322),
    ],
    degree=4,
)

# Degree-8 exact, 16 points.  The orbit weights were re-solved from the orbit
# points by least squares against exact monomial integrals (residual ~1e-15),
# which removes transcription risk in the trailing digits.
RULE_ORDER8 = _make_rule(
    [
        ([(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)], 0.14431560767778573),
        (_orbit3((1.0 - 0.081414823414554) / 2.0), 0.095091634267284897),
        (_orbit3((1.0 - 0.658861384496480) / 2.0), 0.10321737053471795),
        (_orbit3((1.0 - 0.898905543365938) / 2.0), 0.032458497623198142),
        (_orbit6(0.008394777409958, 0.263112829634638), 0.02723031417443484),
    ],
    degree=8,
)


def integrate(rule: TriangleRule, areas: np.ndarray,
              values_at_points: np.ndarray) -> np.ndarray:
    """Per-element integrals from point values.

    Parameters
    ----------
    areas : (nt,) element areas.
    values_at_points : (nt, nq) integrand values at ``rule.points``.

    Returns
    -------
    (nt,) per-element integrals.
    """
    return areas * (values_at_points @ rule.weights)
