"""Convex energy densities, their conjugates, and the p-power flux map.

Two radial densities ``phi(a) = psi(|a|)`` are provided:

* :class:`PPowerDensity`: ``phi(a) = |a|^p / p`` for 1 < p < infinity, with
  conjugate ``|b|^q / q`` (1/p + 1/q = 1) and a regularized Hessian for
  degenerate points.
* :class:`OptimalDesignDensity`: the convexified two-phase design density
  whose radial derivative grows linearly with slope ``mu2``, is constant on a
  plateau ``[t1, t2]``, and grows with slope ``mu1 < mu2`` beyond it.

All vector operations accept arrays of shape ``(..., 2)`` and are fully
vectorized.  ``slope_ratio`` returns ``s = psi'(t)/t``, with ``Dphi(a) =
s a``; ``d2phi(a, floor)`` is the Hessian at ``floor = 0`` and is floored
towards ``s I`` by :func:`_radial_hessian` for the flow solver.
:func:`check_fenchel_young` is the one Fenchel-Young defect; the
estimators and the optimality check read it.

The load term ``v -> -int f_h v`` needs no class: its conjugate is the
indicator of the constraint ``div z + f_h = 0``, which
:mod:`pdgap.estimators` tests.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PPowerDensity", "OptimalDesignDensity", "fmap", "check_fenchel_young",
]

# Regularization length for degenerate Hessians and slope ratios.
KAPPA = 1e-10


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, of length 2.  The two-term sum is
    bit-identical to ``np.sum(a ** 2, axis=-1)`` and avoids NumPy's slow
    reduction over a short axis."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(a[..., 0] ** 2 + a[..., 1] ** 2)


def _safe_radial(rad_of_norm: np.ndarray, a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Turn a radial factor g(|a|) into g(|a|)/|a| * a with 0 at the origin."""
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(r > 0, rad_of_norm / np.where(r > 0, r, 1.0), 0.0)
    return factor[..., None] * a


def _radial_hessian(a: np.ndarray, s, c, floor: float) -> np.ndarray:
    """``s I + (1 - floor) c a a^T``, that is ``D + floor (s I - D)`` for the
    radial Hessian ``D = s I + c a a^T`` with ``s = psi'(|a|)/|a|``.  The
    tangential eigenvalue ``s`` stays; the radial one, ``psi''``, moves to
    ``s`` as ``floor`` goes to 1, so for ``floor > 0`` the tensor is SPD also
    where ``psi'' = 0``: Newton's method with a Hessian modification
    (Nocedal and Wright, Numerical Optimization, 2006, Sec. 3.4)."""
    a0, a1 = a[..., 0], a[..., 1]
    c = (1.0 - floor) * c  # bit for bit c at floor 0
    out = np.empty(a.shape + (2,))
    out[..., 0, 0] = s + c * a0 ** 2
    out[..., 0, 1] = out[..., 1, 0] = c * a0 * a1
    out[..., 1, 1] = s + c * a1 ** 2
    return out


class PPowerDensity:
    """``phi(a) = |a|^p / p`` with conjugate ``phi*(b) = |b|^q / q``."""

    def __init__(self, p: float):
        if not 1.0 < p < np.inf:  # rejects NaN too
            raise ValueError("the exponent must be finite with p > 1")
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)
        # phi has a Lipschitz gradient (modulus 1) only in the quadratic case
        self.grad_lipschitz = 1.0 if self.p == 2.0 else None

    def phi(self, a) -> np.ndarray:
        return _norm(a) ** self.p / self.p

    def dphi(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        r = _norm(a)
        return _safe_radial(r ** (self.p - 1.0), a, r)

    def d2phi(self, a, floor: float = 0.0) -> np.ndarray:
        """Regularized Hessian ``r^(p-2) I + (p-2) r^(p-4) a a^T`` with
        ``r = sqrt(|a|^2 + kappa^2)``, floored by :func:`_radial_hessian`;
        symmetric positive definite."""
        a = np.asarray(a, dtype=float)
        r2 = a[..., 0] ** 2 + a[..., 1] ** 2 + KAPPA ** 2
        diag = r2 ** (0.5 * self.p - 1.0)
        # (p - 2) r^(p-4), exactly zero at p = 2, so that D2phi is exactly I
        return _radial_hessian(a, diag, (self.p - 2.0) * diag / r2, floor)

    def phi_star(self, b) -> np.ndarray:
        return _norm(b) ** self.q / self.q

    def slope_ratio(self, t) -> np.ndarray:
        """Regularized ``psi'(t)/t = (t^2 + kappa^2)^((p-2)/2)``."""
        t = np.asarray(t, dtype=float)
        return (t ** 2 + KAPPA ** 2) ** (0.5 * self.p - 1.0)


class OptimalDesignDensity:
    """Convexified two-phase design density.

    The radial profile has derivative ``psi'(t) = mu2 t`` on ``[0, t1]``,
    ``psi'(t) = mu2 t1`` on ``[t1, t2]`` and ``psi'(t) = mu1 t`` beyond
    ``t2 = (mu2/mu1) t1``, with ``t1 = sqrt(2 lam mu1 / mu2)``.  The conjugate
    is quadratic on either side of the kink radius ``s* = mu2 t1``:

        psi*(s) = s^2 / (2 mu2)                  for s <= s*,
        psi*(s) = s^2 / (2 mu1) - lam (mu2-mu1)  for s >= s*.
    """

    def __init__(self, mu1: float = 1.0, mu2: float = 2.0, lam: float = 0.0145):
        if not 0 < mu1 < mu2 < np.inf:  # rejects NaN too
            raise ValueError("need finite 0 < mu1 < mu2")
        if not 0 < lam < np.inf:
            raise ValueError("need a finite length-scale weight lam > 0")
        self.mu1, self.mu2, self.lam = float(mu1), float(mu2), float(lam)
        self.t1 = np.sqrt(2.0 * lam * mu1 / mu2)
        self.t2 = self.mu2 * self.t1 / self.mu1
        self.s_star = self.mu2 * self.t1
        # psi'' <= mu2 everywhere: the gradient is mu2-Lipschitz
        self.grad_lipschitz = self.mu2

    # -- radial profile -----------------------------------------------------

    def psi(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        mid = self.mu2 * self.t1 * (t - 0.5 * self.t1)
        hi = 0.5 * self.mu1 * t ** 2 + self.lam * (self.mu2 - self.mu1)
        return np.where(t <= self.t1, 0.5 * self.mu2 * t ** 2,
                        np.where(t <= self.t2, mid, hi))

    def psi_star(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        lo = 0.5 * s ** 2 / self.mu2
        hi = 0.5 * s ** 2 / self.mu1 - self.lam * (self.mu2 - self.mu1)
        return np.where(s <= self.s_star, lo, hi)

    # -- vector interface ---------------------------------------------------

    def phi(self, a) -> np.ndarray:
        return self.psi(_norm(a))

    def dphi(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return self.slope_ratio(_norm(a))[..., None] * a

    def d2phi(self, a, floor: float = 0.0) -> np.ndarray:
        """Piecewise Hessian, floored by :func:`_radial_hessian`: ``mu I`` on
        the quadratic branches and the tangential ``s (I - a a^T / |a|^2)``
        on the plateau, where ``psi'' = 0``."""
        a = np.asarray(a, dtype=float)
        r = _norm(a)
        s = self.slope_ratio(r)
        plateau = (r > self.t1) & (r <= self.t2)
        c = np.where(plateau, -s / np.maximum(r, KAPPA) ** 2, 0.0)
        return _radial_hessian(a, s, c, floor)

    def phi_star(self, b) -> np.ndarray:
        return self.psi_star(_norm(b))

    def slope_ratio(self, t) -> np.ndarray:
        """``psi'(t)/t``: mu2 below t1 (and at 0), mu2 t1 / t on the plateau,
        mu1 beyond t2."""
        t = np.asarray(t, dtype=float)
        plateau = self.mu2 * self.t1 / np.maximum(t, KAPPA)
        return np.where(t <= self.t1, self.mu2,
                        np.where(t <= self.t2, plateau, self.mu1))


def fmap(p: float, a) -> np.ndarray:
    """Nonlinear flux map ``F(a) = |a|^((p-2)/2) a`` (zero at the origin)."""
    a = np.asarray(a, dtype=float)
    r = _norm(a)
    return _safe_radial(r ** (0.5 * p), a, r)


def check_fenchel_young(density, a, b) -> np.ndarray:
    """Pointwise defect ``phi(a) - a . b + phi*(b)`` (nonnegative, and zero
    exactly when ``b`` is a subgradient of ``phi`` at ``a``)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (density.phi(a) - np.einsum("...d,...d->...", a, b)
            + density.phi_star(b))
