"""Convex energy densities, their conjugates, and the p-power flux map.

Two radial densities ``phi(a) = psi(|a|)`` are provided:

* :class:`PPowerDensity`: ``phi(a) = |a|^p / p`` for 1 < p < infinity, with
  conjugate ``|b|^q / q`` (1/p + 1/q = 1) and a regularized Hessian for
  degenerate points.
* :class:`OptimalDesignDensity`: the convexified two-phase design density
  whose radial derivative grows linearly with slope ``mu2``, is constant on a
  plateau ``[t1, t2]``, and grows with slope ``mu1 < mu2`` beyond it.

All vector operations accept arrays of shape ``(..., 2)`` and are fully
vectorized.  ``slope_ratio`` returns ``psi'(t)/t``, the secant slope with
``Dphi(a) = (psi'(|a|)/|a|) a``; the flow solver floors the Hessian with
it.

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


class PPowerDensity:
    """``phi(a) = |a|^p / p`` with conjugate ``phi*(b) = |b|^q / q``."""

    def __init__(self, p: float):
        if not p > 1.0:
            raise ValueError("exponent p must exceed 1")
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

    def d2phi(self, a) -> np.ndarray:
        """Regularized Hessian ``s^(p-2) I + (p-2) s^(p-4) a a^T`` with
        ``s = sqrt(|a|^2 + kappa^2)``; symmetric positive definite."""
        a = np.asarray(a, dtype=float)
        a0, a1 = a[..., 0], a[..., 1]
        s2 = a0 ** 2 + a1 ** 2 + KAPPA ** 2
        diag = s2 ** (0.5 * self.p - 1.0)
        # (p - 2) s^(p-4), exactly zero at p = 2, so that D2phi is exactly I
        rank_one = (self.p - 2.0) * diag / s2
        out = np.empty(a.shape + (2,))
        out[..., 0, 0] = diag + rank_one * a0 ** 2
        out[..., 0, 1] = out[..., 1, 0] = rank_one * a0 * a1
        out[..., 1, 1] = diag + rank_one * a1 ** 2
        return out

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
        if not 0 < mu1 < mu2:
            raise ValueError("need 0 < mu1 < mu2")
        if lam <= 0:
            raise ValueError("need lam > 0")
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

    def d2phi(self, a) -> np.ndarray:
        """Piecewise Hessian: ``mu I`` on the quadratic branches and a
        rank-one-deficient tangential Hessian on the plateau."""
        a = np.asarray(a, dtype=float)
        r = _norm(a)
        mu = self.slope_ratio(r)
        eye = np.eye(2)
        hess = mu[..., None, None] * eye
        plateau = (r > self.t1) & (r <= self.t2)
        if np.any(plateau):
            with np.errstate(divide="ignore", invalid="ignore"):
                inv_r2 = np.where(r > 0, 1.0 / np.maximum(r, KAPPA) ** 2, 0.0)
            outer = a[..., :, None] * a[..., None, :]
            hess = hess - np.where(plateau[..., None, None],
                                   mu[..., None, None] * inv_r2[..., None, None]
                                   * outer, 0.0)
        return hess

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
    """Pointwise defect ``phi(a) + phi*(b) - a . b`` (nonnegative, and zero
    exactly when ``b`` is a subgradient of ``phi`` at ``a``)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return density.phi(a) + density.phi_star(b) - np.sum(a * b, axis=-1)
