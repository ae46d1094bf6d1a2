"""Tests for the convex densities, their conjugates, and the flux map.

Conjugate oracle: a dense 1D grid maximization of ``s t - psi(t)`` over the
radial profile (the densities are radial, so the two-dimensional conjugate
reduces to one dimension).
"""

from __future__ import annotations

import numpy as np
import pytest

from pdgap.energy_models import (KAPPA, OptimalDesignDensity, PPowerDensity,
                                 _norm, check_fenchel_young, fmap)

P_VALUES = (1.2, 1.6, 2.0, 3.0)


def _conjugate_gradient(density, b) -> np.ndarray:
    """Closed-form ``Dphi*(b)`` of either density (off the design kink
    radius ``s*``): ``|b|^(q-2) b`` for p-power, ``b / mu2`` below ``s*``
    and ``b / mu1`` beyond it for optimal design."""
    b = np.asarray(b, dtype=float)
    r = np.sqrt(np.sum(b ** 2, axis=-1))
    if isinstance(density, PPowerDensity):
        scale = np.where(r > 0, r, 1.0) ** (density.q - 2.0)
    else:
        scale = np.where(r < density.s_star, 1.0 / density.mu2,
                         1.0 / density.mu1)
    return scale[..., None] * b


def _grid_sup_conjugate(psi, s: float, tmax: float, n: int = 400001) -> float:
    t = np.linspace(0.0, tmax, n)
    return float(np.max(s * t - psi(t)))


@pytest.mark.parametrize("p", P_VALUES)
def test_ppower_conjugate_against_grid_sup(p):
    d = PPowerDensity(p)
    worst = 0.0
    for s in np.linspace(0.05, 2.0, 21):
        tstar = s ** (d.q - 1.0)
        got = _grid_sup_conjugate(lambda t: t ** p / p, s, max(2.0 * tstar, 1.0))
        worst = max(worst, abs(got - s ** d.q / d.q))
    assert worst < 1e-6


def test_optimal_design_conjugate_against_grid_sup():
    od = OptimalDesignDensity()
    worst = 0.0
    for s in np.linspace(0.01, 1.0, 40):
        got = _grid_sup_conjugate(od.psi, s, 3.0)
        worst = max(worst, abs(got - od.psi_star(float(s))))
    assert worst < 1e-6


@pytest.mark.parametrize("p", P_VALUES)
def test_fenchel_young_ppower(p):
    d = PPowerDensity(p)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10000, 2)) * rng.uniform(0.01, 3.0, (10000, 1))
    b = rng.standard_normal((10000, 2)) * rng.uniform(0.01, 3.0, (10000, 1))
    assert check_fenchel_young(d, a, b).min() > -1e-12
    equality = check_fenchel_young(d, a, d.dphi(a))
    assert np.abs(equality).max() < 1e-9


def test_fenchel_young_optimal_design_incl_plateau():
    od = OptimalDesignDensity()
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10000, 2)) * rng.uniform(0.0, 0.5, (10000, 1))
    b = rng.standard_normal((10000, 2)) * rng.uniform(0.0, 1.0, (10000, 1))
    assert check_fenchel_young(od, a, b).min() > -1e-12
    assert np.abs(check_fenchel_young(od, a, od.dphi(a))).max() < 1e-9


@pytest.mark.parametrize("p", P_VALUES)
def test_conjugate_gradient_roundtrip(p):
    d = PPowerDensity(p)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((1000, 2)) * rng.uniform(0.05, 2.0, (1000, 1))
    assert np.abs(_conjugate_gradient(d, d.dphi(a)) - a).max() < 1e-10
    assert np.allclose(d.dphi(np.zeros(2)), 0.0)
    assert d.phi_star(np.zeros(2)) == 0.0


def test_optimal_design_profile_continuity():
    od = OptimalDesignDensity()
    assert np.isclose(od.t2, 2.0 * od.t1)
    eps = 1e-12
    for t0 in (od.t1, od.t2):
        below = float(od.psi(t0 * (1 - eps)))
        above = float(od.psi(t0 * (1 + eps)))
        assert abs(below - above) < 1e-10
        below = float(od.slope_ratio(t0 * (1 - eps)) * t0 * (1 - eps))
        above = float(od.slope_ratio(t0 * (1 + eps)) * t0 * (1 + eps))
        assert abs(below - above) < 1e-10
    s = od.s_star
    assert abs(od.psi_star(s * (1 - 1e-10)) - od.psi_star(s * (1 + 1e-10))) < 1e-10


def test_optimal_design_plateau_and_kink():
    od = OptimalDesignDensity()
    r_mid = 0.5 * (od.t1 + od.t2)
    a = np.array([r_mid, 0.0])
    b = od.dphi(a)
    assert np.isclose(np.hypot(*b), od.s_star)
    # off the kink, the conjugate gradient inverts the gradient
    for r in (0.5 * od.t1, 2.0 * od.t2):
        a = np.array([0.0, r])
        assert np.allclose(_conjugate_gradient(od, od.dphi(a)), a,
                           atol=1e-12)


def test_cocoercivity_bregman_form():
    """phi(a) - phi(b) - dphi(b).(a-b) >= |dphi(a) - dphi(b)|^2 / (2 L) with
    L the gradient Lipschitz modulus (mu2 for the design density, 1 for the
    quadratic density)."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10000, 2)) * rng.uniform(0.0, 0.6, (10000, 1))
    b = rng.standard_normal((10000, 2)) * rng.uniform(0.0, 0.6, (10000, 1))
    for d in (OptimalDesignDensity(), PPowerDensity(2.0)):
        bregman = d.phi(a) - d.phi(b) - np.sum(d.dphi(b) * (a - b), axis=-1)
        lower = np.sum((d.dphi(a) - d.dphi(b)) ** 2, axis=-1) \
            / (2.0 * d.grad_lipschitz)
        assert (bregman - lower).min() > -1e-12


@pytest.mark.parametrize("model", ["p1.6", "p2", "od"])
def test_hessian_matches_finite_differences(model):
    d = {"p1.6": PPowerDensity(1.6), "p2": PPowerDensity(2.0),
         "od": OptimalDesignDensity()}[model]
    rng = np.random.default_rng(4)
    h = 1e-7
    checked = 0
    while checked < 20:
        a = rng.standard_normal(2) * 0.5
        if isinstance(d, OptimalDesignDensity):
            r = np.hypot(*a)
            if min(abs(r - d.t1), abs(r - d.t2)) < 1e-3:
                continue  # Hessian jumps across the kink radii
        fd = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (d.dphi(a + e) - d.dphi(a - e)) / (2.0 * h)
        assert np.abs(fd - d.d2phi(a)).max() < 1e-5
        checked += 1


def test_regularized_hessian_finite_at_origin():
    d = PPowerDensity(1.2)
    hess = d.d2phi(np.zeros(2))
    assert np.all(np.isfinite(hess))
    assert np.allclose(hess, KAPPA ** (1.2 - 2.0) * np.eye(2))


def _ppower_hessian_outer_form(p, a):
    """``s^(p-2) I + (p-2) s^(p-4) a a^T`` through a broadcast identity and
    an outer product, the form the explicit 2x2 entries replaced."""
    s2 = np.sum(a ** 2, axis=-1) + KAPPA ** 2
    outer = a[..., :, None] * a[..., None, :]
    return (s2 ** (0.5 * p - 1.0))[..., None, None] * np.eye(2) \
        + (p - 2.0) * (s2 ** (0.5 * p - 2.0))[..., None, None] * outer


@pytest.mark.parametrize("p", [1.1, 1.2, 1.6, 2.0, 3.0])
def test_ppower_hessian_matches_outer_product_form(p):
    rng = np.random.default_rng(6)
    a = rng.normal(size=(50, 40, 2)) * 10.0 ** rng.uniform(-12, 3, (50, 40, 1))
    a[0, 0] = 0.0
    got = PPowerDensity(p).d2phi(a)
    ref = _ppower_hessian_outer_form(p, a)
    assert got.shape == ref.shape == (50, 40, 2, 2)
    assert np.array_equal(got, np.swapaxes(got, -1, -2))
    error = np.abs(got - ref).max(axis=(-2, -1))
    assert np.all(error <= 1e-14 * np.abs(ref).max(axis=(-2, -1)))
    if p == 2.0:  # the quadratic energy's Hessian is exactly the identity
        assert np.array_equal(got, np.broadcast_to(np.eye(2), got.shape))


def test_slope_ratio():
    d = PPowerDensity(1.6)
    t = np.array([0.0, 0.5, 2.0])
    assert np.allclose(d.slope_ratio(t)[1:], t[1:] ** (-0.4), rtol=1e-9)
    assert np.isfinite(d.slope_ratio(t)[0])
    od = OptimalDesignDensity()
    assert od.slope_ratio(0.0) == od.mu2
    assert np.isclose(od.slope_ratio(3.0 * od.t2), od.mu1)
    t_mid = 0.5 * (od.t1 + od.t2)
    assert np.isclose(od.slope_ratio(t_mid), od.s_star / t_mid)
    # slope_ratio(t) * t == psi'(t) away from zero and the kinks
    tt = np.linspace(0.01, 1.0, 50)
    h = 1e-6
    assert np.all(np.minimum(abs(tt - od.t1), abs(tt - od.t2)) > h)
    psi_prime = (od.psi(tt + h) - od.psi(tt - h)) / (2.0 * h)
    assert np.allclose(od.slope_ratio(tt) * tt, psi_prime, atol=1e-8)


def test_fmap():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((200, 2))
    for p in (1.2, 1.6, 2.0):
        F = fmap(p, a)
        # |F(a)|^2 = |a|^p, and F preserves direction
        assert np.allclose(np.sum(F ** 2, -1), np.sum(a ** 2, -1) ** (p / 2))
        cosine = np.sum(F * a, -1) / np.sqrt(np.sum(F ** 2, -1) * np.sum(a ** 2, -1))
        assert np.allclose(cosine, 1.0)
    assert np.allclose(fmap(1.6, np.zeros(2)), 0.0)



def test_norm_bit_identical_to_axis_sum():
    rng = np.random.default_rng(13)
    for shape in ((7, 2), (50, 3, 2), (2,)):
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        assert np.array_equal(_norm(a), np.sqrt(np.sum(a ** 2, axis=-1)))
