"""Independent references and the checks each workload runs.

Nothing here imports slq: every reference is a closed form, an exact
polynomial integral, scipy quadrature of an analytic derivative, or an
mpmath Bessel zero.  Each check returns a list of problems (empty when the
value passes), so a test can feed it a deliberately wrong value.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.linalg import eigh

# Tolerances of the repository's acceptance tests.
FORM_TOL = 1e-6          # forms, Green residuals, cross-path deviations
GBV_TOL = 1e-8           # classical boundary values at a regular endpoint
EIG_TOL_LP = 1e-5        # oscillator spectrum
EIG_TOL = 1e-6           # other spectra


def check_close(label, value, ref, tol):
    """|value - ref| <= tol (1 + |ref|)."""
    if not math.isfinite(abs(value)) \
            or abs(value - ref) > tol * (1.0 + abs(ref)):
        return [f"{label}: got {value!r}, want {ref!r} (tol {tol:g})"]
    return []


# -- Legendre on (-1, 1) ---------------------------------------------------


def legendre_friedrichs_gram(polys):
    """Exact int_{-1}^{1} (1 - x^2) f' g' dx for coefficient lists."""
    weight = [1.0, 0.0, -1.0]
    n = len(polys)
    out = np.empty((n, n))
    for i, f in enumerate(polys):
        for j, g in enumerate(polys):
            integrand = P.polymul(P.polymul(weight, P.polyder(f)),
                                  P.polyder(g))
            anti = P.polyint(integrand)
            out[i, j] = P.polyval(1.0, anti) - P.polyval(-1.0, anti)
    return out


def legendre_mass(polys):
    """Exact int_{-1}^{1} f g dx."""
    n = len(polys)
    out = np.empty((n, n))
    for i, f in enumerate(polys):
        for j, g in enumerate(polys):
            anti = P.polyint(P.polymul(f, g))
            out[i, j] = P.polyval(1.0, anti) - P.polyval(-1.0, anti)
    return out


def check_gram_against(label, gram, ref, tol=FORM_TOL):
    problems = []
    for (i, j), want in np.ndenumerate(ref):
        problems += check_close(f"{label}[{i},{j}]", gram[i][j], want, tol)
    return problems


def check_hermitian(label, gram, mirrored, tol=FORM_TOL):
    """q(f_i, f_j) = conj q(f_j, f_i): `mirrored` maps (i, j) to the
    separately evaluated q(f_j, f_i); diagonal entries must be real."""
    problems = []
    for (i, j), value in mirrored.items():
        problems += check_close(f"{label} hermitian [{i},{j}]", gram[i][j],
                           np.conj(value), tol)
    for i in range(len(gram)):
        problems += check_close(f"{label} diagonal [{i}] imaginary part",
                           np.imag(gram[i][i]), 0.0, tol)
    return problems


def check_legendre_ritz(gram, mass, tol=FORM_TOL):
    """Rayleigh-Ritz values of cubics for Legendre Friedrichs: n(n+1)."""
    vals = eigh(np.real(np.asarray(gram)), mass, eigvals_only=True)
    want = [n * (n + 1.0) for n in range(len(vals))]
    problems = []
    for n, (v, w) in enumerate(zip(sorted(vals), want)):
        problems += check_close(f"Ritz value {n}", float(v), w, tol)
    return problems


def check_gbv_pair(label, tilde, tilde_prime, want_tilde, want_prime=None,
                   tol=FORM_TOL):
    problems = check_close(f"{label} g~", tilde, want_tilde, tol)
    if want_prime is not None:
        problems += check_close(f"{label} g~'", tilde_prime, want_prime, tol)
    return problems


def check_residual(label, residual, tol=FORM_TOL):
    if not math.isfinite(abs(residual)) or abs(residual) > tol:
        return [f"{label}: residual {residual!r} exceeds {tol:g}"]
    return []


# -- free half-line (0, inf), -g'' ------------------------------------------


def bump(x, center, width):
    """exp(-1/(1 - t^2)), t = (x - center)/width, zero for |t| >= 1."""
    t = (x - center) / width
    if abs(t) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t * t))


def bump_d1(x, center, width):
    t = (x - center) / width
    if abs(t) >= 1.0:
        return 0.0
    s = 1.0 - t * t
    return math.exp(-1.0 / s) * (-2.0 * t / (s * s)) / width


def halfline_form(f, g, alpha):
    """int_0^inf f' g' dx - cot(alpha) f(0) g(0) for two bumps (c, w)."""
    hi = max(f[0] + f[1], g[0] + g[1])
    integral, _ = quad(lambda x: bump_d1(x, *f) * bump_d1(x, *g), 0.0, hi,
                       epsabs=1e-14, epsrel=1e-12, limit=200)
    return integral - bump(0.0, *f) * bump(0.0, *g) / math.tan(alpha)


def halfline_eigenvalue(alpha):
    """sin(a) g'(0) + cos(a) g(0) = 0 with g = exp(-k x): k = cot(a)."""
    return -1.0 / math.tan(alpha) ** 2


# -- spectra -----------------------------------------------------------------


def oscillator_eigenvalue(n):
    return 2.0 * n + 1.0


def bessel_eigenvalue(gamma, n):
    """j_{gamma,n}^2: Friedrichs eigenvalue of bessel(gamma) on (0, 1)."""
    import mpmath

    return float(mpmath.besseljzero(mpmath.mpf(gamma), n)) ** 2


def check_eigenvalues(label, found, want, tol):
    if len(found) != len(want):
        return [f"{label}: {len(found)} eigenvalues {found}, want {want}"]
    problems = []
    for k, (v, w) in enumerate(zip(found, want)):
        problems += check_close(f"{label} #{k}", v, w, tol)
    return problems


def grid_clearance(lmin, lmax, grid_per_unit, lam):
    """Distance from lam to the nearest point of the shooting scan grid, as
    a share of the grid step (the grid eigenvalues_shoot builds)."""
    n = max(8, int(math.ceil((lmax - lmin) * grid_per_unit)))
    grid = np.linspace(lmin, lmax, n + 1)
    step = (lmax - lmin) / n
    return float(np.min(np.abs(grid - lam))) / step
