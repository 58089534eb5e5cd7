"""Solution bases: classical at regular endpoints, reduction of order at
singular ones, Wronskian normalization, principal/nonprincipal ordering;
segment lookup of marched trajectories."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slq.errors import EvaluationOutsideSupport
from slq.odecore import StepTable, wronskian
from slq.problem import catalog
from slq.quadrature import geometric_points
from slq.solutions import (
    ReductionSolution,
    ScaledSolution,
    construct_basis,
    rescaled_march,
)


def _wronskian_samples(basis, n=50):
    lo, hi = basis.trust_interval
    xs = np.linspace(lo, hi, n)
    return [wronskian(basis.u_hat, basis.u, x) for x in xs]


@pytest.mark.parametrize("which", ["a", "b"])
def test_regular_basis_classical_values(dirichlet_bases, dirichlet, which):
    basis = dirichlet_bases[0 if which == "a" else 1]
    end = basis.endpoint_value
    assert basis.regular
    uu, uu1 = basis.u.pair(end)
    hu, hu1 = basis.u_hat.pair(end)
    assert uu == pytest.approx(0.0, abs=1e-12)
    assert uu1 == pytest.approx(1.0, abs=1e-12)
    assert hu == pytest.approx(1.0, abs=1e-12)
    assert hu1 == pytest.approx(0.0, abs=1e-12)


def test_wronskian_normalized_regular(dirichlet_bases):
    for basis in dirichlet_bases:
        ws = _wronskian_samples(basis)
        assert max(abs(w - 1.0) for w in ws) < 1e-8


def test_wronskian_normalized_legendre(legendre_bases):
    for basis in legendre_bases:
        ws = _wronskian_samples(basis)
        assert max(abs(w - 1.0) for w in ws) < 1e-8


def test_wronskian_normalized_free_halfline(free_halfline_bases):
    for basis in free_halfline_bases:
        ws = _wronskian_samples(basis)
        assert max(abs(w - 1.0) for w in ws) < 1e-8


def test_wronskian_normalized_oscillator(oscillator_bases):
    for basis in oscillator_bases:
        ws = _wronskian_samples(basis)
        assert max(abs(w - 1.0) for w in ws) < 1e-8


def test_principal_dominated_by_nonprincipal(legendre_bases):
    # |u / u_hat| -> 0 toward the endpoint: the principal solution is the
    # small one.
    for basis in legendre_bases:
        end = basis.endpoint_value
        x_near = end - basis.toward() * 1e-9
        x_far = basis.nonvanish_bound
        r_near = abs(basis.u(x_near) / basis.u_hat(x_near))
        # Compare via cross products: u_hat may vanish at interior points.
        dominated = abs(basis.u(x_near) * basis.u_hat(x_far)) \
            < 1e-3 * abs(basis.u(x_far) * basis.u_hat(x_near))
        assert dominated or r_near < 1e-12


def test_free_halfline_principal_is_bounded(free_halfline_bases):
    # At infinity the constant solution is principal, x is nonprincipal.
    basis = free_halfline_bases[1]
    x1, x2 = 10.0, 100.0
    ratio1 = abs(basis.u(x1) / basis.u_hat(x1))
    ratio2 = abs(basis.u(x2) / basis.u_hat(x2))
    assert ratio2 < ratio1


def test_trust_interval_brackets_anchor(oscillator_bases):
    for basis in oscillator_bases:
        lo, hi = basis.trust_interval
        assert lo <= basis.anchor <= hi


def test_reduction_tail_gives_the_principal_power():
    # bessel(0.3) at lambda0 = 0 has the solutions x^0.8 (principal at 0)
    # and x^0.2.  The march gives the nonprincipal one, so u is w T with T
    # from the reduction tail: u x^-0.8 and u^[1] x^0.2 / 0.8 are constant.
    basis = construct_basis(catalog("bessel(0.3)"), "a")
    assert isinstance(basis.u, ReductionSolution)
    xs = np.geomspace(1e-9, 0.9 * basis.anchor, 200)
    for scaled in ([basis.u.pair(x)[0] * x ** -0.8 for x in xs],
                   [basis.u.pair(x)[1] * x ** 0.2 / 0.8 for x in xs]):
        assert max(abs(v / scaled[-1] - 1.0) for v in scaled) < 1e-9


# -- segment lookup -----------------------------------------------------------


def _segment(t0, t1):
    """A one-step RK45 table from t0 to t1 of u = x, u^[1] = 1: the RK45
    interpolant of u' = u^[1], u^[1]' = 0 from u(t0) = t0."""
    h = t1 - t0
    return StepTable([t0, t1], [[t0, h, t0, 1.0, 0.0, 0.0, 0.0,
                                 1.0, 0.0, 0.0, 0.0, 0.0]], 4)


def _trajectory(*edges):
    """Segments in the order given; segment k carries log scale k, so the
    scale returned by log_pair names the segment that answered."""
    traj = ScaledSolution(0.0)
    for k, (t0, t1) in enumerate(edges):
        traj.add_segment(_segment(t0, t1), float(k))
    return traj


def _which(traj, x):
    return int(traj.log_pair(x)[2])


def test_lookup_shared_edge_takes_first_inserted():
    assert _which(_trajectory((0.0, 1.0), (1.0, 2.0)), 1.0) == 0
    assert _which(_trajectory((1.0, 2.0), (0.0, 1.0)), 1.0) == 0
    traj = _trajectory((0.0, 1.0), (1.0, 2.0))
    assert [_which(traj, x) for x in (0.0, 0.5, 1.5, 2.0)] == [0, 0, 1, 1]


def test_lookup_back_march_after_forward_march():
    # Forward legs from the anchor 0.5 toward 1, then a back-march from
    # the anchor toward 0 whose segments run right to left.
    traj = _trajectory((0.5, 0.7), (0.7, 0.9), (0.9, 1.0),
                       (0.5, 0.2), (0.2, 0.0))
    xs = [0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.95, 1.0]
    assert [_which(traj, x) for x in xs] == [4, 4, 3, 3, 0, 0, 0, 2, 2]
    # u(x) = x up to the rounding of one RK45 step.
    want = _segment(0.5, 0.2).at(0.3)[0]
    assert want == pytest.approx(0.3, rel=1e-15)
    assert traj.log_pair(0.3)[0] == want
    assert (traj.x_min, traj.x_max) == (0.0, 1.0)
    assert traj.breakpoints == [0.0, 0.2, 0.5, 0.7, 0.9, 1.0]


def test_lookup_gap_takes_nearest_segment():
    ulp = np.spacing(1.0)
    traj = _trajectory((0.0, 1.0), (1.0 + 3 * ulp, 2.0))
    assert _which(traj, 1.0 + ulp) == 0
    assert _which(traj, 1.0 + 2 * ulp) == 1
    # Equidistant from both: the first inserted wins.
    assert _which(_trajectory((0.0, 1.0), (1.0 + 2 * ulp, 2.0)),
                  1.0 + ulp) == 0
    assert _which(_trajectory((1.0 + 2 * ulp, 2.0), (0.0, 1.0)),
                  1.0 + ulp) == 0


def test_lookup_outside_support_raises():
    traj = _trajectory((0.0, 1.0), (1.0, 2.0))
    for x in (-1e-12, 2.0 + 1e-12, math.nan):
        with pytest.raises(EvaluationOutsideSupport):
            traj.log_pair(x)


@pytest.mark.parametrize("edges", [(0.5, 1.5), (1.5, 0.5), (0.2, 0.8),
                                   (-1.0, 3.0), (0.0, 1.0), (0.5, 0.5)])
def test_add_segment_rejects_interior_overlap(edges):
    traj = _trajectory((0.0, 1.0), (2.0, 3.0))
    with pytest.raises(ValueError):
        traj.add_segment(_segment(*edges), 9.0)
    assert len(traj.segments) == 2


def _marched(fn):
    """The marched trajectories inside a basis function."""
    if isinstance(fn, ScaledSolution):
        return [fn]
    inner = getattr(fn, "fn", None) or getattr(fn, "w", None)
    return _marched(inner) if inner is not None else []


def _scan(traj, x):
    """Reference lookup: the first segment, in insertion order, whose range
    holds x, else the first one nearest to x."""
    best, best_gap = None, math.inf
    for table, L in traj.segments:
        lo, hi = min(table.t[0], table.t[-1]), max(table.t[0], table.t[-1])
        if lo <= x <= hi:
            return table, L
        gap = min(abs(x - lo), abs(x - hi))
        if gap < best_gap:
            best, best_gap = (table, L), gap
    return best


def test_lookup_matches_insertion_order_scan(legendre_bases):
    trajs = [t for basis in legendre_bases
             for fn in (basis.u, basis.u_hat) for t in _marched(fn)]
    assert trajs
    for traj in trajs:
        edges = {table.t[k] for table, _ in traj.segments for k in (0, -1)}
        xs = sorted(set(np.linspace(traj.x_min, traj.x_max, 300)) | edges)
        for x in xs:
            table, L = _scan(traj, x)
            u, u1 = table.at(x)
            assert traj.log_pair(x) == (u, u1, L)


# -- the march against scipy's terminal event ------------------------------


def _scipy_march(spec, lam, pts, init, tol, cap):
    """The renormalizing march on solve_ivp: a terminal event where
    log max(|u|, |u^[1]|) reaches log cap.  Returns the (end, log scale)
    of every segment."""
    rhs = spec.coeffs.rhs(lam)

    def too_big(x, y):
        return math.log(float(np.max(np.abs(y)))) - math.log(cap)

    too_big.terminal = True
    x, y, L = pts[0], np.array(init), 0.0
    ends = []
    for x1 in pts[1:]:
        while True:
            sol = solve_ivp(rhs, (x, x1), y, method="RK45", rtol=tol,
                            atol=tol * 1e-3, events=too_big)
            ends.append((sol.t[-1], L))
            x, y = sol.t[-1], sol.y[:, -1]
            if sol.status != 1 or x == x1:
                break
            m = float(np.max(np.abs(y)))
            L += math.log(m)
            y = y / m
    return ends


@pytest.mark.parametrize("target", [1.0, -1.0])
def test_march_events_follow_scipy(legendre, target):
    # lambda = -50 grows by about e^3.5 toward either end; cap 4 forces a
    # renormalization every doubling or two.
    lam, anchor, tol, cap = -50.0, 0.0, 1e-11, 4.0
    pts = geometric_points(anchor, target, n_windows=48, ratio=0.5)
    want = _scipy_march(legendre, lam, pts, (1.0, 0.0), tol, cap)
    traj = rescaled_march(legendre, lam, anchor, (1.0, 0.0), target,
                          tol=tol, cap=cap)
    got = [(table.t[-1], L) for table, L in traj.segments]
    assert len(got) == len(want)
    assert sum(x not in pts for x, _ in want) >= 5
    for (x, L), (x_want, L_want) in zip(got, want):
        assert abs(x - x_want) <= 1e-12
        assert L == pytest.approx(L_want, rel=1e-12, abs=1e-12)
    # Stored unit states stay below the cap, up to where brentq stops: an
    # event point is within 4 eps (1 + |x|) of the crossing, which moves
    # log max(|u|, |u^[1]|) by that times its slope (near an endpoint the
    # slope is large: about 2e4 at the last event here).
    rhs = legendre.coeffs.rhs(lam)
    for table, _ in traj.segments:
        for x in table.t:
            state = table.at(x)
            k = 0 if abs(state[0]) >= abs(state[1]) else 1
            slope = abs(rhs(x, state)[k] / state[k])
            slack = slope * 4 * np.finfo(float).eps * (1 + abs(x))
            assert math.log(abs(state[k]) / cap) <= 1e-12 + slack, x
