"""Golden values of the integrator as float hex.

Each value is pinned to the last bit: a shooting end state and its zero
count, table lookups and proposed steps of a real march toward Legendre's
singular end -1, one complex-z window of that march, and the WKB far
points where shooting starts toward an infinite limit-point end.  Any
change of the arithmetic of a solve, its controller, its table rows or its
zero count shows here.
"""

import numpy as np
import pytest

from slq.classify import CLASSIFY_WINDOWS
from slq.extensions import LpLp, Separated, _lp_init, _side_start
from slq.odecore import end_state
from slq.problem import catalog, end_scale, validate
from slq.quadrature import geometric_points
from slq.solutions import construct_basis, march_windows, rescaled_march


_FIRST_WINDOW = [
    ("-0x1.0000000000000p-1",
     ["0x1.0000000000000p+0", "0x1.3333333333333p-2"]),
    ("-0x1.01e3333333333p-1",
     ["0x1.ff3bdc4879fa1p-1", "0x1.3abe8f96ab025p-2"]),
    ("-0x1.4b58527306b64p-1",
     ["0x1.cd236fa3c6014p-1", "0x1.29e815e5e5228p-1"]),
    ("-0x1.8000000000000p-1",
     ["0x1.872fdaa06a17ap-1", "0x1.823526de26b9dp-1"])]
_LAST_WINDOW = [
    ("-0x1.fffffffff0000p-1",
     ["-0x1.48452695ee721p+3", "0x1.ccccccce22429p-1"]),
    ("-0x1.fffffffff015ep-1",
     ["-0x1.4858e418fab22p+3", "0x1.ccccccce2081dp-1"]),
    ("-0x1.fffffffff0181p-1",
     ["-0x1.485adef086a11p+3", "0x1.ccccccce2054fp-1"]),
    ("-0x1.fffffffff8000p-1",
     ["-0x1.52405ede2ecb2p+3", "0x1.cccccccd7bea4p-1"])]
_COMPLEX = [
    ("-0x1.05e1d27a3ee9dp-10",
     [("0x1.ffffffffffe8ap-1", "-0x1.0be64723bd423p-21"),
      ("0x1.6d681b76bbc13p-33", "0x1.05e1d27a3ee77p-10")]),
    ("-0x1.812cae5f088ffp-6",
     [("0x1.ffffff929f246p-1", "-0x1.21d837cbb4564p-12"),
      ("0x1.22b2e21a10a97p-19", "0x1.812cae4dcf176p-6")]),
    ("-0x1.0000000000000p-1",
     [("0x1.fe4d2ee8c82f9p-1", "-0x1.26862b6c96cefp-3"),
      ("0x1.727b212fff1ecp-6", "0x1.ffaf18ec9c8ddp-2")])]


def _hex(v):
    if isinstance(v, complex):
        return v.real.hex(), v.imag.hex()
    return float(v).hex()


def _lookups(table, xs):
    return [(_hex(x), [_hex(c) for c in table.at(x)]) for x in xs]


def test_shooting_end_states_and_zero_counts(oscillator):
    # The decaying start of the LpLp condition at a, marched to 0.
    x0, init = _side_start(oscillator, LpLp(), None, "a", 5.3)
    y, zeros = end_state(oscillator, 5.3, x0, init, 0.0)
    assert (x0, [_hex(c) for c in y], zeros) == (
        -8.0, ["-0x1.9d53b9a6a38f5p+38", "0x1.ccaf300336c52p+37"], 1)


def test_shooting_from_a_singular_lc_start():
    # The Friedrichs condition at bessel(0.3)'s LC end 0, started a
    # BOUNDARY_DELTA inside it from the basis there.
    bessel = catalog("bessel(0.3)")
    validate(bessel)
    basis = construct_basis(bessel, "a")
    x0, init = _side_start(bessel, Separated(0.0, 0.0), basis, "a", 40.0)
    y, zeros = end_state(bessel, 40.0, x0, init, 0.5)
    assert [_hex(c) for c in init] == ["-0x1.0465eb676dda5p-25",
                                       "-0x1.e50780491a6a9p+7"]
    assert ([_hex(c) for c in y], zeros) == (
        ["0x1.7d1eb686b453fp-3", "0x1.d90051cf305ffp+1"], 1)


def test_march_toward_legendre_singular_end(legendre):
    traj = rescaled_march(legendre, 2.0, -0.5, (1.0, 0.3), -1.0)
    segments = traj.segments
    assert [len(s.t) for s in segments] == [
        21, 20, 24, 32, 23, 21, 19, 18, 18, 17, 17, 16, 16, 16, 15, 15, 15,
        15, 15, 17, 14, 14, 14, 14, 14, 14, 15, 14, 15, 15, 23, 32, 59, 93,
        220, 442, 912]
    first, last = segments[0], segments[-1]
    assert _lookups(first, [-0.5, -0.5036865234375, -0.6471582189, -0.75]) \
        == _FIRST_WINDOW
    assert _lookups(last, [last.t[0], last.t[5], 0.5 * (last.t[5] + last.t[6]),
                           last.t[-1]]) == _LAST_WINDOW
    assert (_hex(first.h_next), _hex(last.h_next)) == (
        "0x1.2de20986f7d90p-7", "0x1.5f462548c3647p-50")


def test_complex_weyl_probe_window(legendre):
    # The first window of march_windows toward a at a complex z, the
    # nonreal z of classify_endpoint's probe there, from (1, 0).
    anchor, ell, pc, rc = end_scale(legendre, "a")
    z = legendre.lambda0 + 1j * pc / (rc * ell * ell)
    pts = geometric_points(anchor, legendre.interval.a,
                           n_windows=CLASSIFY_WINDOWS)
    init = np.asarray((1.0, 0.0), dtype=complex)
    _, table, zeros, stopped = next(march_windows(legendre, z, init, pts,
                                                  1e-9))
    t = table.t
    assert (z, len(t), zeros, stopped, _hex(table.h_next)) == (
        1j, 16, None, False, "0x1.313461ff209fdp-5")
    assert _lookups(table, [t[1], 0.5 * (t[2] + t[3]), t[-1]]) == _COMPLEX


@pytest.mark.parametrize("problem, end, lam, want", [
    ("oscillator", "a", 0.5,
     ("-0x1.d000000000000p+2", ["0x1.0000000000000p+0",
                                "0x1.cdc9af3b3deccp+2"])),
    ("oscillator", "a", 5.3,
     ("-0x1.0000000000000p+3", ["0x1.0000000000000p+0",
                                "0x1.ea57882b32860p+2"])),
    ("oscillator", "b", 0.5,
     ("0x1.d000000000000p+2", ["0x1.0000000000000p+0",
                               "-0x1.cdc9af3b3deccp+2"])),
    ("oscillator", "b", 5.3,
     ("0x1.0000000000000p+3", ["0x1.0000000000000p+0",
                               "-0x1.ea57882b32860p+2"])),
    ("free_halfline", "b", -1.0,
     ("0x1.ac00000000000p+4", ["0x1.0000000000000p+0",
                               "-0x1.0000000000000p+0"])),
    ("free_halfline", "b", -0.25,
     ("0x1.9e00000000000p+5", ["0x1.0000000000000p+0",
                               "-0x1.0000000000000p-1"])),
])
def test_wkb_far_point_and_decaying_start(problem, end, lam, want, request):
    # The far point of the WKB walk and the decaying start there, kappa
    # from p, q and r at that point.
    x0, init = _lp_init(request.getfixturevalue(problem), end, lam)
    assert (_hex(x0), [_hex(c) for c in init]) == want
