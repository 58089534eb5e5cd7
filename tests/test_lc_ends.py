"""Which endpoints are limit circle.

A regime is the tuple of its limit-circle (LC) ends (forms.REGIME_*), and
an extension's `lc_ends` is its regime; nothing reads or writes that fact
through the bases.  Covers the right-end one-LC regime
on the mirrored half-line (-inf, 0), checks that no form, triplet or CLI
call changes the shared bases, and that a separated extension decorates
the form with one term per LC end.
"""

import contextlib
import copy
import json
import math

import numpy as np
import pytest

from slq import cli
from slq.bvalues import gbv, patched_pair
from slq.classify import classify_both
from slq.errors import DomainConstraintViolated, SlqError
from slq.extensions import LpLp, OneLC, Separated, friedrichs_spec, lc_ends
from slq.forms import (
    REGIME_LC_LC,
    REGIME_LC_LP,
    REGIME_LP_LC,
    REGIME_LP_LP,
    SIGMA,
    green_identity_residual,
    q_base,
    q_decorated,
)
from slq.functions import ExpDecay, GaussianPoly, polynomial
from slq.problem import problem_from_dict, validate
from slq.solutions import construct_basis
from slq.triplets import boundary_pair_check, form_from_relation

# The free half-line (0, inf) reflected to (-inf, 0): LP at a, regular at b.
MIRRORED_DOC = {"interval": {"a": "-inf", "b": 0.0},
                "coefficients": {"p": "1", "q": "0", "r": "1"},
                "lambda0": 0.0}


def _bases(spec):
    return (construct_basis(spec, "a"), construct_basis(spec, "b"))


def _decaying_pair(spec):
    return (ExpDecay(spec, [1.0, 0.5], k=1.0),
            ExpDecay(spec, [0.3, -1.0], k=1.5))


def _mirror(coeffs):
    """Coefficients of P(-x) from those of P(x)."""
    return [c * (-1) ** k for k, c in enumerate(coeffs)]


@pytest.fixture(scope="module")
def mirrored():
    spec, _ = problem_from_dict(MIRRORED_DOC)
    validate(spec)
    return spec


@pytest.fixture(scope="module")
def mirrored_bases(mirrored):
    return _bases(mirrored)


def _snapshot(bases):
    return [copy.deepcopy(b.diagnostics) for b in bases]


# -------------------------------------------------------------------------
# The regime table
# -------------------------------------------------------------------------


def test_regime_table_names_the_lc_ends():
    assert (REGIME_LC_LC, REGIME_LC_LP, REGIME_LP_LC, REGIME_LP_LP) \
        == (("a", "b"), ("a",), ("b",), ())


def test_unknown_regime_is_refused(dirichlet, dirichlet_bases):
    f = polynomial(dirichlet, [1.0])
    with pytest.raises(ValueError, match="unknown regime"):
        q_base(dirichlet, dirichlet_bases, None, "lc", f, f)


def test_classification_lc_ends(legendre, mirrored):
    assert lc_ends(classify_both(legendre)) == ("a", "b")
    c = classify_both(mirrored)
    assert lc_ends(c) == ("b",)
    assert friedrichs_spec(c) == OneLC(0.0, "b")


# -------------------------------------------------------------------------
# Calls must not change the answer of later calls on the same bases
# -------------------------------------------------------------------------


def test_form_from_relation_leaves_q_base_alone(free_halfline):
    spec = free_halfline
    bases = _bases(spec)
    f, g = _decaying_pair(spec)
    fresh = q_base(spec, bases, None, REGIME_LC_LP, f, g).pieces
    form_from_relation(spec, bases, None, OneLC(0.8, "a"), f, g)
    after = q_base(spec, bases, None, REGIME_LC_LP, f, g).pieces
    assert after == fresh
    assert fresh["boundary_correction_d"] == 0.0


def test_one_lc_at_b_attempt_leaves_one_lc_at_a_alone(free_halfline):
    spec = free_halfline
    bases = _bases(spec)
    f, g = _decaying_pair(spec)
    fresh = q_decorated(spec, bases, None, OneLC(0.8, "a"), f, g).value
    assert fresh == pytest.approx(-0.10136438019514149, abs=1e-12)
    # b is LP here, so this call may fail; it must not leave a trace.
    with contextlib.suppress(SlqError):
        q_decorated(spec, bases, None, OneLC(0.8, "b"), f, g)
    assert q_decorated(spec, bases, None, OneLC(0.8, "a"), f, g).value \
        == fresh


def test_no_library_call_writes_into_the_bases(
        free_halfline, free_halfline_bases, mirrored, mirrored_bases):
    f, g = _decaying_pair(free_halfline)
    hf = GaussianPoly(mirrored, [1.0, -0.25])
    hg = GaussianPoly(mirrored, [0.5, 0.5])
    calls = [
        (free_halfline_bases,
         lambda b: q_base(free_halfline, b, None, REGIME_LC_LP, f, g)),
        (free_halfline_bases,
         lambda b: q_decorated(free_halfline, b, None, OneLC(0.8, "a"),
                               f, g)),
        (free_halfline_bases,
         lambda b: green_identity_residual(free_halfline, b, None, f, g,
                                           regime=REGIME_LC_LP)),
        (free_halfline_bases,
         lambda b: form_from_relation(free_halfline, b, None,
                                      OneLC(0.8, "a"), f, g)),
        (free_halfline_bases,
         lambda b: boundary_pair_check(free_halfline, b, None,
                                       samples=(f, g), regime=REGIME_LC_LP)),
        (mirrored_bases,
         lambda b: q_decorated(mirrored, b, None, OneLC(0.8, "b"), hf, hg)),
        (mirrored_bases,
         lambda b: form_from_relation(mirrored, b, None, OneLC(0.8, "b"),
                                      hf, hg)),
    ]
    for bases, call in calls:
        before = _snapshot(bases)
        call(bases)
        assert _snapshot(bases) == before


@pytest.mark.parametrize("argv", [
    ["form", "--f", "bump:1.0,0.5", "--g", "bump:1.5,0.8"],
    ["green-check", "--f", "bump:1.0,0.5", "--g", "bump:1.5,0.8"],
    ["triplet"],
])
def test_no_cli_command_writes_into_its_bases(argv, monkeypatch, tmp_path,
                                              capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "coefficients": {"catalog": "free_halfline"},
        "extension": {"kind": "one_lc", "alpha": 0.8, "endpoint": "a"},
    }))
    built = []
    build = cli._build_bases

    def recording(spec):
        bases = build(spec)
        built.append((bases, _snapshot(bases)))
        return bases

    monkeypatch.setattr(cli, "_build_bases", recording)
    assert cli.main([argv[0], str(path)] + argv[1:]) == cli.EXIT_OK
    capsys.readouterr()
    assert built
    for bases, before in built:
        assert _snapshot(bases) == before


# -------------------------------------------------------------------------
# The right-end one-LC regime: (-inf, 0) mirrors (0, inf)
# -------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.8, 2.0])
def test_one_lc_at_b_mirrors_one_lc_at_a(alpha, free_halfline,
                                         free_halfline_bases, mirrored,
                                         mirrored_bases):
    # x -> -x keeps g~ and flips g~', so the condition angle alpha at b
    # corresponds to pi - alpha at a.
    for cf, cg in (([1.0, 0.25], [0.5, -0.5]),
                   ([0.5, -0.5], [0.3, 0.0, -0.2])):
        want = q_decorated(free_halfline, free_halfline_bases, None,
                           OneLC(math.pi - alpha, "a"),
                           GaussianPoly(free_halfline, cf),
                           GaussianPoly(free_halfline, cg)).value
        got = q_decorated(mirrored, mirrored_bases, None, OneLC(alpha, "b"),
                          GaussianPoly(mirrored, _mirror(cf)),
                          GaussianPoly(mirrored, _mirror(cg))).value
        assert abs(got - want) <= 1e-12, (cf, cg, got, want)


def test_green_identity_lp_lc(mirrored):
    bases = _bases(mirrored)
    f = GaussianPoly(mirrored, [1.0, -0.25])
    g = GaussianPoly(mirrored, [0.5, 0.5])
    res = green_identity_residual(mirrored, bases, None, f, g,
                                  regime=REGIME_LP_LC)
    assert abs(res) <= 1e-10


def test_cli_reports_lp_lc(tmp_path, capsys):
    path = tmp_path / "mirrored.json"
    path.write_text(json.dumps(MIRRORED_DOC))
    for command in ("form", "green-check"):
        code = cli.main([command, str(path),
                         "--f", "bump:-1.0,0.5", "--g", "bump:-1.5,0.8"])
        report = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        section = report["form" if command == "form" else "green_check"]
        assert section["regime"] == "lp_lc"


# -------------------------------------------------------------------------
# One rule per end: a separated extension's angle t at an LC end adds
# -SIGMA[end] cot(t) conj(f~) g~, or demands g~ = 0 there when t = 0
# -------------------------------------------------------------------------


# Each decoration case's angles, {end: t} over its LC ends, written out as
# the reference for the hand-written terms.
_ANGLES = {"legendre": {"a": 0.7, "b": 1.9}, "halfline": {"a": 0.8},
           "mirrored": {"b": 0.8}, "oscillator": {}}


def _decoration_case(request, name):
    """(spec, bases, ext, f, g) with f~ and g~ nonzero at ext's LC ends."""
    if name == "legendre":
        spec = request.getfixturevalue("legendre")
        bases = request.getfixturevalue("legendre_bases")
        return (spec, bases, Separated(0.7, 1.9),
                patched_pair(spec, *bases).v1,
                polynomial(spec, [0.3, 0.2, 1.0, 0.7]))
    if name == "halfline":
        spec = request.getfixturevalue("free_halfline")
        return (spec, request.getfixturevalue("free_halfline_bases"),
                OneLC(0.8, "a"), *_decaying_pair(spec))
    if name == "mirrored":
        spec = request.getfixturevalue("mirrored")
        return (spec, request.getfixturevalue("mirrored_bases"),
                OneLC(0.8, "b"), GaussianPoly(spec, [1.0, -0.25]),
                GaussianPoly(spec, [0.5, 0.5]))
    spec = request.getfixturevalue("oscillator")
    return (spec, request.getfixturevalue("oscillator_bases"), LpLp(),
            GaussianPoly.hermite(spec, 0), GaussianPoly.hermite(spec, 1))


@pytest.mark.parametrize("name",
                         ["legendre", "halfline", "mirrored", "oscillator"])
def test_decoration_is_one_term_per_angle(request, name):
    spec, bases, ext, f, g = _decoration_case(request, name)
    angles = _ANGLES[name]
    assert ext.lc_ends == tuple(angles)
    terms = []
    for end, t in angles.items():
        basis = bases["ab".index(end)]
        ft, gt = gbv(spec, basis, f).tilde, gbv(spec, basis, g).tilde
        terms.append(
            -SIGMA[end] * (math.cos(t) / math.sin(t)) * np.conj(ft) * gt)
    want = sum(terms, 0.0)
    deco = q_decorated(spec, bases, None, ext, f, g).pieces[
        "decoration_terms"]
    # The form takes the term from Theta = diag(-SIGMA[end] cot t), in its
    # own order of arithmetic: equal to a few rounding errors of the terms.
    eps = np.finfo(float).eps
    assert abs(deco - want) <= 4 * eps * sum(abs(t) for t in terms)
    assert (want != 0.0) == bool(angles)


@pytest.mark.parametrize("name, ext, end", [
    ("legendre", Separated(0.0, 1.9), "a"),
    ("legendre", Separated(0.7, 0.0), "b"),
    ("halfline", OneLC(0.0, "a"), "a"),
    ("mirrored", OneLC(0.0, "b"), "b"),
])
def test_angle_zero_refuses_a_nonzero_tilde_at_its_end(request, name, ext,
                                                       end):
    spec, bases, _, f, g = _decoration_case(request, name)
    with pytest.raises(DomainConstraintViolated, match=rf"g~\({end}\)"):
        q_decorated(spec, bases, None, ext, f, g)
