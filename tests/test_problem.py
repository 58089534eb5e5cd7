"""Problem specs: catalog, validation, spec-file parsing."""

import math

import pytest

from slq.errors import (
    ExpressionPole,
    NonFiniteValue,
    NonPositiveCoefficient,
    SpecFileError,
    UnknownCatalogEntry,
)
from slq import problem
from slq.problem import (
    CoefficientSet,
    Interval,
    ProblemSpec,
    catalog,
    endpoint_regular,
    problem_from_dict,
    validate,
)


def test_catalog_legendre():
    spec = catalog("legendre")
    assert spec.interval.endpoints() == (-1.0, 1.0)
    assert spec.p(0.5) == pytest.approx(0.75)
    assert spec.q(0.3) == 0.0
    assert spec.r(0.3) == 1.0


def test_catalog_bessel_gamma_two():
    spec = catalog("bessel(2)")
    assert spec.q(0.5) == pytest.approx((4 - 0.25) / 0.25)


def test_catalog_bessel_half_has_zero_potential():
    spec = catalog("bessel(0.5)")
    # gamma = 1/2 makes the inverse-square coefficient vanish identically,
    # so q must be evaluable at the origin.
    assert spec.q(0.0) == 0.0


def test_catalog_unknown_name():
    with pytest.raises(UnknownCatalogEntry):
        catalog("airy")


def test_interval_requires_order():
    with pytest.raises(SpecFileError):
        Interval(1.0, 1.0)


def test_endpoint_regular_tells_the_ends_apart():
    spec = catalog("bessel(2)")
    assert validate(spec) is None
    assert not endpoint_regular(spec, "a")
    assert endpoint_regular(spec, "b")


@pytest.mark.parametrize("name, flag", [
    ("legendre", "singular"),
    ("regular_dirichlet_pi", "regular"),
    ("free_halfline", "singular"),
    ("bessel(0)", "singular"),
    ("bessel(0.3)", "singular"),
    ("bessel(0.5)", "regular"),
    ("bessel(2)", "singular"),
])
def test_regular_flag_iff_both_endpoints_regular(name, flag):
    # flag: whether the problem is regular, which is whether both of its
    # endpoints are.  validate reads the spec and returns nothing.
    spec = catalog(name)
    before = dict(vars(spec))
    assert validate(spec) is None
    assert vars(spec) == before
    both = endpoint_regular(spec, "a") and endpoint_regular(spec, "b")
    assert both == (flag == "regular")


def test_endpoint_regular_is_memoized_by_value(monkeypatch):
    memo = {}
    monkeypatch.setattr(problem, "_REGULAR_MEMO", memo)
    calls = []
    integral = problem.improper_integral

    def counting(*args, **kwargs):
        calls.append(args)
        return integral(*args, **kwargs)

    monkeypatch.setattr(problem, "improper_integral", counting)

    def spec(q):
        coeffs = CoefficientSet.from_strings("1", q, "1")
        return ProblemSpec(Interval(0.0, 1.0), coeffs)

    assert endpoint_regular(spec("x"), "a")
    n = len(calls)
    assert n == 3 and len(memo) == 1
    # Equal coefficients in a separately built spec share the entry.
    assert endpoint_regular(spec("x"), "a")
    assert len(calls) == n and len(memo) == 1
    # A different coefficient text misses it, even for the same function.
    assert endpoint_regular(spec("x*1"), "a")
    assert len(calls) == 2 * n and len(memo) == 2


def test_validate_rejects_negative_p():
    spec, _ = problem_from_dict({
        "interval": {"a": 0.0, "b": 1.0},
        "coefficients": {"p": "x - 0.5", "q": "0", "r": "1"},
    })
    with pytest.raises(NonPositiveCoefficient):
        validate(spec)


def test_validate_rejects_nonfinite_q():
    # exp(x^2) overflows at the far samples of the infinite interval.
    spec, _ = problem_from_dict({
        "interval": {"a": 0.0, "b": "inf"},
        "coefficients": {"p": "1", "q": "exp(x**2)", "r": "1"},
    })
    with pytest.raises(NonFiniteValue):
        validate(spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_flags_a_pole_of_q():
    # The pole sits on a sample point, a float: validate flags the
    # coefficient, naming the expression, from the ExpressionPole.
    interval = Interval(0.0, 1.0)
    grid = problem._sample_grid(interval, 64)
    assert type(grid[17]) is float
    pole = float(grid[17])
    text = f"1/(x - {pole!r})"
    spec = ProblemSpec(interval, CoefficientSet.from_strings("1", text, "1"))
    with pytest.raises(NonFiniteValue, match="coefficient q") as info:
        validate(spec)
    assert repr(text) in str(info.value)
    assert isinstance(info.value.__cause__, ExpressionPole)


def test_problem_from_dict_catalog_reference():
    spec, ext = problem_from_dict({
        "coefficients": {"catalog": "legendre"},
    })
    assert spec.name == "legendre"
    assert ext is None


def test_problem_from_dict_interval_override():
    spec, _ = problem_from_dict({
        "interval": {"a": 0.0, "b": "inf"},
        "coefficients": {"p": "1", "q": "0", "r": "1"},
        "lambda0": 0.5,
    })
    assert spec.interval.b == math.inf
    assert spec.lambda0 == 0.5


def test_problem_from_dict_unknown_field_rejected():
    with pytest.raises(SpecFileError):
        problem_from_dict({"coefficients": {"catalog": "legendre"},
                           "surprise": 1})


def test_problem_from_dict_missing_coefficient_rejected():
    with pytest.raises(SpecFileError):
        problem_from_dict({"interval": {"a": 0, "b": 1},
                           "coefficients": {"p": "1", "q": "0"}})


def test_problem_from_dict_extension_passthrough():
    _, ext = problem_from_dict({
        "coefficients": {"catalog": "legendre"},
        "extension": {"kind": "separated", "alpha": 0.0, "beta": 0.0},
    })
    assert ext["kind"] == "separated"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True,
                                   "0.5", None])
def test_problem_from_dict_lambda0_must_be_a_finite_number(value):
    # JSON's NaN and Infinity parse to floats; neither is a reference energy.
    with pytest.raises(SpecFileError, match="lambda0"):
        problem_from_dict({"coefficients": {"catalog": "regular_dirichlet_pi"},
                           "lambda0": value})


def test_problem_from_dict_interval_endpoint_refuses_a_bool():
    with pytest.raises(SpecFileError):
        problem_from_dict({"interval": {"a": False, "b": 1},
                           "coefficients": {"p": "1", "q": "0", "r": "1"}})
