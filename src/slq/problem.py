"""Problem definitions: interval, coefficients, reference energy, catalog.

A Sturm-Liouville problem is the differential expression

    tau f = (1/r) [ -(p f')' + q f ]    on (a, b)

together with a reference energy lambda0.  Coefficients are strings in a
small expression language (see `expressions`).  The catalog provides the
model problems used in tests and documentation.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    NonFiniteValue,
    NonPositiveCoefficient,
    SpecFileError,
    UnknownCatalogEntry,
)
from .expressions import Expr
from .quadrature import improper_integral, panel

VALIDATION_SAMPLES = 64


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if math.isnan(self.a) or math.isnan(self.b):
            raise SpecFileError("interval endpoints must not be NaN")
        if not self.a < self.b:
            raise SpecFileError(f"interval requires a < b, got ({self.a}, {self.b})")

    def endpoints(self):
        return (self.a, self.b)

    def end(self, which):
        """The endpoint named "a" or "b"."""
        return self.a if which == "a" else self.b

    def interior_point(self):
        """A convenient reference point in the open interval."""
        a, b = self.a, self.b
        if math.isfinite(a) and math.isfinite(b):
            return 0.5 * (a + b)
        if math.isfinite(a):
            return a + 1.0
        if math.isfinite(b):
            return b - 1.0
        return 0.0


@dataclass(frozen=True)
class CoefficientSet:
    p: Expr
    q: Expr
    r: Expr

    @classmethod
    def from_strings(cls, p, q, r):
        return cls(Expr.parse(str(p)), Expr.parse(str(q)), Expr.parse(str(r)))

    @cached_property
    def _steps(self):
        return {}

    def steps(self, method, l2=False):
        """lam -> the Runge-Kutta `method`'s odecore.Steps for the system,
        with p, q and r inlined in every stage, and with `l2` the solve
        that also sums r |u|^2 (`odecore.l2_solve`); compiled once per
        method and form."""
        factory = self._steps.get((method, l2))
        if factory is None:
            factory = self._steps[method, l2] = method.inline(self, l2)
        return factory


@dataclass
class ProblemSpec:
    interval: Interval
    coeffs: CoefficientSet
    lambda0: float = 0.0
    name: str | None = None

    @property
    def p(self):
        return self.coeffs.p

    @property
    def q(self):
        return self.coeffs.q

    @property
    def r(self):
        return self.coeffs.r


def grid_point(start, stop, n, i):
    """Point i of the n-cell uniform grid from start to stop, as
    numpy.linspace(start, stop, n + 1) computes it: start + i * step with
    step = (stop - start) / n, and the last point stop itself."""
    if i == n:
        return stop
    step = (stop - start) / n
    if step == 0.0:
        # A width too small for its cells: linspace scales i / n instead.
        return start + i / n * (stop - start)
    return start + i * step


def uniform_grid(start, stop, num):
    """num >= 2 evenly spaced floats from start to stop, both included:
    numpy.linspace(start, stop, num) as a list."""
    start, stop = float(start), float(stop)
    return [grid_point(start, stop, num - 1, i) for i in range(num)]


def _sample_grid(interval, n_samples):
    """Interior samples, log-dense toward each endpoint.

    A uniform interior block is combined with points approaching the
    endpoints geometrically, since singular behaviour concentrates there.
    """
    a, b = interval.a, interval.b
    c = interval.interior_point()
    n_side = max(4, n_samples // 3)
    n_mid = max(4, n_samples - 2 * n_side)
    pts = []
    if math.isfinite(a):
        d = c - a
        pts.extend(a + d * 0.5 ** t for t in uniform_grid(1, 40, n_side))
    else:
        pts.extend(c - 2.0 ** t for t in uniform_grid(0, 30, n_side))
    if math.isfinite(b):
        d = b - c
        pts.extend(b - d * 0.5 ** t for t in uniform_grid(1, 40, n_side))
    else:
        pts.extend(c + 2.0 ** t for t in uniform_grid(0, 30, n_side))
    lo, hi = min(pts), max(pts)
    pts.extend(uniform_grid(lo, hi, n_mid))
    return sorted(pts)


def validate(spec: ProblemSpec) -> None:
    """Check Hypothesis-style positivity/finiteness on a sample grid.

    p and r must be positive, and all three coefficients finite, at every
    one of the VALIDATION_SAMPLES interior samples; the first violation
    raises.  The spec is read, not written.  Whether an endpoint is
    regular is `endpoint_regular`'s to say.
    """
    grid = _sample_grid(spec.interval, VALIDATION_SAMPLES)
    for x in grid:
        for label, fn in (("p", spec.p), ("q", spec.q), ("r", spec.r)):
            try:
                v = fn(x)
            except (ZeroDivisionError, OverflowError, SpecFileError) as exc:
                raise NonFiniteValue(
                    f"coefficient {label} is not finite at x={x}: {exc}"
                ) from exc
            if not math.isfinite(v):
                raise NonFiniteValue(
                    f"coefficient {label} is not finite at x={x}: {v}"
                )
            if label in ("p", "r") and v <= 0.0:
                raise NonPositiveCoefficient(
                    f"coefficient {label} must be positive, got {v} at x={x}"
                )


# endpoint_regular's verdicts by value: (a, b, p, q, r texts, endpoint).
# The verdict depends on nothing else, and every CLI command and basis
# construction asks again for the same problem.
_REGULAR_MEMO = {}


def end_scale(spec, which):
    """(c, l, p(c), r(c)): the interior point, its distance l to the end (1
    at an infinite end), and p and r there; the units of the Weyl march."""
    c = spec.interval.interior_point()
    end = spec.interval.end(which)
    ell = abs(end - c) if math.isfinite(end) else 1.0
    return c, ell, spec.p.scalar(c), spec.r.scalar(c)


def endpoint_regular(spec, which):
    """True when the endpoint is finite with integrable |1/p|, |q|, |r|,
    each read in units of its integral over the half of (c, end) next to c."""
    iv = spec.interval
    key = (iv.a, iv.b, spec.p.text, spec.q.text, spec.r.text, which)
    verdict = _REGULAR_MEMO.get(key)
    if verdict is None:
        verdict = _REGULAR_MEMO[key] = _endpoint_regular(spec, which)
    return verdict


def _endpoint_regular(spec, which):
    end = spec.interval.end(which)
    if not math.isfinite(end):
        return False
    c = spec.interval.interior_point()
    p = spec.p.scalar
    for fn in (lambda x: 1.0 / p(x), spec.q.scalar, spec.r.scalar):
        # Only growth toward the end can diverge, not the size of q l^2 / p.
        unit = panel(lambda x: abs(fn(x)), c, c + 0.5 * (end - c))[0] or 1.0
        res = improper_integral(lambda x: abs(fn(x)) / unit, c, end)
        if not res.converged:
            return False
    return True


_CATALOG_BUILDERS = {}


def _register(name):
    def deco(fn):
        _CATALOG_BUILDERS[name] = fn
        return fn
    return deco


@_register("legendre")
def _legendre():
    # p is kept in factored form so evaluation close to the endpoints does
    # not lose accuracy to cancellation.
    coeffs = CoefficientSet.from_strings("(1-x)*(1+x)", "0", "1")
    return ProblemSpec(Interval(-1.0, 1.0), coeffs, lambda0=0.0, name="legendre")


@_register("regular_dirichlet_pi")
def _regular_dirichlet_pi():
    coeffs = CoefficientSet.from_strings("1", "0", "1")
    return ProblemSpec(Interval(0.0, math.pi), coeffs, lambda0=0.0,
                       name="regular_dirichlet_pi")


@_register("free_halfline")
def _free_halfline():
    coeffs = CoefficientSet.from_strings("1", "0", "1")
    return ProblemSpec(Interval(0.0, math.inf), coeffs, lambda0=0.0,
                       name="free_halfline")


def _bessel(gamma):
    cq = gamma * gamma - 0.25
    # gamma = 1/2 gives a vanishing potential; writing it literally keeps
    # the regular endpoint x = 0 evaluable.
    q_str = "0" if cq == 0.0 else f"({cq!r})/x**2"
    coeffs = CoefficientSet.from_strings("1", q_str, "1")
    return ProblemSpec(Interval(0.0, 1.0), coeffs, lambda0=0.0,
                       name=f"bessel({gamma})")


_BESSEL_RE = re.compile(r"^bessel\((?P<g>[^)]+)\)$")


def catalog(name: str) -> ProblemSpec:
    """Model problem by name: legendre, regular_dirichlet_pi,
    bessel(gamma), free_halfline."""
    key = name.strip()
    if key in _CATALOG_BUILDERS:
        return _CATALOG_BUILDERS[key]()
    m = _BESSEL_RE.match(key)
    if m:
        try:
            gamma = float(m.group("g"))
        except ValueError:
            raise UnknownCatalogEntry(f"bad bessel parameter in {name!r}")
        return _bessel(gamma)
    raise UnknownCatalogEntry(f"no catalog entry named {name!r}")


def finite_number(name, value):
    """A number from outside as a float: a bool, a string or a NaN or
    infinite value is refused with SpecFileError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise SpecFileError(f"{name!r} must be a finite number, got "
                            f"{value!r}")
    return float(value)


def _endpoint_value(v, which):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("-inf", "-infinity"):
            return -math.inf
        if s in ("inf", "+inf", "infinity", "+infinity"):
            return math.inf
        raise SpecFileError(f"bad interval endpoint {v!r}")
    raise SpecFileError(f"interval endpoint {which} must be a number or inf string")


def _check_keys(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise SpecFileError(
            f"unknown field(s) in {where}: {', '.join(sorted(unknown))}"
        )


def problem_from_dict(doc: dict):
    """Build (ProblemSpec, extension-dict-or-None) from a parsed spec file.

    Unknown fields anywhere in the document are rejected.  A catalog
    reference fills in interval and lambda0, which explicit fields may
    override.
    """
    if not isinstance(doc, dict):
        raise SpecFileError("problem spec must be a JSON object")
    _check_keys(doc, ("interval", "coefficients", "lambda0", "extension"),
                "problem spec")
    if "coefficients" not in doc:
        raise SpecFileError("problem spec is missing 'coefficients'")
    cdoc = doc["coefficients"]
    if not isinstance(cdoc, dict):
        raise SpecFileError("'coefficients' must be an object")
    if "catalog" in cdoc:
        _check_keys(cdoc, ("catalog",), "coefficients")
        spec = catalog(cdoc["catalog"])
    else:
        _check_keys(cdoc, ("p", "q", "r"), "coefficients")
        for key in ("p", "q", "r"):
            if key not in cdoc:
                raise SpecFileError(f"coefficients is missing {key!r}")
        if "interval" not in doc:
            raise SpecFileError("explicit coefficients require an 'interval'")
        coeffs = CoefficientSet.from_strings(cdoc["p"], cdoc["q"], cdoc["r"])
        spec = ProblemSpec(Interval(0.0, 1.0), coeffs)  # interval set below
    if "interval" in doc:
        idoc = doc["interval"]
        if not isinstance(idoc, dict):
            raise SpecFileError("'interval' must be an object")
        _check_keys(idoc, ("a", "b"), "interval")
        if "a" not in idoc or "b" not in idoc:
            raise SpecFileError("'interval' needs both 'a' and 'b'")
        spec.interval = Interval(_endpoint_value(idoc["a"], "a"),
                                 _endpoint_value(idoc["b"], "b"))
    if "lambda0" in doc:
        spec.lambda0 = finite_number("lambda0", doc["lambda0"])
    return spec, doc.get("extension")


def load_problem(path: str):
    """Read a problem-spec JSON file; see problem_from_dict.  A file that
    cannot be read, is not UTF-8 or is not JSON to the decoder (nesting past
    its recursion limit included) is refused with SpecFileError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path!r}: {exc}")
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise SpecFileError(f"{path!r} is not valid JSON: {exc}")
    return problem_from_dict(doc)
