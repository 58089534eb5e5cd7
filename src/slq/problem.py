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
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    NonFiniteValue,
    NonPositiveCoefficient,
    SpecFileError,
    UnknownCatalogEntry,
)
from .expressions import Expr, quasi_rhs
from .quadrature import improper_integral

REGULAR = "regular"
SINGULAR = "singular"
UNDETERMINED = "undetermined"


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
    def rhs(self):
        """lam -> f(x, y), the quasi-derivative system, compiled once."""
        return quasi_rhs(self.p, self.q, self.r)

    @cached_property
    def _steps(self):
        return {}

    def steps(self, method):
        """lam -> the Runge-Kutta `method`'s odecore.Steps for the system,
        with p, q and r inlined in every stage; compiled once per method."""
        factory = self._steps.get(method)
        if factory is None:
            factory = self._steps[method] = method.inline(self)
        return factory


@dataclass
class ProblemSpec:
    interval: Interval
    coeffs: CoefficientSet
    lambda0: float = 0.0
    regular_flag: str = UNDETERMINED
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


@dataclass
class ValidationReport:
    n_samples: int
    violations: list = field(default_factory=list)
    regular_flag: str = UNDETERMINED

    @property
    def ok(self):
        return not self.violations


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
        pts.extend(a + d * 0.5 ** np.linspace(1, 40, n_side))
    else:
        pts.extend(c - 2.0 ** np.linspace(0, 30, n_side))
    if math.isfinite(b):
        d = b - c
        pts.extend(b - d * 0.5 ** np.linspace(1, 40, n_side))
    else:
        pts.extend(c + 2.0 ** np.linspace(0, 30, n_side))
    lo, hi = min(pts), max(pts)
    pts.extend(np.linspace(lo, hi, n_mid))
    return sorted(pts)


def validate(spec: ProblemSpec, n_samples: int = 64) -> ValidationReport:
    """Check Hypothesis-style positivity/finiteness on a sample grid.

    p and r must be positive, and all three coefficients finite, at every
    interior sample.  The regular/singular flag is then set: the problem is
    regular iff both endpoints are (see endpoint_regular).
    """
    report = ValidationReport(n_samples=n_samples)
    grid = _sample_grid(spec.interval, n_samples)
    for x in grid:
        for label, fn in (("p", spec.p), ("q", spec.q), ("r", spec.r)):
            try:
                v = fn(x)
            except (ZeroDivisionError, OverflowError, SpecFileError) as exc:
                report.violations.append((label, x, math.inf))
                raise NonFiniteValue(
                    f"coefficient {label} is not finite at x={x}: {exc}"
                ) from exc
            if not math.isfinite(v):
                report.violations.append((label, x, v))
                raise NonFiniteValue(
                    f"coefficient {label} is not finite at x={x}: {v}"
                )
            if label in ("p", "r") and v <= 0.0:
                report.violations.append((label, x, v))
                raise NonPositiveCoefficient(
                    f"coefficient {label} must be positive, got {v} at x={x}"
                )
    # An infinite endpoint is singular; testing that first spares the other
    # endpoint's improper integrals.
    regular = (all(map(math.isfinite, spec.interval.endpoints()))
               and endpoint_regular(spec, "a")
               and endpoint_regular(spec, "b"))
    report.regular_flag = REGULAR if regular else SINGULAR
    spec.regular_flag = report.regular_flag
    return report


# endpoint_regular's verdicts by value: (a, b, p, q, r texts, endpoint).
# The verdict depends on nothing else, and every CLI command and basis
# construction asks again for the same problem.
_REGULAR_MEMO = {}


def endpoint_regular(spec, which):
    """True when the endpoint is finite with integrable |1/p|, |q|, |r|."""
    iv = spec.interval
    key = (iv.a, iv.b, spec.p.text, spec.q.text, spec.r.text, which)
    verdict = _REGULAR_MEMO.get(key)
    if verdict is None:
        verdict = _REGULAR_MEMO[key] = _endpoint_regular(spec, which)
    return verdict


def _endpoint_regular(spec, which):
    end = spec.interval.a if which == "a" else spec.interval.b
    if not math.isfinite(end):
        return False
    c = spec.interval.interior_point()
    p = spec.p.scalar
    for fn in (lambda x: 1.0 / p(x), spec.q.scalar, spec.r.scalar):
        res = improper_integral(lambda x: abs(fn(x)), c, end)
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


def _endpoint_value(v, which):
    if isinstance(v, (int, float)):
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
        v = doc["lambda0"]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SpecFileError("'lambda0' must be a number")
        spec.lambda0 = float(v)
    return spec, doc.get("extension")


def load_problem(path: str):
    """Read a problem-spec JSON file; see problem_from_dict."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path!r} is not valid JSON: {exc}")
    return problem_from_dict(doc)
