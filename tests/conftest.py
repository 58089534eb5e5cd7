"""Shared fixtures: catalog problems and their solution bases.

Basis construction at singular endpoints costs a few seconds each, so specs
and bases are built once per session and shared read-only across tests.
"""

import pytest

from slq.problem import catalog, problem_from_dict, validate
from slq.solutions import construct_basis


def _built(spec):
    validate(spec)
    return spec


@pytest.fixture(scope="session")
def dirichlet():
    return _built(catalog("regular_dirichlet_pi"))


@pytest.fixture(scope="session")
def legendre():
    return _built(catalog("legendre"))


@pytest.fixture(scope="session")
def free_halfline():
    return _built(catalog("free_halfline"))


@pytest.fixture(scope="session")
def bessel_half():
    return _built(catalog("bessel(0.5)"))


@pytest.fixture(scope="session")
def oscillator():
    doc = {"interval": {"a": "-inf", "b": "inf"},
           "coefficients": {"p": "1", "q": "x**2", "r": "1"},
           "lambda0": 0.0}
    spec, _ = problem_from_dict(doc)
    return _built(spec)


def _bases(spec):
    return (construct_basis(spec, "a"), construct_basis(spec, "b"))


@pytest.fixture(scope="session")
def dirichlet_bases(dirichlet):
    return _bases(dirichlet)


@pytest.fixture(scope="session")
def legendre_bases(legendre):
    return _bases(legendre)


@pytest.fixture(scope="session")
def free_halfline_bases(free_halfline):
    return _bases(free_halfline)


@pytest.fixture(scope="session")
def bessel_half_bases(bessel_half):
    return _bases(bessel_half)


@pytest.fixture(scope="session")
def oscillator_bases(oscillator):
    return _bases(oscillator)
