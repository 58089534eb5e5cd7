"""Fast tests of the benchmark itself: every correctness check rejects a
deliberately wrong value, and the metric names it prints are the ones
BENCHMARK.json declares.  No workload is run."""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import lc_lc_forms  # noqa: E402
import one_lc_cli  # noqa: E402
import run  # noqa: E402
import spectra  # noqa: E402
import tracing  # noqa: E402
import yardstick  # noqa: E402

WRONG = 1e-4


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- metric names ------------------------------------------------------------


def test_workload_names_match():
    assert [w["name"] for w in _declared()["workloads"]] == \
        list(run.WORKLOADS)


def test_end_to_end_names_match():
    declared = [(m["name"], m["unit"]) for m in _declared()["end_to_end"]]
    assert declared == run.END_TO_END
    res = {"setup_times": [1.0, 2.0], "rounds": [3.0], "attempted": 10,
           "failed": 1}
    assert list(run.end_to_end(res)) == [n for n, _ in run.END_TO_END]


def test_per_layer_names_match():
    declared = [(m["name"], m["unit"]) for m in _declared()["per_layer"]]
    assert declared == tracing.PER_LAYER
    metrics = tracing.Tracer().metrics(1, 1, 1.0)
    assert list(metrics) == [n for n, _ in tracing.PER_LAYER]


def test_command_and_paths():
    doc = _declared()
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0][
        "bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_exits_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "spectra", "--seed", "1", "--seconds",
                     "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


# -- Legendre checks ---------------------------------------------------------


MONOMIALS = [[1.0], [0.0, 1.5], [0.0, 0.0, -0.7], [0.0, 0.0, 0.0, 2.0]]


def test_friedrichs_closed_form():
    ref = checks.legendre_friedrichs_gram([[0.0, 1.0]])
    assert ref[0, 0] == pytest.approx(4.0 / 3.0)
    gram = checks.legendre_friedrichs_gram(MONOMIALS)
    assert checks.check_gram_against("G", gram, gram) == []
    assert checks.check_gram_against("G", gram + WRONG, gram)


def test_ritz_values_reject_wrong_gram():
    gram = checks.legendre_friedrichs_gram(MONOMIALS)
    mass = checks.legendre_mass(MONOMIALS)
    assert checks.check_legendre_ritz(gram, mass) == []
    bad = gram.copy()
    bad[3, 3] += WRONG
    assert checks.check_legendre_ritz(bad, mass)


def test_hermitian_check():
    gram = [[1.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]]
    assert checks.check_hermitian("G", gram, {(0, 1): 2.0 - 1.0j}) == []
    assert checks.check_hermitian("G", gram, {(0, 1): 2.0 + 1.0j})
    assert checks.check_hermitian("G", [[1.0 + WRONG * 1j]], {})


def test_gbv_and_residual_checks():
    assert checks.check_gbv_pair("g", 0.0, 0.3, 0.0) == []
    assert checks.check_gbv_pair("g", WRONG, 0.3, 0.0)
    assert checks.check_gbv_pair("g", 0.0, 1.0 + WRONG, 0.0, 1.0)
    assert checks.check_residual("r", 1e-9) == []
    assert checks.check_residual("r", WRONG)
    assert checks.check_residual("r", math.nan)


def _lc_lc_outputs():
    polys = MONOMIALS
    n_f = len(lc_lc_forms.FRIEDRICHS_MEMBERS)
    gram_f = np.eye(n_f) * 0.25
    gram_f[:4, :4] = checks.legendre_friedrichs_gram(polys)
    gram_n = np.eye(len(lc_lc_forms.POOL_NAMES))
    members = lc_lc_forms.FRIEDRICHS_MEMBERS
    gram_n[np.ix_(members, members)] = gram_f
    gbvs = {"v1": (1.0, 0.2), "v2": (0.0, 1.0), "bump": (0.0, 0.0)}
    out = {
        "gram_f": gram_f.tolist(), "gram_n": gram_n.tolist(),
        "mirror_f": gram_f[lc_lc_forms.FRIEDRICHS_MIRROR],
        "mirror_n": gram_n[lc_lc_forms.SEPARATED_MIRROR],
        "gbvs": [[gbvs.get(name, (0.0, 0.7))] * 2
                 for name in lc_lc_forms.POOL_NAMES],
        "green": [1e-10] * len(lc_lc_forms.GREEN_PAIRS),
    }
    return {"params": {"polys": polys}}, out


def test_lc_lc_check_accepts_then_rejects():
    state, out = _lc_lc_outputs()
    attempted, failed, problems, counts = lc_lc_forms.check(state, out)
    assert problems == [] and failed == 0
    assert attempted == sum(counts.values())
    for key, index in (("gram_f", (1, 2)), ("gram_f", (0, 1)),
                       ("gram_n", (4, 3))):
        state, out = _lc_lc_outputs()
        out[key][index[0]][index[1]] += WRONG
        assert lc_lc_forms.check(state, out)[2], key
    for key in ("mirror_f", "mirror_n"):
        state, out = _lc_lc_outputs()
        out[key] += WRONG
        assert lc_lc_forms.check(state, out)[2], key
    state, out = _lc_lc_outputs()
    out["gbvs"][0][1] = (WRONG, 0.7)
    assert lc_lc_forms.check(state, out)[2]
    state, out = _lc_lc_outputs()
    out["green"][0] = WRONG
    assert lc_lc_forms.check(state, out)[2]


# -- spectra -----------------------------------------------------------------


def test_spectral_references():
    assert checks.bessel_eigenvalue(0.5, 1) == pytest.approx(math.pi ** 2)
    assert checks.oscillator_eigenvalue(2) == 5.0
    assert checks.halfline_eigenvalue(math.pi / 4) == pytest.approx(-1.0)


def test_eigenvalue_check():
    assert checks.check_eigenvalues("e", [3.0], [3.0], 1e-6) == []
    assert checks.check_eigenvalues("e", [3.0 + WRONG], [3.0], 1e-6)
    assert checks.check_eigenvalues("e", [], [3.0], 1e-6)
    assert checks.check_eigenvalues("e", [3.0, 3.5], [3.0], 1e-6)


def test_ranges_stay_off_the_grid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lo, hi = spectra.placed_range(rng, 7.0)
        assert hi - lo == pytest.approx(spectra.RANGE_LENGTH)
        assert lo + 0.2 * spectra.RANGE_LENGTH < 7.0 < hi - 0.2 * \
            spectra.RANGE_LENGTH
        assert checks.grid_clearance(lo, hi, spectra.GRID_PER_UNIT,
                                     7.0) >= 0.2
    assert checks.grid_clearance(0.0, 1.0, 8, 0.5) == 0.0


def test_spectra_check_rejects_wrong_eigenvalue():
    params = spectra.inputs(np.random.default_rng(1))
    state = {"params": params}
    good = {"found": [[lam] for _, _, lam, _ in params["cases"]]}
    assert spectra.check(state, good)[2] == []
    bad = {"found": [[lam + WRONG] for _, _, lam, _ in params["cases"]]}
    assert spectra.check(state, bad)[2]
    missing = {"found": [None] + good["found"][1:]}
    assert spectra.check(state, missing)[1] == 1


# -- one-LC CLI session ------------------------------------------------------


def test_bump_derivative_matches_difference_quotient():
    c, w, x, h = 0.1, 0.7, 0.25, 1e-6
    fd = (checks.bump(x + h, c, w) - checks.bump(x - h, c, w)) / (2 * h)
    assert checks.bump_d1(x, c, w) == pytest.approx(fd, rel=1e-7)


def _session(params):
    f = params["f"]
    reports = {
        "classify": {"classification": {"a": {"kind": "limit_circle"},
                                        "b": {"kind": "limit_point"}}},
        "basis": {"basis": {"a": {"regular": True}}},
        "gbv": {"gbv": {"a": {"tilde": checks.bump(0.0, *f),
                              "tilde_prime": checks.bump_d1(0.0, *f)}}},
        "form": {"form": {"value": checks.halfline_form(
            params["f"], params["g"], params["alpha"])}},
        "green-check": {"green_check": {"passed": True}},
        "triplet": {"triplet": {"cross_path": [
            {"error": "FormIntegralDiverges: N-integral toward endpoint b"},
            {"deviation": 0.0}, {"deviation": 1e-12}]}},
        "eig": {"eigenvalues": {"values": [
            {"lambda": params["eig_lambda"]}]}},
    }
    return reports


def _check_session(params, reports):
    out = {"results": [(cmd, 0, json.dumps(rep))
                       for cmd, rep in reports.items()]}
    return one_lc_cli.check({"params": params}, out)


def test_cli_check_counts_the_known_failure():
    params = one_lc_cli.inputs(np.random.default_rng(4))
    attempted, failed, problems, _ = _check_session(params, _session(params))
    assert problems == []
    assert (attempted, failed) == (10, 1)


@pytest.mark.parametrize("command, path, wrong", [
    ("gbv", ("gbv", "a", "tilde"), WRONG),
    ("gbv", ("gbv", "a", "tilde_prime"), WRONG),
    ("form", ("form", "value"), WRONG),
    ("green-check", ("green_check", "passed"), False),
    ("eig", ("eigenvalues", "values"), []),
    ("classify", ("classification", "b", "kind"), "limit_circle"),
])
def test_cli_check_rejects(command, path, wrong):
    params = one_lc_cli.inputs(np.random.default_rng(4))
    reports = _session(params)
    node = reports[command]
    for key in path[:-1]:
        node = node[key]
    if isinstance(wrong, float):
        node[path[-1]] += wrong
    else:
        node[path[-1]] = wrong
    assert _check_session(params, reports)[2]


def test_cli_check_rejects_cross_path_deviation():
    params = one_lc_cli.inputs(np.random.default_rng(4))
    reports = _session(params)
    reports["triplet"]["triplet"]["cross_path"][1]["deviation"] = WRONG
    assert _check_session(params, reports)[2]


# -- tracing -----------------------------------------------------------------


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.set_phase("round")

    def inner():
        return sum(range(20000))

    inner_w = tracer.span(inner, "inner", "inner", count="inner.calls")

    def outer():
        return inner_w() + inner_w()

    outer_w = tracer.span(outer, "outer", "outer", total="outer.total")
    outer_w()
    acc = tracer.acc["round"]
    assert acc["inner.calls"] == 2
    assert acc["outer.s"] + acc["inner.s"] == pytest.approx(
        acc["outer.total"], rel=1e-9)
    assert len(tracer.spans) == 3


def test_install_counts_and_restores():
    pytest.importorskip("scipy")
    sys.path.insert(0, str(ROOT / "src"))
    from slq import quadrature

    original = quadrature.improper_integral
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_phase("round")
        res = quadrature.improper_integral(lambda x: math.exp(-x), 0.0,
                                           math.inf)
    finally:
        tracer.uninstall()
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert quadrature.improper_integral is original
    acc = tracer.acc["round"]
    assert acc["quadrature.improper.calls"] == 1
    assert acc["quadrature.panels"] >= 1
    assert acc["quadrature.integrand_evals"] >= 21 * acc["quadrature.panels"]


# -- yardstick ---------------------------------------------------------------


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.mark.parametrize("speed", [1.0, 0.5])
@pytest.mark.parametrize("name", sorted(yardstick.PROBES))
def test_yardstick_scales_wall_time(monkeypatch, name, speed):
    ref = yardstick.PROBES[name][1]
    monkeypatch.setitem(yardstick.PROBES, name, (lambda: ref / speed, ref))
    clock = yardstick.Yardstick(name, interval=0.01)
    with clock.timing() as timing:
        _busy(0.2)
    assert len(clock.samples) >= 5
    assert timing.wall == pytest.approx(0.2, rel=0.1)
    assert timing.seconds == pytest.approx(speed * timing.wall, rel=1e-9)


def test_yardstick_subtracts_probe_time(monkeypatch):
    def slow_probe():
        _busy(0.005)
        return 0.001

    monkeypatch.setitem(yardstick.PROBES, "solve", (slow_probe, 0.001))
    clock = yardstick.Yardstick(interval=0.02)
    before = clock.probe_s
    with clock.timing() as timing:
        _busy(0.3)                        # 0.3 s of wall time, probes included
    in_block = clock.probe_s - before - 0.005   # less the probe on entry
    assert in_block > 0.02
    assert timing.wall == pytest.approx(0.3 - in_block, abs=0.01)


def test_probes_run():
    for probe, ref in yardstick.PROBES.values():
        assert 0.1 * ref < probe() < 1.0


def test_stopwatch_is_wall_time():
    clock = yardstick.Stopwatch()
    with clock.timing() as timing:
        _busy(0.05)
    assert timing.seconds == timing.wall >= 0.05
