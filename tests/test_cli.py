"""Command-line interface: commands, reports, exit codes."""

import json
import math
import sys

import pytest

from slq import cli, forms, triplets
from slq.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from slq.extensions import Coupled, OneLC, Separated
from slq.forms import q_decorated
from slq.functions import ExprFunction


@pytest.fixture
def specfile(tmp_path):
    def write(doc, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_classify_legendre(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "legendre"}})
    code, report = _run(capsys, ["classify", path])
    assert code == EXIT_OK
    kinds = {e: s["kind"] for e, s in report["classification"].items()}
    assert kinds == {"a": "limit_circle", "b": "limit_circle"}
    # The one march at each end records the z it ran at: i, in Legendre's
    # own units.
    for section in report["classification"].values():
        assert [ev["z"] for ev in section["evidence"]] \
            == [{"re": 0.0, "im": 1.0}]


def test_no_command_takes_a_probe(specfile, capsys):
    # The Weyl verdict does not depend on the nonreal z it is probed at, so
    # z comes from the problem's own scale, not from the command line.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    for argv in (["classify"], ["form", "--f", "sin", "--g", "sin"],
                 ["green-check", "--f", "sin", "--g", "sin"], ["eig"],
                 ["triplet"]):
        assert main([argv[0], path, *argv[1:], "--probe", "2i"]) \
            == EXIT_PARSE
        assert "--probe" in capsys.readouterr().err


def test_parse_failure_exit_code(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "legendre"}, "junk": 1})
    code = main(["classify", path])
    assert code == EXIT_PARSE


def test_missing_file_exit_code():
    assert main(["classify", "/nonexistent/file.json"]) == EXIT_PARSE


def test_unknown_function_specifier(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    code = main(["gbv", path, "--g", "unknown_token"])
    assert code == EXIT_PARSE


def test_gbv_command(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    code, report = _run(capsys, ["gbv", path, "--g", "poly:2,3",
                                 "--endpoint", "a"])
    assert code == EXIT_OK
    entry = report["gbv"]["a"]
    assert entry["tilde"] == pytest.approx(2.0, abs=1e-10)
    assert entry["tilde_prime"] == pytest.approx(3.0, abs=1e-10)


def test_form_command_sine(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    code, report = _run(capsys, ["form", path, "--f", "sin", "--g", "sin"])
    assert code == EXIT_OK
    assert report["form"]["value"] == pytest.approx(math.pi / 2, abs=1e-8)


def test_green_check_command(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "legendre"}})
    code, report = _run(capsys, ["green-check", path,
                                 "--f", "bump:0,0.5", "--g", "v2"])
    assert code == EXIT_OK
    assert report["green_check"]["passed"]


def test_eig_command(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    code, report = _run(capsys, ["eig", path, "--lmin", "0.5",
                                 "--lmax", "10"])
    assert code == EXIT_OK
    lams = [v["lambda"] for v in report["eigenvalues"]["values"]]
    assert lams == pytest.approx([1.0, 4.0, 9.0], abs=1e-7)
    assert report["eigenvalues"]["complete"] is True


def test_eig_empty_range_reports_empty_list(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    code, report = _run(capsys, ["eig", path, "--lmin", "1.5",
                                 "--lmax", "3.5"])
    assert code == EXIT_OK
    assert report["eigenvalues"]["values"] == []
    assert report["eigenvalues"]["complete"] is True


@pytest.mark.parametrize("coefficients, want", [
    ({"p": "sqrt(x)", "q": "0", "r": "1"}, [4.739066398, 20.47164584]),
    ({"p": "1", "q": "x**(-0.5)", "r": "1"}, [11.37728481]),
])
def test_regular_end_with_vanishing_p_or_unbounded_q(specfile, capsys,
                                                     coefficients, want):
    # 0 is regular, but p(0) = 0 or q(0) = inf: every command builds the
    # basis there by the march and exits 0.  The Dirichlet eigenvalues are
    # those of an independent scipy shooting in t = sqrt(x).
    path = specfile({"interval": {"a": 0, "b": 1},
                     "coefficients": coefficients})
    fg = ["--f", "bump:0.5,0.3", "--g", "bump:0.4,0.3"]
    for argv in (["classify"], ["basis"], ["gbv", "--g", "bump:0.5,0.3"],
                 ["form", *fg], ["green-check", *fg], ["triplet"]):
        code, report = _run(capsys, [argv[0], path, *argv[1:]])
        assert code == EXIT_OK, argv
    code, report = _run(capsys, ["eig", path, "--lmin", "0.5",
                                 "--lmax", "40"])
    assert code == EXIT_OK
    got = [v["lambda"] for v in report["eigenvalues"]["values"]]
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-6 for g, w in zip(got, want))


@pytest.mark.parametrize("strict", [False, True])
def test_eig_periodic_lists_each_double_twice(specfile, capsys, strict):
    # Periodic conditions on (0, pi): 4 and 16 are double eigenvalues, where
    # the coupled determinant touches zero without changing sign.  The
    # index jumps by two at each, so both are listed twice, with or
    # without --strict.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"},
                     "extension": {"kind": "coupled", "phi": 0,
                                   "R": [[1, 0], [0, 1]]}})
    code = main(["eig", path, "--lmin", "0.5", "--lmax", "17.5",
                 *(["--strict"] if strict else [])])
    out = capsys.readouterr()
    assert code == EXIT_OK
    assert out.err == ""
    section = json.loads(out.out)["eigenvalues"]
    assert section["extension"] == "coupled"
    assert "unresolved" not in section
    assert section["complete"] is True
    lams = [v["lambda"] for v in section["values"]]
    assert lams == pytest.approx([4.0, 4.0, 16.0, 16.0], abs=1e-6)


def test_eig_krein_lists_the_double_zero_twice(specfile, capsys):
    # Krein's condition Coupled(0, [[1, pi], [0, 1]]) on (0, pi): 0 is a
    # double eigenvalue, where the coupled determinant touches zero without
    # changing sign, and 4 a simple one.  The index counts all three, so
    # the list is complete.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"},
                     "extension": {"kind": "coupled", "phi": 0.0,
                                   "R": [[1, math.pi], [0, 1]]}})
    code = main(["eig", path, "--lmin", "-0.31", "--lmax", "5"])
    out = capsys.readouterr()
    assert code == EXIT_OK
    assert out.err == ""
    section = json.loads(out.out)["eigenvalues"]
    assert section["complete"] is True
    lams = [v["lambda"] for v in section["values"]]
    assert lams == pytest.approx([0.0, 0.0, 4.0], abs=1e-6)


def test_eig_at_a_finite_limit_point_end_is_a_numerical_failure(
        specfile, capsys):
    # Coulomb with l = 1 is limit point at 0: shooting has no start there,
    # which is a numerical refusal (exit 4), not a spec-file error at x = 0.
    path = specfile({"interval": {"a": 0, "b": "inf"},
                     "coefficients": {"p": "1", "q": "2/x**2 - 1/x",
                                      "r": "1"}})
    code = main(["eig", path, "--lmin", "-0.3", "--lmax", "-0.01"])
    assert code == EXIT_NUMERICAL
    assert "finite limit-point end" in capsys.readouterr().err


def test_eig_reports_an_overflow_as_non_finite(specfile, capsys):
    # q = 1e6 on (0, 2): u grows like e^(1000 x) and overflows near x = 0.7.
    # The refusal names the overflow, not a step-size stall.
    path = specfile({"interval": {"a": 0, "b": 2},
                     "coefficients": {"p": "1", "q": "1e6", "r": "1"}})
    code = main(["eig", path, "--lmin", "0", "--lmax", "1"])
    assert code == EXIT_NUMERICAL
    assert "error: NonFiniteState: state overflowed" \
        in capsys.readouterr().err


def test_commands_run_on_an_interval_near_the_float_limit(specfile,
                                                          capsys):
    # On (1e308, 1.7e308), a + b overflows, so each midpoint is taken as
    # the sum of the halves.  Both ends are regular; g = 1 + 1e-308 x has
    # g~ = g there.
    path = specfile({"interval": {"a": 1e308, "b": 1.7e308},
                     "coefficients": {"p": "1", "q": "0", "r": "1"}})
    code, report = _run(capsys, ["classify", path])
    assert code == EXIT_OK
    assert {e: s["kind"] for e, s in report["classification"].items()} \
        == {"a": "limit_circle", "b": "limit_circle"}
    assert _run(capsys, ["basis", path])[0] == EXIT_OK
    code, report = _run(capsys, ["gbv", path, "--g", "poly:1,1e-308"])
    assert code == EXIT_OK
    assert report["gbv"]["a"]["tilde"] == pytest.approx(2.0, rel=1e-12)
    assert report["gbv"]["b"]["tilde"] == pytest.approx(2.7, rel=1e-12)


def test_triplet_command_with_extension(specfile, capsys):
    path = specfile({
        "coefficients": {"catalog": "regular_dirichlet_pi"},
        "extension": {"kind": "separated", "alpha": 0.9, "beta": 2.1},
    })
    code, report = _run(capsys, ["triplet", path])
    assert code == EXIT_OK
    section = report["triplet"]
    assert section["n"] == 2
    assert section["multivalued_dim"] == 0
    deviations = [c["deviation"] for c in section["cross_path"]
                  if "deviation" in c]
    assert deviations and max(deviations) < 1e-8


@pytest.mark.parametrize("ext, doc", [
    (Separated(0.9, 2.1), {"kind": "separated", "alpha": 0.9, "beta": 2.1}),
    (Coupled(1.0, ((1.0, 0.0), (0.0, 1.0))),
     {"kind": "coupled", "phi": 1.0, "R": [[1, 0], [0, 1]]}),
], ids=["separated", "coupled"])
def test_triplet_matrices_follow_the_complex_number_rule(specfile, capsys,
                                                         ext, doc):
    # A, B and theta_op are reported entry by entry as every complex
    # number is: a plain number where the imaginary part is 0, else
    # {"re", "im"}.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"},
                     "extension": doc})
    code, report = _run(capsys, ["triplet", path])
    assert code == EXIT_OK
    section = report["triplet"]
    for key, matrix in (("A", ext.pair.A), ("B", ext.pair.B),
                        ("theta_op", ext.relation.theta_op)):
        want = [[z.real if z.imag == 0.0 else {"re": z.real, "im": z.imag}
                 for z in row] for row in matrix]
        assert section[key] == want, key
    plain = all(isinstance(x, float) for key in ("A", "B", "theta_op")
                for row in section[key] for x in row)
    assert plain == (doc["kind"] == "separated")


def test_a_bad_window_is_refused_when_the_options_are_parsed(specfile,
                                                             capsys):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    for spec_path in (path, "/nonexistent/file.json"):
        assert main(["form", spec_path, "--f", "sin", "--g", "sin",
                     "--window", "0.1"]) == EXIT_PARSE
        assert "--window expects 'c,d'" in capsys.readouterr().err


def test_a_window_with_a_negative_cut_parses_after_an_equals_sign(capsys):
    # argparse reads "--window -0.95,0.95" as a flag without its value;
    # "--window=-0.95,0.95" gives it the cut c = -0.95, and the option's
    # help says so.
    parser = cli.build_parser()
    args = parser.parse_args(
        ["form", "spec.json", "--f", "x", "--g", "x", "--window=-0.95,0.95"])
    assert (args.window.c, args.window.d) == (-0.95, 0.95)
    with pytest.raises(SystemExit):
        parser.parse_args(["form", "--help"])
    assert "--window=c,d" in capsys.readouterr().out


def test_form_on_legendre_at_a_negative_cut(specfile, capsys):
    # The Friedrichs form of x^4 on Legendre with the cuts at -0.95 and
    # 0.95: int (1 - x^2) (4x^3)^2 dx = 64/63.
    path = specfile({"coefficients": {"catalog": "legendre"},
                     "extension": {"kind": "separated", "alpha": 0.0,
                                   "beta": 0.0}})
    code, report = _run(capsys, ["form", path, "--f", "poly:0,0,0,0,1",
                                 "--g", "poly:0,0,0,0,1",
                                 "--window=-0.95,0.95"])
    assert code == EXIT_OK
    assert report["form"]["window"] == [-0.95, 0.95]
    assert abs(report["form"]["value"] - 64 / 63) <= 1e-9


def test_triplet_cross_path_on_half_line(specfile, capsys):
    # Every sample must be square integrable on (0, inf).
    path = specfile({
        "coefficients": {"catalog": "free_halfline"},
        "extension": {"kind": "one_lc", "alpha": 0.8, "endpoint": "a"},
    })
    code, report = _run(capsys, ["triplet", path])
    assert code == EXIT_OK
    samples = report["triplet"]["cross_path"]
    assert len(samples) == 3
    assert not [s for s in samples if "error" in s]
    assert max(s["deviation"] for s in samples) < 1e-8


def test_triplet_computes_one_base_form_per_sample(specfile, capsys,
                                                  monkeypatch):
    # Both cross-path routes are q_base plus a decoration, so each sample
    # needs one base form, not one per route.
    path = specfile({
        "coefficients": {"catalog": "free_halfline"},
        "extension": {"kind": "one_lc", "alpha": 0.8, "endpoint": "a"},
    })
    original = forms.q_base
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (cli, forms, triplets):
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, counted)
    code, report = _run(capsys, ["triplet", path])
    assert code == EXIT_OK
    samples = report["triplet"]["cross_path"]
    assert len(samples) == 3
    assert len(calls) == 3
    assert not [s for s in samples if "error" in s]
    assert max(s["deviation"] for s in samples) <= 1e-10


def test_form_one_lc_keeps_the_lp_end_lp(free_halfline, free_halfline_bases):
    # The LP end b must not take the LC branch (w = u_hat, lead-term
    # subtraction): with w = u = 1 there its boundary correction is 0.  For
    # f = exp(-k x) the form is k/2 from the Dirichlet integral plus the
    # decoration -cot(alpha) |f(0)|^2.
    ext = OneLC(0.8, "a")
    for k in (1.0, 1.5):
        f = ExprFunction(free_halfline, f"exp(-{k}*x)")
        form = q_decorated(free_halfline, free_halfline_bases, None, ext, f,
                           f)
        assert form.pieces["boundary_correction_d"] == 0
        assert form.value == pytest.approx(k / 2 - 1.0 / math.tan(0.8),
                                           abs=1e-12)


def test_form_refuses_a_function_outside_l2(specfile, capsys):
    # poly:1 is not in L^2(0, inf): its form has no value.
    path = specfile({
        "coefficients": {"catalog": "free_halfline"},
        "extension": {"kind": "one_lc", "alpha": 0.8, "endpoint": "a"},
    })
    code = main(["form", path, "--f", "poly:1", "--g", "poly:1"])
    assert code == EXIT_NUMERICAL
    assert "FormIntegralDiverges" in capsys.readouterr().err


def test_basis_refuses_an_oscillatory_lambda0(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "free_halfline"},
                     "lambda0": 4})
    code = main(["basis", path])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert "OscillatoryAtLambda0" in captured.err
    assert captured.out == ""


def test_basis_command_with_csv(specfile, capsys, tmp_path):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    prefix = str(tmp_path / "dump")
    code, report = _run(capsys, ["basis", path, "--csv", prefix])
    assert code == EXIT_OK
    csv_path = report["basis"]["a"]["csv"]
    header = open(csv_path).readline().strip().split(",")
    assert header == ["x", "u", "u_qd", "uhat", "uhat_qd"]


def test_report_deterministic(specfile, capsys):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    _, r1 = _run(capsys, ["gbv", path, "--g", "sin"])
    _, r2 = _run(capsys, ["gbv", path, "--g", "sin"])
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert r1 == r2


def test_out_flag_writes_file(specfile, capsys, tmp_path):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    out = tmp_path / "report.json"
    code = main(["classify", path, "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["schema"] == "slq-report/1"


@pytest.mark.parametrize("command, flags", [
    ("classify", ["--tol", "1e-3"]),
    ("basis", ["--tol", "1e-3"]),
    ("gbv", ["--g", "sin", "--window", "0.5,2.5"]),
    ("form", ["--f", "sin", "--g", "sin", "--csv", "dump"]),
    ("green-check", ["--f", "sin", "--g", "sin", "--csv", "dump"]),
    ("eig", ["--lmin", "0.5", "--lmax", "1.5", "--csv", "dump"]),
    ("triplet", ["--tol", "1e-3"]),
    ("gbv", ["--g", "sin", "--tol", "nan"]),
    ("gbv", ["--g", "sin", "--tol", "-1"]),
])
def test_command_refuses_an_option_it_does_not_read(specfile, capsys,
                                                    command, flags):
    # Each command takes only the options it reads; one that would be
    # ignored is a usage error.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    assert main([command, path, *flags]) == EXIT_PARSE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, flags", [
    ("form", ["--f", "bump:1.0,0.5", "--g", "bump:1.5,0.8"]),
    ("triplet", []),
])
def test_extension_checked_against_classification(specfile, capsys,
                                                  command, flags):
    # free_halfline is LC at a only; an extension naming b is refused, as
    # `slq eig` refuses it.
    path = specfile({
        "coefficients": {"catalog": "free_halfline"},
        "extension": {"kind": "one_lc", "alpha": 0.8, "endpoint": "b"},
    })
    code = main([command, path] + flags)
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert "VariantMismatch" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, flags", [
    ("gbv", ["--g", "poly:nan,1"]),
    ("green-check", ["--f", "sin", "--g", "sin", "--window", "1,inf"]),
    ("green-check", ["--f", "sin", "--g", "sin", "--tol", "nan"]),
    ("eig", ["--lmin", "nan"]),
    ("eig", ["--lmax", "inf"]),
    ("form", ["--f", "sin", "--g", "sin", "--window", "nan,3"]),
    ("form", ["--f", "bump:nan,1", "--g", "sin"]),
    ("form", ["--f", "poly:1,inf", "--g", "sin"]),
])
def test_command_line_numbers_must_be_finite(specfile, capsys, command,
                                             flags):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    assert main([command, path, *flags]) == EXIT_PARSE
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("eig", ["--tol", "-1"]),
    ("eig", ["--tol", "0"]),
    ("form", ["--f", "sin", "--g", "bump:0.5,-1"]),
    ("green-check", ["--f", "sin", "--g", "sin", "--tol", "-1"]),
    ("eig", ["--lmin", "5", "--lmax", "5"]),
    ("eig", ["--lmin", "10", "--lmax", "1"]),
    ("form", ["--f", "bump:1,0", "--g", "sin"]),
    ("eig", ["--grid", "0"]),
    ("eig", ["--grid", "-3"]),
    ("eig", ["--lmin=-1e308", "--lmax=1e308"]),
    # A finite width, but 64 cells per unit of it are 1.3e302 cells.
    ("eig", ["--lmin=-1e300", "--lmax=1e300"]),
])
def test_out_of_range_options_are_refused(specfile, capsys, command, flags):
    # Each is refused with a one-line message and exit 2, before any work:
    # none runs on, none ends in a traceback.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    assert main([command, path, *flags]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_form_takes_no_tol(specfile, capsys):
    # The form's domain test reads forms.CONSTRAINT_TOL: --tol is no option
    # of `slq form`, so it is refused like any unknown option.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    assert main(["form", path, "--f", "sin", "--g", "sin",
                 "--tol", "1e-6"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err
    code, report = _run(capsys, ["form", path, "--f", "sin", "--g", "sin"])
    assert code == EXIT_OK
    assert report["tolerance"] is None


@pytest.mark.parametrize("doc", [
    {"lambda0": math.nan},
    {"lambda0": math.inf},
    {"extension": {"kind": "coupled", "phi": 0.0,
                   "R": [[math.nan, 0], [0, 1]]}},
    {"extension": {"kind": "separated", "alpha": "0.5", "beta": 0.2}},
    {"extension": {"kind": "separated", "alpha": 0.5, "beta": True}},
])
def test_spec_numbers_must_be_finite_numbers(specfile, capsys, doc):
    # NaN and Infinity are valid JSON to Python's parser.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"},
                     **doc})
    assert main(["triplet", path]) == EXIT_PARSE
    assert "finite number" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_a_badly_scaled_coupled_r_is_refused_without_a_traceback(specfile,
                                                                 capsys):
    # det R = 1, but the pair's rows differ in scale by 1e200: the rank
    # test refuses it.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"},
                     "extension": {"kind": "coupled", "phi": 0.0,
                                   "R": [[1e200, 0], [0, 1e-200]]}})
    assert main(["triplet", path]) == EXIT_NUMERICAL
    assert "RankDeficient" in capsys.readouterr().err


def test_the_parser_is_built_once_and_keeps_no_state():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    form = parser.parse_args(["form", "spec.json", "--f", "bump:0,1",
                              "--g", "bump:0,1", "--strict"])
    classify = parser.parse_args(["classify", "spec.json"])
    assert form.f == "bump:0,1" and form.strict
    assert not hasattr(classify, "f") and not classify.strict
    assert classify.fn is cli.cmd_classify


ENVELOPE = {"schema", "version", "command", "timestamp", "problem",
            "tolerance"}


def test_every_report_is_the_envelope_and_one_section(specfile, capsys):
    # main writes every report: the envelope keys plus the command's one
    # section.  A command that fails, with exit 4 or 2, writes none.
    path = specfile({"coefficients": {"catalog": "free_halfline"},
                     "extension": {"kind": "one_lc", "alpha": 0.8,
                                   "endpoint": "a"}})
    fg = ["--f", "bump:0.1,0.75", "--g", "bump:-0.1,0.72"]
    sections = {}
    for argv in (["classify"], ["basis"], ["gbv", "--g", "bump:0.1,0.75"],
                 ["form", *fg], ["green-check", *fg], ["triplet"],
                 ["eig", "--lmin", "-1.5", "--lmax", "-0.1"]):
        code, report = _run(capsys, [argv[0], path, *argv[1:]])
        assert code == EXIT_OK, argv
        assert report["command"] == argv[0]
        (section,) = set(report) - ENVELOPE
        assert set(report) == ENVELOPE | {section}
        sections[argv[0]] = section
    assert sections == {
        "classify": "classification", "basis": "basis", "gbv": "gbv",
        "form": "form", "green-check": "green_check", "triplet": "triplet",
        "eig": "eigenvalues"}
    for argv, want in ((["form", "--f", "poly:1", "--g", "poly:1"],
                        EXIT_NUMERICAL),
                       (["gbv", "--g", "unknown_token"], EXIT_PARSE)):
        assert main([argv[0], path, *argv[1:]]) == want
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


def test_commands_run_with_numpy_blocked(specfile, capsys, monkeypatch):
    # numpy is no dependency of slq: with its import refused, the seven
    # commands run on the one-LC half-line, and eig and triplet on
    # Legendre with the coupled condition R = I, phi = 0.
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401
    halfline = specfile({"coefficients": {"catalog": "free_halfline"},
                         "extension": {"kind": "one_lc", "alpha": 0.8,
                                       "endpoint": "a"}})
    legendre = specfile({"coefficients": {"catalog": "legendre"},
                         "extension": {"kind": "coupled", "phi": 0.0,
                                       "R": [[1, 0], [0, 1]]}},
                        name="legendre.json")
    fg = ["--f", "bump:0.1,0.75", "--g", "bump:-0.1,0.72"]
    reports = []
    for argv in (["classify", halfline], ["basis", halfline],
                 ["gbv", halfline, "--g", "bump:0.1,0.75"],
                 ["form", halfline, *fg], ["green-check", halfline, *fg],
                 ["triplet", halfline],
                 ["eig", halfline, "--lmin", "-1.5", "--lmax", "-0.1"],
                 ["eig", legendre, "--lmin", "0.5", "--lmax", "7",
                  "--grid", "4"],
                 ["triplet", legendre]):
        code, report = _run(capsys, argv)
        assert code == EXIT_OK, argv
        assert report["command"] == argv[0]
        reports.append(report)
    # The one-LC eigenvalue -cot(0.8)^2, and P_2's eigenvalue 6, which
    # meets the coupled condition.
    for report, want in ((reports[6], -1.0 / math.tan(0.8) ** 2),
                         (reports[7], 6.0)):
        assert [v["lambda"] for v in report["eigenvalues"]["values"]] \
            == pytest.approx([want], abs=1e-7)


@pytest.mark.parametrize("raw, message", [
    (b'\xff\xfe{"coefficients": {"catalog": "legendre"}}', "utf-8"),
    (b"[" * 200_000, "recursion"),
], ids=["not_utf8", "nested_too_deep"])
def test_a_spec_file_json_cannot_read_is_refused(tmp_path, capsys, raw,
                                                 message):
    # Neither ends in a traceback: both are spec-file errors (exit 2).
    path = tmp_path / "problem.json"
    path.write_bytes(raw)
    assert main(["classify", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "is not valid JSON" in captured.err
    assert message in captured.err


EXPLICIT = {"p": "1", "q": "0", "r": "1"}


@pytest.mark.parametrize("doc, code, message", [
    ([], EXIT_PARSE, "problem spec must be a JSON object"),
    ({}, EXIT_PARSE, "problem spec is missing 'coefficients'"),
    ({"coefficients": "legendre"}, EXIT_PARSE,
     "'coefficients' must be an object"),
    ({"coefficients": EXPLICIT}, EXIT_PARSE,
     "explicit coefficients require an 'interval'"),
    ({"interval": [0, 1], "coefficients": EXPLICIT}, EXIT_PARSE,
     "'interval' must be an object"),
    ({"interval": {"a": 0}, "coefficients": EXPLICIT}, EXIT_PARSE,
     "'interval' needs both 'a' and 'b'"),
    ({"interval": {"a": math.nan, "b": 1}, "coefficients": EXPLICIT},
     EXIT_PARSE, "interval endpoints must not be NaN"),
    ({"interval": {"a": 0, "b": "infinit"}, "coefficients": EXPLICIT},
     EXIT_PARSE, "bad interval endpoint 'infinit'"),
    ({"coefficients": {"catalog": "nope"}}, EXIT_PARSE,
     "no catalog entry named 'nope'"),
    ({"coefficients": {"catalog": "bessel(x)"}}, EXIT_PARSE,
     "bad bessel parameter in 'bessel(x)'"),
    ({"interval": {"a": 0, "b": 1},
      "coefficients": {"p": "1", "q": "1e308*(x+2)**2", "r": "1"}},
     EXIT_NUMERICAL, "NonFiniteValue: coefficient q is not finite"),
], ids=["not_an_object", "no_coefficients", "coefficients_not_an_object",
        "no_interval", "interval_not_an_object", "interval_without_b",
        "nan_endpoint", "misspelt_infinity", "unknown_catalog_entry",
        "bad_bessel_parameter", "non_finite_coefficient"])
def test_every_refused_spec_exits_with_one_error_line(specfile, capsys, doc,
                                                      code, message):
    # A spec the parser refuses, an unknown catalog entry among them, is a
    # spec-file error (exit 2); a coefficient that overflows at a sample
    # point is a numerical failure (exit 4).
    assert main(["classify", specfile(doc)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert message in captured.err


SLOW_TAIL = {"interval": {"a": 1, "b": "inf"},
             "coefficients": {"p": "1", "q": "0", "r": "x**(-3.1)"}}


@pytest.mark.parametrize("strict, code", [(False, EXIT_NUMERICAL),
                                          (True, EXIT_INCONCLUSIVE)])
def test_classify_reports_an_inconclusive_end(specfile, capsys, strict,
                                              code):
    # r = x^-3.1 on (1, inf): the probe's tail at inf shrinks too slowly to
    # certify (tests/test_classify.py), and the report says so.
    path = specfile(SLOW_TAIL)
    got, report = _run(capsys, ["classify", path]
                       + (["--strict"] if strict else []))
    assert got == code
    section = report["classification"]
    assert section["a"]["kind"] == "limit_circle"
    assert section["b"]["kind"] == "inconclusive"
    assert "endpoint b not certified" in section["b"]["detail"]


@pytest.mark.parametrize("strict, code", [(False, EXIT_NUMERICAL),
                                          (True, EXIT_INCONCLUSIVE)])
@pytest.mark.parametrize("argv", [["form", "--f", "sin", "--g", "sin"],
                                  ["eig"], ["triplet"]],
                         ids=["form", "eig", "triplet"])
def test_commands_that_need_the_classification_stop_when_it_is_inconclusive(
        specfile, capsys, argv, strict, code):
    path = specfile(SLOW_TAIL)
    assert main([argv[0], path, *argv[1:]]
                + (["--strict"] if strict else [])) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        "inconclusive: classification at endpoint b not certified")


@pytest.mark.parametrize("command, a, b", [
    ("eig", 1.0, 1.0000000000000002),
    ("eig", 0.0, 5e-324),
    ("basis", 1e17, "inf"),
    ("basis", "-inf", -1e17),
])
def test_an_interval_with_no_interior_point_is_refused(specfile, capsys,
                                                       command, a, b):
    # Its reference point rounds onto an end: a spec-file error (exit 2)
    # with one line, not a traceback from a zero-length solve.
    path = specfile({"interval": {"a": a, "b": b},
                     "coefficients": {"p": "1", "q": "0", "r": "1"}})
    assert main([command, path]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "no interior point to start from" in captured.err


@pytest.mark.parametrize("flags", [
    ["--out", "{missing}/report.json"],
    ["--csv", "{missing}/dump"],
], ids=["out", "csv"])
def test_an_output_path_that_cannot_be_written_is_refused(
        specfile, capsys, tmp_path, flags):
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    flags = [f.format(missing=tmp_path / "missing") for f in flags]
    assert main(["basis", path, *flags]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert str(tmp_path / "missing") in captured.err
