"""Command-line interface: commands, reports, exit codes."""

import json
import math

import pytest

from slq import cli, forms, triplets
from slq.cli import (
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
    # Each march records the z it ran at: i, in Legendre's own units.
    for section in report["classification"].values():
        assert [ev["z"] for ev in section["evidence"]] \
            == [{"re": 0.0, "im": 1.0}] * 2


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
                 for z in row.tolist()] for row in matrix]
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
])
def test_out_of_range_options_are_refused(specfile, capsys, command, flags):
    # Each is refused with a message and exit 2, before any work: none
    # runs on, none ends in a traceback.
    path = specfile({"coefficients": {"catalog": "regular_dirichlet_pi"}})
    assert main([command, path, *flags]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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
