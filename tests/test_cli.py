import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kleinfour
from kleinfour import autos, cli
from kleinfour.autos import parse_descriptor
from kleinfour.cli import main
from kleinfour.rootsys import cartan_matrix
from kleinfour.verify import VerifyContext
import raise_gate
from oracles import pairing_parity_fixed_dim, torus_parity_type

REPO = Path(__file__).resolve().parent.parent


def run_cli(args):
    """Invoke the entry point in-process, capturing stdout/stderr/exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_roots_listing_text():
    code, out, _ = run_cli(["roots", "--type", "A2"])
    assert code == 0
    assert "6 roots, 3 positive" in out
    assert out.count("height") == 6


def test_roots_json_schema():
    code, out, _ = run_cli(["roots", "--type", "A1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["root_system"]["rank"] == "1"
    assert len(data["root_system"]["roots"]) == 2


def test_output_is_byte_identical_across_runs():
    a = run_cli(["roots", "--type", "E6", "--format", "json", "--table"])
    b = run_cli(["roots", "--type", "E6", "--format", "json", "--table"])
    assert a == b


def test_golden_comparison_matches():
    code, out, _ = run_cli(["roots", "--type", "E6", "--golden-dir", str(REPO / "golden")])
    assert code == 0
    assert "golden match" in out


def test_table_golden_comparison_matches():
    code, out, _ = run_cli(["roots", "--type", "E6", "--table", "--format", "json",
                            "--golden-dir", str(REPO / "golden")])
    assert code == 0
    assert "golden match" in out


def test_text_roots_never_build_the_json_payload(monkeypatch):
    text = [["roots", "--type", "E8", "--table"], ["roots", "--type", "E6"],
            ["roots", "--type", "E6", "--table"]]
    as_json = ["roots", "--type", "E6", "--table", "--format", "json"]
    before = [run_cli(argv) for argv in text]
    assert [out for _, out, _ in before[1:]] == [
        (REPO / "golden" / name).read_text(encoding="utf-8")
        for name in ("roots_E6.txt", "roots_E6_table.txt")]

    def refuse(*_):
        raise AssertionError("a text request built the JSON payload")

    for name in ("root_system_to_jsonable", "structure_table_to_jsonable"):
        monkeypatch.setattr(cli, name, refuse)
    assert [run_cli(argv) for argv in text] == before
    assert run_cli(as_json)[0] == 1  # the patched builders are the ones JSON calls
    monkeypatch.undo()
    assert run_cli(as_json) == (
        0, (REPO / "golden" / "roots_E6_table.json").read_text(encoding="utf-8"), "")


def test_type_label_is_normalised():
    assert run_cli(["roots", "--type", "e6"]) == run_cli(["roots", "--type", "E6"])
    code, out, _ = run_cli(["roots", "--type", "e6", "--golden-dir", str(REPO / "golden")])
    assert code == 0
    assert "golden match" in out


def test_golden_mismatch_fails(tmp_path):
    (tmp_path / "roots_A1.txt").write_text("not the real thing\n")
    code, out, err = run_cli(["roots", "--type", "A1", "--golden-dir", str(tmp_path)])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "GoldenMismatchError", "layer": "cli", "check": "_cmd_roots",
                               "message": f"golden mismatch against {tmp_path / 'roots_A1.txt'}"}


@pytest.mark.parametrize("command", [["roots"], ["fixed", "--auto", "omega"],
                                     ["identify", "--auto", "omega"]])
def test_catalog_is_an_unrecognized_argument_where_no_work_reads_it(command):
    """No command takes --catalog (the real-form catalog is the shipped one):
    it is a usage error (exit 2), not a failure to read a file."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        main(command + ["--catalog", "missing.json"])
    assert (exc.value.code, out.getvalue()) == (2, "")
    assert "unrecognized arguments: --catalog missing.json" in err.getvalue()


@pytest.mark.parametrize("flags, name", [([], "roots_A2.txt"),
                                         (["--table", "--format", "json"], "roots_A2_table.json")])
def test_roots_stdout_is_the_golden_file_it_matches(tmp_path, flags, name):
    """A golden file is the roots output itself, so writing stdout to it
    regenerates it."""
    argv = ["roots", "--type", "A2"] + flags
    code, out, _ = run_cli(argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(out, encoding="utf-8")
    assert run_cli(argv + ["--golden-dir", str(tmp_path)]) == (0, f"golden match: {path}\n", "")


def test_fixed_command():
    code, out, _ = run_cli(["fixed", "--auto", "omega"])
    assert code == 0
    assert "dim 52" in out
    assert "type F4" in out


def test_identify_command_json():
    code, out, _ = run_cli(
        ["identify", "--auto", "torus:1,0,0,0,0,1", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["type"] == "D5+u(1)"


def test_realform_command():
    code, out, _ = run_cli(["realform", "--theta", "omega"])
    assert code == 0
    assert "name e6(-26)" in out
    assert "signature (52, 26)" in out


def test_realform_on_a_klein_four_fixed_algebra():
    """The two-generator split of README's example, and generators that do not commute."""
    theta = ["realform", "--theta", "torus:1,0,0,0,0,1", "--auto", "omega"]
    assert run_cli(theta + ["--auto", "torus:0,0,1,0,1,0"]) == (0, "\n".join([
        "theta torus:1,0,0,0,0,1 on fixed(omega, torus:0,0,1,0,1,0)", "g_type B4",
        "k_type D4", "signature (28, 8)", "name so(8,1)", ""]), "")
    code, out, err = run_cli(theta + ["--auto", "torus:1,0,0,0,0,0"])
    assert (code, out) == (1, "")
    assert err == ('{"check": "check_klein", "error": "ValueError", "layer": "autos", '
                   '"message": "generators omega, torus:1,0,0,0,0,0 do not commute"}\n')


@pytest.mark.parametrize("gens, message", [
    (["torus:0,0,1,0,1,0", "omega*torus:1,0,0,0,0,0"],
     "generator omega*torus:1,0,0,0,0,0 is not an involution"),
    (["torus:0,0,1,0,1,0"] * 2, "generators are equal; the product would be the identity"),
], ids=["order-4", "equal"])
def test_realform_rejects_generators_that_break_a_klein_axiom(gens, message):
    argv = ["realform", "--theta", "torus:1,0,0,0,0,1"]
    for g in gens:
        argv += ["--auto", g]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and json.loads(err) == {
        "error": "ValueError", "layer": "autos", "check": "check_klein", "message": message}


@pytest.mark.parametrize("first, certified", [("omega", 3), ("omega*torus:0,0,0,0,0,0", 3)])
def test_realform_checks_the_klein_axioms_without_certifying_the_product(
        monkeypatch, first, certified):
    """The certified members are theta and each generator, a twist as one
    member with no certificate of its omega or torus factor, and one more,
    the compact form's Chevalley involution: check_klein builds no product ab."""
    sizes = []
    certify = autos.certify_batch

    def counting(table, batch):
        batch = list(batch)
        sizes.append(len(batch))
        return certify(table, batch)

    monkeypatch.setattr(autos, "certify_batch", counting)
    argv = ["realform", "--theta", "torus:1,0,0,0,0,1", "--auto", first,
            "--auto", "torus:0,0,1,0,1,0"]
    assert run_cli(argv)[0] == 0
    assert sum(sizes) == certified + 1


def test_bad_descriptor_is_usage_error_exit_2():
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(["fixed", "--auto", "bogus:zzz"])
    assert exc.value.code == 2
    assert "error" in err.getvalue()


@pytest.mark.parametrize("descriptor", [
    "torus:1_0,0,0,0,0,0",  # int() reads "1_0" as 10
    "torus:\u0661,0,0,0,0,0",  # an Arabic-Indic one, which int() reads as 1
    "torus: 1,0,0,0,0,0",
    "omega*torus:1_0,0,0,0,0,0",
    "omega*torus:\u0661,0,0,0,0,0",
])
def test_torus_coefficients_are_ascii_integers(descriptor):
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        main(["identify", "--auto", descriptor])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert "bad torus coefficients" in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["fixed", "--auto", "omega*omega"],
    ["realform", "--theta", "omega"] + ["--auto", "omega"] * 3,
    ["roots", "--bless"],
    ["search", "--type", "A2", "--classes", "sigma3,sigma2", "--target", "B4"],
    # arguments that no parser takes
    pytest.param(["roots", "--type", "A1", "--catalog", "missing.json"], id="roots-unrecognized"),
    pytest.param(["realform", "--theta", "omega", "--catalog", "x.json"], id="realform-catalog"),
    pytest.param(["search", "--classes", "sigma3,sigma2", "--target", "B4", "--catalog", "x.json"],
                 id="search-catalog"),
    pytest.param(["verify", "all", "--catalog", "x.json"], id="verify-catalog"),
    pytest.param(["fixed", "--auto", "omega", "--nope"], id="fixed-unrecognized"),
], ids=lambda argv: argv[0])
def test_checks_after_parsing_print_the_subcommand_usage(argv):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(argv)
    assert exc.value.code == 2
    assert err.getvalue().startswith(f"usage: kleinfour {argv[0]} ")
    assert f"kleinfour {argv[0]}: error: " in err.getvalue()


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["roots", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    pytest.param(["roots", "--type", "E"], "malformed type label 'E'",
                 id="args0-malformed type label 'E'"),
    pytest.param(["roots", "--type", "A0"], "rank must be at least 1",
                 id="args1-rank must be at least 1"),
    pytest.param(["search", "--classes", "sigma3,sigma2", "--target", "B4:x"],
                 "must be a whole number", id="args2-must be a whole number"),
    pytest.param(["search", "--classes", "sigma3", "--target", "B4"],
                 "2 or 3 generator classes", id="args3-2 or 3 generator classes"),
    pytest.param(["search", "--classes", "sigma3,sigma9", "--target", "B4"],
                 "unknown class label 'sigma9'", id="args4-unknown class label 'sigma9'"),
    pytest.param(["search", "--type", "E7", "--classes", "sigma3,sigma2", "--target", "B4"],
                 "supports only --type E6", id="args5-supports only --type E6"),
    pytest.param(["verify", "census", "--type", "A2"], "supports only --type E6",
                 id="args6-supports only --type E6"),
    pytest.param(["realform", "--theta", "omega", "--auto", "torus:1,0,0,0,0,1",
                  "--auto", "torus:0,1,0,0,0,0", "--auto", "torus:0,0,1,0,0,0"],
                 "at most two --auto", id="args7-at most two --auto"),
    pytest.param(["search", "--classes", "sigma3,sigma2", "--target", "foo"],
                 "malformed type label 'foo'", id="args8-malformed type label 'foo'"),
    pytest.param(["search", "--classes", "sigma3,sigma2", "--target", "B4:30"],
                 "B4 has dimension 36, not 30", id="args9-B4 has dimension 36, not 30"),
    pytest.param(["roots", "--type", "A2", "--golden-dir", "golden", "--bless"],
                 "unrecognized arguments: --bless", id="args10-unrecognized arguments: --bless"),
    # digits outside ASCII [0-9]: an Arabic-Indic six, a superscript two,
    # and an Arabic-Indic 36
    pytest.param(["roots", "--type", "E\u0666"], "malformed type label 'E\u0666'",
                 id="args11-malformed type label 'E\u0666'"),
    pytest.param(["roots", "--type", "A\u00b2"], "malformed type label 'A\u00b2'",
                 id="args12-malformed type label 'A\u00b2'"),
    pytest.param(["search", "--classes", "sigma3,sigma2", "--target", "B4:\u0663\u0666"],
                 "must be a whole number", id="args13-must be a whole number"),
    # above rootsys.MAX_RANK: rejected before any matrix is built
    pytest.param(["roots", "--type", "A1000"], "rank must be at most 32",
                 id="args14-rank must be at most 32"),
    # each letter's rank rule, and a letter that names no type
    pytest.param(["roots", "--type", "B1"], "B requires rank >= 2",
                 id="args15-B requires rank >= 2"),
    pytest.param(["roots", "--type", "C1"], "C requires rank >= 2",
                 id="args16-C requires rank >= 2"),
    pytest.param(["roots", "--type", "D2"], "D requires rank >= 3",
                 id="args17-D requires rank >= 3"),
    pytest.param(["roots", "--type", "E5"], "E requires rank 6, 7 or 8",
                 id="args18-E requires rank 6, 7 or 8"),
    pytest.param(["roots", "--type", "F3"], "F requires rank 4",
                 id="args19-F requires rank 4"),
    pytest.param(["roots", "--type", "G3"], "G requires rank 2",
                 id="args20-G requires rank 2"),
    pytest.param(["roots", "--type", "Z4"], "unknown type letter 'Z'",
                 id="args21-unknown type letter 'Z'"),
    # an empty item of --classes is a class label that names no class, like
    # sigma9 above, wherever it stands
    pytest.param(["search", "--classes", "sigma3,,sigma2", "--target", "B4"],
                 "unknown class label ''", id="args22-unknown class label ''"),
    pytest.param(["search", "--classes", "sigma3,sigma2,", "--target", "B4"],
                 "unknown class label ''", id="args23-unknown class label ''"),
    pytest.param(["search", "--classes", ",sigma3,sigma2", "--target", "B4"],
                 "unknown class label ''", id="args24-unknown class label ''"),
])
def test_bad_input_is_usage_error_exit_2(args, message):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(args)
    assert exc.value.code == 2
    assert message in err.getvalue()


def test_spaces_around_a_class_label_are_allowed():
    assert cli._class_labels(" sigma3 ,sigma2\t") == ["sigma3", "sigma2"]


@pytest.mark.parametrize("args", [
    ["fixed", "--auto", "torus:1,1"],
    ["identify", "--auto", "omega*torus:1,0,0,0,0,0,0"],
    ["fixed", "--auto", "omega", "--auto", "torus:1,0,0,0,0"],
    ["realform", "--theta", "torus:1"],
    ["realform", "--theta", "omega", "--auto", "torus:1,0,0,0,0,0,1"],
    ["identify", "--type", "A2", "--auto", "torus:1,0,0,0,0,0"],
])
def test_descriptor_arity_is_usage_error_exit_2(args):
    """A well-formed torus descriptor whose coefficient count is not the rank
    of --type is rejected while the arguments are parsed."""
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(args)
    assert exc.value.code == 2
    assert "torus coefficients" in err.getvalue() and "has rank" in err.getvalue()


@pytest.mark.parametrize("args", [
    ["fixed", "--auto", "omega*omega"],
    ["fixed", "--auto", "torus:1,0,0,0,0,x"],
    ["fixed", "--auto", "omega", "--auto", "torus:"],
    ["identify", "--auto", "omega*torus:1,,0,0,0,0"],
    ["identify", "--auto", "identity*omega"],
    ["identify", "--auto", " "],
    ["realform", "--theta", "torus:1,0,0,0,0,0.5"],
    ["realform", "--theta", "omega", "--auto", "Torus:1,0,0,0,0,0"],
    ["fixed", "--auto", "torus:1,1"],
    ["realform", "--theta", "omega*torus:1,0,0,0,0,0,0"],
    ["identify", "--type", "A2", "--auto", "torus:1"],
])
def test_rejected_descriptor_exits_2_with_the_reader_message(args):
    """The last descriptor of args, which parse_descriptor rejects, is a usage
    error: exit 2, no traceback, nothing on stdout, parse_descriptor's message."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        main(args)
    assert exc.value.code == 2
    assert out.getvalue() == "" and "Traceback" not in err.getvalue()
    algebra = args[args.index("--type") + 1] if "--type" in args else "E6"
    with pytest.raises(ValueError) as raised:
        parse_descriptor(VerifyContext(algebra=algebra).table, args[-1])
    assert f"error: {raised.value}\n" in err.getvalue()


def test_catalog_miss_message_is_plain():
    """A CatalogMissError's message is its text, not the repr KeyError gives,
    and the object names the split that found no catalogue row."""
    code, out, err = run_cli(["realform", "--type", "A2", "--theta", "torus:1,0"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "CatalogMissError", "layer": "realform", "check": "cartan_decomposition",
        "message": "no real form catalogued for g_type=A2, k_type=A1+u(1), signature=(4,4)",
    }


def test_exhausted_search_is_failure_exit_1():
    """No pair of sigma1 involutions fixes all of E6: the search runs out of
    tuples, exit 1 with one JSON object."""
    code, out, err = run_cli(["search", "--classes", "sigma1,sigma1", "--target", "E6"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "SearchExhausted", "layer": "verify", "check": "search_configuration",
        "message": "no configuration with classes ['sigma1', 'sigma1'] and fixed type E6",
    }


def test_torus_descriptor_that_is_the_identity_is_failure_exit_1():
    """torus:1 on A1 passes the grammar but names the identity: exit 1 with one JSON object."""
    code, out, err = run_cli(["fixed", "--type", "A1", "--auto", "torus:1"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ValueError", "layer": "autos", "check": "parse_descriptor",
        "message": "the torus factor of descriptor 'torus:1' is the identity of A1",
    }


def test_omega_on_a_type_without_one_diagram_involution_is_failure_exit_1():
    """D4 has three nontrivial diagram involutions: the message names the type
    and the count, exit 1 with one JSON object."""
    code, out, err = run_cli(["identify", "--type", "D4", "--auto", "omega"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ValueError", "layer": "autos", "check": "_omega_columns",
        "message": "omega is not defined on D4: it has 3 nontrivial diagram involutions, "
                   "not exactly one",
    }


@pytest.mark.parametrize("argv", [["fixed", "--type", "E8", "--auto", "omega"],
                                  ["identify", "--type", "E7", "--auto", "omega"],
                                  ["fixed", "--type", "B12", "--auto", "omega"]])
def test_omega_on_a_type_without_a_diagram_symmetry_is_failure_exit_1(argv):
    """E7, E8 and B12 have no nontrivial diagram symmetry at all: exit 1 with
    one JSON object whose message names the type, above rank 8 too."""
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ValueError", "layer": "autos", "check": "_omega_columns",
        "message": f"omega is not defined on {argv[2]}: it has 0 nontrivial diagram "
                   "involutions, not exactly one",
    }


# A request that runs each raise of tests/raises.txt whose named test goes
# through cli.main: a failure (exit 1) per row, a usage error (exit 2) per
# (module, function), since argparse reports those before any work runs.
FAILURE_REQUESTS = {
    ("autos", "_omega_columns", "ValueError", "omega is not defined"):
        ["identify", "--type", "D4", "--auto", "omega"],
    ("autos", "check_klein", "ValueError", "generator {b.descriptor} is not"):
        ["realform", "--theta", "torus:1,0,0,0,0,1", "--auto", "torus:0,0,1,0,1,0",
         "--auto", "omega*torus:1,0,0,0,0,0"],
    ("autos", "check_klein", "ValueError", "generators {a.descriptor}, {b.descriptor} do"):
        ["realform", "--theta", "torus:1,0,0,0,0,1", "--auto", "omega",
         "--auto", "torus:1,0,0,0,0,0"],
    ("cli", "_cmd_roots", "GoldenMismatchError", "golden mismatch against {path}"):
        ["roots", "--type", "A1", "--golden-dir", "{tmp}"],
    ("realform", "cartan_decomposition", "CatalogMissError", "no real form catalogued"):
        ["realform", "--type", "A2", "--theta", "torus:1,0"],
}
USAGE_REQUESTS = {
    ("autos", "read_descriptor"): ["fixed", "--auto", "omega*omega"],
    ("cli", "_type_label"): ["roots", "--type", "E5"],
    ("cli", "_class_labels"): ["search", "--classes", "sigma9,sigma2", "--target", "B4"],
    ("cli", "_target"): ["search", "--classes", "sigma3,sigma2", "--target", "B4:30"],
    ("rootsys", "cartan_matrix"): ["roots", "--type", "Z4"],
    ("verify", "check_class_labels"): ["search", "--classes", "sigma3", "--target", "B4"],
}


def test_failure_object_names_the_layer_and_check_of_its_raise(tmp_path):
    """Every raises.txt row whose test is in this file: a failure's JSON
    object names the row's module as its layer and the row's function as its
    check; a usage error exits 2 with no object."""
    (tmp_path / "roots_A1.txt").write_text("not the real thing\n")
    rows = [key for key, _, _, entry in raise_gate.paired()[0]
            if entry.startswith("tests/test_cli.py::")]
    assert set(FAILURE_REQUESTS) <= set(rows)
    for module, function, error, words in rows:
        argv = FAILURE_REQUESTS.get((module, function, error, words))
        if argv is None:
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
                main(USAGE_REQUESTS[module, function])
            assert exc.value.code == 2, (module, function)
            continue
        code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv])
        report = json.loads(err)
        assert (code, out, report["error"]) == (1, "", error), argv
        assert (report["layer"], report["check"]) == (module, function.rpartition(".")[2])


# -- fixed and identify against the parity oracle ---------------------------------

PARITY_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
                "D4", "D5", "F4", "G2"]


def _check_against_the_parity_oracle(monkeypatch, label, requests):
    """Each (vectors, commands) of requests: the commands on one --auto
    torus:c per c in vectors agree with oracles.torus_parity_type of the
    group they generate on type, dim (fixed) and exit code; a request with
    an identity factor exits 1 with parse_descriptor's object for the first
    one.  One context and one parser serve every request, so the table and
    the argparse tree are built once per type."""
    ctx, parser = VerifyContext(label), cli._make_parser()
    monkeypatch.setattr(cli, "_context", lambda args: ctx)
    monkeypatch.setattr(cli, "_make_parser", lambda argv=None: parser)
    cartan = cartan_matrix(label)
    for vectors, commands in requests:
        descs = ["torus:" + ",".join(map(str, bits)) for bits in vectors]
        autos = [a for desc in descs for a in ("--auto", desc)]
        identity = [d for d, bits in zip(descs, vectors) if torus_parity_type(cartan, bits) is None]
        expected = torus_parity_type(cartan, *vectors)
        for command in commands:
            code, out, err = run_cli([command, "--type", label, *autos, "--format", "json"])
            if identity:
                message = f"the torus factor of descriptor {identity[0]!r} is the identity of {label}"
                assert (code, out, json.loads(err)) == (
                    1, "", {"error": "ValueError", "layer": "autos", "check": "parse_descriptor",
                            "message": message}), (command, descs)
                continue
            assert (code, err) == (0, ""), (command, descs, err)
            got = json.loads(out)
            assert got["type"] == expected[0], (command, descs)
            if command == "fixed":
                assert got["dim"] == str(expected[1]), descs


@pytest.mark.parametrize("label", PARITY_TYPES)
def test_fixed_and_identify_match_the_parity_oracle_on_every_torus_involution(monkeypatch, label):
    _check_against_the_parity_oracle(monkeypatch, label, [
        ((c,), ("fixed", "identify")) for c in itertools.product((0, 1), repeat=int(label[1:]))
        if any(c)])


@pytest.mark.parametrize("label", ["B4", "C4", "F4", "G2", "A5", "D5"])
def test_fixed_and_identify_match_the_parity_oracle_on_pairs_of_torus_involutions(monkeypatch,
                                                                                  label):
    """Two --auto per request: every pair of distinct nonzero parity vectors
    on B4, C4, F4 and G2, and 40 seeded pairs on A5 and D5.  A pair with an
    identity torus factor exits 1 (on B4, C4 and F4 the center makes some
    nonzero vectors the identity)."""
    vectors = [c for c in itertools.product((0, 1), repeat=int(label[1:])) if any(c)]
    pairs = list(itertools.combinations(vectors, 2))
    if label in ("A5", "D5"):
        pairs = random.Random(label).sample(pairs, 40)
    _check_against_the_parity_oracle(monkeypatch, label, [(pair, ("fixed", "identify"))
                                                          for pair in pairs])


@pytest.mark.parametrize("label", [f"{letter}{n}" for n in (12, 16) for letter in "ABCD"])
def test_fixed_and_identify_match_the_parity_oracle_at_ranks_12_and_16(monkeypatch, label):
    """fixed on the first and the last unit vector (on B the last is the
    identity) and on one seeded c; identify, the same pipeline with a shorter
    report, on the seeded c only, which keeps the suite within its time
    budget (a rank-16 request takes 50-150 ms)."""
    n = int(label[1:])
    unit = lambda i: tuple(int(j == i) for j in range(n))
    draw = tuple(random.Random(label).randrange(2) for _ in range(n - 1)) + (1,)
    _check_against_the_parity_oracle(monkeypatch, label, [
        ((unit(0),), ("fixed",)), ((unit(n - 1),), ("fixed",)), ((draw,), ("fixed", "identify"))])


def test_fixed_and_identify_match_the_parity_oracle_on_every_e6_torus_involution(monkeypatch):
    """All 63 nonzero c on E6.  The parity oracle's dimension agrees with the
    8-coordinate parity count here, and its type with the 8-coordinate
    subsystem oracle in test_identify's census test."""
    cs = [c for c in itertools.product((0, 1), repeat=6) if any(c)]
    for c in cs:
        assert torus_parity_type(cartan_matrix("E6"), c)[1] == pairing_parity_fixed_dim(c), c
    _check_against_the_parity_oracle(monkeypatch, "E6", [((c,), ("fixed", "identify")) for c in cs])


# -- the CLI contract under generated arguments ---------------------------------

TYPES = [f"{letter}{rank}" for letter, ranks in (
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(3, 9)),
    ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))) for rank in ranks]
BAD_TYPES = ["E5", "A0", "Z3", "E", "B1", "D2", "A\u0663", "e 6", ""]


@pytest.fixture(scope="module")
def golden_dirs(tmp_path_factory):
    """The committed golden/ and a directory with one wrong golden file, each
    with the types whose roots files it holds."""
    wrong = tmp_path_factory.mktemp("golden")
    (wrong / "roots_A1.txt").write_text("not the real thing\n", encoding="utf-8")
    return {str(REPO / "golden"): ["A2", "E6"], str(wrong): ["A1"]}


def _descriptor(draw, rank, bad):
    """A descriptor of the CLI grammar for the rank, or (bad) one beside it: a
    torus factor of the wrong arity or with a bad coefficient, or junk."""
    coeffs = draw(st.lists(st.sampled_from(["0", "1", "-1", "2", "03"]),
                           min_size=rank, max_size=rank))
    torus = "torus:" + ",".join(coeffs)
    if bad:
        return draw(st.sampled_from([
            "torus:" + ",".join(coeffs + ["1"]), "torus:" + ",".join(coeffs[1:]), torus + ",x",
            "omega*" + torus + ",1_0", "omega*omega", "Torus:1", " "]))
    return draw(st.sampled_from([torus, "omega*" + torus, "omega", "identity", "id"]))


COMMANDS = ["roots", "fixed", "identify", "realform", "search", "verify"]


@st.composite
def cli_arguments(draw, command, golden_dirs):
    """An argument list for cli.main from the CLI grammar, with at most one
    part (the fault) drawn from outside it.  search takes E6 only with
    classes whose tuples never reach the target (sigma1,sigma1 -> E6), a
    search that exhausts in about 0.3 s: exit 1.  verify on E6 has no cheap
    exit-1 input, so it takes other types only.  Other types are usage
    errors for both, and their E6 outputs are pinned byte for byte by the
    golden files and the benchmark's expected outputs.  A roots --golden-dir
    takes a type whose files the directory holds, so that both a match and
    a mismatch are drawn."""
    fault = draw(st.sampled_from([None, None, "type", "arguments", "format"]))
    bad, golden = fault == "arguments", None
    exhausted = command == "search" and draw(st.booleans())
    if fault == "type":
        label, rank = draw(st.sampled_from(BAD_TYPES)), 2
    else:
        # a bad roots request is --bless, which no parser takes, with no directory
        if command == "roots" and not bad:
            golden = draw(st.sampled_from([*golden_dirs, None]))
        if golden:
            types = golden_dirs[golden]
        elif command in ("search", "verify"):
            types = ["E6"] if exhausted else [t for t in TYPES if t != "E6"]
        else:
            types = TYPES
        label = draw(st.sampled_from(types))
        rank = int(label[1:])
        label = draw(st.sampled_from([label, label.lower(), label[0] + "0" + label[1:]]))
    argv = [command, "--type", label]
    if command == "roots":
        argv += ["--bless"] if bad else draw(st.sampled_from([[], ["--table"]]))
        argv += ["--golden-dir", golden] if golden else []
    elif command in ("fixed", "identify", "realform"):
        descs = [_descriptor(draw, rank, False) for _ in range(draw(st.integers(1, 3)))]
        if bad:
            descs[draw(st.integers(0, len(descs) - 1))] = _descriptor(draw, rank, True)
        flags = ["--theta" if command == "realform" and n == 0 else "--auto"
                 for n in range(len(descs))]
        argv += [x for f, d in zip(flags, descs) for x in (f, d)]
    elif exhausted and not bad:
        argv += ["--classes", "sigma1,sigma1", "--target", draw(st.sampled_from(["E6", "E6:78"]))]
    elif command == "search":
        argv += ["--classes", draw(st.sampled_from(["sigma1", "sigma9,sigma2"] if bad else
                                                   ["sigma3,sigma2", "sigma2,sigma2,sigma1"])),
                 "--target", draw(st.sampled_from(["B4:x", "foo"] if bad else ["B4", "B4:36"]))]
    else:
        argv += [draw(st.sampled_from(["nope"] if bad else ["all", "census"]))]
    argv += (["--format", "xml"] if fault == "format"
             else draw(st.sampled_from([[], ["--format", "json"]])))
    return argv


def _outcome(argv):
    """(exit code, stdout, stderr) of cli.main; any exception but SystemExit escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract_holds_for_generated_arguments(golden_dirs, command, data):
    """Exit 0, 1 or 2 and no traceback; exit 1 is exactly one JSON object
    with error, message, layer and check on stderr; the same arguments give
    the same bytes."""
    argv = data.draw(cli_arguments(command, golden_dirs))
    code, out, err = _outcome(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 1:
        report = json.loads(err)
        assert isinstance(report, dict) and set(report) == {"error", "message", "layer", "check"}, argv
    assert _outcome(argv) == (code, out, err), argv


def test_well_formed_twist_request_exits_0():
    code, out, err = run_cli(["fixed", "--auto", "omega*torus:0,1,0,0,0,0"])
    assert (code, err) == (0, "")
    assert "dim 36" in out and "type C4" in out


def test_verify_single_scenario_exit_zero(ctx):
    # in-process run reuses no ctx cache; keep to the cheapest scenario
    code, out, _ = run_cli(["verify", "census"])
    assert code == 0
    assert "[PASS] census" in out


def test_search_command():
    code, out, _ = run_cli(["search", "--classes", "sigma3,sigma2", "--target", "B4:36"])
    assert code == 0
    assert "a = " in out and "b = " in out


def test_three_class_search_prints_theta():
    code, out, _ = run_cli(["search", "--classes", "sigma3,sigma2,sigma2", "--target", "D4"])
    assert code == 0
    assert out == (
        "a = omega*torus:0,0,0,0,0,0\n"
        "b = torus:0,0,1,0,1,0\n"
        "theta = torus:1,0,0,0,0,1\n"
        'labels: {"a": "sigma3", "b": "sigma2", "theta": "sigma2"}\n'
    )


def test_requests_leave_no_cyclic_garbage_of_the_package():
    """A recursive closure is a function-cell cycle that only the cycle
    collector frees.  After a warm-up, the garbage of a B3 exhaustion, an
    identify request and verify census holds no function of the package and
    no cell that refers to one (argparse's own cycles are the standard
    library's)."""
    requests = [["search", "--classes", "sigma3,sigma2,sigma1", "--target", "B3"],
                ["identify", "--auto", "torus:1,0,0,0,0,0"], ["verify", "census"]]
    ours = lambda f: isinstance(f, types.FunctionType) and str(f.__module__).startswith("kleinfour")
    for argv in requests:
        run_cli(argv)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        codes = [run_cli(argv)[0] for argv in requests]
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert codes == [1, 0, 0]
    functions = [f.__qualname__ for f in garbage if ours(f)]
    cells = [c for c in garbage
             if isinstance(c, types.CellType) and any(map(ours, gc.get_referents(c)))]
    assert (functions, cells) == ([], [])


def test_entry_point_subprocess():
    # the child imports the package this test imports, installed or not
    src = str(Path(kleinfour.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "kleinfour.cli", "roots", "--type", "A1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert "2 roots" in proc.stdout


# -- the per-process floor: what a request imports and which parser it builds ----

HEAVY_MODULES = ("dataclasses", "inspect", "importlib.resources", "pathlib", "tempfile")


def test_importing_the_cli_loads_verify_but_no_dataclasses_or_resources():
    """A request process imports kleinfour.cli, and with it kleinfour.verify
    (the benchmark reads it from sys.modules), but not the stdlib stacks the
    package no longer needs: dataclasses with inspect, and importlib.resources
    with pathlib and tempfile.  The package itself loads no submodule,
    kleinfour.exactq loads no other, kleinfour.rootsys loads only exactq, and
    kleinfour.autos does not load kleinfour.identify."""
    src = str(Path(kleinfour.__file__).resolve().parent.parent)
    code = ("import sys, kleinfour; "
            "ours = lambda: sorted(m for m in sys.modules if m.startswith('kleinfour.')); "
            "print(ours()); import kleinfour.exactq; print(ours()); "
            "import kleinfour.rootsys; print(ours()); "
            "import kleinfour.autos; print('kleinfour.identify' in sys.modules); "
            "import kleinfour.cli; "
            f"print(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules), "
            "'kleinfour.verify' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr, proc.stdout) == (
        0, "", "[]\n['kleinfour.exactq']\n['kleinfour.exactq', 'kleinfour.rootsys']\n"
        "False\n[] True\n")


def _subcommands(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


def test_a_request_builds_only_the_subparser_it_names():
    for name in COMMANDS:
        assert _subcommands(cli._make_parser([name, "--type", "A2"])) == [name]
    for argv in (None, [], ["-h"], ["bogus"], ["--type", "E6"], ["Fixed"]):
        assert _subcommands(cli._make_parser(argv)) == COMMANDS, argv


PARSER_REQUESTS = [
    ["-h"], [], ["bogus", "--type", "E6"], ["--format", "json", "fixed"],
    *([name, "-h"] for name in COMMANDS),
    ["roots", "--type", "E5"], ["fixed"], ["identify", "--auto"], ["realform", "--auto", "omega"],
    ["search", "--classes", "sigma9", "--target", "B4"], ["verify", "nope"],
    ["roots", "--nope"], ["verify", "all", "--type", "A2"],
]


@pytest.mark.parametrize("argv", PARSER_REQUESTS, ids=lambda a: " ".join(a) or "(none)")
def test_one_subparser_prints_what_the_full_tree_prints(monkeypatch, argv):
    """Help, usage errors and exit codes are byte-identical whether main builds
    the subparser argv names or the whole tree."""
    one = _outcome(argv)
    build = cli._make_parser
    monkeypatch.setattr(cli, "_make_parser", lambda argv=None: build())
    assert _outcome(argv) == one
    assert one[0] in (0, 2) and one[1] + one[2]
