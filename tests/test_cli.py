import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kleinfour
from kleinfour.autos import parse_descriptor
from kleinfour.cli import main
from kleinfour.verify import VerifyContext

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


def test_type_label_is_normalised():
    assert run_cli(["roots", "--type", "e6"]) == run_cli(["roots", "--type", "E6"])
    code, out, _ = run_cli(["roots", "--type", "e6", "--golden-dir", str(REPO / "golden")])
    assert code == 0
    assert "golden match" in out


def test_golden_mismatch_fails(tmp_path):
    (tmp_path / "roots_A1.txt").write_text("not the real thing\n")
    code, _, err = run_cli(["roots", "--type", "A1", "--golden-dir", str(tmp_path)])
    assert code == 1
    assert "mismatch" in err


def test_bless_writes_then_matches(tmp_path):
    code, out, _ = run_cli(["roots", "--type", "A2", "--golden-dir", str(tmp_path), "--bless"])
    assert code == 0 and "blessed" in out
    code, out, _ = run_cli(["roots", "--type", "A2", "--golden-dir", str(tmp_path)])
    assert code == 0 and "golden match" in out


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
    (["roots", "--type", "E"], "malformed type label 'E'"),
    (["roots", "--type", "A0"], "rank must be at least 1"),
    (["search", "--classes", "sigma3,sigma2", "--target", "B4:x"], "must be a whole number"),
    (["search", "--classes", "sigma3", "--target", "B4"], "2 or 3 generator classes"),
    (["search", "--classes", "sigma3,sigma9", "--target", "B4"], "unknown class label 'sigma9'"),
    (["search", "--type", "E7", "--classes", "sigma3,sigma2", "--target", "B4"],
     "supports only --type E6"),
    (["verify", "census", "--type", "A2"], "supports only --type E6"),
    (["realform", "--theta", "omega", "--auto", "torus:1,0,0,0,0,1",
      "--auto", "torus:0,1,0,0,0,0", "--auto", "torus:0,0,1,0,0,0"], "at most two --auto"),
    (["search", "--classes", "sigma3,sigma2", "--target", "foo"], "malformed type label 'foo'"),
    (["search", "--classes", "sigma3,sigma2", "--target", "B4:30"], "B4 has dimension 36, not 30"),
    (["roots", "--type", "A2", "--bless"], "--bless needs --golden-dir"),
    # digits outside ASCII [0-9]: an Arabic-Indic six, a superscript two,
    # and an Arabic-Indic 36
    (["roots", "--type", "E\u0666"], "malformed type label 'E\u0666'"),
    (["roots", "--type", "A\u00b2"], "malformed type label 'A\u00b2'"),
    (["search", "--classes", "sigma3,sigma2", "--target", "B4:\u0663\u0666"],
     "must be a whole number"),
    # above rootsys.MAX_RANK: rejected before any matrix is built
    (["roots", "--type", "A1000"], "rank must be at most 32"),
    # each letter's rank rule, and a letter that names no type
    (["roots", "--type", "B1"], "B requires rank >= 2"),
    (["roots", "--type", "C1"], "C requires rank >= 2"),
    (["roots", "--type", "D2"], "D requires rank >= 3"),
    (["roots", "--type", "E5"], "E requires rank 6, 7 or 8"),
    (["roots", "--type", "F3"], "F requires rank 4"),
    (["roots", "--type", "G3"], "G requires rank 2"),
    (["roots", "--type", "Z4"], "unknown type letter 'Z'"),
])
def test_bad_input_is_usage_error_exit_2(args, message):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(args)
    assert exc.value.code == 2
    assert message in err.getvalue()


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
