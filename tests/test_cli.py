import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kleinfour
from kleinfour.cli import main

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


def test_bad_descriptor_is_failure_exit_1():
    code, _, err = run_cli(["fixed", "--auto", "bogus:zzz"])
    assert code == 1
    assert "error" in err


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
])
def test_bad_input_is_usage_error_exit_2(args, message):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(args)
    assert exc.value.code == 2
    assert message in err.getvalue()


def test_verify_single_scenario_exit_zero(ctx):
    # in-process run reuses no ctx cache; keep to the cheapest scenario
    code, out, _ = run_cli(["verify", "census"])
    assert code == 0
    assert "[PASS] census" in out


def test_search_command():
    code, out, _ = run_cli(["search", "--classes", "sigma3,sigma2", "--target", "B4:36"])
    assert code == 0
    assert "a = " in out and "b = " in out


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
