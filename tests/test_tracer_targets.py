"""The benchmark tracer (perfbench/tracer.py) wraps package functions by name.

It looks each one up with getattr, so renaming or deleting one of them would
break traced benchmark runs without failing any other test, and a wrapped
function that the package no longer calls would read 0 in every run.  These
tests only read perfbench/ and never change it.
"""

import importlib
import importlib.util
import time
from pathlib import Path

import kleinfour.cli  # loads every module the tracer patches
from kleinfour import verify

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_is_a_callable_of_that_name():
    tracer = _tracer()
    for short, names in tracer.TARGETS.items():
        mod = importlib.import_module(f"kleinfour.{short}")
        for name in names:
            fn = getattr(mod, name)
            assert callable(fn), f"{short}.{name}"
            assert fn.__name__ == name, f"{short}.{name} is bound to {fn.__name__}"
    for key, fn in verify.SCENARIOS.items():
        assert callable(fn), key
    assert callable(verify.VerifyContext.automorphism)
    assert verify.VerifyContext.automorphism.__name__ == "automorphism"


def test_every_traced_exactq_function_runs_on_a_request(capsys):
    """``verify holomorphic`` reaches all four: the center of k(theta) is
    cut out by ``kernel``, while every fixed space it builds is one of signed
    permutations, read off orbits with no elimination."""
    tracer = _tracer()
    tr = tracer.Tracer(time.perf_counter)
    tr.install()
    try:
        assert kleinfour.cli.main(["verify", "holomorphic"]) == 0
    finally:
        tr.uninstall()
    out = capsys.readouterr().out
    assert out.startswith("[PASS] holomorphic\n")
    assert (REPO / "golden" / "verify_all.txt").read_text().endswith(out)
    for name in tracer.TARGETS["exactq"]:
        assert tr.counts[f"exactq.{name}.calls"] > 0, f"exactq.{name} is never called"
