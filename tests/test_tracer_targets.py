"""The benchmark tracer (perfbench/tracer.py) wraps package functions by name.

It looks each one up with getattr, so renaming or deleting one of them would
break traced benchmark runs without failing any other test.  This test only
reads perfbench/ and never changes it.
"""

import importlib
import importlib.util
from pathlib import Path

import kleinfour.cli  # noqa: F401  (loads every module the tracer patches)
from kleinfour import verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
