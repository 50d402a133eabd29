"""Pin the expected outcome of every menu operation into expected.json.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are trusted (the pins in the
repository come from the commit that introduced the benchmark).  A change
that claims a speed-up must leave expected.json alone: its outputs have to
match the old pins byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, ROOT, import_package
from workloads import all_ops, run_cli, run_search


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the golden request names golden/ relative to the root
    kf = import_package()
    ctx = kf.verify.VerifyContext()
    pins, bad = {}, []
    for op in all_ops():
        got = (run_search(kf.verify, ctx, *op.search) if op.search
               else run_cli(kf.cli, op.argv))
        if got.get("exit", 0) != 0:
            bad.append(op.key)
        pins[op.key] = got
    (HERE / "expected.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} operations")
    if bad:
        print("menu requests that do not exit 0:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
