"""Steadiness and exact-count checks of the benchmark itself.

    python3 perfbench/check.py spread --workload search --seeds 1-10
    python3 perfbench/check.py counts --workload verify_all --seed 7

``spread`` runs one untraced run per seed and prints, for every end-to-end
metric, the median and the distance between the first and third quartile as
a share of the median, next to the metric's bound in BENCHMARK.json.

``counts`` makes two traced runs with the same seed and checks that every
per-layer count is identical and that both runs passed the output gate.

Runs are made one after another in child processes, each waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args) -> int:
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    ok = True
    for seed in seed_range(args.seeds):
        res = run(args.workload, seed, 0)
        ok &= res["correct"]
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: correct={res['correct']} "
              + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for m in SPEC["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        flag = "ok" if share < m["bound"] / 3 else ("WIDE" if share > m["bound"] else "near")
        print(f"{m['name']:12} median {med:12.4f} {m['unit']:4} spread {share:7.4f}"
              f"  bound {m['bound']:.3f}  {flag}")
    return 0 if ok else 1


def counts(args) -> int:
    a, b = (run(args.workload, args.seed, 1) for _ in range(2))
    names = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    diff = [n for n in names if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
    for n in names:
        print(f"{n:44} {a['metrics'][n]['value']:>12} {b['metrics'][n]['value']:>12}")
    print(f"correct: {a['correct']} {b['correct']}; counts differing: {diff or 'none'}")
    return 0 if a["correct"] and b["correct"] and not diff else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, seeds in (("spread", "--seeds"), ("counts", "--seed")):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True)
        p.add_argument(seeds, required=True, type=str if name == "spread" else int)
    args = ap.parse_args()
    return spread(args) if args.cmd == "spread" else counts(args)


if __name__ == "__main__":
    sys.exit(main())
