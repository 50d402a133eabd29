"""Closed-loop, single-process benchmark of the kleinfour package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 10 --trace 0

One client issues one operation at a time and waits for it (closed loop).
The run sets up ``Workload.setups`` times (setup_s is the median), then runs
whole passes of the workload until ``--seconds`` have elapsed.  Every
operation's outcome is checked against ``expected.json``.  Every reported
time is normalised to a reference host speed sampled during the run
(``speed.py``).  With ``--trace 1`` passes alternate untraced and traced;
the traced ones give the per-layer metrics and the untraced ones the tracing
overhead.

The last stdout line is the JSON result; every run is also appended, with
its per-operation values and the machine, to ``perfbench/results/runs.jsonl``.
"""

from __future__ import annotations

import sys

# Modules loaded at interpreter start-up, before this file imports anything.
# Every set-up drops all others (see import_package).
STARTUP_MODULES = frozenset(sys.modules)

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

from speed import SpeedProbe
from tracer import Tracer, layer_figures
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# what a metric stands for on each workload (README)
ALIASES = {
    "verify_all": {"pass_s": "verify_all_s"},
    "cli_queries": {"op_p50_ms": "query_p50_ms", "op_p90_ms": "query_p90_ms",
                    "ops_per_s": "queries_per_s"},
    "search": {"pass_s": "search_s"},
}


def pct(values, q: float) -> float:
    """Quantile by linear interpolation between closest ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def import_package() -> SimpleNamespace:
    """Import kleinfour as a fresh process would.

    Every module loaded since interpreter start-up is dropped first, the
    package's dependencies too, so each set-up pays the full import.  The
    harness keeps working on its own references to the modules it imported.
    """
    for name in [n for n in sys.modules if n not in STARTUP_MODULES]:
        del sys.modules[name]
    cli = importlib.import_module("kleinfour.cli")
    return SimpleNamespace(cli=cli, verify=sys.modules["kleinfour.verify"])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(kf, workload, state, expected, tracer, first_request, probe):
    """One pass.  Wall and CPU times leave out the probe's.  ``speed`` is the
    host's mean relative speed during the pass, and the last field of each
    operation's record the speed around that operation; the reported
    (normalised) times are multiplied by them."""
    ops = workload.next_pass()
    records, failures, windows = [], [], []
    window0 = time.perf_counter()
    t0, c0 = probe.elapsed(), probe.cpu()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = (first_request + i, op.algebra)
        start, window = probe.elapsed(), time.perf_counter()
        try:
            got = workload.execute(kf, state, op)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            got = {"exception": f"{type(exc).__name__}: {exc}"}
        wall = probe.elapsed() - start
        windows.append((window, time.perf_counter()))
        ok = got == expected.get(op.key)
        records.append([op.key, wall, ok])
        if not ok:
            failures.append({"op": op.key, "got": got, "expected": expected.get(op.key)})
    wall, cpu = probe.elapsed() - t0, probe.cpu() - c0
    for record, window in zip(records, windows):
        record.append(probe.mean_speed(*window))
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "speed": probe.mean_speed(window0, time.perf_counter()),
            "ops": records}, failures


def e2e_metrics(setup_s: float, passes: list):
    """The end-to-end metrics of BENCHMARK.json.

    Times are normalised to the reference host speed (``speed.py``): each
    pass's wall and CPU time is multiplied by the host's mean speed during
    that pass, and each operation's latency by the speed around that
    operation.  The raw times stay in the results file.
    """
    lat = [op[1] * op[3] for p in passes for op in p["ops"]]
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
        "ops_per_s": len(lat) / sum(p["wall_s"] * p["speed"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] * p["speed"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": 1000 * pct(lat, 0.5),
        "op_p90_ms": 1000 * pct(lat, 0.9),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kleinfour" / "__init__.py").is_file():
        print(f"no kleinfour sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the golden request names golden/ relative to the root
    expected = json.loads((HERE / "expected.json").read_text())
    machine = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), "cpu": cpu_model(),
               "load_before": os.getloadavg(), "commit": git_commit(),
               "started": time.time()}

    workload = WORKLOADS[args.workload](args.seed)
    probe = SpeedProbe()
    probe.start()
    try:
        return measure(args, workload, probe, expected, machine)
    finally:
        probe.stop()


def measure(args, workload, probe, expected, machine) -> int:
    tracer = Tracer(probe.elapsed) if args.trace else None
    import_s, build_s = [], []
    setup_window = time.perf_counter()
    for _ in range(workload.setups):
        kf = state = None  # so the peak memory covers one set-up's state
        gc.collect()
        t = probe.elapsed()
        kf = import_package()
        import_s.append(probe.elapsed() - t)
        if tracer is not None:
            tracer.request = ("setup", "E6")
            tracer.install()
        t = probe.elapsed()
        state = workload.setup(kf)
        build_s.append(probe.elapsed() - t)
        if tracer is not None:
            tracer.uninstall()
    setup_window = (setup_window, time.perf_counter())
    setup_trace = tracer.take() if tracer is not None else None

    passes, failures, layer_passes = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (
            tracer is not None and not layer_passes):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            record, failed = run_pass(kf, workload, state, expected,
                                      tracer if traced else None,
                                      sum(len(p["ops"]) for p in passes), probe)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_passes.append(tracer.take())
        passes.append(record)
        failures += failed
    attempted = sum(len(p["ops"]) for p in passes)
    machine["load_after"] = os.getloadavg()

    setup_speed = probe.mean_speed(*setup_window)
    setup_s = setup_speed * statistics.median(a + b for a, b in zip(import_s, build_s))
    plain = [p for p in passes if not p["traced"]]
    e2e = e2e_metrics(setup_s, plain)
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "machine": machine,
           "setup": {"import_s": import_s, "build_s": build_s, "speed": setup_speed},
           "speed": {"samples": len(probe.speed), "mean": probe.mean_speed(),
                     "min": min(probe.speed), "max": max(probe.speed)},
           "passes": passes, "failures": failures, "e2e": e2e}
    lines = [f"kleinfour benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}",
             f"machine: {machine['nproc']} cpus ({machine['affinity']} usable), "
             f"Python {machine['python']}, {machine['cpu']}, load "
             f"{machine['load_before'][0]:.2f} -> {machine['load_after'][0]:.2f}, "
             f"commit {machine['commit'][:12]}",
             f"host speed {run['speed']['mean']:.3f} of reference (min "
             f"{run['speed']['min']:.3f}, max {run['speed']['max']:.3f}, "
             f"{run['speed']['samples']} samples); times below are normalised to it"]
    if tracer is None:
        metrics = e2e
        for name, m in e2e.items():
            alias = ALIASES[args.workload].get(name)
            lines.append(f"  {name:12} {m['value']:12.4f} {m['unit']:4}"
                         + (f"  ({alias})" if alias else ""))
    else:
        metrics, detail = layer_figures(SPEC["per_layer"], setup_trace,
                                        workload.setups, layer_passes)
        traced_pass = statistics.median(p["wall_s"] * p["speed"] for p in passes
                                        if p["traced"])
        overhead = traced_pass / e2e["pass_s"]["value"] - 1
        run.update(layers=detail, tracing_overhead=overhead)
        RESULTS.joinpath("spans").mkdir(parents=True, exist_ok=True)
        spans = RESULTS / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl.gz"
        tracer.write_spans(spans)
        lines.append(f"  tracing overhead {100 * overhead:+.1f} % of pass_s "
                     f"({len(layer_passes)} traced, {len(plain)} untraced passes); "
                     f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}")
        if not detail["passes_identical"]:
            lines.append("  note: traced passes differ in their counts")
        lines += [f"  {k + '.s':52} {v:14.6f} s" for k, v in detail["span_s"].items()]
        lines += [f"  {k + '.self_s':52} {v:14.6f} s" for k, v in detail["self_s"].items()
                  if k + ".self_s" not in metrics]
        lines += [f"  {k:52} {m['value']:14.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"  failed_frac  {len(failures) / attempted:12.4f}       "
                 f"({len(failures)} of {attempted} operations)")
    run["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(run, sort_keys=True) + "\n")
    print("\n".join(lines))
    for f in failures[:5]:
        print(f"  FAILED {f['op']}: got {f['got']}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
