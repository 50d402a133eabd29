"""Per-layer tracing of kleinfour from outside the package.

The package imports by name (``from .exactq import kernel``), so wrapping a
function means replacing every module attribute that is bound to it, plus
the entries of ``verify.SCENARIOS`` and the ``VerifyContext.automorphism``
method.  ``uninstall`` puts every original back.

Each wrapped call records a span (id, name, start, end, parent id, request
id).  Spans nest properly because the program is single-threaded, so a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
from collections import Counter, defaultdict

# (module, function) pairs wrapped in every kleinfour namespace that binds them
TARGETS = {
    "exactq": ["rref", "kernel", "rank", "symmetric_inertia"],
    "rootsys": ["build_root_system", "chevalley_table"],
    "autos": ["make_automorphism", "parse_descriptor", "omega_automorphism",
              "torus_involution", "compose", "commutes", "make_klein"],
    "identify": ["fixed_subalgebra", "identify_type", "center_of"],
    "realform": ["compact_form", "cartan_decomposition", "real_fixed_subalgebra",
                 "is_holomorphic_type", "load_catalog"],
    "verify": ["involution_census", "classify_involution", "find_so9_klein",
               "find_rank3_configuration", "search_configuration", "run_all"],
    "cli": ["main"],
}
SEARCHES = {"verify.search_configuration", "verify.find_so9_klein",
            "verify.find_rank3_configuration"}
PER_TYPE = {"rootsys.chevalley_table", "realform.compact_form"}


def _descriptor_kind(text: str) -> str:
    text = text.strip()
    if text.startswith("omega*torus:"):
        return "twist"
    if text.startswith("torus:"):
        return "torus"
    return "omega" if text == "omega" else "other"


class Tracer:
    def __init__(self, clock):
        self.clock = clock         # span timestamps, without the speed probe's time
        self.spans = []            # (id, name, start, end, parent, request)
        self._ids = itertools.count(1)
        self._stack = []           # [span id, child time] of open spans
        self._search_depth = 0
        self.request = (None, "")  # (request id, algebra type) of the current op
        self._patched = []         # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)

    def take(self) -> dict:
        """Return and clear the counts and times gathered since the last take."""
        out = {"counts": dict(self.counts), "self_s": dict(self.self_s),
               "total_s": dict(self.total_s)}
        self.reset()
        return out

    # -- span bookkeeping --------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((sid, name, start, end, parent, self.request[0]))
            self.counts[name + ".calls"] += 1
            self.self_s[name] += dur - frame[1]
            self.total_s[name] += dur
            if name in PER_TYPE:
                self.self_s[f"{name}.{self.request[1]}"] += dur - frame[1]

    def _wrapper(self, name, fn):
        tr = self

        if name == "exactq.rref":
            def wrapper(vectors, *a, **k):
                rows = list(vectors)
                tr.counts["exactq.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
                return tr._call(name, fn, (rows,) + a, k)
        elif name == "autos.parse_descriptor":
            def wrapper(table, text, *a, **k):
                tr.counts[f"{name}.calls.{_descriptor_kind(text)}"] += 1
                return tr._call(name, fn, (table, text) + a, k)
        elif name == "identify.fixed_subalgebra":
            def wrapper(table, autos, *a, **k):
                tr.counts[f"{name}.calls.g{len(autos)}"] += 1
                if tr._search_depth:
                    tr.counts["verify.search.fixed_subalgebra"] += 1
                return tr._call(name, fn, (table, autos) + a, k)
        elif name == "autos.commutes":
            def wrapper(*a, **k):
                if tr._search_depth:
                    tr.counts["verify.search.commutes"] += 1
                return tr._call(name, fn, a, k)
        elif name in SEARCHES:
            def wrapper(*a, **k):
                tr._search_depth += 1
                try:
                    return tr._call(name, fn, a, k)
                finally:
                    tr._search_depth -= 1
        elif name == "cli.main":
            def wrapper(argv=None, *a, **k):
                command = argv[0] if argv else "none"
                return tr._call(f"cli.{command}", fn, (argv,) + a, k)
        elif name == "verify.ctx_autos":
            def wrapper(ctx, descriptor, *a, **k):
                before = tr.counts["autos.parse_descriptor.calls"]
                try:
                    return tr._call(name, fn, (ctx, descriptor) + a, k)
                finally:
                    if tr.counts["autos.parse_descriptor.calls"] == before:
                        tr.counts["verify.ctx_autos.hits"] += 1
        else:
            def wrapper(*a, **k):
                return tr._call(name, fn, a, k)
        return functools.wraps(fn)(wrapper)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the targets in every loaded kleinfour module."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "kleinfour" or n.startswith("kleinfour.")}
        wrapped = {}  # original function id -> wrapper
        for short, names in TARGETS.items():
            mod = mods[f"kleinfour.{short}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapped[id(orig)] = self._wrapper(f"{short}.{fname}", orig)
        verify = mods["kleinfour.verify"]
        for key, orig in verify.SCENARIOS.items():
            wrapped[id(orig)] = self._wrapper(f"verify.scenario.{key}", orig)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    self._set(mod, attr, value, wrapped[id(value)])
        for key, orig in list(verify.SCENARIOS.items()):
            self._set(verify.SCENARIOS, key, orig, wrapped[id(orig)])
        cls = verify.VerifyContext
        self._set(cls, "automorphism", cls.automorphism,
                  self._wrapper("verify.ctx_autos", cls.automorphism))

    def _set(self, owner, attr, orig, new) -> None:
        self._patched.append((owner, attr, orig))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(per_layer: list, setup: dict, setups: int, passes: list) -> tuple:
    """Per-layer figures for one set-up plus one traced pass.

    ``per_layer`` is the list of BENCHMARK.json.  Returns ``(metrics,
    detail)``: those metrics, and every count, self time and span total for
    the results file.
    """
    def combine(kind):
        keys = set(setup[kind]).union(*(p[kind] for p in passes))
        out = {k: setup[kind].get(k, 0) / setups
               + sum(p[kind].get(k, 0) for p in passes) / len(passes)
               for k in sorted(keys)}
        if kind == "counts":  # whole numbers whenever passes repeat exactly
            out = {k: int(v) if v == int(v) else v for k, v in out.items()}
        return out

    counts, self_s, total_s = combine("counts"), combine("self_s"), combine("total_s")
    ratios = {
        "verify.search.gate_ratio": _ratio(counts.get("verify.search.fixed_subalgebra", 0),
                                           counts.get("verify.search.commutes", 0)),
        "verify.ctx_autos.hit_ratio": _ratio(counts.get("verify.ctx_autos.hits", 0),
                                             counts.get("verify.ctx_autos.calls", 0)),
    }
    metrics = {}
    for m in per_layer:
        name = m["name"]
        if m["unit"] == "count":
            value = counts.get(name, 0)
        elif name.endswith(".self_s"):
            value = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            value = ratios[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    detail = {"counts": counts, "self_s": self_s, "span_s": total_s,
              "passes_identical": all(p["counts"] == passes[0]["counts"] for p in passes)}
    return metrics, detail
