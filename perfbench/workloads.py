"""Fixed request menus and the three workloads built from them.

Every request in a menu is well formed and exits 0 at the seed commit; its
expected output is pinned in ``expected.json`` (see ``pin.py``).  The seed
only chooses among equivalent variants and orders the requests, so every run
of a workload does the same amount of work per pass.

A *pass* is one unit of a workload's work, repeated until the run's time is
up:

- ``verify_all``: one cold ``kleinfour verify all`` (fresh VerifyContext).
- ``cli_queries``: two seeded orders of the run's request list
  (116 requests, each through ``cli.main`` with a fresh context).
- ``search``: one seeded permutation of the five search-menu calls on the
  warm context built in set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


def _t(*bits: int) -> str:
    return "torus:" + ",".join(map(str, bits))


def _ot(*bits: int) -> str:
    return "omega*torus:" + ",".join(map(str, bits))


def _auto(*descs: str) -> List[str]:
    out: List[str] = []
    for d in descs:
        out += ["--auto", d]
    return out


def _fmt(argv: List[str]) -> List[List[str]]:
    """The same request rendered as text and as JSON."""
    return [argv, argv + ["--format", "json"]]


# E6 torus classes (census labels): sigma1 fixes A5+A1, sigma2 fixes D5+u(1).
E6_SIGMA1 = [_t(0, 0, 0, 0, 0, 1), _t(0, 0, 0, 1, 0, 0), _t(0, 0, 1, 0, 0, 0)]
E6_SIGMA2 = [_t(1, 0, 0, 0, 0, 1), _t(0, 0, 0, 1, 0, 1), _t(0, 0, 1, 0, 0, 1)]
E6_SIGMA3 = [_ot(0, 0, 0, 0, 0, 0), _ot(0, 0, 1, 0, 1, 0), _ot(1, 0, 0, 0, 0, 1)]
E6_SIGMA4 = [_ot(0, 0, 0, 1, 0, 0), _ot(0, 1, 0, 0, 0, 0), _ot(1, 1, 0, 0, 0, 1)]
A5_TORI = [_t(1, 0, 0, 0, 0), _t(0, 1, 0, 0, 0), _t(0, 0, 1, 0, 0), _t(0, 0, 0, 1, 1)]
D5_TORI = [_t(1, 0, 0, 0, 0), _t(0, 1, 0, 0, 0), _t(0, 0, 0, 1, 0), _t(0, 0, 1, 0, 1)]
E7_TORI = [_t(1, 0, 0, 0, 0, 0, 0), _t(0, 1, 0, 0, 0, 0, 0), _t(0, 0, 0, 0, 0, 0, 1)]
E8_TORI = [_t(1, 0, 0, 0, 0, 0, 0, 0), _t(0, 0, 0, 0, 0, 0, 0, 1)]


def _gens(kind: str, algebra: str, tori: Sequence[str], n: int) -> List[List[str]]:
    """``fixed``/``identify`` with n distinct commuting torus generators."""
    base = [kind] + ([] if algebra == "E6" else ["--type", algebra])
    return [base + _auto(*tori[i:i + n]) for i in range(len(tori) - n + 1)]


# (draws per run, variants).  Each draw picks one variant with the seed.
# Variants of one slot differ only in equivalent descriptors (same class,
# same number of generators), so the seed barely moves a pass's cost.
CLI_MENU: List[Tuple[int, List[List[str]]]] = [
    # roots without the structure table, every type in the scale sweep
    (2, _fmt(["roots", "--type", "A5"])),
    (2, _fmt(["roots", "--type", "D5"])),
    (1, _fmt(["roots", "--type", "E6"])),
    (1, _fmt(["roots", "--type", "E7"])),
    (1, _fmt(["roots", "--type", "E8"])),
    # roots with the Chevalley table; E7 and E8 as text only, because their
    # JSON tables would make peak memory depend on the seed
    (1, _fmt(["roots", "--type", "A5", "--table"])),
    (1, _fmt(["roots", "--type", "D5", "--table"])),
    (1, _fmt(["roots", "--type", "E6", "--table"])),
    (1, [["roots", "--type", "E7", "--table"]]),
    (1, [["roots", "--type", "E8", "--table"]]),
    # byte-for-byte compare against the committed golden file
    (1, [["roots", "--type", "E6", "--golden-dir", "golden"]]),
    # fixed / identify with 1-3 generators
    (1, _gens("fixed", "A5", A5_TORI, 1)),
    (1, _gens("identify", "A5", A5_TORI, 2)),
    (1, _gens("fixed", "A5", A5_TORI, 3)),
    (1, _gens("identify", "D5", D5_TORI, 1)),
    (1, _gens("fixed", "D5", D5_TORI, 2)),
    (1, _gens("identify", "D5", D5_TORI, 3)),
    # one-generator torus requests (about 0.13 s) are the block the median
    # falls in, with the cheap requests below it and the twists above it
    (8, [["fixed"] + _auto(d) for d in E6_SIGMA2]),
    (8, [["identify"] + _auto(d) for d in E6_SIGMA1]),
    (1, [["identify", "--auto", "omega"]]),
    (1, [["fixed", "--auto", "omega"]]),
    (3, [["identify"] + _auto(d) for d in E6_SIGMA3]),
    (3, [["fixed"] + _auto(d) for d in E6_SIGMA4]),
    (1, [["fixed"] + _auto(_ot(0, 0, 0, 0, 0, 0), _t(0, 0, 1, 0, 1, 0))]),
    (1, [["fixed"] + _auto("omega", _t(1, 0, 0, 0, 0, 1))]),
    (1, [["identify"] + _auto(_t(1, 0, 0, 0, 0, 1), _t(0, 0, 1, 0, 1, 0))]),
    (1, [["fixed"] + _auto(_ot(0, 0, 0, 0, 0, 0), _t(0, 0, 1, 0, 1, 0), _t(1, 0, 0, 0, 0, 1))]),
    (1, [["identify"] + _auto(*E6_SIGMA1)]),
    # E7 identifies and realform omega (0.45-0.5 s each) are six of a pass's
    # eight heaviest requests, so p90 falls inside this group of like costs
    (2, _gens("identify", "E7", E7_TORI, 1)),
    (2, _gens("identify", "E7", E7_TORI, 2)),
    (1, _gens("identify", "E8", E8_TORI, 1)),
    # real forms, E6 only (the catalog covers E6), with 0-2 --auto
    (1, [["realform", "--theta", _t(1, 0, 0, 0, 0, 1)]]),
    (2, [["realform", "--theta", "omega"]]),
    (1, [["realform", "--theta", _t(1, 0, 0, 0, 0, 1)] + _auto(_t(0, 0, 1, 0, 1, 0))]),
    (1, [["realform", "--theta", _t(1, 0, 0, 0, 0, 1)]
         + _auto(_ot(0, 0, 0, 0, 0, 0), _t(0, 0, 1, 0, 1, 0)),
         ["realform", "--theta", _t(1, 0, 0, 0, 0, 1)]
         + _auto("omega", _t(0, 0, 1, 0, 1, 0))]),
]

VERIFY_MENU: List[List[str]] = _fmt(["verify", "all"])

# (generator classes, target type).  Two early hits and three exhaustions;
# the 47 s sigma1,sigma1 -> E6 exhaustion is left out for run length.
SEARCH_MENU: List[Tuple[Tuple[str, ...], str]] = [
    (("sigma2", "sigma2"), "D4+2u(1)"),
    (("sigma3", "sigma1"), "C3+A1"),
    (("sigma3", "sigma4"), "B4"),
    (("sigma4", "sigma2"), "B4"),
    (("sigma3", "sigma2", "sigma1"), "B3"),
]


# ---------------------------------------------------------------------------
# Operations and their correctness gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    key: str        # key into expected.json, also the op's name in results
    algebra: str    # type label, groups per-type trace figures
    argv: Optional[Tuple[str, ...]] = None               # CLI request
    search: Optional[Tuple[Tuple[str, ...], str]] = None  # search call


def cli_op(argv: Sequence[str]) -> Op:
    algebra = argv[list(argv).index("--type") + 1] if "--type" in argv else "E6"
    return Op(" ".join(argv), algebra, argv=tuple(argv))


def search_op(classes: Tuple[str, ...], target: str) -> Op:
    return Op(f"search {','.join(classes)} {target}", "E6", search=(classes, target))


def run_cli(cli, argv: Sequence[str]) -> dict:
    """Call ``cli.main`` as the console script would; capture the outcome."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
    data = out.getvalue().encode("utf-8")
    return {"exit": code, "stdout_sha256": hashlib.sha256(data).hexdigest(),
            "stdout_bytes": len(data)}


def run_search(verify, ctx, classes: Tuple[str, ...], target: str) -> dict:
    """First-found configuration, or the exhaustion message."""
    try:
        cfg = verify.search_configuration(ctx, list(classes), target)
    except verify.SearchExhausted as exc:
        return {"exhausted": str(exc)}
    return {"a": cfg.a, "b": cfg.b, "theta": cfg.theta}


def all_ops() -> List[Op]:
    """Every request any seed can draw; ``pin.py`` pins each of them."""
    ops = [cli_op(v) for _, variants in CLI_MENU for v in variants]
    ops += [cli_op(v) for v in VERIFY_MENU]
    ops += [search_op(c, t) for c, t in SEARCH_MENU]
    return ops


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Seeded source of passes.  ``setup`` builds what the timed part reuses."""

    name = ""
    setups = 40  # set-up repetitions; setup_s is their median

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self, kf) -> object:
        return None

    def next_pass(self) -> List[Op]:
        raise NotImplementedError

    def execute(self, kf, state, op: Op) -> dict:
        return run_cli(kf.cli, op.argv)


class VerifyAll(Workload):
    """One cold ``verify all`` per pass; the seed picks text or JSON output."""

    name = "verify_all"

    def next_pass(self) -> List[Op]:
        return [cli_op(self.rng.choice(VERIFY_MENU))]


class CliQueries(Workload):
    """Independent CLI requests across A5, D5, E6, E7 and E8."""

    name = "cli_queries"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.requests = [
            cli_op(self.rng.choice(variants))
            for count, variants in CLI_MENU for _ in range(count)
        ]

    def next_pass(self) -> List[Op]:
        n = len(self.requests)
        return self.rng.sample(self.requests, n) + self.rng.sample(self.requests, n)


class Search(Workload):
    """Generic searches on one warm E6 context whose census is built in set-up."""

    name = "search"
    setups = 2  # each set-up builds a census (about 10 s)

    def setup(self, kf):
        ctx = kf.verify.VerifyContext()
        ctx.cb
        ctx.census
        return ctx

    def next_pass(self) -> List[Op]:
        return [search_op(c, t) for c, t in self.rng.sample(SEARCH_MENU, len(SEARCH_MENU))]

    def execute(self, kf, state, op: Op) -> dict:
        return run_search(kf.verify, state, *op.search)


WORKLOADS = {w.name: w for w in (VerifyAll, CliQueries, Search)}
