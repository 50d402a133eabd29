"""Every ``raise`` in src/kleinfour, and the table in tests/raises.txt that
accounts for each one.

``raises()`` lists them with ``ast`` by (module, enclosing function, exception
class, first words of the message).  Each table row holds such a key and one
entry: the id of a test that fires the raise, ``implied: <reason>`` for a
check that a neighbour makes first, or ``open: item 17 (b)`` for a certificate
that only a corrupted object could fail.  tests/test_raise_gate.py checks the
table against the source.

Run as a script, it runs the suite under a ``sys.settrace`` line collector and
exits 1 if a test that the table names does not run its raise (tests run in a
subprocess are not seen).  It takes about five times as long as the suite:

    PYTHONPATH=src python tests/raise_gate.py [pytest arguments]
"""

import ast
import sys
from functools import lru_cache
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kleinfour"
TABLE = TESTS / "raises.txt"
WORDS = 4  # of the message, in a key
SEP = " | "


def _text(node) -> str:
    """A message argument as text: literal parts as written, the rest as source."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{%s}" % ast.unparse(v.value)
                       for v in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant):  # "..." % args
        return str(node.left.value)
    return ast.unparse(node)


def raises():
    """[(key, path, line)] of every raise statement under SRC, in file order."""
    out = []

    def walk(node, path, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.Raise):
                exc = child.exc
                call = isinstance(exc, ast.Call)
                cls = ast.unparse(exc.func if call else exc) if exc else ""
                msg = _text(exc.args[0]) if call and exc.args else ""
                out.append(((path.stem, inner, cls, " ".join(msg.split()[:WORDS])),
                            path, child.lineno))
            walk(child, path, inner)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def paired(path=TABLE):
    """(rows, missing, stale): (key, path, line, entry) of each raise that has a
    row in the table at path, the keys of the raises that have none, and the
    (key, entry) of each row that has no raise.  Raises that share a key take
    that key's rows in order.  Blank lines and # comments are skipped."""
    entries = {}
    for text in path.read_text(encoding="utf-8").splitlines():
        if text.strip() and not text.startswith("#"):
            *key, entry = text.split(SEP)
            entries.setdefault(tuple(key), []).append(entry)
    rows, missing = [], []
    for key, src, line in raises():
        if entries.get(key):
            rows.append((key, src, line, entries[key].pop(0)))
        else:
            missing.append(key)
    return rows, missing, [(k, e) for k, es in entries.items() for e in es]


@lru_cache(maxsize=None)
def _test_names(path):
    if not path.is_file():
        return set()
    return {f.name for f in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(f, ast.FunctionDef)}


def problems(path=TABLE):
    """One message per raise with no row, per row with no raise, and per entry
    that is not a test of tests/, ``implied: <reason>`` or ``open: item 17 (b)``."""
    rows, missing, stale = paired(path)
    out = [f"no row: {SEP.join(k)}" for k in missing]
    out += [f"stale row: {SEP.join(k + (e,))}" for k, e in stale]
    for *_, entry in rows:
        file, _, name = entry.partition("::")
        if file.startswith("tests/test_"):
            if name not in _test_names(TESTS.parent / file):
                out.append(f"no such test: {entry}")
        elif entry != "open: item 17 (b)" and not entry.startswith("implied: "):
            out.append(f"bad entry: {entry}")
    return out


def main(args) -> int:
    import pytest

    lines = {(str(path), line) for _, path, line in raises()}
    files = {f for f, _ in lines}
    fired = {}  # (file, line) -> ids of the tests that ran it, parameters dropped
    test = [None]

    def local(frame, event, arg):
        at = frame.f_code.co_filename, frame.f_lineno
        if event == "line" and at in lines:
            fired.setdefault(at, set()).add(test[0])
        return local

    class Plugin:
        @staticmethod
        def pytest_runtest_logstart(nodeid, location):
            test[0] = nodeid.split("[")[0]

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in files else None)
    try:
        code = pytest.main(list(args), plugins=[Plugin()])
    finally:
        sys.settrace(None)
    named = [row for row in paired()[0] if row[3].startswith("tests/")]
    bad = [(k, e) for k, src, line, e in named if e not in fired.get((str(src), line), ())]
    for k, e in bad:
        print(f"{SEP.join(k)}: {e} does not run it", file=sys.stderr)
    print(f"{len(lines)} raises, {len(fired)} run in-process by the suite, "
          f"{len(named) - len(bad)} of {len(named)} run by the test the table names")
    return int(code) or int(bool(bad))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
