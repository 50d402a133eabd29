"""Every ``raise`` in src/kleinfour has one row in tests/raises.txt.

A row names a test that fires the raise, a neighbouring check that implies
it, or a certificate that only a corrupted object could fail
(tests/raise_gate.py).  Run as a script, raise_gate.py also checks under a
line tracer that each named test really runs its raise.
"""

import raise_gate


def test_every_raise_has_a_row_and_every_row_a_raise():
    assert raise_gate.problems() == []


def test_the_gate_names_each_kind_of_bad_row(tmp_path):
    """A raise with no row, a row with no raise (the product check that
    make_klein no longer makes), an entry of no known form and a test that
    does not exist."""
    text = raise_gate.TABLE.read_text(encoding="utf-8").splitlines()
    rows = [r.rsplit(" | ", 1) for r in text if r.strip() and not r.startswith("#")]
    key = {k.split(" | ")[1]: k for k, _ in rows if k.startswith("autos | ")}
    new = {key["_omega_columns"]: "maybe",
           key["weyl_lift"]: "tests/test_autos.py::test_no_such_test"}
    gone = "autos | make_klein | ValueError | product of generators is | implied: (ab)^2 = 1"
    table = tmp_path / "raises.txt"
    table.write_text("".join(f"{k} | {new.get(k, e)}\n" for k, e in rows if k != key["compose"])
                     + gone + "\n", encoding="utf-8")
    assert raise_gate.problems(table) == [
        "no row: " + key["compose"],
        "stale row: " + gone,
        "bad entry: maybe",
        "no such test: tests/test_autos.py::test_no_such_test",
    ]
