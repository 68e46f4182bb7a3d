import json
import os

import pytest

import eqpi1
import eqpi1.cli
from eqpi1.cli import main

DATA = os.path.join(os.path.dirname(eqpi1.__file__), "data")
TORUS = os.path.join(DATA, "torus_z2.eqp")
REFLECTION = os.path.join(DATA, "reflection_circle_z2.eqp")
FREE = os.path.join(DATA, "free_s0_z2.eqp")

NONRIGID_DOC = """
group table { row 0 1  row 1 0 }
groupoid x3 { objects u  gen x u u  rel x^3 }
groupoid a6 { objects u  gen a u u  rel a^6 }
functor squeeze {
  value 0 x3
  value 1 a6
  arrow 0 0 1 { obj u u  gen x x }
  arrow 0 1 0 { obj u u  gen a x^2 }
}
"""

UNCLOSED_FIXED_DOC = """
group table { row 0 1  row 1 0 }
complex pinch {
  vertices v
  edge a v v
  edge b v v
  face c a b
  action 1 { a -> b  b -> a  c -> c }
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_torus(capsys):
    code, out, _ = run(capsys, "validate", TORUS)
    assert code == 0
    assert "group order 2" in out
    assert "complex torus: verified[syntactic]" in out
    assert "cells: 2 + 4 + 2 + 0" in out
    assert "functor torus_pi: verified" in out


def test_validate_machine_format(capsys):
    code, out, _ = run(capsys, "validate", TORUS, "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["title"] == f"validate {TORUS}"
    titles = [c["title"] for c in data["children"]]
    assert "complex torus" in titles
    for child in data["children"]:
        if child["title"] == "complex torus":
            assert child["verdict"]["status"] == "verified"


def test_validate_all_shipped_documents(capsys):
    for path in (TORUS, REFLECTION, FREE):
        code, out, _ = run(capsys, "validate", path)
        assert code == 0, out


def test_orbit_cat(capsys):
    code, out, _ = run(capsys, "orbit-cat", TORUS)
    assert code == 0
    assert "object 0: G/{0} (index 2)" in out
    assert "object 1: G/{0,1} (index 1)" in out
    assert "4 morphisms" in out
    assert "H0->H0:g1" in out


def test_orbit_cat_emit_dot(capsys, tmp_path):
    target = tmp_path / "orbit.dot"
    code, out, _ = run(capsys, "orbit-cat", TORUS, "--emit-dot", str(target))
    assert code == 0
    assert f"wrote {target}" in out
    text = target.read_text()
    assert text.startswith("digraph")


def test_realize_torus(capsys):
    code, out, _ = run(capsys, "realize", TORUS)
    assert code == 0
    assert "realize torus_pi" in out
    assert "x0 = { (H0 g0 u), (H0 g1 u), (H1 g0 v1), (H1 g0 v2) }" in out
    assert "ProperQuotient witness=('v1', 'v2')" in out
    assert "cells: 1 + 6 + 16 + 4" in out
    assert "H_3 = Z^3" in out
    assert "H^3 = Z^3" in out
    assert "complex validation: verified[syntactic]" in out
    assert "(informational)" in out


def test_realize_named_functor_and_max_dim(capsys):
    code, out, _ = run(capsys, "realize", TORUS, "torus_pi", "--max-dim", "2")
    assert code == 0
    assert "cells: 1 + 6 + 16 + 0" in out
    assert "H_2 = Z^12" in out
    assert "H_3" not in out


def test_realize_nonrigid_exits_undecided(capsys, tmp_path):
    doc = tmp_path / "nonrigid.eqp"
    doc.write_text(NONRIGID_DOC)
    code, out, _ = run(capsys, "realize", str(doc))
    assert code == 2
    assert "solids skipped for non-rigid arrows" in out
    assert "H0->H1:g0 relator 0" in out
    code, _, _ = run(capsys, "realize", str(doc), "--strict")
    assert code == 1


def test_homology_stops_on_refuted_complex(capsys, tmp_path):
    # d3 of the solid is the face, whose boundary is a loop that does not
    # bound, so d2*d3 != 0
    doc = tmp_path / "probe.eqp"
    doc.write_text(
        "complex probe {\n"
        "  vertices v\n"
        "  edge e v v\n"
        "  face f e\n"
        "  solid s { 1 f }\n"
        "}\n"
    )
    code, out, err = run(capsys, "homology", str(doc))
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("homology probe: refuted")
    assert "d2*d3 = 0" in lines[0]
    assert not any(ln.strip().startswith(("H_", "euler")) for ln in lines)


def test_homology_torus(capsys):
    code, out, _ = run(capsys, "homology", TORUS)
    assert code == 0
    lines = out.splitlines()
    picked = [ln.strip() for ln in lines if ln.strip().startswith(("H_", "H^", "euler"))]
    assert picked == [
        "H_0 = Z",
        "H_1 = Z^2",
        "H_2 = Z",
        "H_3 = 0",
        "H^0 = Z",
        "H^1 = Z^2",
        "H^2 = Z",
        "H^3 = 0",
        "euler characteristic = 0",
    ]


def test_fixed_subcomplex_command(capsys):
    code, out, _ = run(capsys, "fixed", TORUS, "torus", "1")
    assert code == 0
    assert "fixed torus under subgroup 1 {0,1}" in out
    assert "cells: 2 + 2 + 0 + 0" in out
    assert "vertices: v1 v2" in out
    assert "H_0 = Z^2" in out
    assert "H_1 = Z^2" in out


def test_fixed_subcomplex_bad_subgroup(capsys):
    code, _, err = run(capsys, "fixed", TORUS, "torus", "9")
    assert code == 3
    assert "no subgroup with id 9" in err


def test_fixed_subcomplex_unclosed(capsys, tmp_path):
    doc = tmp_path / "pinch.eqp"
    doc.write_text(UNCLOSED_FIXED_DOC)
    code, out, _ = run(capsys, "fixed", str(doc), "pinch", "1")
    assert code == 1
    assert "refuted" in out
    assert "not a subcomplex" in out


def test_pi1_torus(capsys):
    code, out, _ = run(capsys, "pi1", TORUS)
    assert code == 0
    assert "objects: v1 v2" in out
    assert "gen e1: v2 -> v1" in out
    assert "component at v1: isotropy on e2, l1; abelianized Z^2" in out


def test_induced_functor(capsys):
    code, out, _ = run(capsys, "induced-functor", TORUS)
    assert code == 0
    assert "value 0: 2 objects, 1 components" in out
    assert "value 1: 2 objects, 2 components" in out
    assert "matrix [[-1, 0], [0, 1]]" in out
    assert "(Z^2 -> Z^2)" in out


def test_export_round_trip(capsys):
    code, out, _ = run(capsys, "export", TORUS)
    assert code == 0
    data = json.loads(out)
    assert data["complexes"]["torus"]["vertices"] == ["v1", "v2"]
    assert data["group"]["table"] == [[0, 1], [1, 0]]


def test_export_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "export-dot", TORUS, "torus")
    assert code == 0
    assert out.startswith("digraph")
    assert "v1" in out

    target = tmp_path / "torus.dot"
    code, out, _ = run(capsys, "export-dot", TORUS, "torus", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("digraph")

    code, _, err = run(capsys, "export-dot", TORUS, "nope")
    assert code == 3
    assert "no groupoid or complex named 'nope'" in err


def test_pick_errors(capsys, tmp_path):
    code, _, err = run(capsys, "homology", TORUS, "zz")
    assert code == 3
    assert "no complex named 'zz'" in err

    empty = tmp_path / "empty.eqp"
    empty.write_text("groupoid g { objects u }\n")
    code, _, err = run(capsys, "homology", str(empty))
    assert code == 3
    assert "has no complex" in err

    two = tmp_path / "two.eqp"
    two.write_text(
        "complex a { vertices v }\ncomplex b { vertices w }\n"
    )
    code, _, err = run(capsys, "homology", str(two))
    assert code == 3
    assert "name one of: a, b" in err


def test_unusable_input(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.eqp"))
    assert code == 3
    assert "error:" in err

    bad = tmp_path / "bad.eqp"
    bad.write_text("group bogus {}\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3
    assert "line 1, column 7" in err


def test_realize_machine_format(capsys):
    code, out, _ = run(capsys, "realize", TORUS, "--format", "machine")
    assert code == 0
    data = json.loads(out)
    titles = [c["title"] for c in data["children"]]
    assert "stage 2: objects against fixed classes" in titles
    for child in data["children"]:
        if child["title"].startswith("stage 2"):
            assert child["informational"] is True


def test_internal_error_exits_four_without_traceback(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(eqpi1.cli, "cmd_export", broken)
    code, out, err = run(capsys, "export", TORUS)
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["error: internal error: RuntimeError: boom second line"]
    assert "Traceback" not in err
