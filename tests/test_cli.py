import json
import os
import time

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

# refuted by validate: the generator fixes the loop a and reverses it
REVERSED_LOOP_DOC = """
group table { row 0 1 row 1 0 }
complex c { vertices v edge a v v action 1 { a -> a^-1 } }
"""

# refuted by validate: the face word runs from v to w
OPEN_FACE_DOC = """
group table { row 0 }
complex c { vertices v w edge a v w face f a }
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


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_induced_functor_refuses_an_unclosed_fixed_set(capsys, tmp_path, fmt):
    # the complex validates, but its fixed set under the generator is not
    # a subcomplex: refuted with the detail, as `fixed` reports it, and
    # not an internal error
    doc = tmp_path / "pinch.eqp"
    doc.write_text(UNCLOSED_FIXED_DOC)
    code, out, err = run(capsys, "induced-functor", str(doc), "--format", fmt)
    assert (code, err) == (1, "")
    detail = "fixed cells are not a subcomplex: face 'c' uses unfixed edge 'a'"
    if fmt == "text":
        assert out == (
            f"induced functor of pinch: refuted[syntactic] witness={{'detail': {detail!r}}}\n"
        )
    else:
        assert json.loads(out) == {
            "title": "induced functor of pinch",
            "verdict": {
                "level": "syntactic", "status": "refuted", "witness": {"detail": detail},
            },
        }


ORIENTATION = "{'check': 'fixed cells keep orientation', 'element': 1, 'cell': 'a'}"
CLOSED = "{'check': 'face word closed', 'face': 'f', 'ends': ('v', 'w')}"


@pytest.mark.parametrize(
    "text, argv, title, witness",
    [
        (REVERSED_LOOP_DOC, ("fixed", "c", "1"), "fixed c under subgroup 1 {0,1}",
         ORIENTATION),
        (REVERSED_LOOP_DOC, ("pi1",), "pi1 c", ORIENTATION),
        (OPEN_FACE_DOC, ("fixed", "c", "0"), "fixed c under subgroup 0 {0}", CLOSED),
        (OPEN_FACE_DOC, ("pi1",), "pi1 c", CLOSED),
    ],
    ids=["fixed-reversed-loop", "pi1-reversed-loop", "fixed-open-face", "pi1-open-face"],
)
def test_fixed_and_pi1_refuse_a_refuted_complex(
    capsys, tmp_path, text, argv, title, witness
):
    # the refutation of validate, on one line, with exit 1 and no error
    doc = tmp_path / "refuted.eqp"
    doc.write_text(text)
    command, *rest = argv
    code, out, err = run(capsys, command, str(doc), *rest)
    assert (code, err) == (1, "")
    assert out == f"{title}: refuted[syntactic] witness={witness}\n"


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


def test_induced_functor_maps_each_shared_arrow_once(
    capsys, monkeypatch, tmp_path, bench_inputs
):
    # the S4 point: 714 orbit morphisms, all holding one shared arrow
    doc = tmp_path / "point.eqp"
    doc.write_text(bench_inputs.point_s4(0))
    calls = []
    original = eqpi1.cli.abelianized_isotropy_map

    def counted(t, x0):
        calls.append(x0)
        return original(t, x0)

    monkeypatch.setattr(eqpi1.cli, "abelianized_isotropy_map", counted)
    code, out, _ = run(capsys, "induced-functor", str(doc))
    assert code == 0
    assert len(calls) == 1
    assert out.count(": matrix [] (0 -> 0)") == 714


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


@pytest.mark.parametrize("text", [
    "group table { row",
    "group permutations 3 { perm",
])
def test_truncated_group_block_exits_three(capsys, tmp_path, text):
    doc = tmp_path / "cut.eqp"
    doc.write_text(text)
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        f"error: line 1, column {text.rindex(' ') + 2}: "
        "unexpected end of input inside a block"
    ]


@pytest.mark.parametrize("command", ["validate", "induced-functor"])
def test_group_after_complex_exits_three(capsys, tmp_path, command):
    doc = tmp_path / "late_group.eqp"
    doc.write_text(
        "complex c { vertices v  edge a v v }\n"
        "group table { row 0 1  row 1 0 }\n"
        "family all\n"
    )
    code, out, err = run(capsys, command, str(doc))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: the group statement must come before every complex"
    ]


def test_oversized_word_exits_three(capsys, tmp_path):
    doc = tmp_path / "huge.eqp"
    doc.write_text(
        "group table { row 0 }\n"
        "groupoid g { objects u  gen a u u  rel a^30000000 }\n"
    )
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: line 2, column 40: word longer than 100000 letters"
    ]


def test_oversized_group_exits_three_quickly(capsys, tmp_path):
    # S7 has 5040 elements; its table alone took about a minute to build
    doc = tmp_path / "s7.eqp"
    doc.write_text("group permutations 7 { perm (0 1)  perm (0 1 2 3 4 5 6) }\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(doc))
    assert time.perf_counter() - start < 10
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: bad permutation group: the permutations generate more than "
        "1000 elements"
    ]


def test_unreadable_input_exits_three(capsys, tmp_path, monkeypatch):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Is a directory" in err

    binary = tmp_path / "binary.eqp"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "homology", str(binary))
    assert code == 3
    assert len(err.splitlines()) == 1 and "internal error" not in err

    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(eqpi1.cli, "parse_path", denied)
    code, _, err = run(capsys, "realize", TORUS)
    assert code == 3
    assert err.splitlines() == [f"error: [Errno 13] Permission denied: '{TORUS}'"]


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
