"""Plain-text input documents describing groups, families, groupoids,
functors, and complexes, plus a canonical renderer and a JSON mirror.

The format is keyword driven and whitespace insensitive.  Comments run
from '#' to the end of the line.  Braces nest blocks; words are
[A-Za-z_][A-Za-z0-9_.]*; integers may be negative.  A word of generators
is written as letters with optional integer exponents ("a b^-1 a^2"), and
"@ x" denotes the empty word sitting at x.

Statements:

  group table { row 0 1  row 1 0 }
  group permutations 3 { perm (0 1)  perm (0 1 2) }
  family all | trivial | { 0 2 }
  groupoid NAME { objects u v   gen a u v   rel a b^-1 }
  functor NAME { value 0 NAME   arrow H K REP { obj x y   gen a WORD } }
  complex NAME { vertices v w   edge e v w   face c WORD
                 solid s { 1 c  -1 c2 }   action 1 { e -> e2^-1 } }

An arrow block for the orbit morphism H -> K maps the groupoid at K into
the groupoid at H (arrows run against morphisms).  Action statements give
the action of one group element on the cells it moves; unlisted cells stay
fixed, and the remaining elements are generated by composition.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property

from .complexes import Edge, Face, GCellComplex, Solid
from .groups import (
    FiniteGroup,
    SubgroupFamily,
    cycles_to_permutation,
    enumerate_subgroups,
    family_all,
    family_trivial,
    group_from_permutations,
    group_from_table,
    trivial_group,
    validate_family,
)
from .groupoids import Gen, GroupoidMorphism, PresentedGroupoid, Word
from .functors import MissingArrow, MissingValue, OrbFunctor, make_functor
from .orbit import OrbitCategory, OrbitMorphism


class DocumentSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DanglingReference(ValueError):
    def __init__(self, message, line=None, col=None):
        where = f"line {line}, column {col}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line
        self.col = col


class SchemaViolation(ValueError):
    pass


_TOKEN = re.compile(
    r"->|\^|\{|\}|\(|\)|@|-?\d+|[A-Za-z_][A-Za-z0-9_.]*"
)

_KINDS = {
    "->": "ARROW",
    "^": "CARET",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "@": "AT",
}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    for li, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(line, pos)
            if not m:
                raise DocumentSyntaxError(
                    f"unexpected character {line[pos]!r}", li, pos + 1
                )
            lex = m.group(0)
            kind = _KINDS.get(lex)
            if kind is None:
                kind = "INT" if lex.lstrip("-").isdigit() else "WORD"
            tokens.append(Token(kind, lex, li, m.start() + 1))
            pos = m.end()
    return tokens


@dataclass
class InputDocument:
    group: FiniteGroup
    group_declared: bool
    family: SubgroupFamily | None
    groupoids: dict
    functors: dict
    complexes: dict
    order: tuple  # declaration order: ("groupoid"|"functor"|"complex", name)

    @cached_property
    def category(self) -> OrbitCategory:
        """The orbit category of the group over the declared family, or
        over all subgroups; built when first read."""
        family = self.family if self.family is not None else family_all(self.group)
        return OrbitCategory(self.group, family)


# The most letters one word may expand to.  "a^N" is checked against it
# before it is expanded, so a huge exponent is refused, not allocated.
MAX_WORD_LETTERS = 100_000

_TOP = ("group", "family", "groupoid", "functor", "complex")
_GROUPOID_KW = ("objects", "gen", "rel")
_COMPLEX_KW = ("vertices", "edge", "face", "solid", "action")
_ARROW_KW = ("obj", "gen")
_FUNCTOR_KW = ("value", "arrow")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise DocumentSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t.kind != kind:
            raise DocumentSyntaxError(
                f"expected {what}, found {t.value!r}", t.line, t.col
            )
        return t

    def expect_word(self, what="a name"):
        return self.expect("WORD", what)

    def expect_int(self, what="an integer"):
        return int(self.expect("INT", what).value)

    def take_word(self, value):
        t = self.next()
        if t.kind != "WORD" or t.value != value:
            raise DocumentSyntaxError(
                f"expected {value!r}, found {t.value!r}", t.line, t.col
            )
        return t

    def parse_word_letters(self, stop_words):
        """Letters up to the next keyword or closing brace; '@ obj' gives the
        empty word."""
        t = self.peek()
        if t is not None and t.kind == "AT":
            self.next()
            anchor = self.expect_word("an object name after '@'")
            return Word((), at=anchor.value)
        letters = []
        while True:
            t = self.peek()
            if t is None or t.kind == "RBRACE":
                break
            if t.kind == "WORD" and t.value in stop_words:
                break
            lab = self.expect_word("a generator label")
            exp = 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "CARET":
                self.next()
                exp = self.expect_int("an exponent after '^'")
            if len(letters) + abs(exp) > MAX_WORD_LETTERS:
                raise SchemaViolation(
                    f"line {lab.line}, column {lab.col}: word longer than "
                    f"{MAX_WORD_LETTERS} letters"
                )
            if exp >= 0:
                letters.extend((lab.value, 1) for _ in range(exp))
            else:
                letters.extend((lab.value, -1) for _ in range(-exp))
        if not letters:
            t = self.peek()
            line, col = (t.line, t.col) if t else (0, 0)
            raise DocumentSyntaxError(
                "expected a word (letters or '@ object')", line, col
            )
        return Word(tuple(letters))


def parse_document(text: str) -> InputDocument:
    p = _Parser(tokenize(text))
    group = None
    family = None
    groupoids = {}
    functors = {}
    complexes = {}
    functor_specs = []
    order = []
    names = set()
    while p.peek() is not None:
        t = p.expect_word("a statement keyword")
        if t.value not in _TOP:
            raise DocumentSyntaxError(
                f"expected one of {', '.join(_TOP)}, found {t.value!r}",
                t.line,
                t.col,
            )
        if t.value == "group":
            if group is not None:
                raise SchemaViolation("more than one group statement")
            group = _parse_group(p)
        elif t.value == "family":
            if family is not None:
                raise SchemaViolation("more than one family statement")
            if group is None:
                raise SchemaViolation("family needs a group statement first")
            family = _parse_family(p, group)
        elif t.value == "groupoid":
            name = p.expect_word("a groupoid name").value
            if name in names:
                raise SchemaViolation(f"duplicate name {name!r}")
            names.add(name)
            groupoids[name] = _parse_groupoid(p)
            order.append(("groupoid", name))
        elif t.value == "functor":
            name = p.expect_word("a functor name").value
            if name in names:
                raise SchemaViolation(f"duplicate name {name!r}")
            names.add(name)
            functor_specs.append((name, _parse_functor_body(p)))
            order.append(("functor", name))
        else:
            name = p.expect_word("a complex name").value
            if name in names:
                raise SchemaViolation(f"duplicate name {name!r}")
            names.add(name)
            complexes[name] = _parse_complex(p, group)
            order.append(("complex", name))

    declared = group is not None
    if group is None:
        group = trivial_group()
    doc = InputDocument(
        group, declared, family, groupoids, functors, complexes, tuple(order)
    )
    for name, spec in functor_specs:
        functors[name] = _build_functor(name, spec, doc.category, groupoids)
    return doc


def parse_path(path) -> InputDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def _parse_group(p: _Parser) -> FiniteGroup:
    t = p.expect_word("'table' or 'permutations'")
    if t.value == "table":
        p.expect("LBRACE", "'{'")
        rows = []
        while not _at_rbrace(p):
            p.take_word("row")
            row = []
            while p.peek() is not None and p.peek().kind == "INT":
                row.append(p.expect_int())
            if not row:
                tok = p.peek()
                raise DocumentSyntaxError(
                    "expected entries after 'row'", tok.line, tok.col
                )
            rows.append(tuple(row))
        p.expect("RBRACE", "'}'")
        try:
            return group_from_table(tuple(rows))
        except ValueError as e:
            raise SchemaViolation(f"bad group table: {e}") from e
    if t.value == "permutations":
        degree = p.expect_int("the degree")
        p.expect("LBRACE", "'{'")
        perms = []
        while not _at_rbrace(p):
            p.take_word("perm")
            cycles = []
            while p.peek() is not None and p.peek().kind == "LPAREN":
                p.next()
                cyc = []
                while p.peek() is not None and p.peek().kind == "INT":
                    cyc.append(p.expect_int())
                p.expect("RPAREN", "')'")
                cycles.append(tuple(cyc))
            if not cycles:
                tok = p.peek()
                raise DocumentSyntaxError(
                    "expected cycles after 'perm'", tok.line, tok.col
                )
            try:
                perms.append(cycles_to_permutation(cycles, degree))
            except ValueError as e:
                raise SchemaViolation(f"bad permutation: {e}") from e
        p.expect("RBRACE", "'}'")
        try:
            return group_from_permutations(perms, degree)
        except ValueError as e:
            raise SchemaViolation(f"bad permutation group: {e}") from e
    raise DocumentSyntaxError(
        f"expected 'table' or 'permutations', found {t.value!r}", t.line, t.col
    )


def _at_rbrace(p: _Parser) -> bool:
    t = p.peek()
    if t is None:
        raise DocumentSyntaxError("unexpected end of input inside a block", 0, 0)
    return t.kind == "RBRACE"


def _parse_family(p: _Parser, group: FiniteGroup) -> SubgroupFamily:
    t = p.peek()
    if t is not None and t.kind == "WORD" and t.value in ("all", "trivial", "fin"):
        p.next()
        if t.value == "trivial":
            return family_trivial(group)
        return family_all(group)
    p.expect("LBRACE", "'all', 'trivial', or '{'")
    subs = enumerate_subgroups(group)
    ids = []
    while not _at_rbrace(p):
        i = p.expect_int("a subgroup id")
        if not 0 <= i < len(subs):
            raise SchemaViolation(
                f"subgroup id {i} out of range (the group has {len(subs)} subgroups)"
            )
        ids.append(i)
    p.expect("RBRACE", "'}'")
    members = tuple(subs[i] for i in sorted(set(ids)))
    try:
        return validate_family(group, members)
    except ValueError as e:
        raise SchemaViolation(f"bad family: {e}") from e


def _parse_groupoid(p: _Parser) -> PresentedGroupoid:
    p.expect("LBRACE", "'{'")
    objects = []
    gens = []
    rels = []
    while not _at_rbrace(p):
        t = p.expect_word("'objects', 'gen', or 'rel'")
        if t.value == "objects":
            while p.peek() is not None and p.peek().kind == "WORD" and (
                p.peek().value not in _GROUPOID_KW
            ):
                objects.append(p.expect_word().value)
        elif t.value == "gen":
            lab = p.expect_word("a generator label")
            src = p.expect_word("a source object")
            tgt = p.expect_word("a target object")
            gens.append((lab, src, tgt))
        elif t.value == "rel":
            rels.append((p.parse_word_letters(_GROUPOID_KW), t))
        else:
            raise DocumentSyntaxError(
                f"expected 'objects', 'gen', or 'rel', found {t.value!r}",
                t.line,
                t.col,
            )
    p.expect("RBRACE", "'}'")
    objset = set(objects)
    for lab, src, tgt in gens:
        for end in (src, tgt):
            if end.value not in objset:
                raise DanglingReference(
                    f"generator {lab.value!r} endpoint {end.value!r} is not an object",
                    end.line,
                    end.col,
                )
    labels = {lab.value for lab, _, _ in gens}
    for w, t in rels:
        if w.is_empty and w.at not in objset:
            raise DanglingReference(
                f"empty relator anchored at unknown object {w.at!r}", t.line, t.col
            )
        for letter, _ in w.letters:
            if letter not in labels:
                raise DanglingReference(
                    f"relator uses unknown generator {letter!r}", t.line, t.col
                )
    try:
        return PresentedGroupoid(
            tuple(objects),
            tuple(Gen(lab.value, src.value, tgt.value) for lab, src, tgt in gens),
            tuple(w for w, _ in rels),
        )
    except ValueError as e:
        raise SchemaViolation(f"bad groupoid: {e}") from e


def _parse_functor_body(p: _Parser):
    p.expect("LBRACE", "'{'")
    values = []
    arrows = []
    while not _at_rbrace(p):
        t = p.expect_word("'value' or 'arrow'")
        if t.value == "value":
            sid = p.expect_int("a subgroup id")
            name = p.expect_word("a groupoid name")
            values.append((sid, name))
        elif t.value == "arrow":
            hid = p.expect_int("the source subgroup id")
            kid = p.expect_int("the target subgroup id")
            rep = p.expect_int("a coset representative")
            p.expect("LBRACE", "'{'")
            objs = []
            gens = []
            while not _at_rbrace(p):
                tt = p.expect_word("'obj' or 'gen'")
                if tt.value == "obj":
                    a = p.expect_word("an object name")
                    b = p.expect_word("an object name")
                    objs.append((a, b))
                elif tt.value == "gen":
                    lab = p.expect_word("a generator label")
                    w = p.parse_word_letters(_ARROW_KW)
                    gens.append((lab, w))
                else:
                    raise DocumentSyntaxError(
                        f"expected 'obj' or 'gen', found {tt.value!r}",
                        tt.line,
                        tt.col,
                    )
            p.expect("RBRACE", "'}'")
            arrows.append((hid, kid, rep, objs, gens, t))
        else:
            raise DocumentSyntaxError(
                f"expected 'value' or 'arrow', found {t.value!r}", t.line, t.col
            )
    p.expect("RBRACE", "'}'")
    return values, arrows


def _build_functor(name, spec, cat, groupoids) -> OrbFunctor:
    values_spec, arrow_spec = spec
    values = {}
    for sid, gname in values_spec:
        if gname.value not in groupoids:
            raise DanglingReference(
                f"functor {name!r} refers to unknown groupoid {gname.value!r}",
                gname.line,
                gname.col,
            )
        if sid not in cat.objects:
            raise SchemaViolation(
                f"functor {name!r}: subgroup id {sid} is not in the family"
            )
        values[sid] = groupoids[gname.value]
    arrows = {}
    for hid, kid, rep, objs, gens, t in arrow_spec:
        if hid not in cat.objects or kid not in cat.objects:
            raise SchemaViolation(
                f"functor {name!r}: arrow {hid}->{kid} outside the family"
            )
        if not 0 <= rep < cat.group.order:
            raise SchemaViolation(
                f"functor {name!r}: representative {rep} is not a group element"
            )
        found = OrbitMorphism(hid, kid, cat.coset_rep[kid][rep])
        if found not in cat.hom(hid, kid):
            raise SchemaViolation(
                f"functor {name!r}: no orbit morphism {hid}->{kid} "
                f"with representative {rep}"
            )
        if hid not in values or kid not in values:
            raise SchemaViolation(
                f"functor {name!r}: arrow {hid}->{kid} needs both values declared"
            )
        try:
            mor = GroupoidMorphism(
                values[kid],
                values[hid],
                {a.value: b.value for a, b in objs},
                {lab.value: w for lab, w in gens},
            )
        except ValueError as e:
            raise SchemaViolation(
                f"functor {name!r}: bad arrow {hid}->{kid} at line {t.line}: {e}"
            ) from e
        arrows[found] = mor
    try:
        functor = make_functor(cat, values, arrows)
    except (MissingArrow, MissingValue, ValueError) as e:
        raise SchemaViolation(f"functor {name!r}: {e}") from e
    functor.value_names = {sid: gname.value for sid, gname in values_spec}
    return functor


def _parse_complex(p: _Parser, group) -> GCellComplex:
    if group is None:
        group = trivial_group()
    p.expect("LBRACE", "'{'")
    vertices = []
    edges = []
    faces = []
    solids = []
    action_stmts = []
    while not _at_rbrace(p):
        t = p.expect_word("'vertices', 'edge', 'face', 'solid', or 'action'")
        if t.value == "vertices":
            while p.peek() is not None and p.peek().kind == "WORD" and (
                p.peek().value not in _COMPLEX_KW
            ):
                vertices.append(p.expect_word().value)
        elif t.value == "edge":
            lab = p.expect_word("an edge label")
            src = p.expect_word("a source vertex")
            tgt = p.expect_word("a target vertex")
            edges.append((lab, src, tgt))
        elif t.value == "face":
            lab = p.expect_word("a face label")
            w = p.parse_word_letters(_COMPLEX_KW)
            faces.append((lab, w))
        elif t.value == "solid":
            lab = p.expect_word("a solid label")
            p.expect("LBRACE", "'{'")
            chain = []
            while not _at_rbrace(p):
                coef = p.expect_int("a coefficient")
                cell = p.expect_word("a face label")
                chain.append((coef, cell))
            p.expect("RBRACE", "'}'")
            solids.append((lab, tuple(chain), t))
        elif t.value == "action":
            el = p.expect_int("a group element id")
            p.expect("LBRACE", "'{'")
            moves = []
            while not _at_rbrace(p):
                a = p.expect_word("a cell label")
                p.expect("ARROW", "'->'")
                b = p.expect_word("a cell label")
                sign = 1
                if p.peek() is not None and p.peek().kind == "CARET":
                    p.next()
                    sign = p.expect_int("an exponent")
                    if sign not in (1, -1):
                        raise SchemaViolation(
                            f"action exponent must be 1 or -1, got {sign}"
                        )
                moves.append((a, b, sign))
            p.expect("RBRACE", "'}'")
            action_stmts.append((el, moves, t))
        else:
            raise DocumentSyntaxError(
                f"expected a complex statement, found {t.value!r}", t.line, t.col
            )
    p.expect("RBRACE", "'}'")

    vset = {v for v in vertices}
    for lab, src, tgt in edges:
        for end in (src, tgt):
            if end.value not in vset:
                raise DanglingReference(
                    f"edge {lab.value!r} endpoint {end.value!r} is not a vertex",
                    end.line,
                    end.col,
                )
    eset = {lab.value for lab, _, _ in edges}
    for lab, w in faces:
        if w.is_empty and w.at not in vset:
            raise DanglingReference(
                f"face {lab.value!r} anchored at unknown vertex {w.at!r}",
                lab.line,
                lab.col,
            )
        for letter, _ in w.letters:
            if letter not in eset:
                raise DanglingReference(
                    f"face {lab.value!r} uses unknown edge {letter!r}",
                    lab.line,
                    lab.col,
                )
    fset = {lab.value for lab, _ in faces}
    for lab, chain, t in solids:
        for _, cell in chain:
            if cell.value not in fset:
                raise DanglingReference(
                    f"solid {lab.value!r} uses unknown face {cell.value!r}",
                    cell.line,
                    cell.col,
                )
    all_cells = (
        list(vertices)
        + [lab.value for lab, _, _ in edges]
        + [lab.value for lab, _ in faces]
        + [lab.value for lab, _, _t in solids]
    )
    cellset = set(all_cells)
    given = {}
    for el, moves, t in action_stmts:
        if not 0 <= el < group.order:
            raise SchemaViolation(
                f"action element id {el} out of range for a group of order {group.order}"
            )
        table = {c: (c, 1) for c in all_cells}
        for a, b, sign in moves:
            if a.value not in cellset:
                raise DanglingReference(
                    f"action moves unknown cell {a.value!r}", a.line, a.col
                )
            if b.value not in cellset:
                raise DanglingReference(
                    f"action sends {a.value!r} to unknown cell {b.value!r}",
                    b.line,
                    b.col,
                )
            table[a.value] = (b.value, sign)
        if el in given and given[el] != table:
            raise SchemaViolation(
                f"element {el} is given two different actions"
            )
        given[el] = table

    action = _complete_action(group, given, all_cells)
    try:
        return GCellComplex(
            group,
            tuple(vertices),
            tuple(Edge(lab.value, src.value, tgt.value) for lab, src, tgt in edges),
            tuple(Face(lab.value, w) for lab, w in faces),
            tuple(
                Solid(lab.value, tuple((c, cell.value) for c, cell in chain))
                for lab, chain, _ in solids
            ),
            action,
        )
    except ValueError as e:
        raise SchemaViolation(f"bad complex: {e}") from e


def _complete_action(group: FiniteGroup, given: dict, cells) -> dict:
    """Close a partial action (identity plus any listed elements) under
    composition; unlisted group elements must be reachable as products."""
    identity_table = {c: (c, 1) for c in cells}
    known = {group.identity: identity_table}
    for el, table in given.items():
        if el == group.identity:
            if table != identity_table:
                raise SchemaViolation("the identity element must act trivially")
            continue
        known[el] = table
    changed = True
    while changed:
        changed = False
        for g in list(known):
            for h in list(known):
                gh = group.mul(g, h)
                composed = {}
                for c in cells:
                    ih, sh = known[h][c]
                    ig, sg = known[g][ih]
                    composed[c] = (ig, sg * sh)
                if gh in known:
                    if known[gh] != composed:
                        raise SchemaViolation(
                            f"action statements are inconsistent at element {gh}"
                        )
                else:
                    known[gh] = composed
                    changed = True
    missing = [g for g in group.elements() if g not in known]
    if missing:
        raise SchemaViolation(
            "action statements do not generate the group; missing elements "
            + ", ".join(str(g) for g in missing)
        )
    return known


def render_word(w: Word) -> str:
    if not w.letters:
        return f"@ {w.at}"
    parts = []
    i = 0
    letters = list(w.letters)
    while i < len(letters):
        lab, e = letters[i]
        run = 1
        while i + run < len(letters) and letters[i + run] == (lab, e):
            run += 1
        exp = e * run
        parts.append(lab if exp == 1 else f"{lab}^{exp}")
        i += run
    return " ".join(parts)


def render_document(doc: InputDocument) -> str:
    out = []
    if doc.group_declared:
        out.append("group table {")
        for g in doc.group.elements():
            row = " ".join(str(doc.group.mul(g, h)) for h in doc.group.elements())
            out.append(f"  row {row}")
        out.append("}")
        out.append("")
    if doc.family is not None:
        subs = enumerate_subgroups(doc.group)
        if len(doc.family) == len(subs):
            out.append("family all")
        elif len(doc.family) == 1 and doc.family.members[0].order == 1:
            out.append("family trivial")
        else:
            ids = sorted(subs.index(s) for s in doc.family.members)
            out.append("family { " + " ".join(str(i) for i in ids) + " }")
        out.append("")
    for kind, name in doc.order:
        if kind == "groupoid":
            out.extend(_render_groupoid(name, doc.groupoids[name]))
        elif kind == "functor":
            out.extend(_render_functor(name, doc.functors[name]))
        else:
            out.extend(_render_complex(name, doc.complexes[name]))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _render_groupoid(name, g: PresentedGroupoid):
    out = [f"groupoid {name} {{"]
    if g.objects:
        out.append("  objects " + " ".join(g.objects))
    for gen in g.generators:
        out.append(f"  gen {gen.label} {gen.source} {gen.target}")
    for r in g.relators:
        out.append("  rel " + render_word(r))
    out.append("}")
    return out


def _render_functor(name, f: OrbFunctor):
    out = [f"functor {name} {{"]
    cat = f.category
    names = f.value_names
    if names is None:
        raise ValueError(
            f"functor {name!r} was not parsed from a document; "
            "export its JSON mirror instead"
        )
    for hid in cat.objects:
        out.append(f"  value {hid} {names[hid]}")
    for m in cat.morphisms():
        if cat.is_identity(m):
            continue
        t = f.arrows[m]
        out.append(f"  arrow {m.source} {m.target} {m.representative} {{")
        for x in t.source.objects:
            out.append(f"    obj {x} {t.object_map[x]}")
        for gen in t.source.generators:
            out.append(f"    gen {gen.label} {render_word(t.generator_map[gen.label])}")
        out.append("  }")
    out.append("}")
    return out


def _render_complex(name, x: GCellComplex):
    out = [f"complex {name} {{"]
    if x.vertices:
        out.append("  vertices " + " ".join(x.vertices))
    for e in x.edges:
        out.append(f"  edge {e.label} {e.source} {e.target}")
    for f in x.faces:
        out.append("  face " + f.label + " " + render_word(f.word))
    for s in x.solids:
        terms = " ".join(f"{c} {lab}" for c, lab in s.chain)
        out.append(f"  solid {s.label} {{ {terms} }}")
    for g in x.group.elements():
        if g == x.group.identity:
            continue
        moves = []
        for lab in x.all_labels():
            img, sign = x.action[g][lab]
            if (img, sign) == (lab, 1):
                continue
            moves.append(f"{lab} -> {img}" + ("" if sign == 1 else "^-1"))
        out.append(f"  action {g} {{ " + "  ".join(moves) + " }")
    out.append("}")
    return out


def _word_data(w: Word):
    d = {"letters": [[lab, e] for lab, e in w.letters]}
    if w.at is not None:
        d["at"] = w.at
    return d


def _groupoid_data(g: PresentedGroupoid) -> dict:
    return {
        "objects": list(g.objects),
        "generators": [list(gen) for gen in g.generators],
        "relators": [_word_data(r) for r in g.relators],
    }


def document_data(doc: InputDocument) -> dict:
    """JSON-ready mirror of a document."""
    data = {}
    if doc.group_declared:
        data["group"] = {
            "table": [
                [doc.group.mul(g, h) for h in doc.group.elements()]
                for g in doc.group.elements()
            ]
        }
    if doc.family is not None:
        data["family"] = {
            "members": [list(s.elements) for s in doc.family.members]
        }
    if doc.groupoids:
        data["groupoids"] = {
            name: _groupoid_data(g) for name, g in doc.groupoids.items()
        }
    if doc.functors:
        data["functors"] = {}
        for name, f in doc.functors.items():
            arrows = []
            for m in f.category.morphisms():
                t = f.arrows[m]
                arrows.append(
                    {
                        "source": m.source,
                        "target": m.target,
                        "representative": m.representative,
                        "objects": {x: t.object_map[x] for x in t.source.objects},
                        "generators": {
                            g.label: _word_data(t.generator_map[g.label])
                            for g in t.source.generators
                        },
                    }
                )
            data["functors"][name] = {
                "values": {
                    str(hid): _groupoid_data(f.values[hid])
                    for hid in f.category.objects
                },
                "arrows": arrows,
            }
    if doc.complexes:
        data["complexes"] = {}
        for name, x in doc.complexes.items():
            action = {}
            for g in x.group.elements():
                action[str(g)] = {
                    lab: [img, sign] for lab, (img, sign) in x.action[g].items()
                }
            data["complexes"][name] = {
                "vertices": list(x.vertices),
                "edges": [[e.label, e.source, e.target] for e in x.edges],
                "faces": [[f.label, _word_data(f.word)] for f in x.faces],
                "solids": [
                    [s.label, [[c, lab] for c, lab in s.chain]] for s in x.solids
                ],
                "action": action,
            }
    return data


def document_json(doc: InputDocument) -> str:
    return json.dumps(document_data(doc), indent=2, sort_keys=True)


def complexes_equal(a: GCellComplex, b: GCellComplex) -> bool:
    if a != b:
        return False
    return all(a.action[g] == b.action[g] for g in a.group.elements())


def functors_equal(a: OrbFunctor, b: OrbFunctor) -> bool:
    if a.category.group != b.category.group:
        return False
    if a.category.family.members != b.category.family.members:
        return False
    return a.values == b.values and a.arrows == b.arrows


def documents_equal(a: InputDocument, b: InputDocument) -> bool:
    """Semantic equality, used for round-trip checks."""
    if a.group != b.group:
        return False
    fa = a.family.members if a.family else None
    fb = b.family.members if b.family else None
    if fa != fb:
        return False
    if a.groupoids != b.groupoids:
        return False
    if set(a.functors) != set(b.functors) or set(a.complexes) != set(b.complexes):
        return False
    for name in a.functors:
        if not functors_equal(a.functors[name], b.functors[name]):
            return False
    for name in a.complexes:
        if not complexes_equal(a.complexes[name], b.complexes[name]):
            return False
    return True
