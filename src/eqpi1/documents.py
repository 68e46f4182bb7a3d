"""Plain-text input documents describing groups, families, groupoids,
functors, and complexes, plus a JSON mirror.

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
from typing import NamedTuple

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
from .functors import (
    MissingArrow,
    MissingValue,
    OrbFunctor,
    make_functor,
    name_first,
)
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


# One scan per comment-stripped line finds each token (a symbol, an integer
# or a word) or a character no token starts with.  No alternative matches
# whitespace, so the scan steps over it.
_SCAN = re.compile(r"(->|\^|\{|\}|\(|\)|@)|(-?\d+)|([A-Za-z_][A-Za-z0-9_.]*)|(\S)")

_KINDS = {
    "->": "ARROW",
    "^": "CARET",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "@": "AT",
}


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    for li, raw in enumerate(text.splitlines(), start=1):
        for m in _SCAN.finditer(raw.split("#", 1)[0]):
            group, lex = m.lastindex, m.group()
            if group == 4:
                raise DocumentSyntaxError(
                    f"unexpected character {lex!r}", li, m.start() + 1
                )
            kind = _KINDS[lex] if group == 1 else "INT" if group == 2 else "WORD"
            tokens.append(Token(kind, lex, li, m.start() + 1))
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

# The largest group a document may declare.  A table is refused at its
# next row past it, and a permutation group's closure stops once it holds
# more elements, so neither builds a table of that size.
MAX_GROUP_ORDER = 1_000


def _choices(words) -> str:
    quoted = [f"'{w}'" for w in words]
    if len(quoted) <= 2:
        return " or ".join(quoted)
    return ", ".join(quoted[:-1]) + ", or " + quoted[-1]


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind) -> bool:
        t = self.peek()
        return t is not None and t.kind == kind

    def position(self):
        """Line and column of the next token, or of the last token at end
        of input."""
        t = self.peek() or (self.tokens[-1] if self.tokens else Token("", "", 1, 1))
        return t.line, t.col

    def here(self):
        """The next token inside a block, where end of input is an error."""
        t = self.peek()
        if t is None:
            raise DocumentSyntaxError(
                "unexpected end of input inside a block", *self.position()
            )
        return t

    def next(self):
        t = self.peek()
        if t is None:
            raise DocumentSyntaxError("unexpected end of input", *self.position())
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

    def skip(self, kind) -> bool:
        """Consume the next token if it has this kind."""
        if self.at(kind):
            self.pos += 1
            return True
        return False

    def items(self, kind, read, what=None) -> list:
        """read() while the next token has this kind; with what, at least
        once."""
        found = []
        while self.at(kind):
            found.append(read())
        if what and not found:
            t = self.here()
            raise DocumentSyntaxError(f"expected {what}", t.line, t.col)
        return found

    def block(self, item, opening="'{'"):
        """'{' item ... '}', calling item() until the closing brace."""
        self.expect("LBRACE", opening)
        while self.here().kind != "RBRACE":
            item()
        self.next()

    def dispatch(self, handlers, what=None, unknown=None):
        """Read a keyword and return handlers[keyword](its token).  The
        error names what (by default the keywords), or unknown when the
        token is a word that is not a keyword."""
        t = self.next()
        handler = handlers.get(t.value) if t.kind == "WORD" else None
        if handler is None:
            what = what or _choices(handlers)
            if unknown and t.kind == "WORD":
                what = unknown
            raise DocumentSyntaxError(
                f"expected {what}, found {t.value!r}", t.line, t.col
            )
        return handler(t)

    def statements(self, handlers, unknown=None):
        """A block of keyword statements."""
        self.block(lambda: self.dispatch(handlers, unknown=unknown))

    def parse_word_letters(self, stop_words):
        """Letters up to the next keyword or closing brace; '@ obj' gives the
        empty word."""
        if self.skip("AT"):
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
            exp = self.expect_int("an exponent after '^'") if self.skip("CARET") else 1
            if len(letters) + abs(exp) > MAX_WORD_LETTERS:
                raise SchemaViolation(
                    f"line {lab.line}, column {lab.col}: word longer than "
                    f"{MAX_WORD_LETTERS} letters"
                )
            letters.extend([(lab.value, 1 if exp >= 0 else -1)] * abs(exp))
        if not letters:
            raise DocumentSyntaxError(
                "expected a word (letters or '@ object')", *self.position()
            )
        return Word(tuple(letters))


def parse_document(text: str) -> InputDocument:
    p = _Parser(tokenize(text))
    group = family = None
    groupoids, complexes, functor_specs = {}, {}, []
    declared = {}  # name -> "groupoid" | "functor" | "complex", in order

    def declare(kind):
        name = p.expect_word(f"a {kind} name").value
        if name in declared:
            raise SchemaViolation(f"duplicate name {name!r}")
        declared[name] = kind
        return name

    def read_group(t):
        nonlocal group
        if group is not None:
            raise SchemaViolation("more than one group statement")
        if complexes:  # already built over the trivial group
            raise SchemaViolation(
                "the group statement must come before every complex"
            )
        group = _parse_group(p)

    def read_family(t):
        nonlocal family
        if family is not None:
            raise SchemaViolation("more than one family statement")
        if group is None:
            raise SchemaViolation("family needs a group statement first")
        family = _parse_family(p, group)

    def read_groupoid(t):
        name = declare("groupoid")
        groupoids[name] = _parse_groupoid(p)

    def read_functor(t):
        name = declare("functor")
        functor_specs.append((name, _parse_functor_body(p)))

    def read_complex(t):
        name = declare("complex")
        complexes[name] = _parse_complex(p, group or trivial_group())

    handlers = {
        "group": read_group,
        "family": read_family,
        "groupoid": read_groupoid,
        "functor": read_functor,
        "complex": read_complex,
    }
    while p.peek() is not None:
        p.dispatch(handlers, "a statement keyword", "one of " + ", ".join(handlers))

    order = tuple((kind, name) for name, kind in declared.items())
    doc = InputDocument(
        group or trivial_group(), group is not None, family, groupoids, {},
        complexes, order,
    )
    for name, spec in functor_specs:
        doc.functors[name] = _build_functor(name, spec, doc.category, groupoids)
    return doc


def parse_path(path) -> InputDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def _parse_group(p: _Parser) -> FiniteGroup:
    def table(t):
        rows = []

        def row(_):
            if len(rows) == MAX_GROUP_ORDER:
                raise SchemaViolation(
                    f"bad group table: more than {MAX_GROUP_ORDER} rows"
                )
            rows.append(tuple(p.items("INT", p.expect_int, "entries after 'row'")))

        p.statements({"row": row})
        try:
            return group_from_table(tuple(rows))
        except ValueError as e:
            raise SchemaViolation(f"bad group table: {e}") from e

    def permutations(t):
        degree = p.expect_int("the degree")
        perms = []

        def cycle():
            p.next()
            points = p.items("INT", p.expect_int)
            p.expect("RPAREN", "')'")
            return tuple(points)

        def perm(_):
            cycles = p.items("LPAREN", cycle, "cycles after 'perm'")
            try:
                perms.append(cycles_to_permutation(cycles, degree))
            except ValueError as e:
                raise SchemaViolation(f"bad permutation: {e}") from e

        p.statements({"perm": perm})
        try:
            return group_from_permutations(perms, degree, max_order=MAX_GROUP_ORDER)
        except ValueError as e:
            raise SchemaViolation(f"bad permutation group: {e}") from e

    return p.dispatch({"table": table, "permutations": permutations})


def _parse_family(p: _Parser, group: FiniteGroup) -> SubgroupFamily:
    if p.at("WORD") and p.peek().value in ("all", "trivial", "fin"):
        word = p.next().value
        return family_trivial(group) if word == "trivial" else family_all(group)
    subs = enumerate_subgroups(group)
    ids = []

    def member():
        i = p.expect_int("a subgroup id")
        if not 0 <= i < len(subs):
            raise SchemaViolation(
                f"subgroup id {i} out of range (the group has {len(subs)} subgroups)"
            )
        ids.append(i)

    p.block(member, "'all', 'trivial', or '{'")
    members = tuple(subs[i] for i in sorted(set(ids)))
    try:
        return validate_family(group, members)
    except ValueError as e:
        raise SchemaViolation(f"bad family: {e}") from e


def _names(p: _Parser, keywords) -> list:
    """The names of an 'objects' or 'vertices' list, up to the next
    keyword."""
    names = []
    while p.at("WORD") and p.peek().value not in keywords:
        names.append(p.next().value)
    return names


def _link(p: _Parser, label: str, noun: str):
    """The tokens of 'LABEL SOURCE TARGET' in a 'gen' or 'edge' statement."""
    return (
        p.expect_word(label),
        p.expect_word(f"a source {noun}"),
        p.expect_word(f"a target {noun}"),
    )


def _check_ends(links, known: set, kind: str, noun: str):
    """Each source and target of the links is in known."""
    for lab, src, tgt in links:
        for end in (src, tgt):
            if end.value not in known:
                raise DanglingReference(
                    f"{kind} {lab.value!r} endpoint {end.value!r} is not {noun}",
                    end.line,
                    end.col,
                )


def _check_word(w: Word, t, ends, labels, anchored: str, uses: str):
    """An empty word sits at one of ends and every letter is one of labels;
    a refusal is reported at the statement token t."""
    if w.is_empty and w.at not in ends:
        raise DanglingReference(f"{anchored} {w.at!r}", t.line, t.col)
    for letter, _ in w.letters:
        if letter not in labels:
            raise DanglingReference(f"{uses} {letter!r}", t.line, t.col)


def _parse_groupoid(p: _Parser) -> PresentedGroupoid:
    objects, gens, rels = [], [], []
    keywords = {
        "objects": lambda t: objects.extend(_names(p, keywords)),
        "gen": lambda t: gens.append(_link(p, "a generator label", "object")),
        "rel": lambda t: rels.append((p.parse_word_letters(keywords), t)),
    }
    p.statements(keywords)
    objset, labels = set(objects), {lab.value for lab, _, _ in gens}
    _check_ends(gens, objset, "generator", "an object")
    for w, t in rels:
        _check_word(
            w, t, objset, labels,
            "empty relator anchored at unknown object",
            "relator uses unknown generator",
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
    values, arrows = [], []

    def arrow(t):
        hid = p.expect_int("the source subgroup id")
        kid = p.expect_int("the target subgroup id")
        rep = p.expect_int("a coset representative")
        objs, gens = [], []
        keywords = {
            "obj": lambda _: objs.append(
                (p.expect_word("an object name"), p.expect_word("an object name"))
            ),
            "gen": lambda _: gens.append(
                (p.expect_word("a generator label"), p.parse_word_letters(keywords))
            ),
        }
        p.statements(keywords)
        arrows.append((hid, kid, rep, objs, gens, t))

    p.statements({
        "value": lambda _: values.append(
            (p.expect_int("a subgroup id"), p.expect_word("a groupoid name"))
        ),
        "arrow": arrow,
    })
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


def _parse_complex(p: _Parser, group: FiniteGroup) -> GCellComplex:
    vertices, edges, faces, solids, action_stmts = [], [], [], [], []

    def solid(t):
        lab = p.expect_word("a solid label")
        chain = []
        p.block(lambda: chain.append(
            (p.expect_int("a coefficient"), p.expect_word("a face label"))
        ))
        solids.append((lab, tuple(chain)))

    def action(t):
        el = p.expect_int("a group element id")
        moves = []

        def move():
            a = p.expect_word("a cell label")
            p.expect("ARROW", "'->'")
            b = p.expect_word("a cell label")
            sign = p.expect_int("an exponent") if p.skip("CARET") else 1
            if sign not in (1, -1):
                raise SchemaViolation(f"action exponent must be 1 or -1, got {sign}")
            moves.append((a, b, sign))

        p.block(move)
        action_stmts.append((el, moves))

    keywords = {
        "vertices": lambda t: vertices.extend(_names(p, keywords)),
        "edge": lambda t: edges.append(_link(p, "an edge label", "vertex")),
        "face": lambda t: faces.append(
            (p.expect_word("a face label"), p.parse_word_letters(keywords))
        ),
        "solid": solid,
        "action": action,
    }
    p.statements(keywords, unknown="a complex statement")

    vset, eset = set(vertices), {lab.value for lab, _, _ in edges}
    _check_ends(edges, vset, "edge", "a vertex")
    for lab, w in faces:
        _check_word(
            w, lab, vset, eset,
            f"face {lab.value!r} anchored at unknown vertex",
            f"face {lab.value!r} uses unknown edge",
        )
    fset = {lab.value for lab, _ in faces}
    for lab, chain in solids:
        for _, cell in chain:
            if cell.value not in fset:
                raise DanglingReference(
                    f"solid {lab.value!r} uses unknown face {cell.value!r}",
                    cell.line,
                    cell.col,
                )
    all_cells = vertices + [lab.value for lab, *_ in edges + faces + solids]
    cellset = set(all_cells)
    given = {}
    for el, moves in action_stmts:
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
            raise SchemaViolation(f"element {el} is given two different actions")
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
                for lab, chain in solids
            ),
            action,
        )
    except ValueError as e:
        raise SchemaViolation(f"bad complex: {e}") from e


def _complete_action(group: FiniteGroup, given: dict, cells) -> dict:
    """Close a partial action (identity plus any listed elements) under
    composition: a breadth-first search from the identity sets
    rho(g s) = rho(g) rho(s) for every reached g and listed s, and checks
    the equation wherever g s was reached before.  By induction on word
    length that is the homomorphism property on the generated subgroup;
    unlisted group elements must be reachable as products."""
    identity_table = {c: (c, 1) for c in cells}
    if given.get(group.identity, identity_table) != identity_table:
        raise SchemaViolation("the identity element must act trivially")
    listed = [(s, table) for s, table in given.items() if s != group.identity]
    known = {group.identity: identity_table}
    queue = [group.identity]
    for g in queue:
        rho = known[g]
        for s, sigma in listed:
            composed = {}
            for c in cells:
                img, sign = sigma[c]
                img_g, sign_g = rho[img]
                composed[c] = (img_g, sign_g * sign)
            gs = group.mul(g, s)
            if gs not in known:
                known[gs] = composed
                queue.append(gs)
            elif known[gs] != composed:
                raise SchemaViolation(
                    f"action statements are inconsistent at element {gs}"
                )
    missing = [g for g in group.elements() if g not in known]
    if missing:
        raise SchemaViolation(
            "action statements do not generate the group; missing elements "
            + name_first(missing)
        )
    return known


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


def _functor_data(f: OrbFunctor) -> dict:
    arrows = []
    for m in f.category.morphisms():
        t = f.arrows[m]
        arrows.append({
            "source": m.source,
            "target": m.target,
            "representative": m.representative,
            "objects": {x: t.object_map[x] for x in t.source.objects},
            "generators": {
                g.label: _word_data(t.generator_map[g.label])
                for g in t.source.generators
            },
        })
    values = {str(h): _groupoid_data(f.values[h]) for h in f.category.objects}
    return {"values": values, "arrows": arrows}


def _complex_data(x: GCellComplex) -> dict:
    return {
        "vertices": list(x.vertices),
        "edges": [[e.label, e.source, e.target] for e in x.edges],
        "faces": [[f.label, _word_data(f.word)] for f in x.faces],
        "solids": [[s.label, [[c, lab] for c, lab in s.chain]] for s in x.solids],
        "action": {
            str(g): {lab: [img, sign] for lab, (img, sign) in x.action[g].items()}
            for g in x.group.elements()
        },
    }


def document_data(doc: InputDocument) -> dict:
    """JSON-ready mirror of a document."""
    data = {}
    if doc.group_declared:
        elements = doc.group.elements()
        data["group"] = {
            "table": [[doc.group.mul(g, h) for h in elements] for g in elements]
        }
    if doc.family is not None:
        data["family"] = {"members": [list(s.elements) for s in doc.family.members]}
    for key, parts, to_data in (
        ("groupoids", doc.groupoids, _groupoid_data),
        ("functors", doc.functors, _functor_data),
        ("complexes", doc.complexes, _complex_data),
    ):
        if parts:
            data[key] = {name: to_data(part) for name, part in parts.items()}
    return data


def document_json(doc: InputDocument) -> str:
    return json.dumps(document_data(doc), indent=2, sort_keys=True)
