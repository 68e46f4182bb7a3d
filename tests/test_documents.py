import json

import pytest
from document_render import (
    complexes_equal,
    documents_equal,
    functors_equal,
    render_document,
    render_word,
)

from eqpi1.complexes import validate_complex
from eqpi1.documents import (
    MAX_GROUP_ORDER,
    MAX_WORD_LETTERS,
    DanglingReference,
    DocumentSyntaxError,
    InputDocument,
    SchemaViolation,
    document_json,
    parse_document,
    tokenize,
)
from eqpi1.functors import induced_functor_from_complex
from eqpi1.groupoids import Word
from eqpi1.groups import symmetric_group
from eqpi1.verdicts import VERIFIED

Z2_HEADER = "group table { row 0 1  row 1 0 }\n"
Z4_HEADER = "group table { row 0 1 2 3  row 1 2 3 0  row 2 3 0 1  row 3 0 1 2 }\n"
S3_HEADER = "group permutations 3 { perm (0 1)  perm (0 1 2) }\n"


def test_tokenize_positions():
    toks = tokenize("gen a u v\n  rel a^-2")
    assert [t.kind for t in toks] == [
        "WORD", "WORD", "WORD", "WORD", "WORD", "WORD", "CARET", "INT",
    ]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[4].line == 2 and toks[4].col == 3
    assert toks[7].value == "-2"


def test_tokenize_rejects_stray_characters():
    with pytest.raises(DocumentSyntaxError) as err:
        tokenize("a $")
    assert err.value.line == 1 and err.value.col == 3
    assert "unexpected character" in str(err.value)


def test_comments_are_ignored():
    doc = parse_document("groupoid g { # a comment with } braces\n objects u }")
    assert doc.groupoids["g"].objects == ("u",)
    assert not doc.group_declared
    assert doc.group.order == 1


def test_unknown_top_level_keyword():
    with pytest.raises(DocumentSyntaxError) as err:
        parse_document("bogus stuff")
    assert "expected one of group, family" in str(err.value)
    assert err.value.line == 1 and err.value.col == 1


def test_group_statement_errors():
    with pytest.raises(DocumentSyntaxError) as err:
        parse_document("group bogus {}")
    assert str(err.value).startswith("line 1, column 7:")
    with pytest.raises(SchemaViolation, match="more than one group"):
        parse_document(Z2_HEADER + Z2_HEADER)
    with pytest.raises(SchemaViolation, match="bad group table"):
        parse_document("group table { row 0 0  row 0 0 }")
    with pytest.raises(DocumentSyntaxError, match="expected entries after 'row'"):
        parse_document("group table { row }")
    with pytest.raises(DocumentSyntaxError, match="unexpected end of input"):
        parse_document("groupoid g {")


@pytest.mark.parametrize("text", [
    "group table { row",
    "group table { row 0 1  row",
    "group permutations 3 { perm",
    "group permutations 3 { perm (0 1)  perm",
])
def test_truncated_row_and_perm_lists(text):
    # the error points at the last token, where the input stopped
    col = text.rindex(" ") + 2
    with pytest.raises(DocumentSyntaxError) as err:
        parse_document(text)
    assert str(err.value) == (
        f"line 1, column {col}: unexpected end of input inside a block"
    )


def test_group_must_precede_complexes():
    text = "complex c { vertices v  edge a v v }\n" + Z2_HEADER + "family all\n"
    with pytest.raises(SchemaViolation) as err:
        parse_document(text)
    assert str(err.value) == "the group statement must come before every complex"
    # a group before the complex, and groupoids or functors before the
    # group, are fine
    doc = parse_document(
        "groupoid g { objects u }\n" + Z2_HEADER
        + "complex c { vertices v  edge a v v  action 1 { } }\n"
    )
    assert doc.complexes["c"].group is doc.group
    # without any group statement a complex is over the trivial group
    doc = parse_document("complex c { vertices v }")
    assert doc.complexes["c"].group.order == 1 and not doc.group_declared


def test_family_forms():
    for word, size in (("all", 2), ("fin", 2), ("trivial", 1)):
        doc = parse_document(Z2_HEADER + f"family {word}\n")
        assert len(doc.family) == size
    doc = parse_document(Z4_HEADER + "family { 0 1 }\n")
    assert [s.elements for s in doc.family.members] == [(0,), (0, 2)]


def test_family_errors():
    with pytest.raises(SchemaViolation, match="family needs a group"):
        parse_document("family all")
    with pytest.raises(SchemaViolation, match="out of range"):
        parse_document(Z2_HEADER + "family { 7 }")
    with pytest.raises(SchemaViolation, match="bad family"):
        parse_document(S3_HEADER + "family { 0 4 5 }")
    with pytest.raises(SchemaViolation, match="more than one family"):
        parse_document(Z2_HEADER + "family all\nfamily trivial\n")


def test_word_length_limit():
    def groupoid(word):
        return parse_document(f"groupoid g {{ objects u  gen a u u  rel {word} }}")

    (rel,) = groupoid(f"a^{MAX_WORD_LETTERS}").groupoids["g"].relators
    assert len(rel.letters) == MAX_WORD_LETTERS
    for word in (
        f"a^{MAX_WORD_LETTERS + 1}",
        f"a^-{MAX_WORD_LETTERS + 1}",
        f"a^{MAX_WORD_LETTERS} a",
        "a^30000000",
    ):
        with pytest.raises(SchemaViolation, match="longer than 100000 letters"):
            groupoid(word)


def test_group_order_limit():
    def permutations(degree, *cycles):
        perms = " ".join(f"perm ({' '.join(map(str, c))})" for c in cycles)
        return parse_document(f"group permutations {degree} {{ {perms} }}").group

    # S6 (720 elements) is the largest symmetric group under the limit
    for n in (5, 6):
        assert permutations(n, (0, 1), range(n)) == symmetric_group(n)
    for degree, cycles in (
        (7, [(0, 1), range(7)]),
        (MAX_GROUP_ORDER + 1, [range(MAX_GROUP_ORDER + 1)]),
    ):
        with pytest.raises(SchemaViolation, match="more than 1000 elements"):
            permutations(degree, *cycles)
    # the row count is checked before the table: 1000 rows reach the table
    # check, 1001 do not
    with pytest.raises(SchemaViolation, match="not square"):
        parse_document("group table {%s }" % (" row 0" * MAX_GROUP_ORDER))
    with pytest.raises(SchemaViolation, match="more than 1000 rows"):
        parse_document("group table {%s }" % (" row 0" * (MAX_GROUP_ORDER + 1)))


def test_duplicate_names_rejected():
    with pytest.raises(SchemaViolation, match="duplicate name"):
        parse_document("groupoid g { objects u }\ncomplex g { vertices v }")


def test_groupoid_parsing_and_exponents():
    doc = parse_document(
        "groupoid g { objects u v  gen a u v  gen b u u  rel b^3  rel b^-2 a a^-1 }"
    )
    g = doc.groupoids["g"]
    assert g.objects == ("u", "v")
    assert g.relators[0].letters == (("b", 1),) * 3
    assert g.relators[1].letters == (
        ("b", -1), ("b", -1), ("a", 1), ("a", -1),
    )


def test_empty_relator_anchor():
    doc = parse_document("groupoid g { objects u  gen a u u  rel @ u }")
    r = doc.groupoids["g"].relators[0]
    assert r.letters == () and r.at == "u"
    with pytest.raises(DocumentSyntaxError, match="expected a word"):
        parse_document("groupoid g { objects u  gen a u u  rel a^0 }")


def test_groupoid_dangling_references():
    with pytest.raises(DanglingReference) as err:
        parse_document("groupoid g {\n  objects u\n  gen a u w\n}")
    assert err.value.line == 3 and err.value.col == 11
    with pytest.raises(DanglingReference, match="unknown generator"):
        parse_document("groupoid g { objects u  gen a u u  rel c }")
    with pytest.raises(DanglingReference, match="unknown object"):
        parse_document("groupoid g { objects u  gen a u u  rel @ zz }")


def test_functor_parsing(torus_doc):
    f = torus_doc.functors["torus_pi"]
    assert sorted(f.values) == [0, 1]
    assert len(f.arrows) == 4


def test_functor_schema_errors():
    base = Z2_HEADER + "groupoid g { objects u  gen x u u }\n"
    with pytest.raises(DanglingReference, match="unknown groupoid"):
        parse_document(base + "functor f { value 0 nope  value 1 g }")
    with pytest.raises(SchemaViolation, match="not in the family"):
        parse_document(base + "functor f { value 9 g }")
    with pytest.raises(SchemaViolation, match="outside the family"):
        parse_document(
            Z2_HEADER + "family trivial\n"
            + "groupoid g { objects u  gen x u u }\n"
            + "functor f { value 0 g  arrow 0 1 0 { obj u u } }"
        )
    with pytest.raises(SchemaViolation, match="not a group element"):
        parse_document(
            base + "functor f { value 0 g  value 1 g  arrow 0 0 5 { obj u u } }"
        )
    with pytest.raises(SchemaViolation, match="needs both values declared"):
        parse_document(
            base + "functor f { value 0 g  arrow 0 1 0 { obj u u } }"
        )
    with pytest.raises(SchemaViolation, match="bad arrow"):
        parse_document(
            base
            + "functor f { value 0 g  value 1 g  "
            + "arrow 0 0 1 { obj u w  gen x x }  arrow 0 1 0 { obj u u  gen x x } }"
        )
    with pytest.raises(SchemaViolation, match="arrows not derivable"):
        parse_document(
            base
            + "functor f { value 0 g  value 1 g  arrow 0 0 1 { obj u u  gen x x } }"
        )


def test_functor_representative_must_give_a_morphism():
    text = (
        S3_HEADER
        + "family { 0 1 2 3 }\n"
        + "groupoid pt { objects u }\n"
        + "functor f { value 0 pt  value 1 pt  value 2 pt  value 3 pt\n"
        + "  arrow 1 1 2 { obj u u } }"
    )
    with pytest.raises(SchemaViolation, match="no orbit morphism 1->1"):
        parse_document(text)


def test_arrow_representative_may_be_any_coset_element():
    # over Z/2, 1 lies in the coset 0*Z/2 = {0, 1}, whose least element is 0
    text = (
        Z2_HEADER
        + "groupoid pt { objects u }\n"
        + "functor f { value 0 pt  value 1 pt"
        + "  arrow 0 0 1 { obj u u }  arrow 0 1 1 { obj u u } }"
    )
    f = parse_document(text).functors["f"]
    (down,) = f.category.hom(0, 1)
    assert str(down) == "H0->H1:g0"
    assert f.arrows[down].object_map == {"u": "u"}
    assert "arrow 0 1 0 {" in render_document(parse_document(text))


def test_functors_of_one_document_share_a_category():
    body = (
        "{ value 0 pt  value 1 pt"
        "  arrow 0 0 1 { obj u u }  arrow 0 1 0 { obj u u } }\n"
    )
    text = (
        Z2_HEADER
        + "groupoid pt { objects u }\n"
        + "functor f " + body
        + "functor h " + body
    )
    doc = parse_document(text)
    assert doc.functors["f"].category is doc.functors["h"].category


def test_complex_dangling_references():
    with pytest.raises(DanglingReference, match="is not a vertex"):
        parse_document("complex x { vertices v  edge a v w }")
    with pytest.raises(DanglingReference, match="unknown edge"):
        parse_document("complex x { vertices v  face c a }")
    with pytest.raises(DanglingReference, match="unknown vertex"):
        parse_document("complex x { vertices v  face c @ w }")
    with pytest.raises(DanglingReference, match="unknown face"):
        parse_document("complex x { vertices v  solid s { 1 c } }")
    with pytest.raises(DanglingReference, match="moves unknown cell"):
        parse_document("complex x { vertices v  action 0 { w -> w } }")
    with pytest.raises(DanglingReference, match="unknown cell"):
        parse_document(
            Z2_HEADER + "complex x { vertices v  action 1 { v -> w } }"
        )


def test_action_schema_errors():
    with pytest.raises(SchemaViolation, match="out of range"):
        parse_document(Z2_HEADER + "complex x { vertices v  action 7 { } }")
    with pytest.raises(SchemaViolation, match="must be 1 or -1"):
        parse_document(
            Z2_HEADER
            + "complex x { vertices v w  action 1 { v -> w^2  w -> v } }"
        )
    with pytest.raises(SchemaViolation, match="must act trivially"):
        parse_document(
            Z2_HEADER
            + "complex x { vertices v w  action 0 { v -> w  w -> v } }"
        )
    with pytest.raises(SchemaViolation, match="two different actions"):
        parse_document(
            Z2_HEADER
            + "complex x { vertices v w  action 1 { v -> w  w -> v }"
            + "  action 1 { } }"
        )


def test_action_completion_by_composition():
    doc = parse_document(
        Z4_HEADER
        + "complex x { vertices a b c d\n"
        + "  action 1 { a -> b  b -> c  c -> d  d -> a } }"
    )
    x = doc.complexes["x"]
    assert x.action[2]["a"] == ("c", 1)
    assert x.action[3]["a"] == ("d", 1)
    assert validate_complex(x).status == VERIFIED


def test_action_completion_must_generate():
    with pytest.raises(SchemaViolation, match="do not generate the group"):
        parse_document(
            Z4_HEADER
            + "complex x { vertices a b c d\n"
            + "  action 2 { a -> c  c -> a  b -> d  d -> b } }"
        )


def test_action_completion_detects_inconsistency():
    with pytest.raises(SchemaViolation, match="inconsistent at element 0"):
        parse_document(
            Z2_HEADER
            + "complex x { vertices v  edge a v v  edge b v v  edge c v v\n"
            + "  action 1 { a -> b  b -> c  c -> a } }"
        )


def test_render_word_run_length():
    assert render_word(Word((("a", 1), ("a", 1), ("b", -1)))) == "a^2 b^-1"
    assert render_word(Word((("a", -1),))) == "a^-1"
    assert render_word(Word((("a", 1), ("b", 1), ("a", 1)))) == "a b a"
    assert render_word(Word((), at="u")) == "@ u"


def test_round_trip_shipped_documents(torus_doc, reflection_doc, free_doc):
    for doc in (torus_doc, reflection_doc, free_doc):
        again = parse_document(render_document(doc))
        assert documents_equal(doc, again)


def test_round_trip_solids_and_signs():
    text = (
        Z2_HEADER
        + "complex sol {\n"
        + "  vertices v\n"
        + "  edge a v v\n  edge b v v\n"
        + "  face c1 a a^-1\n  face c2 b b^-1\n"
        + "  solid s1 { 1 c1 }\n  solid s2 { 1 c2 }\n"
        + "  action 1 { a -> b  b -> a  c1 -> c2  c2 -> c1  s1 -> s2  s2 -> s1 }\n"
        + "}\n"
    )
    doc = parse_document(text)
    assert validate_complex(doc.complexes["sol"]).status == VERIFIED
    assert documents_equal(doc, parse_document(render_document(doc)))

    flipped = (
        Z2_HEADER
        + "complex m {\n"
        + "  vertices p q\n"
        + "  edge a p q\n  edge b q p\n"
        + "  action 1 { a -> b^-1  b -> a^-1 }\n"
        + "}\n"
    )
    doc = parse_document(flipped)
    x = doc.complexes["m"]
    assert x.action[1]["a"] == ("b", -1)
    assert validate_complex(x).status == VERIFIED
    rendered = render_document(doc)
    assert "a -> b^-1" in rendered
    assert documents_equal(doc, parse_document(rendered))


def test_document_json(torus_doc):
    data = json.loads(document_json(torus_doc))
    assert set(data) == {"group", "family", "groupoids", "functors", "complexes"}
    assert data["group"]["table"] == [[0, 1], [1, 0]]
    assert data["complexes"]["torus"]["vertices"] == ["v1", "v2"]
    assert len(data["functors"]["torus_pi"]["arrows"]) == 4
    act = data["complexes"]["torus"]["action"]["1"]
    assert act["e1"] == ["e2", 1]


def test_json_omits_undeclared_parts():
    data = json.loads(document_json(parse_document("groupoid g { objects u }")))
    assert set(data) == {"groupoids"}


def test_complexes_equal_compares_actions():
    swapped = parse_document(
        Z2_HEADER
        + "complex x { vertices v  edge a v v  edge b v v\n"
        + "  action 1 { a -> b  b -> a } }"
    ).complexes["x"]
    still = parse_document(
        Z2_HEADER
        + "complex x { vertices v  edge a v v  edge b v v  action 1 { } }"
    ).complexes["x"]
    assert swapped == still  # cell data agrees
    assert not complexes_equal(swapped, still)


def test_functors_equal_negative():
    base = Z2_HEADER + "groupoid g { objects u  gen x u u }\n"
    tail = "  arrow 0 1 0 { obj u u  gen x x } }"
    f1 = parse_document(
        base + "functor f { value 0 g  value 1 g\n"
        + "  arrow 0 0 1 { obj u u  gen x x }\n" + tail
    ).functors["f"]
    f2 = parse_document(
        base + "functor f { value 0 g  value 1 g\n"
        + "  arrow 0 0 1 { obj u u  gen x x^-1 }\n" + tail
    ).functors["f"]
    assert not functors_equal(f1, f2)
    assert functors_equal(f1, f1)


def test_documents_equal_negatives(torus_doc):
    other = parse_document("groupoid g { objects u }")
    assert not documents_equal(torus_doc, other)
    trimmed = parse_document(
        render_document(torus_doc).replace("complex torus", "complex other")
    )
    assert not documents_equal(torus_doc, trimmed)


def test_rendering_needs_parsed_functors(torus_doc):
    f = torus_doc.functors["torus_pi"]
    bare = InputDocument(
        torus_doc.group, True, torus_doc.family, {}, {"f": f}, {}, (("functor", "f"),)
    )
    assert "functor f {" in render_document(bare)
    assert f.value_names == {0: "torus_group", 1: "circle_pair"}
    x = next(iter(torus_doc.complexes.values()))
    computed = induced_functor_from_complex(x)
    assert computed.value_names is None
    homemade = InputDocument(
        torus_doc.group, True, None, {}, {"f": computed}, {}, (("functor", "f"),)
    )
    with pytest.raises(ValueError, match="JSON mirror"):
        render_document(homemade)
