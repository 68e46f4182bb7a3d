"""Command line interface.

Subcommands work on plain-text input documents:

  validate          run every check the document supports
  orbit-cat         list the orbit category of the document's group/family
  realize           realize a functor as a complex with action, with diagnostics
  homology          integral homology of a named complex
  fixed             fixed subcomplex of a named complex under a subgroup
  pi1               fundamental groupoid presentation of a named complex
  induced-functor   fixed-point functor of a named complex, with isotropy maps
  export            JSON mirror of the document
  export-dot        graphviz rendering of a named groupoid or complex

Exit codes: 0 verified, 1 refuted, 2 undecided (with --strict undecided
also exits 1), 3 unusable input (malformed, unreadable or not UTF-8), 4
internal error (one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import sys

from .complexes import (
    InvalidComplex,
    fixed_subcomplex,
    fundamental_groupoid,
    homology_of_complex,
    validate_complex,
)
from .documents import (
    DanglingReference,
    DocumentSyntaxError,
    SchemaViolation,
    document_json,
    parse_path,
)
from .dot import complex_dot, groupoid_dot, orbit_dot
from .functors import induced_functor_from_complex, validate_functoriality
from .groupoids import abelianized_isotropy_map, simplify_presentation
from .intlinalg import cohomology_ranks
from .realize import (
    build_space,
    verify_fundamental_functor,
)
from .reports import EXIT_INPUT, EXIT_INTERNAL, Report
from .verdicts import Verdict


def _pick(kind: str, table: dict, name):
    if name is not None:
        if name not in table:
            raise SchemaViolation(f"no {kind} named {name!r} in the document")
        return name, table[name]
    if len(table) == 1:
        return next(iter(table.items()))
    if not table:
        raise SchemaViolation(f"the document has no {kind}")
    raise SchemaViolation(
        f"the document has several {kind}s; name one of: " + ", ".join(table)
    )


def _emit(report: Report, fmt: str):
    if fmt == "machine":
        print(report.render_json())
    else:
        print(report.render_text())


def _refuse(title: str, bad, fmt: str) -> int:
    """Print the one-line report of a refuted input, given its refuted
    Verdict or the InvalidComplex it raised; return its exit code."""
    if isinstance(bad, InvalidComplex):
        bad = Verdict.refuted({"detail": str(bad)}, "syntactic")
    report = Report(title, bad)
    _emit(report, fmt)
    return report.exit_code()


def _homology_lines(x, max_dim=3):
    lines = []
    described = homology_of_complex(x, max_dim=max_dim)
    groups = [hg.group for hg in described]
    for i, hg in enumerate(described):
        lines.append(f"H_{i} = {hg.group}")
    for i, cg in enumerate(cohomology_ranks(groups)):
        lines.append(f"H^{i} = {cg}")
    lines.append(f"euler characteristic = {x.euler_characteristic()}")
    return lines


def cmd_validate(args) -> int:
    doc = parse_path(args.file)
    report = Report(f"validate {args.file}")
    head = report.add(Report("document"))
    head.say(f"group order {doc.group.order}")
    if doc.family is not None:
        head.say(
            "family members: "
            + ", ".join(str(s) for s in doc.family.members)
        )
    for name, g in doc.groupoids.items():
        node = report.add(
            Report(f"groupoid {name}", Verdict.verified("syntactic"))
        )
        node.say(
            f"{len(g.objects)} objects, {len(g.generators)} generators, "
            f"{len(g.relators)} relators, {len(g.components())} components"
        )
    for name, x in doc.complexes.items():
        node = report.add(Report(f"complex {name}", validate_complex(x)))
        n0, n1, n2, n3 = x.cell_counts()
        node.say(f"cells: {n0} + {n1} + {n2} + {n3}")
    for name, f in doc.functors.items():
        report.add(Report(f"functor {name}", validate_functoriality(f)))
    _emit(report, args.format)
    return report.exit_code(args.strict)


def cmd_orbit_cat(args) -> int:
    doc = parse_path(args.file)
    cat = doc.category
    report = Report("orbit category")
    for hid in cat.objects:
        sub = cat.subgroups[hid]
        report.say(f"object {hid}: G/{sub} (index {cat.group.order // sub.order})")
    morphs = cat.morphisms()
    report.say(f"{len(morphs)} morphisms")
    for m in morphs:
        report.say(str(m))
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(orbit_dot(cat))
        report.say(f"wrote {args.emit_dot}")
    _emit(report, args.format)
    return 0


def cmd_realize(args) -> int:
    doc = parse_path(args.file)
    name, functor = _pick("functor", doc.functors, args.functor)
    report = Report(f"realize {name}")
    report.add(Report("functor laws", validate_functoriality(functor)))

    result = build_space(functor, max_dim=args.max_dim)
    coend = report.add(Report("stage 1: point classes"))
    for lab in result.coend.classes:
        mem = ", ".join(
            f"(H{hid} g{rep} {obj})" for hid, rep, obj in result.coend.members[lab]
        )
        coend.say(f"{lab} = {{ {mem} }}")

    stage2 = report.add(Report("stage 2: objects against fixed classes",
                               informational=True))
    for hid, rep2 in sorted(result.step2.items()):
        sub = functor.category.subgroups[hid]
        stage2.say(f"subgroup {hid} {sub}: {rep2}")

    space = result.space
    build = report.add(Report("stages 3-5: cells"))
    n0, n1, n2, n3 = space.cell_counts()
    build.say(f"cells: {n0} + {n1} + {n2} + {n3}")
    if result.nonrigid:
        build.verdict = Verdict.undecided(
            "solids skipped for non-rigid arrows: "
            + ", ".join(f"{m} relator {k}" for m, k in result.nonrigid)
        )
    else:
        build.verdict = Verdict.verified("syntactic")

    validation = validate_complex(space)
    report.add(Report("complex validation", validation))

    if not validation.is_refuted:
        hom = report.add(Report("homology"))
        for line in _homology_lines(space, max_dim=args.max_dim):
            hom.say(line)

    check = verify_fundamental_functor(functor, result)
    ver = report.add(Report("fixed-point functor comparison", informational=True))
    ver.say(f"naturality: {check.naturality}")
    for hid in sorted(check.equivalence):
        ver.say(f"subgroup {hid}: equivalence {check.equivalence[hid]}")
        ver.say(f"subgroup {hid}: strict {check.strict[hid]}")
    ver.say(f"combined: {check.combined}")

    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(complex_dot(name, space))
        report.say(f"wrote {args.emit_dot}")
    _emit(report, args.format)
    return report.exit_code(args.strict)


def cmd_homology(args) -> int:
    doc = parse_path(args.file)
    name, x = _pick("complex", doc.complexes, args.complex)
    report = Report(f"homology {name}", validate_complex(x))
    if not report.verdict.is_refuted:
        for line in _homology_lines(x, max_dim=args.max_dim):
            report.say(line)
    _emit(report, args.format)
    return report.exit_code(args.strict)


def cmd_fixed(args) -> int:
    doc = parse_path(args.file)
    name, x = _pick("complex", doc.complexes, args.complex)
    subs = doc.group.subgroups
    if not 0 <= args.subgroup < len(subs):
        raise SchemaViolation(f"no subgroup with id {args.subgroup}")
    sub = subs[args.subgroup]
    title = f"fixed {name} under subgroup {args.subgroup} {sub}"
    bad = validate_complex(x)
    if bad.is_refuted:
        return _refuse(title, bad, args.format)
    try:
        fx = fixed_subcomplex(x, sub)
    except InvalidComplex as e:
        return _refuse(title, e, args.format)
    report = Report(title, Verdict.verified("syntactic"))
    report.say(
        "cells: "
        + " + ".join(str(n) for n in fx.cell_counts())
    )
    report.say("vertices: " + (" ".join(fx.vertices) if fx.vertices else "(none)"))
    for line in _homology_lines(fx):
        report.say(line)
    _emit(report, args.format)
    return report.exit_code(args.strict)


def cmd_pi1(args) -> int:
    doc = parse_path(args.file)
    name, x = _pick("complex", doc.complexes, args.complex)
    bad = validate_complex(x)
    if bad.is_refuted:
        return _refuse(f"pi1 {name}", bad, args.format)
    g = fundamental_groupoid(x)
    report = Report(f"pi1 {name}")
    report.say("objects: " + " ".join(g.objects))
    for gen in g.generators:
        report.say(f"gen {gen.label}: {gen.source} -> {gen.target}")
    for r in g.relators:
        report.say(f"rel {r}")
    for comp in g.components():
        base = comp[0]
        pres = g.isotropy_presentation(base)
        simp, _ = simplify_presentation(pres)
        report.say(
            f"component at {base}: isotropy on "
            + (", ".join(simp.generators) if simp.generators else "(no generators)")
            + "; abelianized "
            + str(pres.abelianization())
        )
    _emit(report, args.format)
    return 0


def cmd_induced_functor(args) -> int:
    doc = parse_path(args.file)
    name, x = _pick("complex", doc.complexes, args.complex)
    title = f"induced functor of {name}"
    bad = validate_complex(x)
    if bad.is_refuted:
        return _refuse(title, bad, args.format)
    try:
        functor = induced_functor_from_complex(x, doc.family)
    except InvalidComplex as e:
        return _refuse(title, e, args.format)
    report = Report(title)
    report.add(Report("functor laws", validate_functoriality(functor)))
    vals = report.add(Report("values"))
    for hid in functor.category.objects:
        val = functor.values[hid]
        comps = val.components()
        vals.say(
            f"value {hid}: {len(val.objects)} objects, {len(comps)} components"
        )
        for comp in comps:
            ab = val.abelianized_isotropy(comp[0])
            vals.say(f"  component at {comp[0]}: abelianized isotropy {ab}")
    arrows = report.add(Report("arrows on abelianized isotropy"))
    maps = {}  # id of a shared arrow -> its lines, without the morphism
    for m in functor.category.morphisms():
        t = functor.arrows[m]
        if t.source.is_empty:
            arrows.say(f"{m}: (empty source)")
            continue
        if id(t) not in maps:
            maps[id(t)] = []
            for comp in t.source.components():
                mat, ab_s, ab_t = abelianized_isotropy_map(t, comp[0])
                maps[id(t)].append(
                    f" at {comp[0]}: matrix {[list(r) for r in mat.data]}"
                    f" ({ab_s} -> {ab_t})"
                )
        for line in maps[id(t)]:
            arrows.say(f"{m}{line}")
    _emit(report, args.format)
    return report.exit_code(args.strict)


def cmd_export(args) -> int:
    doc = parse_path(args.file)
    print(document_json(doc))
    return 0


def cmd_export_dot(args) -> int:
    doc = parse_path(args.file)
    if args.name in doc.groupoids:
        text = groupoid_dot(args.name, doc.groupoids[args.name])
    elif args.name in doc.complexes:
        text = complex_dot(args.name, doc.complexes[args.name])
    else:
        raise SchemaViolation(
            f"no groupoid or complex named {args.name!r} in the document"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _add_common(sp, strict=True):
    sp.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="output as readable text or JSON",
    )
    if strict:
        sp.add_argument(
            "--strict", action="store_true",
            help="treat Undecided results as failures",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqpi1",
        description="groupoid-valued orbit functors and their realizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="run every supported check")
    sp.add_argument("file")
    _add_common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("orbit-cat", help="orbit category of the document")
    sp.add_argument("file")
    sp.add_argument("--emit-dot", metavar="PATH", help="write a dot rendering")
    _add_common(sp, strict=False)
    sp.set_defaults(func=cmd_orbit_cat)

    sp = sub.add_parser("realize", help="realize a functor as a complex")
    sp.add_argument("file")
    sp.add_argument("functor", nargs="?", help="functor name (optional if unique)")
    sp.add_argument("--max-dim", type=int, choices=(2, 3), default=3)
    sp.add_argument("--emit-dot", metavar="PATH", help="write a dot rendering")
    _add_common(sp)
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("homology", help="integral homology of a complex")
    sp.add_argument("file")
    sp.add_argument("complex", nargs="?")
    sp.add_argument("--max-dim", type=int, choices=(2, 3), default=3)
    _add_common(sp)
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser("fixed", help="fixed subcomplex under a subgroup")
    sp.add_argument("file")
    sp.add_argument("complex")
    sp.add_argument("subgroup", type=int, help="subgroup id")
    _add_common(sp)
    sp.set_defaults(func=cmd_fixed)

    sp = sub.add_parser("pi1", help="fundamental groupoid presentation")
    sp.add_argument("file")
    sp.add_argument("complex", nargs="?")
    _add_common(sp, strict=False)
    sp.set_defaults(func=cmd_pi1)

    sp = sub.add_parser(
        "induced-functor", help="fixed-point functor of a complex"
    )
    sp.add_argument("file")
    sp.add_argument("complex", nargs="?")
    _add_common(sp)
    sp.set_defaults(func=cmd_induced_functor)

    sp = sub.add_parser("export", help="JSON mirror of the document")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("export-dot", help="dot rendering of a named object")
    sp.add_argument("file")
    sp.add_argument("name")
    sp.add_argument("--out", metavar="PATH")
    sp.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentSyntaxError, DanglingReference, SchemaViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, UnicodeDecodeError) as e:  # a file named in argv is unusable
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # a fault of the program, never a verdict
        message = " ".join(str(e).splitlines())
        print(f"error: internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
