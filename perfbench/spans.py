"""Spans recorded around the public functions of each eqpi1 module.

Nothing in the library knows about this: `Tracer.install` replaces each
function listed in LAYERS by a wrapper, in every loaded `eqpi1` module that
holds it, and `Tracer.uninstall` puts the originals back.  A span is
(name, start, end, parent index, operation id); spans nest by call order,
so a layer's self time is its duration minus the durations of its direct
children.

Some wrappers also read sizes from the arguments or the result (matrix
entries, realized cells, morphism counts).  Those sizes are measured by
the benchmark, not reported by the program.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

# span name -> (module, attribute); "Class.method" patches the class
LAYERS = (
    ("groups.family_all", "eqpi1.groups", "family_all"),
    ("groups.enumerate", "eqpi1.groups", "enumerate_subgroups"),
    ("orbit.category", "eqpi1.orbit", "OrbitCategory.__init__"),
    ("functors.induced", "eqpi1.functors", "induced_functor_from_complex"),
    ("functors.laws", "eqpi1.functors", "validate_functoriality"),
    ("realize.build_space", "eqpi1.realize", "build_space"),
    ("realize.compare", "eqpi1.realize", "verify_fundamental_functor"),
    ("complexes.validate", "eqpi1.complexes", "validate_complex"),
    ("complexes.boundary", "eqpi1.complexes", "boundary_matrices"),
    ("complexes.fixed", "eqpi1.complexes", "fixed_subcomplex"),
    ("groupoids.equivalence", "eqpi1.groupoids", "equivalence_report"),
    ("groupoids.strict", "eqpi1.groupoids", "strict_isomorphism_report"),
    ("groupoids.simplify", "eqpi1.groupoids", "simplify_presentation"),
    ("intlinalg.homology", "eqpi1.intlinalg", "homology"),
    ("intlinalg.smith", "eqpi1.intlinalg", "smith_normal_form"),
    ("documents.parse", "eqpi1.documents", "parse_document"),
    ("cli.main", "eqpi1.cli", "main"),
)
# recorded by hand around `import eqpi1.cli`, before any wrapper exists
IMPORT_SPAN = "cli.import"
SPAN_NAMES = tuple(name for name, _, _ in LAYERS) + (IMPORT_SPAN,)

COUNT_NAMES = (
    "intlinalg.entries",
    "intlinalg.nnz",
    "realize.cells.d0",
    "realize.cells.d1",
    "realize.cells.d2",
    "realize.cells.d3",
    "functors.pairs_scanned",
    "functors.pairs_composable",
    "orbit.morphisms",
    "groups.subgroups",
)


def _count_matrices(counts, args, result):
    for m in args[0]:
        counts["intlinalg.entries"] += m.rows * m.cols
        counts["intlinalg.nnz"] += sum(1 for row in m.data for v in row if v)


def _count_cells(counts, args, result):
    for d, n in enumerate(result.space.cell_counts()):
        counts[f"realize.cells.d{d}"] += n


def _count_pairs(counts, args, result):
    morphs = args[0].category.morphisms()
    incoming = {}
    for m in morphs:
        incoming[m.target] = incoming.get(m.target, 0) + 1
    counts["functors.pairs_scanned"] += len(morphs) ** 2
    counts["functors.pairs_composable"] += sum(
        incoming.get(m.source, 0) for m in morphs
    )


def _count_morphisms(counts, args, result):
    counts["orbit.morphisms"] += len(args[0].morphisms())


def _count_subgroups(counts, args, result):
    counts["groups.subgroups"] += len(result)


COUNTERS = {
    "intlinalg.homology": _count_matrices,
    "realize.build_space": _count_cells,
    "functors.laws": _count_pairs,
    "orbit.category": _count_morphisms,
    "groups.enumerate": _count_subgroups,
}


class Tracer:
    """Collects spans and counts in memory, tagged with the current
    operation id."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.ops = []  # operation id of each span
        self.counts = {}  # operation id -> {count name: int}
        self.merged = {}  # operation id -> layer totals from other processes
        self.op = "setup"
        self._stack = []
        self._saved = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.ops.append(self.op)
        self._stack.append(len(self.spans) - 1)

    def end(self, stop=None):
        if stop is None:
            stop = time.perf_counter()
        self.spans[self._stack.pop()][2] = stop

    def add_span(self, name, start, end):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent])
        self.ops.append(self.op)

    def op_counts(self):
        return self.counts.setdefault(self.op, dict.fromkeys(COUNT_NAMES, 0))

    def merge(self, totals, counts):
        """Add layer totals and counts recorded in another process (a
        traced CLI subprocess) to the current operation."""
        _add_totals(self.merged.setdefault(self.op, {}), totals)
        op_counts = self.op_counts()
        for c, n in counts.items():
            op_counts[c] += n

    def totals(self):
        """layer_totals of each operation id, merged totals included."""
        out = per_op_totals(self.spans, self.ops)
        for op, rows in self.merged.items():
            _add_totals(out.setdefault(op, {}), rows)
        return out

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end()
                raise
            # counted inside the parent span but outside this one, so a
            # span's counts are final when it ends
            stop = time.perf_counter()
            if counter is not None:
                counter(tracer.op_counts(), args, result)
            tracer.end(stop)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every LAYERS function wherever an eqpi1 module binds it."""
        for name, modname, attr in LAYERS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self._wrap(name, getattr(owner, meth)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "eqpi1" or mname.startswith("eqpi1.")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, value):
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)


def _add_totals(into, totals):
    for name, vals in totals.items():
        row = into.setdefault(name, [0.0, 0.0, 0])
        for i in range(3):
            row[i] += vals[i]


def layer_totals(spans):
    """{name: [busy seconds, self seconds, calls]} over a list of
    [name, start, end, parent index] spans.  Busy time counts a span only
    when no ancestor has the same name, so recursion is not counted twice;
    self time is a span's duration minus its direct children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, [0.0, 0.0, 0])
        dur = end - start
        row[1] += dur - child_time[i]
        row[2] += 1
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            row[0] += dur
    return out


def per_op_totals(spans, ops):
    """layer_totals for each operation id.  Parent indices are remapped,
    since an operation's spans are a slice of the whole list."""
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(op, []).append(i)
    out = {}
    for op, idx in groups.items():
        where = {j: k for k, j in enumerate(idx)}
        local = [
            [spans[j][0], spans[j][1], spans[j][2], where.get(spans[j][3])]
            for j in idx
        ]
        out[op] = layer_totals(local)
    return out


def layer_metrics(setup, ops, setup_counts, op_counts, overhead_s):
    """Per-layer metrics for one set-up plus the median operation.

    setup / ops: layer_totals of the set-up and of each traced operation;
    setup_counts / op_counts likewise for the size counts."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def median_of(rows, key, index):
        return statistics.median(r.get(key, (0.0, 0.0, 0))[index] for r in rows)

    for name in SPAN_NAMES:
        base = setup.get(name, (0.0, 0.0, 0))
        put(f"{name}_s", base[0] + median_of(ops, name, 0), "s")
        put(f"{name}.self_s", base[1] + median_of(ops, name, 1), "s")
        put(f"{name}.calls", base[2] + median_of(ops, name, 2), "count")
    counts = {
        c: setup_counts.get(c, 0)
        + statistics.median(o.get(c, 0) for o in op_counts)
        for c in COUNT_NAMES
    }
    for c in COUNT_NAMES:
        put(c, counts[c], "count")
    put(
        "intlinalg.density",
        counts["intlinalg.nnz"] / counts["intlinalg.entries"]
        if counts["intlinalg.entries"] else 0.0,
        "ratio",
    )
    put(
        "functors.composable_ratio",
        counts["functors.pairs_composable"] / counts["functors.pairs_scanned"]
        if counts["functors.pairs_scanned"] else 0.0,
        "ratio",
    )
    put("trace.overhead_s", overhead_s, "s")
    return metrics

