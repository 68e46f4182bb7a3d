#!/usr/bin/env python3
"""The eqpi1 benchmark: seeded workloads, timed from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run it from a checkout of the repository; it imports eqpi1 from ./src.
Workloads (see README.md for why each exists): cone-c6, torsion-c5 and
s4-point run the realization pipeline in this process; docs-cli runs the
command line, one fresh `python -m eqpi1.cli` subprocess at a time.  The
load is a closed loop with one client: the next operation starts when the
previous one has ended, and operations start while the run's time lasts.

Every answer is checked against invariants pinned below.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of spans.py with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cone-c6", "torsion-c5", "s4-point", "docs-cli")
OP_TIMEOUT_S = 120  # one library pipeline operation
CLI_TIMEOUT_S = 60  # one command-line invocation
SETUP_REPEATS = 25  # fresh interpreters timed for setup_s

# Invariants of each library workload, as the library computed them on
# seed 0 when the benchmark was added.  Subgroups are keyed by order, since
# a seed relabels group elements and so renumbers subgroups.


def _abelian(rank, *torsion):
    parts = (["Z"] if rank == 1 else [f"Z^{rank}"] if rank > 1 else [])
    parts += [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


EXPECT = {
    "cone-c6": {
        "input_cells": (7, 12, 6, 0),
        "subgroups": 4,
        "morphisms": 20,
        "cells": (7, 72, 468, 216),
        "euler": 187,
        "homology": ["Z", "0", _abelian(186), "0"],
        "cohomology": ["Z", "0", _abelian(186), "0"],
        "step2": {"1:Bijection": 1, "2:Bijection": 1, "3:Bijection": 1, "6:Bijection": 1},
        "nonrigid": 0,
        "laws": "verified",
        "validation": "verified",
        "naturality": "verified",
        "equivalence": {"1:verified": 1, "2:verified": 1, "3:verified": 1, "6:verified": 1},
        "strict": {"1:refuted": 1, "2:verified": 1, "3:verified": 1, "6:verified": 1},
        "combined": "verified",
    },
    "torsion-c5": {
        "input_cells": (6, 15, 10, 0),
        "subgroups": 2,
        "morphisms": 7,
        "cells": (6, 75, 425, 250),
        "euler": 106,
        "homology": ["Z", _abelian(0, *[3] * 5), _abelian(105, *[3] * 105), "0"],
        "cohomology": ["Z", "0", _abelian(105, *[3] * 5), _abelian(0, *[3] * 105)],
        "step2": {"1:Bijection": 1, "5:Bijection": 1},
        "nonrigid": 0,
        "laws": "verified",
        "validation": "verified",
        "naturality": "verified",
        "equivalence": {"1:undecided": 1, "5:verified": 1},
        "strict": {"1:refuted": 1, "5:verified": 1},
        "combined": "undecided",
    },
    "s4-point": {
        "input_cells": (1, 0, 0, 0),
        "subgroups": 30,
        "morphisms": 714,
        "cells": (1, 0, 0, 0),
        "euler": 1,
        "homology": ["Z", "0", "0", "0"],
        "cohomology": ["Z", "0", "0", "0"],
        "step2": {
            "1:Bijection": 1, "2:Bijection": 9, "3:Bijection": 4, "4:Bijection": 7,
            "6:Bijection": 4, "8:Bijection": 3, "12:Bijection": 1, "24:Bijection": 1,
        },
        "nonrigid": 0,
        "laws": "verified",
        "validation": "verified",
        "naturality": "verified",
        "equivalence": {
            "1:verified": 1, "2:verified": 9, "3:verified": 4, "4:verified": 7,
            "6:verified": 4, "8:verified": 3, "12:verified": 1, "24:verified": 1,
        },
        "strict": {
            "1:verified": 1, "2:verified": 9, "3:verified": 4, "4:verified": 7,
            "6:verified": 4, "8:verified": 3, "12:verified": 1, "24:verified": 1,
        },
        "combined": "verified",
    },
}


def classify(*, timed_out=False, exception=None, stderr="", exit_code=None,
             expected_code=None, answer=None, expected=None):
    """Why an operation failed, or None.  Checked in this order: timeout,
    traceback or uncaught exception, unexpected exit code, wrong answer."""
    if timed_out:
        return "timeout"
    if exception is not None or "Traceback (most recent call last)" in stderr:
        return "traceback"
    if exit_code != expected_code:
        return "exit_code"
    if answer != expected:
        return "wrong_answer"
    return None


# ---------------------------------------------------------------- library


def _library_text(workload, seed):
    if workload == "cone-c6":
        return inputs.cone(6, seed)
    if workload == "torsion-c5":
        return inputs.cone(5, seed, loop_power=3)
    return inputs.point_s4(seed)


def _cli_in_process(argv):
    """eqpi1.cli.main in this process, its output captured."""
    import eqpi1.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eqpi1.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class SetupError(RuntimeError):
    pass


def setup(workload, seed, workdir):
    """Inputs ready: the generated document written, checked with
    `eqpi1 validate`, and parsed.  Returns the complex (library workloads)
    or the list of (argv, expected) CLI invocations (docs-cli)."""
    from eqpi1 import documents

    if workload == "docs-cli":
        for name in SHIPPED:
            documents.parse_path(SRC / "eqpi1" / "data" / name)
        probe = workdir / "probe.eqp"
        probe.write_text(inputs.probe(seed), encoding="utf-8")
        code, out, _ = _cli_in_process(["validate", str(probe)])
        if code != 1 or "'check': 'd2*d3 = 0'" not in out:
            raise SetupError(f"the probe document is not refuted on d2*d3: {out!r}")
        return cli_invocations(probe)

    path = workdir / "input.eqp"
    path.write_text(_library_text(workload, seed), encoding="utf-8")
    code, out, err = _cli_in_process(["validate", str(path)])
    doc = documents.parse_path(path)
    (name, x), = doc.complexes.items()
    if code != 0 or f"complex {name}: verified" not in out:
        raise SetupError(f"generated input does not validate: {out}{err}")
    if x.cell_counts() != EXPECT[workload]["input_cells"]:
        raise SetupError(f"generated input has cells {x.cell_counts()}")
    return x


def solve(x):
    """One operation: the calls `eqpi1 induced-functor` and `eqpi1 realize`
    make, through module attributes so that installed spans see them."""
    from eqpi1 import complexes, functors, groups, intlinalg, realize

    family = groups.family_all(x.group)
    functor = functors.induced_functor_from_complex(x, family)
    laws = functors.validate_functoriality(functor)
    result = realize.build_space(functor)
    validation = complexes.validate_complex(result.space)
    hom = complexes.homology_of_complex(result.space)
    coh = intlinalg.cohomology_ranks([h.group for h in hom])
    check = realize.verify_fundamental_functor(functor, result)
    return functor, laws, result, validation, hom, coh, check


def _by_order(cat, verdicts, key):
    out = {}
    for hid, v in verdicts.items():
        k = f"{cat.subgroups[hid].order}:{key(v)}"
        out[k] = out.get(k, 0) + 1
    return dict(sorted(out.items(), key=lambda kv: (int(kv[0].split(":")[0]), kv[0])))


def answer(x, solved):
    """The invariants of one operation's outputs, comparable with EXPECT."""
    functor, laws, result, validation, hom, coh, check = solved
    cat = functor.category
    return {
        "input_cells": x.cell_counts(),
        "subgroups": len(cat.objects),
        "morphisms": len(cat.morphisms()),
        "cells": result.space.cell_counts(),
        "euler": result.space.euler_characteristic(),
        "homology": [str(h.group) for h in hom],
        "cohomology": [str(c) for c in coh],
        "step2": _by_order(cat, result.step2, lambda r: r.status),
        "nonrigid": len(result.nonrigid),
        "laws": laws.status,
        "validation": validation.status,
        "naturality": check.naturality.status,
        "equivalence": _by_order(cat, check.equivalence, lambda v: v.status),
        "strict": _by_order(cat, check.strict, lambda v: v.status),
        "combined": check.combined.status,
    }


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def library_op(workload, x):
    """Run and check one pipeline operation: (seconds, failure or None)."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        solved = solve(x)
    except OpTimeout:
        return time.perf_counter() - start, classify(timed_out=True)
    except Exception as e:  # any uncaught error is a failed operation
        return time.perf_counter() - start, classify(exception=e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    return elapsed, classify(answer=answer(x, solved), expected=EXPECT[workload])


# ---------------------------------------------------------------- docs-cli

SHIPPED = {
    "torus_z2.eqp": "torus",
    "reflection_circle_z2.eqp": "circle",
    "free_s0_z2.eqp": "four_points",
}

# (exit code, sha256 of stdout) of each invocation when the benchmark was
# added, keyed by its arguments; paths are relative to the checkout root
CLI_PINNED = {
    "validate src/eqpi1/data/torus_z2.eqp":
        (0, "3b4437c58a0c6ccbf5be1df888ca9e8d40968a28c61c0b9700b58fd00eb44d8e"),
    "orbit-cat src/eqpi1/data/torus_z2.eqp":
        (0, "884843cb0c0ff720c08e381a49968bcb5471bf3dcc13034ef9db048bd16a4990"),
    "realize src/eqpi1/data/torus_z2.eqp":
        (0, "04db0da1c11e4e8349fb5fc0878019c8f66739a7064697dacb950ff1bba0dd4b"),
    "homology src/eqpi1/data/torus_z2.eqp":
        (0, "fd2c345c3eb0c5608a1f2279d6153bcd380f0545b2921fadca82fe1608b3f6af"),
    "fixed src/eqpi1/data/torus_z2.eqp torus 1":
        (0, "d565c4c40b40c3dcd512f0b8f231ec77c23e0b661011ed688b2133bcf765d6e8"),
    "pi1 src/eqpi1/data/torus_z2.eqp":
        (0, "888d20ba5f099a5f5a1e9703bd53605accce5818c6a10918e52c2fc562edae6d"),
    "induced-functor src/eqpi1/data/torus_z2.eqp":
        (0, "942fee73010752eaa62fe14c73df5dfb9e773c38ff0bdfa6d1427e032bbb77f2"),
    "export src/eqpi1/data/torus_z2.eqp":
        (0, "1c669778fb6dbb63dd37cca4ac3fb17df1b51fcd7c1cf3346c5c09e6b57b8fa6"),
    "export-dot src/eqpi1/data/torus_z2.eqp torus":
        (0, "91b71a7e63aa7729b55152a0e035e5e17aaf661a17139fec4eff0c88fe6eeeda"),
    "validate src/eqpi1/data/reflection_circle_z2.eqp":
        (0, "0fa087cf6dfbe1855302908dcadfff2e7fc40ec8f34aeabb1c7c716c2dbf0f23"),
    "orbit-cat src/eqpi1/data/reflection_circle_z2.eqp":
        (0, "884843cb0c0ff720c08e381a49968bcb5471bf3dcc13034ef9db048bd16a4990"),
    "realize src/eqpi1/data/reflection_circle_z2.eqp":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "homology src/eqpi1/data/reflection_circle_z2.eqp":
        (0, "2398a778934f61dbf4a9e46f7a88b67b74603604affc81e54fbf9271b2805624"),
    "fixed src/eqpi1/data/reflection_circle_z2.eqp circle 1":
        (0, "771622f8ab40d4e110a270bcad190ff207a6c1d694b77be2e112ef73911ff9f2"),
    "pi1 src/eqpi1/data/reflection_circle_z2.eqp":
        (0, "77ecf0b1c31c4a17c69d5391627c61623036ccef26f1685ebbaba3e1f31fa71c"),
    "induced-functor src/eqpi1/data/reflection_circle_z2.eqp":
        (0, "26e3beacb1b6e018b560d53fee93e805240cf43892b748303ac97955ce91a410"),
    "export src/eqpi1/data/reflection_circle_z2.eqp":
        (0, "d8d74b6851a29215df2e337ad2aea132588214b98be102de83724f72250bd5d7"),
    "export-dot src/eqpi1/data/reflection_circle_z2.eqp circle":
        (0, "bcb944ffaa256cd037e014815901b25f3b2e8d915311dde5ef0fe53b767a166b"),
    "validate src/eqpi1/data/free_s0_z2.eqp":
        (0, "f570fe22bdf6e0444c59110c1e2a217588f375441faf83fb27c53403fcf03e4b"),
    "orbit-cat src/eqpi1/data/free_s0_z2.eqp":
        (0, "884843cb0c0ff720c08e381a49968bcb5471bf3dcc13034ef9db048bd16a4990"),
    "realize src/eqpi1/data/free_s0_z2.eqp":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "homology src/eqpi1/data/free_s0_z2.eqp":
        (0, "ae77a2c69c774c37648bef94c7c642acc6fe2733710b99adc01bf7dac1aee444"),
    "fixed src/eqpi1/data/free_s0_z2.eqp four_points 1":
        (0, "e35b26eff80271c1d3ab52b96b45a870335f9e417d2e86468a9fdab1734dd479"),
    "pi1 src/eqpi1/data/free_s0_z2.eqp":
        (0, "c2fa0f629ba8f9410da48e6b9e1d16f335b1f762d58467290a5ec3f88714053d"),
    "induced-functor src/eqpi1/data/free_s0_z2.eqp":
        (0, "a24b60f69596599469497eaa61cc8d60e6755cd1e18840dd508d5dac255d4438"),
    "export src/eqpi1/data/free_s0_z2.eqp":
        (0, "d5fe4619d8172b88d7fc34dcd4e310d2e542be70c88dc2b28d9a44f807089ee3"),
    "export-dot src/eqpi1/data/free_s0_z2.eqp four_points":
        (0, "5e1ac75e1739ecac4059d1a725243dc17c3e3da97590830c4d5f207d3046dd48"),
}

PROBE_EXPECTED = (1, "refuted")
# The probe's outcome today, a NotAChainComplex traceback (ROADMAP item 5).
# It counts as a failed operation but leaves the run correct; any other
# failure, the probe's included, makes the run incorrect.
KNOWN_FAILURES = {"probe traceback"}


def is_correct(failures):
    return all(f is None or f in KNOWN_FAILURES for f in failures)


def cli_invocations(probe):
    """Every subcommand over the shipped documents, then the d2*d3 probe."""
    out = []
    for name, cx in SHIPPED.items():
        f = f"src/eqpi1/data/{name}"
        for argv in (
            ["validate", f], ["orbit-cat", f], ["realize", f], ["homology", f],
            ["fixed", f, cx, "1"], ["pi1", f], ["induced-functor", f],
            ["export", f], ["export-dot", f, cx],
        ):
            out.append((argv, CLI_PINNED[" ".join(argv)]))
    out.append((["homology", str(probe)], PROBE_EXPECTED))
    return out


def _probe_verdict(stdout):
    """The verdict on the first line of a `homology` text report."""
    first = stdout.split("\n", 1)[0]
    return first.split(": ", 1)[1].split("[", 1)[0] if ": " in first else None


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def cli_op(argv, expected, env, spanfile=None):
    """Run and check one invocation: (seconds, failure or None).  With a
    span file the invocation runs under clitrace.py, which writes its spans
    there."""
    if spanfile is None:
        cmd = [sys.executable, "-m", "eqpi1.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "clitrace.py"), str(spanfile), *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        elapsed, failure = time.perf_counter() - start, classify(timed_out=True)
    else:
        elapsed = time.perf_counter() - start
        code, want = expected
        if expected is PROBE_EXPECTED:
            got = _probe_verdict(proc.stdout.decode("utf-8", "replace"))
        else:
            got = hashlib.sha256(proc.stdout).hexdigest()
        failure = classify(
            stderr=proc.stderr.decode("utf-8", "replace"),
            exit_code=proc.returncode, expected_code=code, answer=got,
            expected=want,
        )
    if failure and expected is PROBE_EXPECTED:
        failure = f"probe {failure}"
    return elapsed, failure


# ---------------------------------------------------------------- runs


def _ops(workload, inputs_ready, env, tracer=None, workdir=None):
    """One cycle of operations: a pipeline operation, or one pass over the
    CLI invocations.  Returns [(seconds, failure)] per operation."""
    if workload != "docs-cli":
        if tracer is None:
            return [library_op(workload, inputs_ready)]
        tracer.install()
        try:
            return [library_op(workload, inputs_ready)]
        finally:
            tracer.uninstall()
    out = []
    for k, (argv, expected) in enumerate(inputs_ready):
        spanfile = None
        if tracer is not None:
            spanfile = workdir / f"spans{k}.json"
        out.append(cli_op(argv, expected, env, spanfile))
        if spanfile is not None and spanfile.exists():
            data = json.loads(spanfile.read_text())
            tracer.merge(data["totals"], data["counts"])
            spanfile.unlink()
    return out


def high_percentile(samples):
    """(p, value) for the highest of p99.9, p99, p90 with at least ten
    samples beyond it (nearest rank), or None."""
    n = len(samples)
    ordered = sorted(samples)
    for permille in (999, 990, 900):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10, ordered[math.ceil(permille * n / 1000) - 1]
    return None


def _deadline_loop(cycle, seconds):
    """Start cycles while less than `seconds` have passed, so the last one
    may end after that; always at least one."""
    start = time.perf_counter()
    cycle()
    while time.perf_counter() - start < seconds:
        cycle()


def setup_seconds(workload, seed, workdir):
    """Median wall time of fresh interpreters that only set up."""
    times = []
    for k in range(SETUP_REPEATS):
        sub = workdir / f"setup{k}"
        sub.mkdir()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--workdir", str(sub)],
            cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(proc.stderr.decode("utf-8", "replace"))
    return statistics.median(times)


def run_untraced(workload, seed, seconds, workdir):
    ready = setup(workload, seed, workdir)
    env = cli_env()
    records = []
    _deadline_loop(lambda: records.extend(_ops(workload, ready, env)), seconds)
    who = resource.RUSAGE_CHILDREN if workload == "docs-cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_s = setup_seconds(workload, seed, workdir)
    times = [t for t, _ in records]
    metrics = {
        "solve_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return records, metrics


def run_traced(workload, seed, seconds, workdir):
    """Untraced and traced cycles alternate, so that trace.overhead_s
    compares operations of the same run.  The set-up is traced too, from
    the import of eqpi1.cli on."""
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    import eqpi1.cli  # noqa: F401

    tracer.add_span(spans.IMPORT_SPAN, t0, time.perf_counter())
    tracer.install()
    try:
        ready = setup(workload, seed, workdir)
    finally:
        tracer.uninstall()
    env = cli_env()
    plain, traced = [], []
    k = [0]

    def traced_cycle():
        tracer.op = f"op{k[0]}"
        traced.extend(_ops(workload, ready, env, tracer, workdir))
        tracer.op = "setup"

    def pair():
        # alternate which side goes first, so neither always runs cold
        if k[0] % 2:
            traced_cycle()
        plain.extend(_ops(workload, ready, env))
        if not k[0] % 2:
            traced_cycle()
        k[0] += 1

    _deadline_loop(pair, seconds)
    by_op = tracer.totals()
    setup_rows = by_op.pop("setup", {})
    op_ids = [f"op{i}" for i in range(k[0])]
    overhead = (statistics.median(t for t, _ in traced)
                - statistics.median(t for t, _ in plain))
    metrics = spans.layer_metrics(
        setup_rows,
        [by_op.get(op, {}) for op in op_ids],
        tracer.counts.get("setup", {}),
        [tracer.counts.get(op, {}) for op in op_ids],
        overhead,
    )
    return plain + traced, metrics


def summary_lines(workload, records, metrics, trace):
    n = len(records)
    failed = [f for _, f in records if f]
    lines = [f"workload {workload}: {n} operations, fail_frac {len(failed)}/{n} = "
             f"{len(failed) / n:.4f}" + (f" ({', '.join(sorted(set(failed)))})" if failed else "")]
    if not trace:
        times = [t for t, _ in records]
        pct = high_percentile(times)
        extra = f", p{pct[0]:g} {pct[1]:.6f} s" if pct else ""
        lines.append(f"  solve_s {metrics['solve_s']['value']:.6f} s (median of {n}{extra})")
    for name, m in metrics.items():
        if trace or name != "solve_s":
            lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    return lines


def run_all(args):
    """Each workload in its own process, summaries only."""
    code = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "eqpi1" / "__init__.py").is_file():
        print(f"error: no eqpi1 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.workdir))
        return 0

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        run = run_traced if args.trace else run_untraced
        records, metrics = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in summary_lines(args.workload, records, metrics, args.trace):
        print(line)
    failures = [f for _, f in records if f]
    print(json.dumps({
        "correct": is_correct(failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
