#!/usr/bin/env python3
"""One-shot scaling ladder: the cone on an n-gon under C_n for n = 4, 6, 8,
12, and the orbit category of S5 over all subgroups.

    python3 perfbench/ladder.py

Informational only: it is not a workload and takes no part in repeated
runs.  Each case runs in its own process, under the span wrappers of
spans.py; its stages are the top-level spans.  A cone case parses its
seed-0 document and then runs one benchmark operation (`run.solve`); the
S5 case builds `OrbitCategory(S5, family_all(S5))`.  The child reports
each stage as it begins and ends, with the size counts it added.  A stage
that does not end within STAGE_TIMEOUT_S seconds is recorded as
`timeout` and its process is killed.  The last line of standard output
is the whole ladder as JSON.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CASES = ("cone4", "cone6", "cone8", "cone12", "s5-orbit")
STAGE_TIMEOUT_S = 150


class StageTracer(spans.Tracer):
    """A Tracer that prints a JSON line when a top-level span begins and
    when it ends, the latter with the counts the span added."""

    def begin(self, name):
        if not self._stack:
            print(json.dumps({"begin": name}), flush=True)
            self._before = dict(self.op_counts())
        super().begin(name)

    def end(self, stop=None):
        i = self._stack[-1]
        super().end(stop)
        if self._stack:
            return
        name, start, stop, _ = self.spans[i]
        counts = {k: v - self._before[k]
                  for k, v in self.op_counts().items() if v != self._before[k]}
        counts["smith_calls"] = sum(
            s[0] == "intlinalg.smith" for s in self.spans[i:]
        )
        print(json.dumps({"stage": name, "seconds": stop - start,
                          "counts": counts}), flush=True)


def child(case):
    sys.path.insert(0, str(SRC))
    from eqpi1 import documents, groups, orbit

    tracer = StageTracer()
    tracer.install()
    if case == "s5-orbit":
        g = groups.symmetric_group(5)
        orbit.OrbitCategory(g, groups.family_all(g))
        return
    text = inputs.cone(int(case[len("cone"):]), 0)
    (x,) = documents.parse_document(text).complexes.values()
    run.solve(x)


def run_case(case):
    """Stage records of one case, enforcing the per-stage timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "ladder.py"), "--child", case],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    out = []
    current = "(start)"
    try:
        while True:
            try:
                line = lines.get(timeout=STAGE_TIMEOUT_S)
            except queue.Empty:
                out.append({"stage": current, "status": "timeout",
                            "seconds": STAGE_TIMEOUT_S})
                break
            if line is None:
                proc.wait()
                if proc.returncode:
                    err = proc.stderr.read().strip().splitlines()
                    out.append({"stage": current, "status": "error",
                                "detail": err[-1] if err else
                                f"exit {proc.returncode}"})
                break
            rec = json.loads(line)
            if "begin" in rec:
                current = rec["begin"]
                continue
            rec["status"] = "ok"
            out.append(rec)
            current = "(between stages)"
    finally:
        proc.kill()
        proc.wait()
        reader.join(timeout=5)
        proc.stdout.close()
        proc.stderr.close()
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "eqpi1" / "__init__.py").is_file():
        print(f"error: no eqpi1 sources under {SRC}", file=sys.stderr)
        return 2
    if argv[:1] == ["--child"] and len(argv) == 2 and argv[1] in CASES:
        child(argv[1])
        return 0
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    report = {}
    for case in CASES:
        report[case] = run_case(case)
        for rec in report[case]:
            secs = f"{rec['seconds']:9.3f} s" if "seconds" in rec else " " * 11
            print(f"{case:9s} {rec['stage']:22s} {rec['status']:8s} {secs}  "
                  f"{json.dumps(rec.get('counts', rec.get('detail', '')))}",
                  flush=True)
    print(json.dumps({"stage_timeout_s": STAGE_TIMEOUT_S, "cases": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
