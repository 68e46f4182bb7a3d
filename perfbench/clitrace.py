"""Run the eqpi1 command line with the benchmark's spans installed.

    python3 perfbench/clitrace.py SPANFILE ARG...

behaves like `python -m eqpi1.cli ARG...` (same output, exit code and
traceback) and also writes the layer totals and size counts of the
invocation to SPANFILE as JSON.
"""

import json
import sys
import time

import spans

start = time.perf_counter()
import eqpi1.cli  # noqa: E402

tracer = spans.Tracer()
tracer.op = "cli"
tracer.add_span(spans.IMPORT_SPAN, start, time.perf_counter())
tracer.install()
try:
    code = eqpi1.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(
            {
                "totals": spans.layer_totals(tracer.spans),
                "counts": tracer.counts.get("cli", {}),
            },
            fh,
        )
sys.exit(code)
