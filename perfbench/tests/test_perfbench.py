"""Tests of the benchmark itself: generators, span arithmetic, classifier.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

LIBRARY = ("cone-c6", "torsion-c5", "s4-point")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", LIBRARY)
def test_generated_inputs_keep_pinned_realization(workload, seed, tmp_path):
    from eqpi1.functors import induced_functor_from_complex
    from eqpi1.groups import family_all
    from eqpi1.realize import build_space

    x = run.setup(workload, seed, tmp_path)  # validates and checks input cells
    want = run.EXPECT[workload]
    functor = induced_functor_from_complex(x, family_all(x.group))
    result = build_space(functor)
    assert len(functor.category.objects) == want["subgroups"]
    assert len(functor.category.morphisms()) == want["morphisms"]
    assert result.space.cell_counts() == want["cells"]
    assert result.space.euler_characteristic() == want["euler"]
    step2 = run._by_order(functor.category, result.step2, lambda r: r.status)
    assert step2 == want["step2"]


@pytest.mark.parametrize("seed", [0, 1])
def test_s4_point_answer_matches_every_pinned_invariant(seed, tmp_path):
    x = run.setup("s4-point", seed, tmp_path)
    assert run.answer(x, run.solve(x)) == run.EXPECT["s4-point"]


def test_seeds_change_labels_and_order():
    assert run._library_text("cone-c6", 0) != run._library_text("cone-c6", 1)
    assert run._library_text("cone-c6", 3) == run._library_text("cone-c6", 3)


@pytest.mark.parametrize("seed", [0, 1])
def test_probe_is_refuted_on_d2_d3(seed, tmp_path):
    invocations = run.setup("docs-cli", seed, tmp_path)
    argv, expected = invocations[-1]
    assert argv[0] == "homology" and expected == run.PROBE_EXPECTED


def test_self_time_subtracts_direct_children():
    # a [0,10] holds b [1,4] and c [5,9]; c holds b [6,8]
    s = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["b", 6.0, 8.0, 2],
    ]
    t = spans.layer_totals(s)
    assert t["a"] == [10.0, 3.0, 1]
    assert t["b"] == [5.0, 5.0, 2]
    assert t["c"] == [4.0, 2.0, 1]


def test_recursive_span_is_busy_once():
    s = [["a", 0.0, 10.0, None], ["a", 2.0, 3.0, 0]]
    assert spans.layer_totals(s)["a"] == [10.0, 10.0, 2]


def test_per_op_totals_remaps_parents():
    s = [
        ["x", 0.0, 1.0, None],
        ["a", 2.0, 6.0, None],
        ["b", 3.0, 4.0, 1],
    ]
    t = spans.per_op_totals(s, ["setup", "op0", "op0"])
    assert t["setup"] == {"x": [1.0, 1.0, 1]}
    assert t["op0"]["a"] == [4.0, 3.0, 1]


def test_tracer_nests_spans_and_uninstalls(tmp_path):
    import eqpi1.complexes
    import eqpi1.functors

    x = run.setup("cone-c6", 0, tmp_path)
    original = eqpi1.functors.fixed_subcomplex
    tracer = spans.Tracer()
    tracer.op = "op0"
    tracer.install()
    try:
        eqpi1.functors.induced_functor_from_complex(x)
    finally:
        tracer.uninstall()
    assert eqpi1.functors.fixed_subcomplex is original
    assert eqpi1.complexes.fixed_subcomplex is original
    t = spans.per_op_totals(tracer.spans, tracer.ops)["op0"]
    assert t["functors.induced"][2] == 1
    assert t["complexes.fixed"][2] == 4  # one per subgroup of C6
    assert t["functors.induced"][1] < t["functors.induced"][0]
    assert tracer.counts["op0"]["orbit.morphisms"] == 20


def test_ladder_reports_each_top_level_span(tmp_path, capsys):
    import ladder

    x = run.setup("s4-point", 0, tmp_path)
    tracer = ladder.StageTracer()
    tracer.install()
    try:
        run.solve(x)
    finally:
        tracer.uninstall()
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    stages = [rec["stage"] for rec in lines if "stage" in rec]
    assert [rec["begin"] for rec in lines if "begin" in rec] == stages
    assert stages[:4] == ["groups.family_all", "functors.induced",
                          "functors.laws", "realize.build_space"]
    assert stages[-1] == "realize.compare"
    build = lines[2 * stages.index("realize.build_space") + 1]
    assert build["counts"]["realize.cells.d0"] == 1


def test_classifier_order():
    assert run.classify(timed_out=True, exception=ValueError()) == "timeout"
    assert run.classify(exception=ValueError()) == "traceback"
    assert run.classify(exit_code=1, expected_code=0) == "exit_code"
    assert run.classify(answer="a", expected="b") == "wrong_answer"
    assert run.classify(exit_code=0, expected_code=0, answer="a", expected="a") is None


def _torus(cmd):
    argv = [cmd, "src/eqpi1/data/torus_z2.eqp"]
    return argv, run.CLI_PINNED[" ".join(argv)]


def test_cli_op_passes_pinned_output():
    argv, expected = _torus("homology")
    assert run.cli_op(argv, expected, run.cli_env())[1] is None


def test_cli_op_wrong_answer():
    argv, (code, _) = _torus("homology")
    assert run.cli_op(argv, (code, "0" * 64), run.cli_env())[1] == "wrong_answer"


def test_cli_op_bad_exit_code():
    argv = ["realize", "src/eqpi1/data/free_s0_z2.eqp"]  # no functor: exits 3
    _, digest = run.CLI_PINNED[" ".join(argv)]
    assert run.cli_op(argv, (0, digest), run.cli_env())[1] == "exit_code"


def test_cli_op_traceback(tmp_path):
    argv, expected = run.setup("docs-cli", 0, tmp_path)[-1]
    assert run.cli_op(argv, expected, run.cli_env())[1] == "probe traceback"


def test_only_the_known_probe_failure_leaves_a_run_correct():
    assert run.is_correct([None, "probe traceback"])
    for failure in ("wrong_answer", "exit_code", "traceback", "timeout",
                    "probe wrong_answer", "probe exit_code", "probe timeout"):
        assert not run.is_correct([None, failure])


def test_cli_op_timeout(monkeypatch):
    monkeypatch.setattr(run, "CLI_TIMEOUT_S", 0.01)
    argv, expected = _torus("realize")
    assert run.cli_op(argv, expected, run.cli_env())[1] == "timeout"


def test_library_op_timeout(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.05)
    x = run.setup("cone-c6", 0, tmp_path)
    assert run.library_op("cone-c6", x)[1] == "timeout"


def test_high_percentile_needs_ten_beyond():
    assert run.high_percentile(list(range(99))) is None
    assert run.high_percentile(list(range(100)))[0] == 90.0
    assert run.high_percentile(list(range(1000)))[0] == 99.0


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    made = spans.layer_metrics({}, [{}], {}, [{}], 0.0)
    assert listed == [(k, m["unit"]) for k, m in made.items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
