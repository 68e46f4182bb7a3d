import importlib.util
import os

import pytest

from eqpi1 import realize
from eqpi1.documents import parse_path

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "eqpi1", "data")


BENCH_INPUTS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs.py")


def data_file(name):
    return os.path.normpath(os.path.join(DATA, name))


@pytest.fixture(scope="session")
def torus_doc():
    return parse_path(data_file("torus_z2.eqp"))


@pytest.fixture(scope="session")
def reflection_doc():
    return parse_path(data_file("reflection_circle_z2.eqp"))


@pytest.fixture(scope="session")
def free_doc():
    return parse_path(data_file("free_s0_z2.eqp"))


@pytest.fixture(scope="session")
def bench_inputs():
    """The benchmark's seeded document generators (perfbench/inputs.py)."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


@pytest.fixture(scope="session", autouse=True)
def realized_cells():
    """Every realization that any test builds is checked against the
    builder's counting pass: plan_cells predicts the cells per dimension
    of the space.  Yields the predicted counts of each space checked."""
    build, checked = realize._build, []

    def checked_build(f, max_dim, coend):
        space, nonrigid = build(f, max_dim, coend)
        predicted = realize.plan_cells(f, max_dim, coend).counts
        assert predicted == space.cell_counts()
        checked.append(predicted)
        return space, nonrigid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize, "_build", checked_build)
        yield checked
