"""The benchmark's operations on the package as it is: each workload's own
check (perfbench/workloads.py, loaded read-only) on the inputs of its
first round.  A change that would make the benchmark report wrong outputs,
or a refusal, fails here first.  One round of all four takes a few
seconds: factor_large_p's round holds every decade, the two with two-limb
residues (p > 2^26.5) among them."""

import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from chebdyn import cli, factor, ffield, graph, polys, predict

WORKLOADS_PY = (Path(__file__).resolve().parent.parent / "perfbench" /
                "workloads.py")
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
LIB = SimpleNamespace(cli=cli, factor=factor, ffield=ffield, graph=graph,
                      predict=predict)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_round_passes_its_check(name):
    work = WORKLOADS[name]
    inputs = next(work.rounds(random.Random(SEED)))
    failed = [args for args in inputs if not work.op(LIB, *args)]
    assert not failed, failed[:3]


def test_large_p_round_reaches_two_limbs():
    inputs = next(WORKLOADS["factor_large_p"].rounds(random.Random(SEED)))
    limbed = {p for ell, p, n, _ in inputs if polys.limb_width(ell ** n, p)}
    assert len({len(str(p)) for p in limbed}) == 2, sorted(limbed)
