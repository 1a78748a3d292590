"""The benchmark's own tests.

Run from the root of a checkout (the file name keeps it out of the
repository's default test collection, since each tiny run spawns fresh
interpreters and takes a few seconds)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
from common import GateError, check_sccnt  # noqa: E402
from plan import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--profile", "tiny"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


class _WrongBackend:
    """A QueryAPI backend that answers one vertex wrongly."""

    def __init__(self, real, bad_vertex):
        self.real = real
        self.bad_vertex = bad_vertex

    def sccnt(self, v):
        count, length = self.real.sccnt(v)
        if v == self.bad_vertex:
            return (count + 1, length)
        return (count, length)


def test_oracle_gate_trips_on_a_wrong_answer():
    from repro.core.counter import ShortestCycleCounter

    graph = common.make_graph({"kind": "wkt", "profile": "tiny"})
    counter = ShortestCycleCounter.build(graph.copy())
    snap = counter.snapshot()
    vertices = list(range(0, graph.n, 7))
    assert check_sccnt(_WrongBackend(snap, -1), graph, vertices) == len(
        vertices)
    with pytest.raises(GateError, match=f"sccnt\\({vertices[3]}\\)"):
        check_sccnt(_WrongBackend(snap, vertices[3]), graph, vertices)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_mostly",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
