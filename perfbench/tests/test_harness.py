"""Self-checks of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q

They take about a minute: each workload runs one untraced and one traced
pass on the data of the repository's own tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def passes(request, tmp_path_factory):
    """(cases, untraced pass, traced pass, tracer) for one workload."""
    cases = workloads.build(request.param, workloads.Params.canonical(),
                            tmp_path_factory.mktemp(request.param))
    plain = run.run_pass(cases)
    tracer = tracing.Tracer()
    traced = run.run_pass(cases, tracer)
    return cases, plain, traced, tracer


def test_every_case_meets_its_oracle(passes):
    cases, plain, traced, _ = passes
    for p in (plain, traced):
        for case in cases:
            verdict = p["verdicts"][case.name]
            assert verdict.ok, f"{case.name}: {verdict.detail}"


def test_traced_outputs_equal_untraced_bit_for_bit(passes):
    cases, plain, traced, _ = passes
    for case in cases:
        assert plain["verdicts"][case.name].digest == traced["verdicts"][case.name].digest


def test_tracing_restores_the_originals(passes):
    from delayvar import cli, expr, solver
    from delayvar.trajectory import Trajectory

    import numpy as np

    assert solver.np is np
    assert "traced" not in (solver.el_residual.__code__.co_name,
                            cli.invariance_defect.__code__.co_name,
                            expr.bind_eval.__code__.co_name,
                            Trajectory.eval.__code__.co_name)


def test_seed_counts_of_the_solve_cases(passes):
    cases, _, _, tracer = passes
    if cases[0].name != "el-classical-64":
        pytest.skip("solve workload only")
    layers = tracer.layer_metrics(dict(enumerate(c.name for c in cases)))
    expected = {
        "el-classical-64": (221, 2, 445),
        "el-cubic-m2": (84, 6, 511),
        "pmp-lq-terminal": (352, 2, 707),
    }
    for case, (unknowns, iters, evals) in expected.items():
        assert layers[f"solver.{case}.unknowns"] == unknowns, case
        assert layers[f"solver.{case}.newton_iters"] == iters, case
        assert layers[f"solver.{case}.residual_evals"] == evals, case


def test_layers_that_run_report_work(passes):
    cases, _, _, tracer = passes
    layers = tracer.layer_metrics(dict(enumerate(c.name for c in cases)))
    assert layers["trajectory.eval.calls"] > 0
    assert layers["calculus.total_derivative_many.nodes"] > 0
    if cases[0].name == "el-classical-64":
        assert layers["solver.linalg_s"] > 0 and layers["noether.invariance_defect.calls"] == 0
    elif cases[0].name == "verify-ex1-200":
        assert layers["solver.newton_iters"] == 0 and layers["cli.main.calls"] == 1
    else:
        assert layers["expr.bind_eval.calls"] > 100_000
        assert layers["calculus.derivative_in_parameter.calls"] == 2


def test_oracle_rejects_a_wrong_multiplier(passes):
    cases = passes[0]
    if cases[0].name != "el-classical-64":
        pytest.skip("solve workload only")
    traj, lam, report = cases[0].call()
    assert cases[0].evaluate((traj, lam, report)).ok
    assert not cases[0].evaluate((traj, lam + 1e-3, report)).ok


def test_seeds_change_values_not_work():
    a, b = workloads.Params.from_seed(1), workloads.Params.from_seed(2)
    assert a != b and a == workloads.Params.from_seed(1)
    for value in (*vars(a).values(), *vars(b).values()):
        assert 0.9 <= value <= 1.1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
