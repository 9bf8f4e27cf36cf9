"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oppsim():
    package, _ = run.import_oppsim(ROOT)
    return package


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def _run(monkeypatch, capsys, *argv: str) -> tuple[list[str], dict]:
    monkeypatch.chdir(ROOT)
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_declared_workloads_and_units_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == spans.LAYER_UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_printed_metric_is_declared(monkeypatch, capsys, trace):
    lines, result = _run(
        monkeypatch, capsys, "--workload", "star-sweep", "--seed", "5", "--seconds", "1",
        "--trace", trace,
    )
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    table = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    # failed_fraction is printed from the result's failed and attempted
    assert table == set(declared) | {"failed_fraction"}


def test_self_times_are_nonnegative_and_sum_to_the_traced_run(oppsim):
    argv = ["verify", "--grid", "sizes=1-3;probs=0,0.5,1;costs=0,1", "--trials", "20000"]
    untraced = min(run.invoke(oppsim.cli, argv)[1] for _ in range(3))
    with spans.Tracer(oppsim) as tracer:
        code, traced, _, _ = run.invoke(oppsim.cli, argv)
    recorded = tracer.take()
    assert code == 0
    roots = [s for s in recorded if s.parent < 0]
    assert [s.name for s in roots] == [spans.ROOT]
    assert all(s.self_s >= 0.0 for s in recorded)
    layer_self = sum(v for k, v in spans.run_metrics(recorded).items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(roots[0].duration, rel=1e-9)
    assert 0.0 <= traced - layer_self <= max(traced - untraced, 0.0) + 1e-3


def test_wrapped_attributes_are_restored(oppsim):
    modules = [m for n, m in sys.modules.items() if n == "oppsim" or n.startswith("oppsim.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    with spans.Tracer(oppsim):
        # aliases made by `from .model import validate` and re-exports are wrapped too
        for holder in (oppsim.model, oppsim.cli, oppsim):
            assert hasattr(holder.validate, "__perfbench_original__")
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_checks_catch_wrong_output(oppsim, tmp_path):
    workload = WORKLOADS["star-sweep"]
    argv = run.prepare_argv(workload, 0, tmp_path)
    code, _, output, stderr = run.invoke(oppsim.cli, argv)
    golden = run.load_golden()[workload.name]["0"]
    assert run.Checker(workload, golden)(code, output, stderr) == []
    assert run.Checker(workload, "0" * 64)(code, output, stderr)
    assert run.Checker(workload, golden)(1, output, "boom")
    # a sender_prioritized row that drifts from its receiver_based twin
    lines = output.splitlines()
    fields = lines[-1].split(",")
    fields[4] = "0.5"  # mean_duplicates
    lines[-1] = ",".join(fields)
    assert any("modes disagree" in p for p in workload.check("\n".join(lines)))
    assert WORKLOADS["verify-grid"].check("verify result=fail breaches=1\n")


def test_known_defect_is_pinned_to_the_seed_output(oppsim, tmp_path):
    workload = WORKLOADS["mesh-simulate"]
    argv = run.prepare_argv(workload, 0, tmp_path)
    code, _, output, stderr = run.invoke(oppsim.cli, argv)
    golden = run.load_golden()[workload.name]["0"]
    known = run.load_known_defect(workload.name, 0)
    assert known is not None and known[0] == golden
    # the seed code's output shows the defect; the pin reports it apart
    assert any(known[1] in p for p in workload.check(output))
    check = run.Checker(workload, golden, known)
    assert check(code, output, stderr) == []
    assert check.known_problems and all(known[1] in p for p in check.known_problems)
    # without the pin, or on any other output, the mode check fails the call
    assert any(known[1] in p for p in run.Checker(workload, golden)(code, output, stderr))
    changed = output + "# another output\n"
    problems = run.Checker(workload, golden, known)(code, changed, stderr)
    assert any(known[1] in p for p in problems)
    assert any("differs from golden" in p for p in problems)
    assert run.load_known_defect("star-sweep", 0) is None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star-sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
