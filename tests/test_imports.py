"""numpy loads only where it is used: ``generate`` and ``verify``.

Each check runs in a fresh interpreter, since this test process has long
imported numpy itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

STAR_CFG = """
topology: {kind: star, forwarders: 3, p_link: 0.6}
sim: {mode: both, replications: 200, seed: 1}
"""


def run_python(code, cwd):
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_leaves_numpy_out(tmp_path):
    run_python('import sys, oppsim, oppsim.cli; assert "numpy" not in sys.modules', tmp_path)


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_star_commands_leave_numpy_out(tmp_path, command):
    (tmp_path / "star.yaml").write_text(STAR_CFG)
    out = run_python(
        "import contextlib, io, sys\n"
        "from oppsim import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main([{command!r}, 'star.yaml']) == 0\n"
        "print('numpy' in sys.modules)\n",
        tmp_path,
    )
    assert out == "False\n"


def test_each_name_comes_from_its_module_and_the_frame_oracle_works(tmp_path):
    # the package root re-exports no layer's names
    out = run_python(
        "import oppsim\n"
        "names = ('generate', 'run_experiment', 'total_path_cost', 'bit_level_frame_oracle')\n"
        "assert not any(hasattr(oppsim, name) for name in names)\n"
        "from oppsim.oracle import bit_level_frame_oracle\n"
        "from oppsim.topology import DEFAULT_FRAME\n"
        "est = bit_level_frame_oracle(0.01, DEFAULT_FRAME, 1000, 0)\n"
        "print(est.trials, 0.0 <= est.joint_miss <= est.data_miss <= 1.0)\n",
        tmp_path,
    )
    assert out == "1000 True\n"


def test_verify_loads_numpy_before_it_runs_its_jobs(tmp_path):
    # loaded by then, numpy is in every forked child's memory, so no child
    # imports it again
    out = run_python(
        "import contextlib, io, sys\n"
        "from oppsim import cli, engine\n"
        "seen = []\n"
        "run_jobs = engine.run_jobs\n"
        "def spy(jobs):\n"
        "    seen.append('numpy' in sys.modules)\n"
        "    return run_jobs(jobs)\n"
        "engine.run_jobs = spy\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--grid', 'sizes=1', '--trials', '1000']) == 0\n"
        "print(seen)\n",
        tmp_path,
    )
    assert out == "[True]\n"
