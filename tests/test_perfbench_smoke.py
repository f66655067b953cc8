"""The benchmark's correctness checks, run briefly on every workload.

`perfbench/run.py --trace 1` checks the reference digests, that a repeated
seed replays, that traced units give the untraced digests and that every
hooked layer fires (and, on rollout, that every execute is a step). This
runs each workload for about a second and gates only on those checks,
never on timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["explore", "rollout", "drrn"])
def test_perfbench_checks_pass(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    checks = [line for line in lines if line.startswith("# check ")]
    assert checks and all(line.startswith("# check ok") for line in checks), \
        "\n".join(checks)
    names = " ".join(checks)
    assert "traced units give the untraced digests" in names
    assert "hook coverage" in names
    if workload != "drrn":
        assert "reference digest" in names
    assert json.loads(lines[-1])["correct"] is True
