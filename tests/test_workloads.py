"""The benchmark's workloads (perfbench/workloads.py) against this package.

The workloads call the API directly (`AttackConfig(variant=...)`,
`dlg_attack`/`improved_dlg`, `victim_gradient`, ...), so a refactor that
changes what they use breaks `perfbench/run.py` without any other test
noticing. This test runs the first two ops of every workload, through the
same `prepare`, `run` and `check` steps as the harness.
"""

import importlib.util
from pathlib import Path

import pytest

_WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["gn-demo-16", "gd-label-12", "fl-round-32"])
def test_workload_ops_pass_their_checks(tmp_path, name):
    workload = _load_workloads().WORKLOADS[name](tmp_path)
    workload.setup(3)
    for i in (0, 1):
        args = workload.prepare(i)
        ok, _, reason = workload.check(args, workload.run(args))
        assert ok, f"op {i}: {reason}"
