"""The benchmark's workloads still build their inputs with the library.

`perfbench/workloads.py` calls library functions directly (`make_events`,
`render_frame` with every keyword, `IntensityProfile`, ...) and names CLI
arguments.  Running each workload's `prepare` here makes a library change
that would break the benchmark fail the unit tests instead.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from doubleslit.cli import build_parser
from doubleslit.config import load_config

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CFG = ROOT / "configs" / "default.cfg"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads_under_test"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload", ["buildup", "sweep", "detect-dense"])
def test_workload_prepares_valid_invocation(workloads, tmp_path, workload):
    w = workloads.WORKLOADS[workload]
    prep = w.prepare(DEFAULT_CFG, tmp_path, 4242)
    args = build_parser().parse_args([*prep.argv, "--out", str(tmp_path / "out")])
    assert args.command == prep.argv[0]
    config = load_config(str(prep.config_path), 4242)
    assert prep.items > 0
    if workload == "buildup":
        assert config.n_events == prep.items
    if workload == "detect-dense":
        assert len(args.files) == len(prep.truth) == prep.items
        assert all(Path(f).is_file() for f in args.files)
        assert all(len(t) == w.PER_FRAME for t in prep.truth)
