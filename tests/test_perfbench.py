"""The benchmark's workloads still build their inputs with the library,
and its traced runs still see every span they require.

`perfbench/workloads.py` calls library functions directly (`make_events`,
`render_frame` with every keyword, `IntensityProfile`, ...) and names CLI
arguments.  Running each workload's `prepare` here makes a library change
that would break the benchmark fail the unit tests instead.  `run.py
--trace 1` invokes the CLI again and again in one process, so a result kept
from one invocation that skips a required step in the next shows up here,
on small inputs, rather than only in a traced benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from doubleslit import cli, propagation
from doubleslit.cli import build_parser
from doubleslit.config import load_config
from doubleslit.pgm import write_pgm

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


@pytest.fixture(scope="module")
def tracing():
    """perfbench's `layers` and `Tracer`, imported from its own directory."""
    bench = str(ROOT / "perfbench")
    sys.path.insert(0, bench)
    try:
        import layers
        from spans import Tracer

        yield layers, Tracer
    finally:
        sys.path.remove(bench)
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


def small_invocation(workload: str, work: Path) -> list[str]:
    """The workload's command on small inputs: 3 sweep steps, 5 build-up
    events, 2 frames to detect."""
    common = ["--config", str(DEFAULT_CFG), "--seed", "4242"]
    if workload == "sweep":
        return ["sweep", "--from", "-2.8 um", "--to", "2.8 um", "--steps", "3", *common]
    if workload == "buildup":
        cfg = work / "small.cfg"
        cfg.write_text("sampler.n_events = 5\nbuildup.checkpoints = 2, 5\n")
        return ["buildup", "--config", str(cfg), "--seed", "4242"]
    y, x = np.mgrid[0:32, 0:416]
    paths = []
    for g, cx in enumerate((100.0, 300.0)):
        spot = 1000.0 * np.exp(-((x - cx) ** 2 + (y - 15.5) ** 2) / (2 * 3.0**2))
        paths.append(str(work / f"frame_{g}.pgm"))
        write_pgm(paths[-1], np.rint(spot).astype(np.uint16))
    return ["detect", *common, *paths]


@pytest.mark.parametrize("workload", ["sweep", "buildup", "detect-dense"])
def test_repeated_traced_invocations_record_every_required_span(
    workloads, tracing, tmp_path, workload
):
    layers, Tracer = tracing
    required = workloads.WORKLOADS[workload].required
    argv = small_invocation(workload, tmp_path)
    # A library test may have left a propagation result kept; cli.main
    # drops what is kept only after a command.
    propagation.forget_kept()
    for i in range(3):
        tracer = Tracer()
        layers.install(tracer)
        try:
            # Through the module, as run.py calls it, so cli.main is traced.
            assert cli.main([*argv, "--out", str(tmp_path / f"out{i}")]) == 0
        finally:
            tracer.restore()
        assert layers.missing(layers.summarize(tracer.spans), required) == [], i
