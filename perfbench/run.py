"""Benchmark of the doubleslit command line, end to end and per layer.

    python3 perfbench/run.py --workload buildup --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each invocation of the pipeline
is a fresh `python3 -m doubleslit` child process, one at a time (a closed
loop with a single client), repeated until `--seconds` would be exceeded.
Every invocation's outputs are checked and hashed; invocations of one
source tree and seed must produce identical artifacts.

With `--trace 0` the end-to-end metrics are reported.  With `--trace 1`
the CLI runs inside this process instead, alternating untraced invocations
with traced ones in which the public functions of each module are replaced
by timing wrappers (see layers.py); the per-layer metrics come from the
spans of the traced invocations, and `trace.overhead` is the ratio of
traced to untraced wall time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record with the
environment, samples and artifact digests goes to
`.bench_work/results/`.  Metric names and units come from BENCHMARK.json.
"""
from __future__ import annotations

import os

# One compute thread per library, so that the sweep's own pool, sized to
# the core count, is the only parallelism.  Set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_CFG = ROOT / "configs" / "default.cfg"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
# A child that gets this far has paid for interpreter start, imports and
# load_config, everything before the pipeline proper.
SETUP_PROBE = (
    "import sys; from doubleslit import cli, config; "
    "config.load_config(sys.argv[1], int(sys.argv[2]))"
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def digests(out: Path) -> dict[str, str]:
    result = {}
    for p in sorted(out.rglob("*")):
        if p.is_file():
            result[p.relative_to(out).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return result


def dir_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def source_fingerprint() -> str:
    """sha256 over the files that decide the outputs: program, config, benchmark."""
    h = hashlib.sha256()
    files = [*SRC.rglob("*.py"), *(ROOT / "configs").glob("*"), *(ROOT / "perfbench").glob("*.py")]
    for p in sorted(files):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spawn(cmd: list[str], log: Path) -> tuple[int, float, float]:
    """Run a child to completion: exit code, wall seconds, peak RSS in MB."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run: repeated invocations of one workload and seed."""

    def __init__(self, workload, seed: int, trace: int) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = reset_dir(WORK / f"run-{workload.name}")
        self.out = self.work / "out"
        self.prepared = workload.prepare(DEFAULT_CFG, self.work, seed)
        self.fingerprint = source_fingerprint()
        self.reference_path = (
            WORK / "results" / f"digests-{self.fingerprint[:16]}-{workload.name}-seed{seed}.json"
        )
        self.reference = (
            json.loads(self.reference_path.read_text()) if self.reference_path.is_file() else None
        )
        self.samples: list[dict] = []
        self.score: tuple[float, float] | None = None

    def finish(self, code: int, wall: float, problems: list[str], **extra) -> dict:
        """Check one invocation's outputs and record it as a sample."""
        if code != 0:
            problems = [f"exit code {code}", *problems]
        found = {}
        try:
            problems = problems + self.workload.check(self.out, self.prepared)
            found = digests(self.out)
            if self.score is None and not problems:
                self.score = self.workload.score(self.out, self.prepared)
        except (OSError, KeyError, ValueError) as exc:
            problems = problems + [f"output check: {exc!r}"]
        if self.reference is None and not problems:
            self.reference = found
            self.reference_path.parent.mkdir(parents=True, exist_ok=True)
            self.reference_path.write_text(json.dumps(found, indent=1))
        elif found != self.reference:
            problems = problems + ["artifact digests differ from an earlier run of this source"]
        sample = dict(wall_s=wall, bytes_written=dir_bytes(self.out), problems=problems, **extra)
        self.samples.append(sample)
        return sample

    def invoke_child(self) -> dict:
        reset_dir(self.out)
        cmd = [sys.executable, "-m", "doubleslit", *self.prepared.argv, "--out", str(self.out)]
        code, wall, rss = spawn(cmd, self.work / "stderr.txt")
        problems = []
        if code != 0:
            problems.append((self.work / "stderr.txt").read_text(errors="replace")[-2000:])
        return self.finish(code, wall, problems, peak_rss_mb=rss, mode="child")

    def probe(self) -> float:
        """Wall time of a child that only starts, imports and loads the config."""
        cmd = [sys.executable, "-c", SETUP_PROBE, str(self.prepared.config_path), str(self.seed)]
        code, wall, _ = spawn(cmd, self.work / "stderr.txt")
        if code != 0:
            log = (self.work / "stderr.txt").read_text(errors="replace")
            raise RuntimeError(f"set-up probe exited {code}: {log[-2000:]}")
        return wall

    def invoke_inprocess(self, mode: str, tracer=None) -> dict:
        import layers
        from doubleslit import cli

        reset_dir(self.out)
        argv = [*self.prepared.argv, "--out", str(self.out)]
        problems = []
        if tracer is not None:
            tracer.reset()
            layers.install(tracer)
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:
            code = 1
            problems.append(traceback.format_exc())
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        extra = {"mode": mode}
        if tracer is not None:
            summary = layers.summarize(tracer.spans)
            absent = layers.missing(summary, self.workload.required)
            if absent:
                problems.append(f"span coverage: no calls to {', '.join(absent)}")
            extra["summary"] = summary
        if code != 0:
            problems.append(sink.getvalue()[-2000:])
        return self.finish(code, wall, problems, **extra)

    def loop(self, seconds: float, invoke, minimum: int) -> None:
        """Invoke until another iteration as long as the last would end past `seconds`."""
        start = last = time.perf_counter()
        step = 0.0
        while len(self.samples) < minimum or last - start + step <= seconds:
            invoke(len(self.samples))
            now = time.perf_counter()
            step, last = now - last, now


def end_to_end(run: Run, setups: list[float]) -> dict[str, float]:
    samples = run.samples
    wall = statistics.median(s["wall_s"] for s in samples)
    setup = statistics.median(setups)
    recall, precision = run.score or (0.0, 0.0)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "items_per_s": run.prepared.items / (wall - setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "blob_recall": recall,
        "blob_precision": precision,
    }


def per_layer(run: Run) -> dict[str, float]:
    import layers

    traced = [s for s in run.samples if s["mode"] == "traced"]
    untraced = [s for s in run.samples if s["mode"] == "untraced"]
    result = layers.metrics([s["summary"] for s in traced])
    result["io.bytes_written"] = statistics.median(s["bytes_written"] for s in traced)
    result["trace.overhead"] = statistics.median(s["wall_s"] for s in traced) / statistics.median(
        s["wall_s"] for s in untraced
    )
    return result


def machine() -> dict:
    import numpy
    import scipy

    cpus = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": cpus,
        # cli.cmd_sweep sizes its pool as min(8, cpu_count)
        "sweep_jobs": min(8, cpus),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def environment(run: Run) -> dict:
    return {
        **machine(),
        "source_sha256": run.fingerprint,
        "workload": run.workload.name,
        "seed": run.seed,
        "trace": run.trace,
    }


def main() -> int:
    args = parse_args()
    if not (SRC / "doubleslit" / "cli.py").is_file() or not DEFAULT_CFG.is_file():
        print(f"error: no doubleslit source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    compileall.compile_dir(SRC, quiet=1)
    run = Run(WORKLOADS[args.workload], args.seed, args.trace)
    try:
        metrics, setups = measure(run, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    unknown = {m["name"] for m in declared} ^ set(metrics)
    if unknown:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    report(run, metrics, setups, {m["name"]: m["unit"] for m in declared})
    return 0


def measure(run: Run, seconds: float) -> tuple[dict[str, float], list[float]]:
    """Make the run's invocations; its metrics and set-up samples."""
    if run.trace:
        from spans import Tracer

        tracer = Tracer()
        # The first invocation warms caches and lazy imports; after it,
        # traced and untraced invocations alternate.
        run.loop(
            seconds,
            lambda i: run.invoke_inprocess(
                "warmup" if i == 0 else "traced" if i % 2 else "untraced",
                tracer if i % 2 else None,
            ),
            3,
        )
        return per_layer(run), []
    # Set-up probes are interleaved with the invocations so that both
    # sample the same stretches of machine load.
    setups = []

    def probe_and_invoke(i):
        setups.append(run.probe())
        run.invoke_child()

    run.loop(seconds, probe_and_invoke, 1)
    while len(setups) < SETUP_PROBES:
        setups.append(run.probe())
    return end_to_end(run, setups), setups


def report(run: Run, metrics: dict, setups: list[float], units: dict) -> None:
    """Write the run's record and print the metrics, ending with the JSON line."""
    failed = sum(1 for s in run.samples if s["problems"])
    attempted = len(run.samples)
    env = environment(run)
    record = {
        "environment": env,
        "setup_s_samples": setups,
        "samples": [{k: v for k, v in s.items() if k != "summary"} for s in run.samples],
        "digests": run.reference,
        "metrics": metrics,
    }
    name = run.workload.name
    results = WORK / "results" / f"{name}-seed{run.seed}-trace{run.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))
    shutil.rmtree(run.work, ignore_errors=True)

    print("environment: " + json.dumps(env))
    for s in run.samples:
        for problem in s["problems"]:
            print(f"FAILED ({s['mode']}): {problem.strip()}")
    print(
        f"{name}: {attempted} invocations of {run.prepared.items} {run.workload.item}, "
        f"{len(setups)} set-up probes"
    )
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"artifacts: {len(run.reference or {})} files, record in {results.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
