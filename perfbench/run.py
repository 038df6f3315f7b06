"""Benchmark of the ``ensembleqc`` chain: four seeded workloads, host time.

Run from the repository root::

    python3 perfbench/run.py --workload sim_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s``,
the median time of one warm pass; ``setup_s``, the median time from a fresh
interpreter through ``import ensembleqc`` and input generation; and
``peak_rss_mb`` of the workload's process.  Set-up times, and pass times of
interpreter-bound workloads, are scaled to a nominal interpreter speed by
:func:`speed_probe` runs around each of them (see README.md); the unscaled
host times are printed and kept too.  ``--trace 1`` wraps the calls
into each module, measures untraced and traced passes, and reports the
per-layer metrics (self times, counters, tracing overhead); it fails if the
exact counters differ between two traced passes on inputs regenerated from
the same seed.  Either mode checks every operation's output against
:mod:`oracle` and counts failures.  The last line of stdout is one JSON
object; results and spans are also written under ``.perfbench-run/``.

BLAS and OpenMP are pinned to one thread before numpy loads, so the CLI's
``blockade-sweep --jobs 2`` is the only parallelism.
"""

from __future__ import annotations

import os

THREAD_PIN = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_PIN)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
sys.path.insert(0, str(SRC))

import numpy as np

try:
    import ensembleqc
except ImportError as exc:
    sys.exit(f"perfbench: cannot import ensembleqc from {SRC}: {exc}")
if Path(ensembleqc.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: ensembleqc resolved to {ensembleqc.__file__}, not under {SRC}")

from tracer import Tracer, self_times
from workloads import WORKLOADS

SETUP_PROBES = 5
MIN_PASSES = 3
# Seconds of speed_probe() at the nominal speed: its typical time on the
# 2.1 GHz Xeon 2-vCPU VM the benchmark was tuned on.
PROBE_NOMINAL_S = 0.010
# Counters that must repeat exactly between two traced passes on the same seed.
EXACT_COUNTERS = (
    "simulator.apply_op.calls",
    "simulator.amplitudes_touched",
    "compiler.native_ops_emitted",
    "dynamics.sector_propagator.calls",
    "physical.derive_couplings.calls",
    "compiler.approximate_fixed_set.found",
)


def speed_probe() -> float:
    """Seconds of a fixed interpreter-bound kernel, a Python loop and small
    numpy calls.  On a shared host the speed of Python code swings by about
    1.5x between regimes lasting seconds to minutes; this probe follows it."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    a = np.arange(2000.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def probed(measure) -> tuple[float, float]:
    """Host seconds of ``measure()`` and the factor that scales them to the
    nominal speed, from speed probes run just before and just after it."""
    before = speed_probe()
    seconds = measure()
    return seconds, PROBE_NOMINAL_S / ((before + speed_probe()) / 2)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, list(WORKLOADS).index(name)])


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ensembleqc": ensembleqc.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": {var: os.environ.get(var) for var in THREAD_PIN},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def git_commit() -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Run:
    """One workload in this process: inputs, passes, and failure accounting."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self._tmp: list[str] = []

    def fresh_inputs(self):
        RUN_DIR.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="inputs-", dir=RUN_DIR)
        self._tmp.append(tmp)
        return self.workload.make_inputs(workload_rng(self.workload.name, self.seed), Path(tmp))

    def cleanup(self) -> None:
        for tmp in self._tmp:
            shutil.rmtree(tmp, ignore_errors=True)

    def timed_pass(self, inputs, tracer: Tracer, batch: int, traced: bool = False) -> float:
        """One pass; only the operations are timed, the checks run after with
        the tracer off."""
        tracer.active = traced
        start = time.perf_counter()
        outcomes = self.workload.run(inputs, tracer, batch)
        elapsed = time.perf_counter() - start
        tracer.active = False
        for outcome in outcomes:
            self.attempted += 1
            problem = outcome.error
            if problem is None:
                try:
                    problem = self.workload.check(inputs, outcome)
                except Exception as exc:  # a malformed output fails its check
                    problem = f"check raised {exc!r}"
            if problem is not None:
                self.failed += 1
                print(f"FAILED {self.workload.name}/{outcome.label} batch {batch}: {problem}",
                      file=sys.stderr)
        return elapsed

    def passes(self, inputs, tracer: Tracer, seconds: float) -> list[tuple[float, float]]:
        """Probed untraced passes for about ``seconds``, each on the next batch."""
        samples = []
        deadline = time.perf_counter() + seconds
        # Stop once another pass would most likely end past the deadline.
        while (len(samples) < MIN_PASSES
               or time.perf_counter() + statistics.median(s for s, _ in samples) / 2 < deadline):
            samples.append(probed(lambda: self.timed_pass(inputs, tracer, len(samples) + 1)))
        return samples


def setup_samples(args) -> list[tuple[float, float]]:
    """Probed times of fresh interpreters that import ensembleqc, generate
    the inputs and exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]

    def one() -> float:
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        return time.perf_counter() - start

    return [probed(one) for _ in range(SETUP_PROBES)]


def pass_layers(tracer: Tracer) -> dict:
    """Flat per-layer values of one traced pass."""
    calls, busy = self_times(tracer.spans)
    values = {f"{n}.calls": c for n, c in calls.items()} | {f"{n}.busy_s": b for n, b in busy.items()}
    values |= tracer.counters | tracer.peaks
    searches = calls["compiler.approximate_fixed_set"]
    found = values.get("compiler.approximate_fixed_set.found", 0)
    values["compiler.approximate_fixed_set.found_frac"] = found / searches if searches else 0.0
    values["trace.spans"] = len(tracer.spans)
    return values


def traced_run(run: Run, args, per_layer: list[dict]) -> tuple[dict, list]:
    """Untraced and traced passes alternate, so that drift in host speed hits
    both alike; each traced pass regenerates its inputs from the seed, and the
    wrappers are installed only around traced passes.  Times are medians over
    the traced passes; counts come from the first one."""
    tracer = Tracer()
    inputs = run.fresh_inputs()
    run.timed_pass(inputs, tracer, 0)  # warm-up
    untraced, traced, layers, spans = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(run.timed_pass(inputs, tracer, 0))
        fresh = run.fresh_inputs()
        tracer.reset()
        tracer.install(ensembleqc)
        try:
            traced.append(run.timed_pass(fresh, tracer, 0, traced=True))
        finally:
            tracer.uninstall()
        layers.append(pass_layers(tracer))
        spans = spans or tracer.spans

    # The self-check counts as one more operation.
    run.attempted += 1
    mismatched = [name for name in EXACT_COUNTERS if len({v.get(name, 0) for v in layers}) != 1]
    if mismatched:
        run.failed += 1
        for name in mismatched:
            print(f"EXACT COUNTER MISMATCH {name}: {[v.get(name, 0) for v in layers]} "
                  f"across traced passes of seed {args.seed}", file=sys.stderr)
    overall = {
        "trace.wall_s": statistics.median(traced),
        "trace.untraced_wall_s": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    metrics = {}
    for metric in per_layer:
        name = metric["name"]
        if name in overall:
            value = overall[name]
        elif name.endswith("busy_s"):
            value = statistics.median(values.get(name, 0.0) for values in layers)
        else:
            value = layers[0].get(name, 0)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics, spans


def untraced_run(run: Run, args, end_to_end: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics.  Set-up and the passes of interpreter-bound
    workloads are scaled to the nominal speed; host seconds are kept in the
    result file."""
    setup = setup_samples(args)
    idle = Tracer()
    inputs = run.fresh_inputs()
    run.timed_pass(inputs, idle, 0)  # warm-up
    passes = run.passes(inputs, idle, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = run.workload.interpreter_bound
    values = {
        "wall_s": statistics.median(s * f if scale else s for s, f in passes),
        "setup_s": statistics.median(s * f for s, f in setup),
        "peak_rss_mb": peak_mb,
    }
    units = {m["name"]: m["unit"] for m in end_to_end}
    detail = {"host_wall_s": statistics.median(s for s, _ in passes),
              "host_setup_s": statistics.median(s for s, _ in setup),
              "passes_host_s_and_factor": passes, "setup_host_s_and_factor": setup}
    return {name: {"value": values[name], "unit": units[name]} for name in units}, detail


def run_one(args) -> int:
    bench = spec()
    run = Run(args.workload, args.seed)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            metrics, spans = traced_run(run, args, bench["per_layer"])
            detail = {}
            RUN_DIR.mkdir(exist_ok=True)
            (RUN_DIR / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
                {"fields": ["id", "name", "start", "end", "parent", "thread"], "spans": spans}))
        else:
            metrics, detail = untraced_run(run, args, bench["end_to_end"])
    finally:
        run.cleanup()
    failed_frac = run.failed / run.attempted
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for name in ("host_wall_s", "host_setup_s"):
        if name in detail:
            print(f"{args.workload} {name} {detail[name]:.6g} s (unscaled)")
    print(f"{args.workload} failed_frac {failed_frac:.6g} frac ({run.failed} of {run.attempted} operations)")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "failed_frac": failed_frac, **detail, **result}, indent=2))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"] |= {f"{name}.{k}": v for k, v in result["metrics"].items()}
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="generate the inputs and exit (times setup_s from a parent run)")
    args = parser.parse_args()
    if args.setup_probe:
        run = Run(args.workload, args.seed)
        run.fresh_inputs()
        run.cleanup()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
