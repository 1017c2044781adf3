#!/usr/bin/env python3
"""The cislim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Sets up the workload's inputs
from the seed, makes timed passes for about S seconds, checks every output
against known answers, and prints one JSON object as the last line.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it makes untraced passes for half the time, traced passes for the
other half, and reports the per-layer metrics.  Exit status is 1 when any
answer is wrong and 2 when the sources or arguments are missing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORT_PROBES = 5
SETUP_REPEATS = 3
TRACE_MIN_PASSES = 2
SAMPLE_EVERY_S = 0.1
HASH_SEED = "0"

# one caller, one thread: keep numpy's native code single-threaded too
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# imports the workload's modules in a fresh process, between two reference runs
_PROBE = (
    "import sys\n"
    f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
    "import speed\n"
    "before = speed.sample()\n"
    "import workloads\n"
    "after = speed.sample()\n"
    "print((after[0] - before[1]) * speed.factor(before, after))\n"
)


class Recorder:
    """Times each call and tracks which calls gave a wrong answer.

    A call fails when an expectation after it is false, when it or the
    item around it raises, when an output it produced differs from the
    first pass, or when a deferred oracle check on its first-pass output
    is false.

    Untraced, it also runs the reference loop at the start and end of each
    pass and between calls at most every SAMPLE_EVERY_S seconds, so every
    call and pass can be rescaled to nominal speed (see `speed`)."""

    def __init__(self):
        self.tracer = None
        self.calls: list[tuple[float, float]] = []
        self.samples: list[tuple[float, float]] = []
        self.pass_samples: list[tuple[int, int]] = []
        self.attempted = 0
        self.failed: set[int] = set()
        self.messages: list[str] = []
        self.deferred: list[tuple[int, object, str]] = []
        self.pass_no = 0
        self._pass_start = 0
        self._kept: dict[int, object] = {}
        self._reference: dict[int, object] | None = None

    def call(self, fn, *args):
        self.attempted += 1
        t = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.calls.append((t, end))
            if self.tracer is None and end - self.samples[-1][1] >= SAMPLE_EVERY_S:
                self.samples.append(speed.sample())

    def _fail(self, message: str, call: int | None = None):
        self.failed.add(self.attempted if call is None else call)
        if len(self.messages) < 20:
            self.messages.append(message)

    def expect(self, ok: bool, message: str):
        if not ok:
            self._fail(message)

    def keep(self, value):
        self._kept[self.attempted - self._pass_start] = value

    def later(self, check, message: str):
        if self.pass_no == 1:
            self.deferred.append((self.attempted, check, message))

    @contextmanager
    def item(self, item_id: str):
        ctx = self.tracer.item(self.pass_no, item_id) if self.tracer else nullcontext()
        try:
            with ctx:
                yield
        except Exception as e:  # one item's failure must not end the run
            traceback.print_exc(file=sys.stderr)
            self._fail(f"{item_id}: {type(e).__name__}: {e}")

    def run_pass(self, workload, inputs) -> float:
        """One pass; returns its wall time, reference runs excluded."""
        self.pass_no += 1
        self._pass_start = self.attempted
        self._kept = {}
        self.samples.append(speed.sample())
        first = len(self.samples) - 1
        t = perf_counter()
        workload.run_pass(inputs, self)
        elapsed = perf_counter() - t
        self.samples.append(speed.sample())
        self.pass_samples.append((first, len(self.samples) - 1))
        if self._reference is None:
            self._reference = self._kept
        else:
            for k in self._reference.keys() | self._kept.keys():
                if self._reference.get(k) != self._kept.get(k):
                    self._fail(f"pass {self.pass_no}: output of call {k} changed",
                               self._pass_start + k)
        return elapsed - sum(e - s for s, e in self.samples[first + 1:-1])

    def run_deferred(self):
        for call, check, message in self.deferred:
            try:
                ok = check()
            except Exception as e:  # a crashing oracle is a failed check
                ok = False
                message = f"{message} ({type(e).__name__}: {e})"
            if not ok:
                self._fail(message, call)

    def scaled(self) -> tuple[list[float], list[float]]:
        """Pass times and call latencies at nominal speed: each stretch
        between two reference runs is scaled by `speed.factor` of the pair."""
        s = self.samples
        f = [speed.factor(s[k], s[k + 1]) for k in range(len(s) - 1)]
        starts = [a for a, _ in s]
        lat = [(b - a) * f[bisect.bisect_right(starts, a) - 1] for a, b in self.calls]
        times = [
            sum((s[k + 1][0] - s[k][1]) * f[k] for k in range(first, last))
            for first, last in self.pass_samples
        ]
        return times, lat


def passes(rec, workload, inputs, seconds: float, min_passes: int) -> list[float]:
    """Whole passes until another would overrun `seconds`, at least
    `min_passes`; returns their wall times."""
    times: list[float] = []
    start = perf_counter()
    while len(times) < min_passes or (
        perf_counter() - start + statistics.median(times) <= seconds
    ):
        times.append(rec.run_pass(workload, inputs))
    return times


def quartiles(values) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"q1 {q[0]:.6g}, median {q[1]:.6g}, q3 {q[2]:.6g}, n={len(values)}"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> list[float]:
    """Import time of the workload's modules at nominal speed, each in a
    fresh process."""
    out = []
    for _ in range(IMPORT_PROBES):
        res = subprocess.run(
            [sys.executable, "-c", _PROBE], cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes order the library's sets; a per-process random order
        # moves small-call latencies by ~10% between otherwise equal runs
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "cislim" / "__init__.py").is_file():
        print(f"benchmark: no library sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    imports = import_seconds()
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "uses_seed": wl.uses_seed,
        "loop": "closed, one caller",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "trace": args.trace,
        "hash_seed": HASH_SEED,
    }
    print("# " + json.dumps(stamp, sort_keys=True))

    workdir = WORK / f"{wl.name}-{os.getpid()}"
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            inputs, seconds = speed.timed(wl.setup, args.seed, str(workdir))
            builds.append(seconds)
        rec = Recorder()
        if args.trace:
            metrics = traced_run(args, wl, inputs, rec)
        else:
            metrics = timed_run(args, wl, inputs, rec, imports, builds)
        rec.run_deferred()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    for m in rec.messages:
        print(f"# FAIL {m}")
    print(f"# attempted {rec.attempted} calls, failed {len(rec.failed)}, "
          f"fail_ratio {len(rec.failed) / max(rec.attempted, 1)}")
    result = {
        "correct": not rec.failed,
        "attempted": rec.attempted,
        "failed": len(rec.failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timed_run(args, wl, inputs, rec, imports, builds) -> dict:
    wall = passes(rec, wl, inputs, args.seconds, wl.min_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times, lat = rec.scaled()
    # every pass makes the same calls on the same inputs; the median of each
    # call's median over passes is steadier than the median of all calls
    per_pass = len(lat) // len(times)
    if per_pass * len(times) == len(lat):
        p50 = statistics.median(statistics.median(lat[i::per_pass]) for i in range(per_pass))
    else:  # an item raised, so passes differ; the run has failed anyway
        p50 = statistics.median(lat)
    lat.sort()
    tail = statistics.quantiles(lat, n=100)[wl.tail_pct - 1]
    beyond = sum(1 for x in lat if x > tail)
    if beyond < 10 and not rec.failed:  # failed items make fewer calls
        raise RuntimeError(f"only {beyond} calls beyond p{wl.tail_pct}; raise min_passes")
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "run_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
        "call_p50_ms": p50 * 1000,
        "call_tail_ms": tail * 1000,
    }
    ref = [e - s for s, e in rec.samples]
    print(f"# reference loop: {quartiles(ref)} s; nominal {speed.NOMINAL_S} s")
    print(f"# wall pass time: {quartiles(wall)} s")
    print(f"# setup_s = {metrics['setup_s']} s (imports {quartiles(imports)} processes; "
          f"inputs {quartiles(builds)} builds)")
    print(f"# run_s = {metrics['run_s']} s ({quartiles(times)} passes)")
    print(f"# peak_rss_mb = {peak_rss_mb} MB (1 process)")
    print(f"# call_p50_ms = {metrics['call_p50_ms']} ms (median over {per_pass} calls per "
          f"pass of each call's median over {len(times)} passes)")
    print(f"# call_tail_ms = {metrics['call_tail_ms']} ms (p{wl.tail_pct}, "
          f"{beyond} calls beyond it)")
    return metrics


def traced_run(args, wl, inputs, rec) -> dict:
    import tracer as tracing

    half = args.seconds / 2
    plain = passes(rec, wl, inputs, half, TRACE_MIN_PASSES)
    tr = tracing.Tracer()
    tr.install()
    rec.tracer = tr
    try:
        traced = passes(rec, wl, inputs, half, TRACE_MIN_PASSES)
    finally:
        tr.uninstall()
        rec.tracer = None
    run_s = statistics.fmean(traced)
    metrics = tracing.layer_metrics(tr, len(traced), run_s, wl.ladders)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)

    covered = sum(metrics[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    gap = run_s - covered - metrics["trace.uncovered_s"]
    print(f"# traced run_s {run_s} s (wall) = layer self {covered} + uncovered "
          f"{metrics['trace.uncovered_s']} + outside items {gap}")
    for layer in tracing.LAYERS:
        print(f"# layer {layer}: {metrics[f'layer.{layer}.self_s'] / run_s:.1%} of traced run_s")
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tr.write(traces / f"{wl.name}-seed{args.seed}.jsonl.gz")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
