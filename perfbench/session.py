"""One benchmark run of one workload, in a process of its own.

Started by ``run.py``; see there for usage.  The run sets up its inputs
and warms up several times, then measures a closed loop of ops, one at
a time, for the requested seconds.  Before each op it times a fixed
reference computation; the reported timings are seconds at the host
speed where the reference takes REFERENCE_S.  Every op's report is
checked; the last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 3
# About the seconds ``Reference`` takes on a 2-vCPU Xeon (2.1 GHz)
# host, so that scaled and raw seconds are close there.  Each op's time
# is scaled by REFERENCE_S over the reference time taken just before it,
# and set-up time by REFERENCE_S over the run's median reference time:
# a shared host runs everything slower or faster for minutes at a time,
# and the scaling keeps most of that out of the comparison between runs.
# Raw seconds and the scale go in the summary line.
REFERENCE_S = 0.12
MIN_OPS = 3          # one per data seed, so every run checks every seed


def _fail(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)


class Runner:
    """Runs and checks ops; keeps the first result of each data seed."""

    def __init__(self, workload, seed, inputs, outdir):
        from workloads import DEFAULT_SEED, data_seeds

        self.workload = workload
        self.inputs = inputs
        self.outdir = outdir
        self.data_seeds = data_seeds(seed)
        self.pins = workload.pins if seed == DEFAULT_SEED else {}
        self.digests = {}
        self.results = {}
        self.attempted = 0
        self.failed = 0

    def run(self, index, tracer=None):
        """Run op ``index``; returns its seconds, or None when it raised."""
        data_seed = self.data_seeds[index % len(self.data_seeds)]
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = self.workload.op(self.inputs, data_seed, self.outdir)
                seconds = time.perf_counter() - t0
            else:
                result, seconds = tracer.run_op(index, self.workload.op,
                                                self.inputs, data_seed, self.outdir)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        digest = hashlib.sha256(result.report).hexdigest()
        first = self.digests.setdefault(data_seed, digest)
        pin = self.pins.get(data_seed)
        if digest != first or (pin is not None and digest != pin):
            _fail(f"op {index} (data seed {data_seed}): report sha256 {digest}, "
                  f"expected {pin or first}")
            self.failed += 1
        self.results.setdefault(data_seed, result)
        return seconds

    def check_band(self):
        """Apply the workload's accuracy band; a miss fails every op."""
        results = [self.results[d] for d in self.data_seeds if d in self.results]
        if len(results) < len(self.data_seeds) or not self.workload.band(results):
            _fail("accuracy outside the workload's band, or a data seed produced no report")
            self.failed = self.attempted


def closed_loop(seconds, step, min_ops):
    """Call ``step(i)`` until the next op would end past ``seconds``."""
    t0 = time.perf_counter()
    durations = []
    i = 0
    while i < min_ops or time.perf_counter() - t0 + statistics.median(durations) <= seconds:
        t = time.perf_counter()
        step(i)
        durations.append(time.perf_counter() - t)
        i += 1


def _blas():
    import ctypes
    import glob

    import numpy as np

    info = {"env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ}}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    """Machine and library facts recorded next to every result."""
    import numpy as np

    import icut

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": _blas(), "git_commit": _git_commit()}
    try:
        env["scipy"] = importlib.import_module("scipy").__version__
    except ImportError:
        env["scipy"] = None
    try:
        importlib.import_module("numba")
        env["numba_imports"] = True
    except ImportError:
        env["numba_imports"] = False
    env["numba_enabled"] = getattr(importlib.import_module("icut.kernels"), "NUMBA_ENABLED", None)
    env["icut_version"] = getattr(icut, "__version__", None)
    return env


def _percentiles(times):
    """Median, and the highest percentile with at least ten ops above it."""
    ordered = sorted(times)
    out = {"n": len(ordered), "p50": statistics.median(ordered)}
    for pct in range(99, 50, -1):
        idx = -(-pct * len(ordered) // 100) - 1
        if len(ordered) - 1 - idx >= 10:
            out[f"p{pct}"] = ordered[idx]
            break
    return out


class Reference:
    """A fixed piece of work, independent of icut, that tracks host speed.

    It mixes, in roughly equal parts, what an op spends its time on: a
    block of pairwise differences and its row partition (40 MB arrays,
    so each is mapped and faulted in afresh, as the k-NN blocks are), a
    per-row loop of small numpy calls (interpreter), and small matrix
    products (BLAS).  Its arrays put a floor of about 115 MB under the
    run's peak memory, well below either workload's own peak.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(10000)
        self.a = rng.standard_normal((256, 100))
        self.b = rng.standard_normal((100, 64))

    def __call__(self):
        import numpy as np

        t0 = time.perf_counter()
        x = self.x
        D = x[:500, None] - x[None, :]
        D *= D
        cuts = np.partition(D, 19, axis=1)[:, 19]
        for r in range(3000):
            i = r % D.shape[0]
            cand = np.flatnonzero(D[i] <= cuts[i])
            diff = x[cand] - x[i]
            np.lexsort((cand, diff * diff))
        h = self.a
        for _ in range(200):
            h = (h @ self.b) @ self.b.T
            h /= np.abs(h).max()
        return time.perf_counter() - t0


def measure(runner, seconds):
    times = []
    reference = Reference()
    reference()  # its first call pays one-off costs
    ref = []

    def step(i):
        r = reference()
        t = runner.run(i)
        if t is not None:
            times.append(t)
            ref.append(r)

    closed_loop(seconds, step, MIN_OPS)
    runner.check_band()
    if not times:
        return None, {}
    wl = runner.workload
    subset = [v for r in runner.results.values() for v in r.subset_accuracy]
    classifier = [v for r in runner.results.values() for v in r.classifier_accuracy]
    scaled = [t * REFERENCE_S / r for t, r in zip(times, ref)]
    metrics = {
        "op_s_p50": (statistics.median(scaled), "s"),
        "rows_per_s": (wl.rows_per_op * len(scaled) / sum(scaled), "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "subset_accuracy": (statistics.fmean(subset), "fraction"),
    }
    extra = {"host_scale": REFERENCE_S / statistics.median(ref),
             "op_s": _percentiles(times), "op_s_all": times,
             "reference_s": _percentiles(ref),
             "classifier_accuracy": statistics.fmean(classifier) if classifier else None}
    return metrics, extra


def measure_traced(runner, seconds, spans_path):
    """Alternate untraced and traced ops; per-layer metrics come from the traced."""
    from tracing import LAYERS, OP, Tracer

    tracer = Tracer()
    untraced, traced = [], []
    matched = checked = 0

    def step(i):
        nonlocal matched, checked
        if i % 2 == 0:
            t = runner.run(i // 2)
            if t is not None:
                untraced.append(t)
            return
        t = runner.run(i // 2, tracer)
        if t is not None:
            traced.append(t)
        m, c = tracer.check_tables()
        matched += m
        checked += c

    closed_loop(seconds, step, 2 * MIN_OPS)
    runner.check_band()
    if not traced or not untraced:
        return None, {}
    ops = sum(1 for s in tracer.spans if s[0] == OP)
    metrics, self_total = tracer.layer_metrics(ops)
    root_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == OP)
    metrics["knn.check_ok"] = (matched / checked if checked else 1.0, "fraction")
    metrics["knn.check_rows"] = (checked / ops, "count")
    metrics["trace.op_s"] = (root_total / ops, "s")
    # Work the wrappers miss shows up as a layer share below 1.
    layer_s = sum(metrics[name + ".self_s"][0] for name in LAYERS)
    metrics["trace.layer_share"] = (layer_s * ops / root_total, "fraction")
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                 "ratio")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"spans": tracer.dump(), "counts": tracer.counts}))
    extra = {"self_s_sum": self_total, "traced_op_s_sum": root_total,
             "untraced_op_s": _percentiles(untraced), "traced_op_s": _percentiles(traced),
             "spans_file": str(spans_path.relative_to(ROOT))}
    if checked and matched != checked:
        _fail(f"k-NN spot check: {matched} of {checked} rows match the exact scan")
        extra["correct"] = False
    if abs(self_total - root_total) > 1e-6 * max(root_total, 1.0):
        _fail(f"layer self times sum to {self_total} s, traced ops took {root_total} s")
        extra["correct"] = False
    return metrics, extra


def _import_probe():
    """Seconds for a fresh interpreter to start, import icut and exit."""
    t0 = time.time()
    subprocess.run([sys.executable, "-c", "import icut"], cwd=ROOT, check=True)
    return time.time() - t0


def set_up(workload, seed, work, import_s):
    """Prepare the inputs and warm up; returns (inputs, setup_s, detail).

    Start-up and import is timed in this process and in fresh
    interpreters, and input preparation plus a warm-up op on small
    inputs is repeated; setup_s is the sum of the two medians and of one
    full-size warm-up op, so caches filled on first use count as set-up.
    """
    from workloads import data_seeds

    warm_seed = data_seeds(seed)[0]
    imports = [import_s] + [_import_probe() for _ in range(SETUP_ROUNDS - 1)]
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        inputs = workload.prepare(seed, str(work / "inputs"), False)
        small = workload.prepare(seed, str(work / "small"), True)
        workload.op(small, warm_seed, str(work / "warm-out"))
        rounds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.op(inputs, warm_seed, str(work / "warm-out"))
    warm_op = time.perf_counter() - t0
    setup_s = statistics.median(imports) + statistics.median(rounds) + warm_op
    return inputs, setup_s, {"import_s": imports, "rounds_s": rounds, "warm_op_s": warm_op}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    args = parser.parse_args(argv)

    import icut

    if not Path(icut.__file__).resolve().is_relative_to(ROOT / "src"):
        _fail(f"icut was imported from {icut.__file__}, not from this checkout's src/")
        return 1
    import_s = time.time() - args.spawn_time

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{workload.name}-{os.getpid()}"
    try:
        inputs, setup_s, setup_detail = set_up(workload, args.seed, work, import_s)
        runner = Runner(workload, args.seed, inputs, str(work / "out"))
        if args.trace:
            spans = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.json"
            metrics, extra = measure_traced(runner, args.seconds, spans)
        else:
            metrics, extra = measure(runner, args.seconds)
            if metrics is not None:
                metrics["setup_s"] = (setup_s * extra["host_scale"], "s")
                setup_detail["raw_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        _fail("no op succeeded")
        return 1

    correct = runner.failed == 0 and extra.pop("correct", True)
    summary = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "data_seeds": runner.data_seeds, "ops": runner.attempted,
        "error_rate": runner.failed / runner.attempted,
        "setup": setup_detail,
        "report_sha256": {str(k): v for k, v in runner.digests.items()},
        **extra, "environment": environment(),
    }
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": bool(correct), "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
