"""Curation benchmark for icut: one workload per call, in a fresh process.

    python3 perfbench/run.py --workload external-ksweep --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout.  The workload runs in a child
process (``session.py``) that imports icut from this checkout's ``src/``
and uses no threads beyond numpy's BLAS.  With ``--trace 0`` the last
line of standard output carries the end-to-end metrics, their times
scaled to a fixed reference speed of the host (see ``session.py``); with
``--trace 1`` it carries the per-layer metrics of a traced run.  The line
before it is a summary: raw op-time percentiles, the reference times,
error rate, report digests and the machine and library versions the
run saw.

Workloads: orth-l2norm-perm-baselines, external-ksweep
(see ``workloads.py`` and ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawn-time", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"benchmark: workload process ran past {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        print(f"benchmark: workload process exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
