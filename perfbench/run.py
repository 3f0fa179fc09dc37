"""Benchmark of ris_ssk Monte Carlo sweeps; see README.md in this directory.

    python3 perfbench/run.py --workload pb-sweep --seed 1 --seconds 20 --trace 0

Builds nothing: it runs the package from ``src/`` of the checkout it sits
in.  This launcher imports no numpy.  It measures set-up time in fresh
interpreters, starts the measuring process, and prints the metrics, the
environment and, as its last line, one JSON object.  Every process it
starts gets BLAS thread pools of one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TIMEOUT_S = 170

_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({k: "1" for k in _ONE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def environment() -> dict:
    """Where this run ran: commit, interpreter, cores and CPU model."""
    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def run_child(args: list[str], env: dict[str, str]) -> dict:
    """Run a Python script of this directory; return the JSON of its last line."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ris_ssk" / "__init__.py").is_file():
        print(f"no ris_ssk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    seed = str(args.seed)
    try:
        setup = [
            run_child([str(HERE / "probe.py"), args.workload, seed], env)["setup_s"]
            for _ in range(SETUP_PROBES if not args.trace else 0)
        ]
        result = run_child([str(HERE / "measure.py"), args.workload, seed, str(args.seconds), str(args.trace)], env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    env_record = {**environment(), **result["versions"], "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "blas_threads": 1}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    if setup:
        print(f"setup_s is the median of {len(setup)} fresh interpreters: "
              + ", ".join(f"{s:.4f}" for s in setup))
    for note in result["notes"]:
        print(note)
    print("env " + json.dumps(env_record))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
