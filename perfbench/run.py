"""The conemorse benchmark: one workload per invocation, each in fresh processes.

    python3 perfbench/run.py --workload exact-torus --seed 1 --seconds 25 --trace 0

Set-up is measured in SETUP_RUNS fresh processes that stop after set-up, and
once more in the process that then runs the timed loop; ``setup_s`` is the
median of those.  Every time metric is scaled to a reference machine speed by
the calibration tasks of ``calibration.py``; the raw medians are kept in the
record.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full record,
with versions, thread count, seed and commit, is also written under
``.perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-torus", "exact-batch", "spectral-large", "spectral-small")
SETUP_RUNS = 2  # set-up-only processes per run, besides the measuring one
BLAS_THREADS = 2  # capped at nproc
SETUP_TIMEOUT_S = 20
# Set-up is scaled like the operations (see calibration.py): each set-up process
# is paired with a fresh interpreter that imports the libraries the benchmark
# imports, run just before it, and SETUP_REFERENCE_S is that import's time at
# the reference speed.
SETUP_CALIBRATION = "import fractions, json, numpy, scipy.linalg, scipy.sparse"
SETUP_REFERENCE_S = 0.40
# The measuring process may overrun --seconds by one slow round (a spectral-large
# operation takes up to 10 s) plus set-up and output checking.  With --seconds 25
# a whole run, set-up processes included, ends within 180 s.
CHILD_MARGIN_S = 90


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(blas_threads):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args, work_dir, env, setup_only, timeout):
    """One workload.py process; returns its JSON record or exits on failure."""
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload}: a workload process ran past {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{args.workload}: workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def setup_calibration(env):
    """Seconds a fresh interpreter takes to run SETUP_CALIBRATION."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CALIBRATION], env=env, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S
    )
    return time.perf_counter() - start


def commit():
    """The git commit of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except subprocess.TimeoutExpired:
        return None
    return out.stdout.strip() or None


def source_digest():
    """SHA-256 over the program's source files, to tell versions apart without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "conemorse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def end_to_end(record, setups):
    """The gated metrics, every time at the reference speed (see calibration.py)."""
    scaled = [t * c for t, c in zip(record["op_times"], record["op_scales"]) if t == t]
    return {
        "setup_s": {
            "value": statistics.median(s * SETUP_REFERENCE_S / c for s, c in setups),
            "unit": "s",
        },
        "op_median_s": {"value": statistics.median(scaled), "unit": "s"},
        "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "ops/s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(record):
    """Layer metrics, and the tracing overhead from alternating round pairs.

    Each traced round follows an untraced round; the median over pairs of
    (traced round median - untraced round median), both scaled to the
    reference speed, cancels the machine's drift.
    """
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in record["layers"].items()}
    n = record["ops_per_round"]
    plain = [t * c for t, c in zip(record["op_times"], record["op_scales"])]
    traced = [t * c for t, c in zip(record["traced_times"], record["traced_scales"])]
    diffs = []
    for i in range(0, len(plain), n):
        a = [t for t in plain[i : i + n] if t == t]
        b = [t for t in traced[i : i + n] if t == t]
        if a and b:
            diffs.append(statistics.median(b) - statistics.median(a))
    metrics["trace.overhead_s"] = {"value": statistics.median(diffs), "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "conemorse" / "__init__.py").is_file():
        sys.exit(f"no program source under {ROOT / 'src'}: nothing to measure")

    blas_threads = min(BLAS_THREADS, nproc())
    env = child_env(blas_threads)
    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    try:
        setups = []  # (set-up seconds, calibration seconds just before it)
        for _ in range(SETUP_RUNS):
            calibration = setup_calibration(env)
            setups.append((run_child(args, work_dir, env, True, SETUP_TIMEOUT_S)["setup_s"], calibration))
        calibration = setup_calibration(env)
        record = run_child(args, work_dir, env, False, args.seconds + CHILD_MARGIN_S)
        setups.append((record["setup_s"], calibration))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(record["failures"])
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": per_layer(record) if args.trace else end_to_end(record, setups),
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        **record["versions"],
        "platform": platform.platform(),
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "clients": 1,
        "raw_setup_s": statistics.median(s for s, _ in setups),
        "raw_op_median_s": statistics.median(t for t in record["op_times"] if t == t),
        "setup_runs_s": [s for s, _ in setups],
        "setup_calibrations_s": [c for _, c in setups],
        "ops_per_round": record["ops_per_round"],
        "op_times_s": record["op_times"],
        "op_scales": record["op_scales"],
        "calibrations": record.get("calibrations"),
        "traced_op_times_s": record.get("traced_times"),
        "failures": record["failures"][:20],
        "problems": record["problems"][:20],
        "result": result,
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    for line in record["problems"][:20] + record["failures"][:20]:
        print(line, file=sys.stderr)
    print(json.dumps({key: full[key] for key in ("commit", "source_sha256", "python", "numpy", "scipy", "nproc", "blas_threads", "seed", "raw_setup_s", "raw_op_median_s")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
