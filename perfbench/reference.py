"""Reference figures: single operations too long for a steady benchmark run.

    python3 perfbench/reference.py torus --n 5                 # T^10 analyze
    python3 perfbench/reference.py torus --n 6 --max-gb 3      # T^12 analyze
    python3 perfbench/reference.py spectral --t 80             # degree 1, t = 80
    python3 perfbench/reference.py spectral --t 40 --blas-threads 1

Each command times one operation the way the benchmark issues it (in-process
``conemorse.cli.main`` on a datum written by the ``families`` generators),
checks its output against ``oracles`` and prints one JSON line with the wall
time, the peak resident memory and the settings.  ``--max-gb`` caps this
process's data segment, so an operation that would exhaust memory fails with
MemoryError instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("torus", "spectral"))
    parser.add_argument("--n", type=int, default=5, help="torus: T^{2n}")
    parser.add_argument("--t", type=float, default=80.0, help="spectral: deformation")
    parser.add_argument("--blas-threads", type=int, default=min(2, len(os.sched_getaffinity(0))))
    parser.add_argument("--max-gb", type=float, default=None)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)  # before numpy is imported
    if args.max_gb:
        limit = int(args.max_gb * 2**30)
        resource.setrlimit(resource.RLIMIT_DATA, (limit, limit))

    from workload import SpectralLarge, Workload, import_program  # noqa: E402
    import oracles  # noqa: E402

    prog = import_program()
    work = Path(__file__).resolve().parent.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        workload = Workload(prog, 0, Path(tmp))
        if args.what == "torus":
            workload.add_analyze("torus", prog["families"].torus(args.n), oracles.torus_rows(args.n))
        else:
            workload = SpectralLarge(prog, 0, Path(tmp))
            workload.add_spectral("spectral", args.t, [1])
        op = workload.ops[0]
        start = time.perf_counter()
        output = op.run()
        seconds = time.perf_counter() - start
        problems = workload.check(op.key, output) if output[0] == 0 else [f"exit {output[0]}"]
    print(
        json.dumps(
            {
                "what": args.what,
                "n": args.n if args.what == "torus" else None,
                "t": args.t if args.what == "spectral" else None,
                "cutoff": None
                if args.what == "torus"
                else prog["spectral"].suggested_cutoff(args.t),
                "blas_threads": args.blas_threads,
                "seconds": seconds,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "correct": not problems,
                "problems": problems[:5],
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
