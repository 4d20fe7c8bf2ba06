"""One workload in one fresh process: set up, time operations, check outputs.

``run.py`` starts this module as a child process with the BLAS thread count
and ``PYTHONPATH`` fixed; it prints one JSON line with the raw figures.  A
single caller issues operations back to back (a closed loop with one client).
Every operation goes through a public name of the program: ``cli.main``
in-process, the ``families``/``fuzz``/``morse`` generators, and the public
``spectral`` functions.  Outputs are kept and checked against ``oracles``
after the timed loop, so checking costs no operation time.

    python3 perfbench/workload.py --workload exact-torus --seed 1 --seconds 20 \
        --trace 0 --work-dir .perfbench/work --t0 <perf_counter at launch>
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import random
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

T_IMPORT = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402  (the benchmark's own modules)
import oracles  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer  # noqa: E402

QUASIMODE_T, QUASIMODE_CUTOFF = 20.0, 14
QUASIMODE_CASES = [  # (critical point, kind, cone degree = index + kind - 1)
    (point, kind, index + kind - 1)
    for point, index in (("q0", 0), ("q1", 1), ("q2", 1), ("q12", 2))
    for kind in (1, 2)
]


def import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "conemorse" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {src}/conemorse")
    sys.path.insert(0, str(src))
    import conemorse

    if Path(conemorse.__file__).resolve().parent != (src / "conemorse").resolve():
        raise SystemExit(f"conemorse imported from {conemorse.__file__}, not from {src}")
    from conemorse import cli, families, fuzz, morse, spectral

    return {"cli": cli, "families": families, "fuzz": fuzz, "morse": morse, "spectral": spectral}


class Op:
    """One operation: a key naming its input, and a callable returning its output."""

    def __init__(self, key, run):
        self.key = key
        self.run = run


class Workload:
    """Inputs, operations and checks of one workload."""

    calibration = "fraction"  # the task of `calibration` that tracks its speed

    def __init__(self, prog, seed, work_dir):
        self.prog = prog
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.tracer = None  # set while a traced loop runs
        self.ops = []  # one round, in order
        self.expected = {}  # key -> expected rows, or the datum file to derive them from

    # -- driving the program ----------------------------------------------

    def cli(self, argv):
        """conemorse.cli.main(argv) in-process; returns (exit code, stdout text)."""
        buf = io.StringIO()
        if self.tracer is not None:  # writing the report is part of emitting it
            buf.write = self.tracer.wrap(buf.write, "cli.emit")
        with contextlib.redirect_stdout(buf):
            code = self.prog["cli"].main(argv)
        return code, buf.getvalue()

    def write_datum(self, name, datum):
        path = self.work_dir / f"{name}.json"
        path.write_text(self.prog["cli"].emit_datum(datum))
        return str(path)

    def add_analyze(self, key, datum, expected=None):
        """One `analyze` operation; without `expected` rows, checking derives
        them from the written datum file."""
        path = self.write_datum(key, datum)
        self.ops.append(Op(key, lambda: self.cli(["analyze", path, "--format", "json"])))
        self.expected[key] = path if expected is None else expected

    def warm_up(self):
        path = self.write_datum("warm-up", self.prog["families"].projective_space(1))
        code, _ = self.cli(["analyze", path, "--format", "json"])
        if code != 0:
            raise SystemExit(f"warm-up analyze exited {code}")

    # -- checking -------------------------------------------------------------

    def check(self, key, output):
        """Problems with one successful operation's output (exit code already 0)."""
        expected = self.expected[key]
        if isinstance(expected, str):
            expected = self.expected[key] = oracles.datum_rows(json.loads(Path(expected).read_text()))
        return oracles.check_report(json.loads(output[1]), expected)


class ExactTorus(Workload):
    """analyze --format json on the T^8 datum, 256 generators."""

    def generate(self):
        families = self.prog["families"]
        self.add_analyze("t8", families.torus(4), oracles.torus_rows(4))


COBOUNDARY = {
    "format": "cone-morse-datum/1",
    "name": "coboundary",
    "manifold_dim": 2,
    "p": 0,
    "generators": [{"id": "x", "index": 0}, {"id": "y", "index": 1}, {"id": "z", "index": 2}],
    "boundary": [{"from": "y", "to": "z", "coeff": "1"}],
    "cone_map": [{"from": "x", "to": "z", "coeff": "3/2"}],
}


class ExactBatch(Workload):
    """analyze over a seeded batch of small data, one round = one pass.

    The 24 K3-bundle data cost about the same and sit in the middle of the
    batch's cost order, with 16 fixed data below and 9 above.  The 12 seeded
    data then cannot move the median operation out of that cluster.
    """

    def generate(self):
        families, morse, fuzz = self.prog["families"], self.prog["morse"], self.prog["fuzz"]
        for n in range(1, 5):
            for p in range(n):
                self.add_analyze(
                    f"cp{n}-p{p}", families.projective_space(n, p), oracles.projective_rows(n, p)
                )
        for rho in range(24):
            self.add_analyze(
                f"k3-rank{rho}", families.s2_bundle_over_k3(rho), oracles.k3_bundle_rows(rho)
            )
        for n in (2, 3):
            for k in range(2 * n):
                self.add_analyze(
                    f"t{2 * n}-stab{k}",
                    morse.stabilize(families.torus(n), k, f"s{k}"),
                    oracles.stabilized_rows(oracles.torus_rows(n), k),
                )
        t2, t4 = families.torus(1), families.torus(2)
        for key, datum, n in (
            ("t2xt2", morse.product(t2, t2), 2),
            ("t2xt4", morse.product(t2, t4), 3),
            ("t4xt2", morse.product(t4, t2), 3),
            ("t2xt2xt2", morse.product(morse.product(t2, t2), t2), 3),
        ):
            self.add_analyze(key, datum, oracles.torus_rows(n))
        for i in range(4):
            n = self.rng.randint(1, 3)
            p = self.rng.randint(0, min(1, n - 1))
            shift = 2 * p + 2
            betti = [1] + [self.rng.randint(0, 5) for _ in range(2 * n - 1)] + [1]
            ranks = [
                self.rng.randint(0, min(b, betti[k + shift])) if k + shift <= 2 * n else 0
                for k, b in enumerate(betti)
            ]
            self.add_analyze(
                f"synthetic{i}",
                families.synthetic_from_rank_profile(betti, ranks, p=p, name=f"synthetic{i}"),
                oracles.profile_rows(betti, ranks, p),
            )
        # x -> 3/2 z with dy = z: the chain map sends a cocycle to a coboundary,
        # so r differs from v on every seed, not only where the fuzzer finds it
        self.add_analyze("coboundary", self.prog["cli"].datum_from_dict(COBOUNDARY))
        for i in range(8):  # small, so the seed moves a round's cost by about 2%
            _, phi = fuzz.random_complex_with_chain_map(
                self.rng, max_degrees=4, max_dim=6, shift=self.rng.choice((2, 4))
            )
            self.add_analyze(f"fuzz{i}", morse.datum_from_chain_map(phi, name=f"fuzz{i}"))
        self.rng.shuffle(self.ops)


SPECTRAL_LINE = re.compile(
    r"degree (\d): (\d+) low eigenvalue\(s\), gap = (\S+), cluster ratio = (\S+)"
)


class SpectralWorkload(Workload):
    calibration = "eigh"

    def warm_up(self):
        code, _ = self.cli(["spectral", "--t", "2", "--cutoff", "4", "--degrees", "0"])
        if code != 0:
            raise SystemExit(f"warm-up spectral exited {code}")

    def add_spectral(self, key, t, degrees, cutoff=None):
        """One `spectral` operation; `degrees` is "all" or a list of cone degrees."""
        argv = ["spectral", "--t", str(t)]
        if cutoff is not None:
            argv += ["--cutoff", str(cutoff)]
        spelled = degrees if degrees == "all" else ",".join(map(str, degrees))
        argv += ["--degrees", spelled, "--emit", "-"]
        self.ops.append(Op(key, lambda: self.cli(argv)))
        self.expected[key] = (t, [0, 1, 2, 3] if degrees == "all" else list(degrees))

    def check(self, key, output):
        if isinstance(key, tuple):  # a quasimode
            return oracles.check_quasimode(output, self.lowest(key[2]))
        t, wanted = self.expected[key]
        lines = output[1].splitlines()
        values = {}
        for line in lines:
            parts = line.split(",")
            if len(parts) == 3 and parts[0].isdigit():
                values.setdefault(int(parts[0]), []).append(float(parts[2]))
        problems, seen = [], []
        for line in lines:
            match = SPECTRAL_LINE.fullmatch(line)
            if match:
                degree, count, gap = int(match[1]), int(match[2]), float(match[3])
                seen.append(degree)
                problems += oracles.check_spectrum(
                    degree, t, sorted(values.get(degree, [])), count, gap
                )
        if sorted(seen) != sorted(wanted):
            problems.append(f"degree lines for {seen}, expected each of {wanted} once")
        if sorted(values) != sorted(wanted):
            problems.append(f"eigenvalue rows for degrees {sorted(values)}, expected {wanted}")
        return problems


class SpectralLarge(SpectralWorkload):
    """Cone degree 1 at t = 40 and the suggested cutoff (N = 19, 4563 unknowns)."""

    def generate(self):
        self.add_spectral("t40-degree1", 40, [1])


class SpectralSmall(SpectralWorkload):
    """All degrees at t = 10, N = 10, and the eight quasimodes at t = 20, N = 14."""

    def generate(self):
        spectral = self.prog["spectral"]
        self.add_spectral("t10-all", 10, "all", cutoff=10)
        for point, kind, degree in QUASIMODE_CASES:

            def run(point=point, kind=kind, degree=degree):
                prob = spectral.SpectralProblem(QUASIMODE_T, QUASIMODE_CUTOFF, degree)
                return spectral.quasimode(prob, point, kind).rayleigh

            self.ops.append(Op((point, kind, degree), run))
        self.rng.shuffle(self.ops)
        self._lowest = {}

    def lowest(self, degree):
        if degree not in self._lowest:
            spectral = self.prog["spectral"]
            prob = spectral.SpectralProblem(QUASIMODE_T, QUASIMODE_CUTOFF, degree)
            self._lowest[degree] = float(spectral.low_spectrum(prob, 1)[0])
        return self._lowest[degree]


WORKLOADS = {
    "exact-torus": ExactTorus,
    "exact-batch": ExactBatch,
    "spectral-large": SpectralLarge,
    "spectral-small": SpectralSmall,
}


def timed_rounds(workload, seconds, speed, tracer=None):
    """Whole rounds of the workload's operations until `seconds` have passed.

    Returns (per-operation seconds, calibrations, (key, output or None) per
    operation, failures).  An operation fails when it raises or exits non-zero.
    The calibration task `speed` runs before the first operation, after any
    operation that ends `calibration.INTERVAL_S` or more after the last
    calibration, and after the last operation; each calibration is recorded as
    (operations before it, seconds).
    """
    times, outputs, failures = [], [], []
    calibrations = [(0, speed.time())]
    since = time.perf_counter()
    deadline = since + seconds
    while True:
        for op in workload.ops:
            try:
                if tracer is None:
                    began = time.perf_counter()
                    out = op.run()
                    times.append(time.perf_counter() - began)
                else:
                    out, elapsed = tracer.root(op.run)
                    times.append(elapsed)
            except Exception as exc:  # one failing operation must not end the run
                times.append(float("nan"))
                outputs.append((op.key, None))
                failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if time.perf_counter() - since >= calibration.INTERVAL_S:
                    calibrations.append((len(times), speed.time()))
                    since = time.perf_counter()
            if isinstance(out, tuple) and isinstance(out[0], int) and out[0] != 0:
                outputs.append((op.key, None))
                failures.append(f"{op.key}: exit code {out[0]}")
                continue
            outputs.append((op.key, out))
        if time.perf_counter() >= deadline:
            if calibrations[-1][0] < len(times):
                calibrations.append((len(times), speed.time()))
            return times, calibrations, outputs, failures


def alternating_rounds(workload, seconds, speed):
    """Untraced and traced rounds in turn until `seconds` have passed.

    Alternating puts both kinds of round in the same stretch of machine speed,
    so the difference of their scaled medians is the tracing overhead.
    """
    tracer = Tracer()
    times, scales, outputs, failures, traced_times, traced_scales = [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        t, c, o, f = timed_rounds(workload, 0, speed)
        scales += calibration.op_scales(c, speed.reference_s)
        times += t
        outputs += o
        failures += f
        with tracer:
            workload.tracer = tracer
            t, c, o, f = timed_rounds(workload, 0, speed, tracer)
            workload.tracer = None
        traced_times += t
        traced_scales += calibration.op_scales(c, speed.reference_s)
        outputs += o
        failures += f
        if time.perf_counter() - start >= seconds:
            return times, scales, outputs, failures, tracer, traced_times, traced_scales


def check_outputs(workload, outputs):
    """Problems over all successful operations; identical outputs are judged once."""
    verdicts, problems = {}, []
    for key, out in outputs:
        if out is None:
            continue
        cache_key = (key, repr(out))
        if cache_key not in verdicts:
            verdicts[cache_key] = [f"{key}: {p}" for p in workload.check(key, out)]
            problems += verdicts[cache_key]
    return problems


def layer_metrics(tracer, ops, families_tracer):
    """Per-operation self times and counts of a traced loop."""
    per_op = lambda x: x / ops  # noqa: E731
    out = {}
    for layer in (
        "cli.main",
        "cli.load_datum",
        "cli.emit",
        "morse.validate_datum",
        "morse.morse_complex",
        "inequalities.cone_report",
        "complexes.cohomology",
        "complexes.induced_map_ranks",
        "complexes.mapping_cone",
        "complexes.validate",
        "ratlinalg.eliminate",
        "ratlinalg.matmul",
        "spectral.report",
        "spectral.assemble",
        "spectral.eigensolve",
        "spectral.quasimode",
    ):
        out[f"{layer}.self_s"] = (per_op(tracer.self_s[layer]), "s")
    for layer in (
        "morse.validate_datum",
        "complexes.cohomology",
        "complexes.validate",
        "ratlinalg.eliminate",
        "ratlinalg.matmul",
        "spectral.assemble",
    ):
        out[f"{layer}.calls"] = (per_op(tracer.calls[layer]), "count")
    out["ratlinalg.eliminate.entries"] = (per_op(tracer.entries), "count")
    out["families.self_s"] = (families_tracer.self_s["families"], "s")
    reports = tracer.calls["spectral.report"]
    solves = tracer.calls["spectral.eigensolve"]
    out["spectral.solves_per_report"] = (solves / reports if reports else 0.0, "count")
    out["spectral.unknowns"] = (tracer.max_unknowns, "count")
    out["spectral.form_bytes"] = (tracer.max_form_bytes, "bytes")
    out["trace.unattributed_s"] = (per_op(tracer.self_s[ROOT_SPAN]), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--t0", type=float, default=None, help="perf_counter when launched")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t0 = T_IMPORT if args.t0 is None else args.t0

    args.work_dir.mkdir(parents=True, exist_ok=True)
    prog = import_program()
    workload = WORKLOADS[args.workload](prog, args.seed, args.work_dir)
    families_tracer = Tracer({"families"})
    if args.trace:
        with families_tracer:
            workload.generate()
    else:
        workload.generate()
    workload.warm_up()
    setup_s = time.perf_counter() - t0
    result = {
        "setup_s": setup_s,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    speed = calibration.Calibration(workload.calibration)
    if args.trace:
        times, scales, outputs, failures, tracer, traced_times, traced_scales = alternating_rounds(
            workload, args.seconds, speed
        )
    else:
        times, calibrations, outputs, failures = timed_rounds(workload, args.seconds, speed)
        scales = calibration.op_scales(calibrations, speed.reference_s)
        result["calibrations"] = calibrations
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        op_times=times, op_scales=scales, peak_rss_mb=peak_rss_mb, ops_per_round=len(workload.ops)
    )
    if args.trace:
        layers = layer_metrics(tracer, len(traced_times), families_tracer)
        good = [t for t in traced_times if t == t]
        layers["trace.op_s"] = (sum(good) / len(good) if good else 0.0, "s")
        layers["trace.op_median_s"] = (statistics.median(good) if good else 0.0, "s")
        result.update(layers=layers, traced_times=traced_times, traced_scales=traced_scales)
    problems = check_outputs(workload, outputs)
    result.update(attempted=len(outputs), failures=failures, problems=problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
