"""Command-line interface and the JSON datum interchange format.

Commands: example, validate, analyze, cone, spectral.  `analyze` prints the
inequality report of `cone_report`; `cone` prints that report's cone
cohomology b^w, which `cone_report` has already computed both from the rank
formula and from the cone complex and found to agree.  Exit codes are part of
the contract: 0 ok, 1 datum validation failure, 2 usage/parse error, 3
negative-slack anomaly in a report, 4 the spectral computation could not be
resolved (inadequate resolution, or a failed factorization or eigensolve), 5
internal error (two computations of the same quantity disagree, a cone of
checked inputs does not square to zero, or matrix shapes disagree inside the
exact algebra).  `spectral --emit` writes the lowest 4 eigenvalues per cone
degree.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    AdequacyError,
    ConsistencyError,
    DegreeError,
    InvalidDatumError,
    RemainderError,
    ShapeError,
    SolverError,
    UnknownIdError,
    UsageError,
)
from .families import hard_lefschetz_ranks, projective_space, synthetic_from_rank_profile, torus
from .inequalities import cone_report, report_to_csv, report_to_json, report_to_text
from .morse import CriticalPoint, MorseDatum, product, stabilize, validate_datum
from .ratlinalg import _INTEGER, format_rat, rat

FORMAT_TAG = "cone-morse-datum/1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_ANOMALY = 3
EXIT_ADEQUACY = 4
EXIT_INTERNAL = 5


class DatumParseError(ValueError):
    pass


def datum_to_dict(d: MorseDatum) -> dict:
    return {
        "format": FORMAT_TAG,
        "name": d.name,
        "manifold_dim": d.manifold_dim,
        "p": d.p,
        "generators": [{"id": q.id, "index": q.index} for q in d.points],
        "boundary": [
            {"from": s, "to": t, "coeff": format_rat(v)} for s, t, v in d.boundary
        ],
        "cone_map": [
            {"from": s, "to": t, "coeff": format_rat(v)} for s, t, v in d.cone_map
        ],
        "metadata": dict(d.metadata),
    }


def _integer(value, what: str) -> int:
    """An int (not a bool) or an ASCII -?[0-9]+ string, the grammar of integral coefficients."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(value)
    raise DatumParseError(f"{what} must be an integer, got {value!r}")


def datum_from_dict(doc: dict) -> MorseDatum:
    if not isinstance(doc, dict):
        raise DatumParseError("datum document must be a JSON object")
    tag = doc.get("format")
    if tag != FORMAT_TAG:
        raise DatumParseError(f"unsupported format tag {tag!r}, expected {FORMAT_TAG!r}")
    try:
        points = []
        for g in doc["generators"]:
            ident, index = g["id"], g["index"]
            ident = ident if type(ident) is str else str(ident)
            # the label is formatted only for a non-int index; _integer refuses a bool
            if type(index) is not int:
                index = _integer(index, f"index of {g['id']!r}")
            points.append(CriticalPoint(ident, index))

        parsed = {}  # coefficient string -> exact rational, each coerced once

        def coeffs(key):
            out = []
            for entry in doc.get(key, []):
                value = entry["coeff"]
                text = type(value) is str
                if not text and isinstance(value, (float, bool)):
                    why = "floats are not exact" if isinstance(value, float) else "booleans are not numbers"
                    raise DatumParseError(f"invalid rational {value!r}: {why}")
                src, dst = entry["from"], entry["to"]
                if type(src) is not str or type(dst) is not str:
                    src, dst = str(src), str(dst)
                if not text:
                    q = rat(value)
                elif (q := parsed.get(value)) is None:
                    q = parsed[value] = rat(value)
                out.append((src, dst, q))
            return tuple(out)

        return MorseDatum(
            manifold_dim=_integer(doc["manifold_dim"], "manifold_dim"),
            points=tuple(points),
            boundary=coeffs("boundary"),
            cone_map=coeffs("cone_map"),
            p=_integer(doc.get("p", 0), "p"),
            name=str(doc.get("name", "")),
            metadata=dict(doc.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DatumParseError):
            raise
        raise DatumParseError(f"malformed datum: {exc}") from exc


def emit_datum(d: MorseDatum) -> str:
    return json.dumps(datum_to_dict(d), indent=2, sort_keys=False) + "\n"


def load_datum(path: str) -> MorseDatum:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DatumParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatumParseError(f"{path} is not valid JSON: {exc}") from exc
    return datum_from_dict(doc)


def _write_output(text: str, path, quiet: bool) -> None:
    if path and path != "-":
        try:
            with open(path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from exc
        if not quiet:
            print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _parse_int_list(raw: str, what: str) -> list:
    """A comma list of ASCII -?[0-9]+ items, blanks around them and empty items skipped."""
    items = [x.strip() for x in raw.split(",")]
    if not all(_INTEGER.fullmatch(x) for x in items if x):
        raise DatumParseError(f"invalid {what} list {raw!r}")
    return [int(x) for x in items if x]


def _ascii_int(raw: str) -> int:
    """An integer option: ASCII -?[0-9]+ with blanks around it allowed, the grammar of the comma lists."""
    if not _INTEGER.fullmatch(raw.strip()):
        raise argparse.ArgumentTypeError(f"invalid integer {raw!r}")
    return int(raw)


def _cmd_example(args) -> int:
    if args.family == "torus":
        datum = torus(args.n, args.pairing)
    elif args.family == "cpn":
        datum = projective_space(args.n, args.p)
    elif args.family == "synthetic":
        betti = _parse_int_list(args.betti, "betti")
        if args.hard_lefschetz:
            ranks = hard_lefschetz_ranks(betti, p=args.p)
        elif args.ranks is not None:
            ranks = _parse_int_list(args.ranks, "rank")
        else:
            raise DatumParseError("synthetic needs --ranks or --hard-lefschetz")
        datum = synthetic_from_rank_profile(betti, ranks, p=args.p, name=args.name)
    elif args.family == "product":
        if not args.left or not args.right:
            raise DatumParseError("product needs --left and --right datum files")
        datum = product(load_datum(args.left), load_datum(args.right))
    elif args.family == "stabilize":
        if not args.input:
            raise DatumParseError("stabilize needs --input")
        datum = stabilize(load_datum(args.input), args.degree, args.label)
    else:  # pragma: no cover - argparse restricts choices
        raise DatumParseError(f"unknown family {args.family!r}")
    violation = validate_datum(datum)
    if violation is not None:
        print(f"generated datum fails validation: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_output(emit_datum(datum), args.output, args.quiet)
    return EXIT_OK


def _cmd_validate(args) -> int:
    datum = load_datum(args.input)
    violation = validate_datum(datum)
    if violation is not None:
        print(f"INVALID: {violation}")
        return EXIT_VALIDATION
    if not args.quiet:
        m = datum.counts()
        print(f"ok: {datum.name or args.input} with m = {m}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    report = cone_report(load_datum(args.input))
    if args.format == "json":
        text = report_to_json(report)
    elif args.format == "csv":
        text = report_to_csv(report)
    else:
        text = report_to_text(report)
    _write_output(text, args.output, args.quiet)
    return EXIT_ANOMALY if report.anomalous else EXIT_OK


def _cmd_cone(args) -> int:
    # cone_report raises ConsistencyError unless the two computations agree
    b_omega = cone_report(load_datum(args.input)).b_omega
    print(f"cone cohomology (direct):        {b_omega}")
    print(f"cone cohomology (decomposition): {b_omega}")
    if not args.quiet:
        print("decomposition agrees with the direct cone computation")
    return EXIT_OK


def _cmd_spectral(args) -> int:
    # numpy and the spectral side load here, so the exact commands never import them
    from .spectral import eigenvalues_to_csv, gap_growth, gap_growth_to_csv, spectral_reports

    if not args.t:
        raise DatumParseError("spectral needs at least one --t")
    if args.degrees == "all":
        degrees = [0, 1, 2, 3]
    else:
        degrees = _parse_int_list(args.degrees, "degree")
        for k in degrees:
            if k not in (0, 1, 2, 3):
                raise DatumParseError(f"cone degree {k} outside 0..3")
        if not degrees:
            raise DatumParseError("spectral needs at least one cone degree")
    try:
        if args.gap_growth:
            if args.emit and len(degrees) > 1:
                raise DatumParseError("--emit with --gap-growth takes a single cone degree")
            fits = gap_growth(args.t, args.cutoff, degrees, args.morse_scale)
            for k, result in fits.items():
                for t, n, g in zip(result.t_values, result.cutoffs, result.gaps):
                    print(f"degree {k}: t = {t:g}  cutoff = {n}  gap = {g:.9e}")
                flag = "  (degenerate fit: no spread in t)" if result.degenerate else ""
                print(f"degree {k}: gap slope = {result.slope:.9e}{flag}")
            if args.emit:
                _write_output(gap_growth_to_csv(fits[degrees[0]]), args.emit, args.quiet)
            return EXIT_OK
        if len(args.t) != 1:
            raise DatumParseError("multiple --t values require --gap-growth")
        reports = spectral_reports(args.t[0], args.cutoff, degrees, args.morse_scale)
        for k, rep in reports.items():
            print(
                f"degree {k}: {rep.low_count} low eigenvalue(s), gap = {rep.gap:.9e}, "
                f"cluster ratio = {rep.cluster_ratio:.3e}"
            )
        if args.emit:
            _write_output(eigenvalues_to_csv(list(reports.values())), args.emit, args.quiet)
        return EXIT_OK
    except AdequacyError as exc:
        print(f"inadequate resolution: {exc}", file=sys.stderr)
        return EXIT_ADEQUACY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; built once, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="conemorse",
        description="Cone Morse cohomology: exact inequality reports and deformed-cone spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=False):
        if output:
            p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress chatter")

    p_example = sub.add_parser("example", help="generate a built-in datum file")
    p_example.add_argument(
        "family", choices=["torus", "cpn", "synthetic", "product", "stabilize"]
    )
    p_example.add_argument("--n", type=_ascii_int, default=2, help="torus/cpn size parameter")
    p_example.add_argument("--p", type=_ascii_int, default=0, help="power of the symplectic form minus one")
    p_example.add_argument(
        "--pairing", choices=["adjacent", "split"], default="adjacent"
    )
    p_example.add_argument("--betti", default=None, help="comma-separated Betti numbers")
    p_example.add_argument("--ranks", default=None, help="comma-separated wedge-map ranks")
    p_example.add_argument(
        "--hard-lefschetz", action="store_true", help="use the full-rank profile"
    )
    p_example.add_argument("--name", default="synthetic")
    p_example.add_argument("--left", help="first factor datum file (product)")
    p_example.add_argument("--right", help="second factor datum file (product)")
    p_example.add_argument("--input", help="input datum file (stabilize)")
    p_example.add_argument("--degree", type=_ascii_int, default=0, help="stabilization degree")
    p_example.add_argument("--label", default="stab", help="label stem for the new pair")
    add_common(p_example, output=True)
    p_example.set_defaults(func=_cmd_example)

    p_validate = sub.add_parser("validate", help="parse and validate a datum file")
    p_validate.add_argument("input")
    add_common(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = sub.add_parser("analyze", help="inequality report for a datum file")
    p_analyze.add_argument("input")
    p_analyze.add_argument("--format", choices=["text", "json", "csv"], default="text")
    add_common(p_analyze, output=True)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_cone = sub.add_parser(
        "cone", help="compare direct cone cohomology against the rank decomposition"
    )
    p_cone.add_argument("input")
    add_common(p_cone)
    p_cone.set_defaults(func=_cmd_cone)

    p_spectral = sub.add_parser(
        "spectral", help="low spectrum of the deformed cone Laplacian on the flat torus"
    )
    p_spectral.add_argument(
        "--t", type=float, action="append", default=[], help="deformation parameter (repeatable)"
    )
    p_spectral.add_argument("--cutoff", type=_ascii_int, default=None, help="band limit N")
    p_spectral.add_argument("--degrees", default="all", help='"all" or comma list from 0..3')
    p_spectral.add_argument(
        "--morse-scale", type=float, default=1.0, help="amplitude of f; negative deforms by -f"
    )
    p_spectral.add_argument("--gap-growth", action="store_true", help="fit gap(t) against t")
    p_spectral.add_argument("--emit", default=None, help="write eigenvalue/gap CSV here")
    add_common(p_spectral)
    p_spectral.set_defaults(func=_cmd_spectral)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # before ValueError, which RemainderError and ShapeError are.  A ShapeError
    # comes from the exact linear algebra, whose matrices are built from a
    # validated datum or a checked Betti profile, so it is a bug
    except (ConsistencyError, RemainderError, ShapeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (UnknownIdError, DegreeError, InvalidDatumError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DatumParseError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"spectral solve failed: {exc}", file=sys.stderr)
        return EXIT_ADEQUACY


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
