"""Command-line interface and the JSON datum interchange format.

Commands: example, validate, analyze, cone, spectral.  Exit codes are part of
the contract: 0 ok, 1 datum validation failure, 2 usage/parse error, 3
negative-slack anomaly in a report, 4 inadequate spectral resolution.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import cohomology_dims, cone_cohomology_by_decomposition, mapping_cone
from .errors import (
    AdequacyError,
    DegreeError,
    InvalidDatumError,
    NotPerfectError,
    ShapeError,
    UnknownIdError,
)
from .families import (
    TorusConvention,
    hard_lefschetz_ranks,
    projective_space,
    synthetic_from_rank_profile,
    torus,
)
from .inequalities import cone_report, report_to_csv, report_to_json, report_to_text
from .morse import CriticalPoint, MorseDatum, morse_complex, product, stabilize, validate_datum
from .ratlinalg import format_rat, rat
from .spectral import (
    cluster_counts,
    eigenvalues_to_csv,
    gap_growth,
    gap_growth_to_csv,
    suggested_cutoff,
)

FORMAT_TAG = "cone-morse-datum/1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_ANOMALY = 3
EXIT_ADEQUACY = 4


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


def datum_from_dict(doc: dict) -> MorseDatum:
    if not isinstance(doc, dict):
        raise DatumParseError("datum document must be a JSON object")
    tag = doc.get("format")
    if tag != FORMAT_TAG:
        raise DatumParseError(f"unsupported format tag {tag!r}, expected {FORMAT_TAG!r}")
    try:
        points = tuple(
            CriticalPoint(str(g["id"]), int(g["index"])) for g in doc["generators"]
        )

        def coeffs(key):
            out = []
            for entry in doc.get(key, []):
                value = entry["coeff"]
                if isinstance(value, float):
                    raise DatumParseError(
                        f"invalid rational {value!r}: floats are not exact"
                    )
                out.append((str(entry["from"]), str(entry["to"]), rat(value)))
            return tuple(out)

        return MorseDatum(
            manifold_dim=int(doc["manifold_dim"]),
            points=points,
            boundary=coeffs("boundary"),
            cone_map=coeffs("cone_map"),
            p=int(doc.get("p", 0)),
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
        with open(path, "w") as handle:
            handle.write(text)
        if not quiet:
            print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _parse_int_list(raw: str, what: str) -> list:
    try:
        return [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DatumParseError(f"invalid {what} list {raw!r}") from exc


def _cmd_example(args) -> int:
    if args.family == "torus":
        datum = torus(TorusConvention(args.n, args.pairing))
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
    _, chain_map = morse_complex(load_datum(args.input))
    direct = cohomology_dims(mapping_cone(chain_map))
    split = cone_cohomology_by_decomposition(chain_map)
    print(f"cone cohomology (direct):        {direct}")
    print(f"cone cohomology (decomposition): {split}")
    if direct != split:
        print("MISMATCH: the decomposition disagrees with the cone", file=sys.stderr)
        return EXIT_VALIDATION
    if not args.quiet:
        print("decomposition agrees with the direct cone computation")
    return EXIT_OK


def _cmd_spectral(args) -> int:
    t_values = args.t
    if not t_values:
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
            rule = (lambda t: args.cutoff) if args.cutoff else suggested_cutoff
            for k in degrees:
                result = gap_growth(
                    t_values, cutoff_rule=rule, degree=k, morse_scale=args.morse_scale
                )
                for t, n, g in zip(result.t_values, result.cutoffs, result.gaps):
                    print(f"degree {k}: t = {t:g}  cutoff = {n}  gap = {g:.9e}")
                flag = "  (degenerate fit: no spread in t)" if result.degenerate else ""
                print(f"degree {k}: gap slope = {result.slope:.9e}{flag}")
            if args.emit:
                _write_output(gap_growth_to_csv(result), args.emit, args.quiet)
            return EXIT_OK
        if len(t_values) != 1:
            raise DatumParseError("multiple --t values require --gap-growth")
        t = t_values[0]
        cutoff = args.cutoff if args.cutoff else suggested_cutoff(t)
        reports = {}
        counts = cluster_counts(
            t, cutoff, degrees=degrees, morse_scale=args.morse_scale, reports=reports
        )
        for k, count in zip(degrees, counts):
            rep = reports[k]
            print(
                f"degree {k}: {count} low eigenvalue(s), gap = {rep.gap:.9e}, "
                f"cluster ratio = {rep.cluster_ratio:.3e}"
            )
        if args.emit:
            _write_output(
                eigenvalues_to_csv([reports[k] for k in degrees]), args.emit, args.quiet
            )
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

    def add_common(p):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress chatter")

    p_example = sub.add_parser("example", help="generate a built-in datum file")
    p_example.add_argument(
        "family", choices=["torus", "cpn", "synthetic", "product", "stabilize"]
    )
    p_example.add_argument("--n", type=int, default=2, help="torus/cpn size parameter")
    p_example.add_argument("--p", type=int, default=0, help="power of the symplectic form minus one")
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
    p_example.add_argument("--degree", type=int, default=0, help="stabilization degree")
    p_example.add_argument("--label", default="stab", help="label stem for the new pair")
    add_common(p_example)
    p_example.set_defaults(func=_cmd_example)

    p_validate = sub.add_parser("validate", help="parse and validate a datum file")
    p_validate.add_argument("input")
    add_common(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = sub.add_parser("analyze", help="inequality report for a datum file")
    p_analyze.add_argument("input")
    p_analyze.add_argument("--format", choices=["text", "json", "csv"], default="text")
    add_common(p_analyze)
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
    p_spectral.add_argument("--cutoff", type=int, default=None, help="band limit N")
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
    except (UnknownIdError, DegreeError, InvalidDatumError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DatumParseError, NotPerfectError, ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
