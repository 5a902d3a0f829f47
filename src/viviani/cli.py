"""Command-line interface.

Exit codes: 0 success (for ``check``: the set is Viviani), 1 ``check`` on a
non-Viviani set, 2 malformed input (bad JSON, schema, unreadable file, bad
usage), 3 dimension or precondition violations (wrong payload kind, point
of the wrong dimension, failed certificates, ...).  Diagnostics go to
stderr; results go to stdout and are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .document import (
    ConfigDocument,
    load_document,
    planes_document,
    points_document,
    polygon_document,
    serialize_document,
)
from .duality import fermat_to_viviani, viviani_to_fermat
from .errors import DocumentError, VivianiError
from .fermat import geometric_median
from .geometry import (
    DEFAULT_TOL,
    _lengths,
    as_vector,
    is_viviani,
    viviani_defect,
    viviani_gradient,
    viviani_values,
)
from .polytope import (
    _SOLIDS,
    make_equiangular_polygon,
    platonic_solid_normals,
    tetrahedron_family,
)
from .sampling import sample_points
from .svgplot import render_svg

EXIT_OK = 0
EXIT_NOT_VIVIANI = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3


def _point_arg(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _box_arg(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo,hi, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError("box needs lo < hi")
    # with lo < hi, a finite hi - lo means that lo and hi are finite too
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError("box needs finite lo, hi and hi - lo")
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viviani",
        description="Signed-distance sums over oriented hyperplane sets, "
        "geometric medians, and the duality between them.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="defect, gradient and Viviani verdict of a plane set")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("value", help="signed-distance sum at a point")
    p.add_argument("file")
    p.add_argument("--point", type=_point_arg, required=True)

    p = sub.add_parser("median", help="geometric median of a point document")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)

    p = sub.add_parser("dualize", help="planes through each point, normal to its "
                                       "spoke from the median")
    p.add_argument("file")
    p.add_argument("--at", type=_point_arg, default=None,
                   help="use this point (certified) instead of solving")

    p = sub.add_parser("project", help="feet of perpendiculars from a point onto a "
                                       "Viviani plane set")
    p.add_argument("file")
    p.add_argument("--point", type=_point_arg, required=True)

    p = sub.add_parser("generate", help="emit a generated document")
    gen = p.add_subparsers(dest="family", required=True)
    g = gen.add_parser("equiangular", help="equiangular polygon from side lengths")
    g.add_argument("--sides", type=_point_arg, required=True)
    g = gen.add_parser("platonic", help="face planes of a regular polyhedron")
    g.add_argument("name", choices=_SOLIDS)
    g = gen.add_parser("example5", help="tetrahedron family member for parameter t")
    g.add_argument("--t", type=float, required=True)

    p = sub.add_parser("sample", help="evaluate the distance sum at seeded random points")
    p.add_argument("file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--box", type=_box_arg, default=(-1.0, 1.0))

    p = sub.add_parser("plot", help="render a 2-D document to SVG")
    p.add_argument("file")
    p.add_argument("--out", required=True)

    return parser


def _load(path) -> ConfigDocument:
    try:
        return load_document(path)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _planes_of(doc: ConfigDocument):
    if doc.kind == "points":
        raise VivianiError("this command needs a planes or polygon document")
    return doc.to_hyperplane_set()


def _points_of(doc: ConfigDocument):
    if doc.kind != "points":
        raise VivianiError("this command needs a points document")
    return doc.point_array()


def _cmd_check(args, out) -> int:
    S = _planes_of(_load(args.file))
    defect = viviani_defect(S)
    verdict = is_viviani(S, args.tol)
    print(f"defect={defect!r}", file=out)
    print(f"gradient={json.dumps([float(g) for g in viviani_gradient(S)])}", file=out)
    print(f"viviani={'true' if verdict else 'false'}", file=out)
    return EXIT_OK if verdict else EXIT_NOT_VIVIANI


def _cmd_value(args, out) -> int:
    S = _planes_of(_load(args.file))
    v = float(viviani_values(as_vector(args.point, dim=S.dimension)[None, :], S)[0])
    print(f"v={v!r}", file=out)
    return EXIT_OK


def _median_obj(result) -> dict:
    return {
        "point": [float(x) for x in result.point],
        "objective": result.objective if math.isfinite(result.objective) else None,
        "status": result.status.value,
        "residual": result.residual,
        "iterations": result.iterations,
        "anchor_index": result.anchor_index,
    }


def _cmd_median(args, out) -> int:
    pts = _points_of(_load(args.file))
    result = geometric_median(pts, tol=args.tol, max_iter=args.max_iter)
    print(json.dumps(_median_obj(result), indent=2, allow_nan=False), file=out)
    return EXIT_OK


def _cmd_dualize(args, out) -> int:
    pts = _points_of(_load(args.file))
    if args.at is not None:
        at = as_vector(args.at, dim=pts.shape[1])
    else:
        at = geometric_median(pts).point
    S = fermat_to_viviani(pts, at)  # certifies `at`
    out.write(serialize_document(planes_document(S)))
    return EXIT_OK


def _cmd_project(args, out) -> int:
    S = _planes_of(_load(args.file))
    P = as_vector(args.point, dim=S.dimension)
    feet = viviani_to_fermat(S, P)
    recovered = geometric_median(feet)
    err = float(_lengths((recovered.point - P)[None, :])[0])
    doc = points_document(feet.points, metadata={"recovery_error": repr(err)})
    out.write(serialize_document(doc))
    print(f"recovery_error={err!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_generate(args, out) -> int:
    if args.family == "equiangular":
        doc = polygon_document(make_equiangular_polygon(args.sides))
    elif args.family == "platonic":
        doc = planes_document(platonic_solid_normals(args.name))
    else:
        doc = planes_document(tetrahedron_family(args.t))
    out.write(serialize_document(doc))
    return EXIT_OK


def _cmd_sample(args, out) -> int:
    S = _planes_of(_load(args.file))
    if args.count < 1:
        raise VivianiError("--count must be at least 1")
    lo, hi = args.box
    pts = sample_points(S.dimension, args.count, args.seed, lo, hi)
    vals = viviani_values(pts, S)
    vmin = float(vals.min())
    vmax = float(vals.max())
    print(f"n={args.count} min={vmin!r} max={vmax!r} spread={vmax - vmin!r}", file=out)
    return EXIT_OK


def _cmd_plot(args, out) -> int:
    doc = _load(args.file)
    svg = render_svg(doc)
    with open(args.out, "wb") as fh:
        fh.write(svg.encode("utf-8"))
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "value": _cmd_value,
    "median": _cmd_median,
    "dualize": _cmd_dualize,
    "project": _cmd_project,
    "generate": _cmd_generate,
    "sample": _cmd_sample,
    "plot": _cmd_plot,
}


def run_cli(argv=None) -> int:
    """Parse ``argv`` and run one subcommand; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except VivianiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run_cli())
