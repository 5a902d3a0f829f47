#!/usr/bin/env python3
"""Replay the same median solves, polygons and CLI commands on two source
trees and diff the answers.

    python3 tools/median_equivalence.py <parent-tree> <change-tree>

Each tree is solved in a fresh interpreter that imports ``viviani`` from
the tree's ``src`` and rebuilds the inputs with the tree's own
``perfbench/workloads.py``, which it reads and does not edit:

* ``median_small2d`` seed 12345, rounds 0-19;
* ``viviani_roundtrip`` seed 4242, rounds 0-59 (the solve of each
  operation's feet);
* ``median_sweep_nd`` seed 777, rounds 0-2;
* 140 extra sets up to (2000, 10) and (1000, 50): Gaussian, Student t with
  two degrees of freedom, anisotropic, clusters of width 1e-6, and
  Gaussian sets scaled by 1e150 and moved by 3e160.

It also builds seeded polygons through each tree's ``viviani``:
equiangular polygons with k = 3-11 closing sides scaled by 10^-5 to 10^5,
and random convex polygons with k = 3-9 vertices on an ellipse, scaled the
same way and moved.

And it runs the command line in process, through ``viviani.cli.run_cli``:
the help texts, then every command (``check``, ``value``, ``median``,
``dualize``, ``project``, ``sample`` and ``plot``, some with options) on
each document of the tree's ``fixtures/`` and on each document that
``generate`` writes for the ``GENERATED`` arguments, and then on every
document that ``dualize`` or ``project`` wrote in that first pass.

Every solve records its status, anchor index, iterations, objective,
residual and point.  Every polygon records its vertices, normals, offsets,
side lengths, diameter, classifier and Viviani verdicts and the bytes of
its SVG (or the error its construction raised).  Every command records its
exit code, its stdout, its stderr and the bytes of the SVG it wrote.  The
trees must have built byte-identical inputs.  The diff prints the counts and the worst case of
each field, and exits 1 when the change tree fails the gate: a status or an
anchor index differs, an objective moves by more than 1e-15 relative, a
solve takes more iterations, an interior residual exceeds the tree's
``RESIDUAL_TARGET`` where the parent's did not, a polygon's verdicts or
construction error differ, or a command exits with another code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: (workload, seed, rounds) replayed from ``perfbench/workloads.py``.
REPLAYS = [("median_small2d", 12345, 20), ("viviani_roundtrip", 4242, 60),
           ("median_sweep_nd", 777, 3)]
#: (n, k) of the extra sets, each drawn EXTRA_SEEDS times per family.
EXTRA_SIZES = [(2, 50), (3, 700), (5, 300), (10, 2000), (20, 100), (50, 300), (50, 1000)]
EXTRA_SEEDS = 4
OBJECTIVE_RTOL = 1e-15
#: Seeded equiangular and random convex polygons built on each tree.
EQUIANGULAR_POLYGONS = 3000
RANDOM_POLYGONS = 1000
#: What each polygon records; the gate holds only if VERDICTS agree.
POLYGON_FIELDS = ("error", "vertices", "normals", "offsets", "side_lengths",
                  "diameter", "classifier", "viviani", "svg")
VERDICTS = ("error", "classifier", "viviani")
#: ``viviani generate`` arguments whose documents the CLI replay runs on.
GENERATED = [
    *(["equiangular", "--sides", s] for s in ("1,1,1", "2,1,2,1", "1,2,3,1,2,3", "1,1,1,1,1")),
    *(["platonic", name] for name in ("tetrahedron", "cube", "octahedron",
                                      "dodecahedron", "icosahedron")),
    *(["example5", "--t", t] for t in ("0.5", "1.0", "2.5")),
]
#: The ``--point`` arguments of each dimension; the first is also ``--at``.
POINTS = {2: ("0.5,0.5", "0.2,-0.1"), 3: ("0.5,0.5,0.5", "0.05,0.1,-0.05")}
#: What each command records; the gate holds only if the exit codes agree.
CLI_FIELDS = ("exit", "stdout", "stderr", "svg")


def _extra_sets():
    import numpy as np

    families = {
        "gaussian": lambda rng, k, n: rng.normal(size=(k, n)),
        "t2": lambda rng, k, n: rng.standard_t(2, size=(k, n)),
        "anisotropic": lambda rng, k, n: rng.normal(size=(k, n))
        * 10.0 ** rng.uniform(-3.0, 3.0, n),
        "clusters": lambda rng, k, n: rng.normal(size=(3, n))[rng.integers(0, 3, k)]
        + 1e-6 * rng.normal(size=(k, n)),
        "huge": lambda rng, k, n: rng.normal(size=(k, n)) * 1e150 + 3e160,
    }
    for f, (family, draw) in enumerate(families.items()):
        for s, (n, k) in enumerate(EXTRA_SIZES):
            for i in range(EXTRA_SEEDS):
                yield f"extra/{family}", draw(np.random.default_rng([f, s, i]), k, n)


def _polygons():
    """``(label, kind, data)``: side lengths of closing equiangular polygons,
    and vertices of random convex ones."""
    import numpy as np

    rng = np.random.default_rng(2010)
    for _ in range(EQUIANGULAR_POLYGONS):
        k = int(rng.integers(3, 12))
        theta = 2.0 * np.pi * np.arange(k) / k
        D = np.array([np.cos(theta), np.sin(theta)])
        # random lengths projected onto the closing ones, kept if positive
        s = rng.uniform(0.5, 2.0, k)
        s -= D.T @ np.linalg.solve(D @ D.T, D @ s)
        if s.min() > 0.0:
            yield "equiangular", s * 10.0 ** rng.uniform(-5.0, 5.0)
    for _ in range(RANDOM_POLYGONS):
        k = int(rng.integers(3, 10))
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        axes = rng.uniform(0.2, 1.0, 2) * 10.0 ** rng.uniform(-5.0, 5.0)
        yield "convex", np.column_stack([np.cos(t), np.sin(t)]) * axes + rng.normal(size=2)


def _polygon_record(viviani, kind, data) -> dict:
    import numpy as np

    def hexed(a):
        return np.asarray(a, dtype=float).tobytes().hex()

    rec = {"label": f"polygon/{kind}", "input": hexed(data)}
    try:
        G = (viviani.make_equiangular_polygon(data) if kind == "equiangular"
             else viviani.ConvexPolygon(data))
    except viviani.VivianiError as exc:
        rec["error"] = type(exc).__name__
        return rec
    S = viviani.polygon_to_hyperplanes(G)
    classify = {3: viviani.classify_triangle, 4: viviani.classify_quadrilateral}.get(G.k)
    svg = viviani.render_svg(viviani.polygon_document(G)).encode()
    rec.update(error=None, vertices=hexed(G.vertices), normals=hexed(S.normals),
               offsets=hexed(S.offsets), side_lengths=hexed(G.side_lengths()),
               diameter=float(G.diameter).hex(),
               classifier=classify(G).value if classify else None,
               viviani=viviani.is_viviani_polygon(G),
               svg=hashlib.sha1(svg).hexdigest())
    return rec


def _cli_records(tree: Path) -> list[dict]:
    """Run the CLI replay with the tree's ``run_cli``, in a scratch
    directory whose path each record spells ``{tmp}``."""
    from viviani.cli import run_cli

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        def run(argv, label):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run_cli(argv)
                except SystemExit as exc:  # argparse: help texts and usage errors
                    code = exc.code
            rec = {"label": f"cli/{argv[0]}", "input": label, "exit": code,
                   "stdout": out.getvalue(), "stderr": err.getvalue().replace(tmp, "{tmp}")}
            records.append(rec)
            return rec

        for argv in ([], ["check"], ["value"], ["median"], ["dualize"], ["project"],
                     ["generate"], ["generate", "equiangular"], ["generate", "platonic"],
                     ["generate", "example5"], ["sample"], ["plot"]):
            run([*argv, "--help"], " ".join([*argv, "--help"]))
        docs = []
        for path in sorted((tree / "fixtures").glob("*.json")):
            digest = hashlib.sha1(path.read_bytes()).hexdigest()[:12]
            docs.append((str(path), f"fixtures/{path.name}@{digest}"))
        for i, args in enumerate(GENERATED):
            rec = run(["generate", *args], " ".join(["generate", *args]))
            path = os.path.join(tmp, f"generated-{i}.json")
            with open(path, "w") as fh:
                fh.write(rec["stdout"])
            docs.append((path, f"{{generate {' '.join(args)}}}"))
        for level in range(2):
            written = []
            for path, name in docs:
                with open(path) as fh:
                    points = POINTS[json.load(fh)["dimension"]]
                svg = os.path.join(tmp, "plot.svg")
                for argv in (["check"], ["check", "--tol", "1e-3"],
                             *(["value", "--point", p] for p in points),
                             ["median"], ["median", "--tol", "1e-6"],
                             ["dualize"], ["dualize", "--at", points[0]],
                             *(["project", "--point", p] for p in points),
                             ["sample", "--count", "100", "--seed", "7"],
                             ["sample", "--count", "10", "--seed", "1", "--box=-5,5"],
                             ["plot", "--out", svg]):
                    argv = [argv[0], path, *argv[1:]]
                    rec = run(argv, " ".join(argv).replace(path, name).replace(tmp, "{tmp}"))
                    if argv[0] == "plot" and rec["exit"] == 0:
                        with open(svg, "rb") as fh:
                            rec["svg"] = hashlib.sha1(fh.read()).hexdigest()
                        os.remove(svg)
                    if argv[0] in ("dualize", "project") and rec["exit"] == 0:
                        out = os.path.join(tmp, f"written-{level}-{len(written)}.json")
                        with open(out, "w") as fh:
                            fh.write(rec["stdout"])
                        written.append((out, f"{{{rec['input']}}}"))
            docs = written
    return records


class _Recorder:
    """The benchmark's tracer interface: runs every call, and hands the
    arguments and result of each median solve to ``record``."""

    def __init__(self, record):
        self.record = record
        self.label = ""

    def call(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if name == "fermat.geometric_median":
            self.record(self.label, args[0], out)
        return out

    def count(self, name, value):
        pass


def capture(tree: Path) -> dict:
    """Every solve of the replay on ``tree``, as JSON-ready records."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np

    import viviani
    import viviani.fermat as fermat
    import workloads

    records = []

    def record(label, pts, res):
        pts = np.ascontiguousarray(getattr(pts, "points", pts), dtype=float)
        records.append({
            "label": label,
            "input": hashlib.sha1(repr(pts.shape).encode() + pts.tobytes()).hexdigest(),
            "status": res.status.value,
            "anchor": res.anchor_index,
            "iterations": res.iterations,
            "objective": float(res.objective).hex(),
            "residual": float(res.residual).hex(),
            "point": np.asarray(res.point, dtype=float).tobytes().hex(),
        })

    T = _Recorder(record)
    for name, seed, rounds in REPLAYS:
        cls = next(w for w in vars(workloads).values()
                   if isinstance(w, type) and getattr(w, "name", None) == name)
        load = cls(seed, str(tree))
        for r in range(rounds):
            T.label = f"{name}/{seed}/{r}"
            for op in load.make_round(r):
                op.run(T)
    for label, pts in _extra_sets():
        record(label, pts, fermat.geometric_median(pts))
    polygons = [_polygon_record(viviani, kind, data) for kind, data in _polygons()]
    return {"residual_target": fermat.RESIDUAL_TARGET, "records": records,
            "polygons": polygons, "cli": _cli_records(tree)}


def _run_captures(trees: list[Path]) -> list[dict]:
    """Capture each tree in its own interpreter, all of them at once."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    procs = [subprocess.Popen([sys.executable, __file__, "--capture", str(tree)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env) for tree in trees]
    outputs = [proc.communicate() for proc in procs]
    for tree, proc, (_, err) in zip(trees, procs, outputs):
        if proc.returncode != 0:
            raise SystemExit(f"error: capture on {tree} failed:\n{err}")
    return [json.loads(out) for out, _ in outputs]


def compare(parent: dict, change: dict) -> list[str]:
    """Lines of the report; the last one says whether the gate holds."""
    a, b = parent["records"], change["records"]
    ga, gb = parent["polygons"], change["polygons"]
    ca, cb = parent["cli"], change["cli"]
    moved = []
    for kind, x, y in (("solve", a, b), ("polygon", ga, gb), ("command", ca, cb)):
        i = next((i for i, (p, q) in enumerate(zip(x, y)) if p["input"] != q["input"]), None)
        if i is not None:
            moved.append(f"{kind} {i} ({y[i]['label']})")
        elif len(x) != len(y):
            moved.append(f"{kind} count {len(x)} vs {len(y)}")
    if moved:
        return [f"inputs differ between the trees ({', '.join(moved)}): gate FAILED"]
    target = change["residual_target"]
    status = anchor = iter_equal = iter_one_fewer = iter_fewer = iter_more = 0
    identical = residual_over = residual_new = 0
    worst_obj, worst_obj_at = 0.0, None
    worst_res, worst_res_at = 0.0, None
    for i, (x, y) in enumerate(zip(a, b)):
        identical += x == y
        status += x["status"] != y["status"]
        anchor += x["anchor"] != y["anchor"]
        delta = x["iterations"] - y["iterations"]
        iter_equal += delta == 0
        iter_one_fewer += delta == 1
        iter_fewer += delta > 1
        iter_more += delta < 0
        fa, fb = float.fromhex(x["objective"]), float.fromhex(y["objective"])
        rel = abs(fa - fb) / abs(fa) if fa else abs(fb)
        if rel > worst_obj or worst_obj_at is None:
            worst_obj, worst_obj_at = rel, i
        if y["status"] == "interior_optimum":
            r = float.fromhex(y["residual"])
            residual_over += r > target
            residual_new += r > target >= float.fromhex(x["residual"])
            if r > worst_res or worst_res_at is None:
                worst_res, worst_res_at = r, i
    differs = {f: sum(p.get(f) != q.get(f) for p, q in zip(ga, gb))
               for f in POLYGON_FIELDS}
    cli_differs = {f: sum(p.get(f) != q.get(f) for p, q in zip(ca, cb)) for f in CLI_FIELDS}
    first_cli = next((q["input"] for p, q in zip(ca, cb) if p != q), None)
    ok = (status == anchor == iter_more == residual_new == 0
          and worst_obj <= OBJECTIVE_RTOL
          and not any(differs[f] for f in VERDICTS)
          and not cli_differs["exit"])

    def where(i):
        return "" if i is None else f" ({b[i]['label']}, solve {i})"

    return [
        f"solves: {len(a)}, identical records: {identical}",
        f"status differs: {status}, anchor index differs: {anchor}",
        f"iterations equal: {iter_equal}, one fewer: {iter_one_fewer}, "
        f"more than one fewer: {iter_fewer}, more: {iter_more}",
        f"worst objective change: {worst_obj:.3g} relative{where(worst_obj_at)}",
        f"worst interior residual: {worst_res:.3g}{where(worst_res_at)}, "
        f"above RESIDUAL_TARGET {target:g}: {residual_over}, "
        f"of which within it at the parent: {residual_new}",
        f"polygons: {len(ga)}, identical records: {sum(p == q for p, q in zip(ga, gb))}",
        "polygon fields that differ: "
        + (", ".join(f"{f} {n}" for f, n in differs.items() if n) or "none"),
        f"commands: {len(ca)}, identical records: {sum(p == q for p, q in zip(ca, cb))}",
        "command fields that differ: "
        + (", ".join(f"{f} {n}" for f, n in cli_differs.items() if n) or "none")
        + ("" if first_cli is None else f" (first: {first_cli})"),
        "gate " + ("holds" if ok else "FAILED"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="tree")
    parser.add_argument("--capture", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.capture is not None:
        json.dump(capture(args.capture.resolve()), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give the parent tree and the change tree")
    parent, change = _run_captures([t.resolve() for t in args.trees])
    lines = compare(parent, change)
    print("\n".join(lines))
    return 0 if lines[-1] == "gate holds" else 1


if __name__ == "__main__":
    sys.exit(main())
