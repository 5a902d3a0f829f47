"""The four workloads: how each builds its inputs from the seed, what one
operation calls in the library, and how its output is checked.

Every workload is a sequence of rounds.  Round ``r`` is built from
``numpy.random.default_rng([seed, r])``, so a seed fixes every input; each
round holds the same kinds of operations in the same numbers, so the share
of failed operations is the same in every run.  An operation is timed from
its first library call to its last; the check that follows is not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import compileall
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from viviani import (
    HyperplaneSet,
    fermat_to_viviani,
    geometric_median,
    is_viviani,
    make_equiangular_polygon,
    parse_document,
    planes_document,
    platonic_solid_normals,
    points_document,
    polygon_document,
    polygon_to_hyperplanes,
    sample_points,
    serialize_document,
    tetrahedron_family,
    viviani_to_fermat,
    viviani_values,
)
import viviani.gridsearch
from viviani.cli import run_cli
from viviani.gridsearch import grid_median
from viviani.svgplot import render_svg

import checks


@dataclass
class Op:
    """``run(tracer)`` makes the library calls and returns the check.

    ``fault`` names a known fault of the program that makes this operation
    fail on every run; such failures are counted but do not make the run
    incorrect.
    """

    run: Callable
    fault: str | None = None


#: Seed of the inputs that set-up warms up on, the same for every run.
WARM_SEED = 0


class Workload:
    """Defaults shared by the workloads.  ``warm_ops`` are run during
    set-up; ``after`` adds traced measurements made outside the timed loop
    and returns the per-layer values that spans cannot give."""

    name = ""
    warm = 0

    def __init__(self, seed: int, root: str):
        self.seed = seed % 2**64  # numpy seeds must not be negative
        self.root = root

    def prepare(self):
        pass

    def make_round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warm_ops(self) -> list[Op]:
        """The first ``warm`` operations of the inputs for ``WARM_SEED``, so
        that set-up does the same work whatever the run's seed."""
        twin = type(self)(WARM_SEED, self.root)
        ops, r = [], 0
        while len(ops) < self.warm:
            ops += twin.make_round(r)
            r += 1
        return ops[:self.warm]

    def after(self, T) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that does the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


def _median_op(pts: np.ndarray, check=checks.check_median, fault=None) -> Op:
    def run(T):
        res = T.call("fermat.geometric_median", geometric_median, pts)
        T.count("fermat.iterations", res.iterations)
        T.count("fermat." + res.status.value, 1)
        return lambda: check(pts, res.point, res.objective)
    return Op(run, fault)


# --- median_small2d ----------------------------------------------------------

#: A fixed instance whose uniformly rescaled copies expose the solver's
#: scale fault: at x1e160 the norms overflow (objective inf, labelled an
#: anchor optimum), at x1e-300 the spread underflows so every point counts
#: as coincident, and at x1e-160 the objective is computed in subnormals.
SCALE_BASE = np.array([[0.0, 0.0], [3.0, 0.5], [1.0, 2.5], [2.2, -1.3], [-0.7, 1.1]])
SCALE_FAULT = "geometric_median is not scale-invariant (overflow/underflow of norms)"


class MedianSmall2d(Workload):
    """Many small planar solves, the size the CLI and the acceptance suite use."""

    name = "median_small2d"
    warm = 123  # one whole round
    TYPICAL, VALLEY, DUPLICATE, COLLINEAR = 96, 8, 8, 8

    def make_round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = [_median_op(rng.normal(size=(int(rng.integers(3, 9)), 2)))
               for _ in range(self.TYPICAL)]
        for _ in range(self.VALLEY):
            # near-collinear points: the flat valley where Newton polish rescues
            k = int(rng.integers(5, 9))
            e, f = _frame2(rng.uniform(0.0, math.pi))
            t = rng.uniform(-1.0, 1.0, k)
            w = 10.0 ** rng.uniform(-6.0, -3.0) * rng.normal(size=k)
            ops.append(_median_op(rng.normal(size=2) + t[:, None] * e + w[:, None] * f))
        for _ in range(self.DUPLICATE):
            # an anchor with more copies than there are other points is optimal
            others = int(rng.integers(2, 5))
            pts = np.vstack([np.repeat(rng.normal(size=(1, 2)), others + 1, axis=0),
                             rng.normal(size=(others, 2))])
            ops.append(_median_op(pts[rng.permutation(len(pts))]))
        for _ in range(self.COLLINEAR):
            k = int(rng.integers(3, 9))
            e, _ = _frame2(rng.uniform(0.0, math.pi))
            t = rng.uniform(-2.0, 2.0, k)
            ops.append(_median_op(rng.normal(size=2) + t[:, None] * e,
                                  check=checks.check_collinear_median))
        for scale in (1e-300, 1e-160, 1e160):
            ops.append(_median_op(SCALE_BASE * scale, fault=SCALE_FAULT))
        return ops

    def after(self, T) -> dict:
        """Grid oracle on the first typical instances of round 0: a second
        check that shares no code with the solver.  The cells it scans are
        counted at the grid kernel's entry point."""
        rng = np.random.default_rng([self.seed, 0])
        kernel = viviani.gridsearch.grid_min_2d
        cells = 0

        def counted(px, py, x0, y0, nx, ny, step):
            nonlocal cells
            cells += nx * ny
            return kernel(px, py, x0, y0, nx, ny, step)

        viviani.gridsearch.grid_min_2d = counted
        try:
            for _ in range(16):
                pts = rng.normal(size=(int(rng.integers(3, 9)), 2))
                step = 1e-3 * float((pts.max(axis=0) - pts.min(axis=0)).max())
                _, best = T.call("gridsearch.grid_median", grid_median, pts, step)
                res = geometric_median(pts)
                if res.objective > best * (1.0 + 1e-12):
                    raise checks.CheckFailed(
                        f"solver objective {res.objective!r} exceeds the grid's {best!r}")
        finally:
            viviani.gridsearch.grid_min_2d = kernel
        return {"gridsearch.cells": cells}


def _frame2(angle: float):
    e = np.array([math.cos(angle), math.sin(angle)])
    return e, np.array([-e[1], e[0]])


# --- median_sweep_nd ---------------------------------------------------------

#: (dimension, k) of the fixed solves in a round:
#:  * eight cheap ones (under ~2 ms): small k in higher dimensions;
#:  * nine at n = 50, k = 1000, so the median operation is one of them
#:    (numpy work per step, no anchor scan);
#:  * k = 5000 and 10000, above the 4096 cutoff of the full anchor scan.
#: Sizes whose time is bimodal across seeds (n = 10 with k >= 5000, n = 20
#: with k >= 1000: a rare polish or scan costs 10-50x the usual solve) are
#: left out, as are sizes right at the cutoff (seconds per solve).
SWEEP = [(10, 10), (10, 30), (20, 10), (20, 100), (20, 300), (50, 10), (50, 100), (50, 300)] \
    + [(50, 1000)] * 9 + [(3, 5000), (3, 10000)]
#: Plus SCANS solves at n = 3 with k log-uniform in SCAN_K, below the cutoff:
#: every one scans all anchors and costs about k^2.  Their sizes vary
#: continuously, so the slowest operations of a run are its largest
#: instances rather than a burst of machine slowness on one fixed size, and
#: eight of them per round keep the round's time from swinging.
SCANS, SCAN_K = 8, (500, 1000)


class MedianSweepNd(Workload):
    """Solves across dimensions 3..50 and k = 10..10^4."""

    name = "median_sweep_nd"
    warm = 12

    def make_round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        lo, hi = np.log(SCAN_K)
        sizes = SWEEP + [(3, int(np.exp(rng.uniform(lo, hi)))) for _ in range(SCANS)]
        return [_median_op(rng.normal(size=(k, n))) for n, k in sizes]


# --- viviani_roundtrip -------------------------------------------------------

SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
DRAWS = 3000  # LCG draws per operation
BOX = (-2.0, 2.0)


def closing_sides(rng, k: int) -> np.ndarray:
    """Positive side lengths of a closed equiangular k-gon: ones plus a
    random perturbation projected onto the null space of the closure map."""
    theta = 2.0 * np.pi * np.arange(k) / k
    D = np.vstack([np.cos(theta), np.sin(theta)])
    z = rng.normal(size=k)
    z -= D.T @ np.linalg.solve(D @ D.T, D @ z)
    return 1.0 + 0.5 * z / float(np.abs(z).max())


def cancelling_normals(rng, n: int, m: int) -> np.ndarray:
    """m random unit vectors, then unit vectors that bring the sum to zero:
    steps against the sum while it is long, then a pair w = -s/2 +- h e."""
    rows = list(rng.normal(size=(m, n)))
    rows = [v / np.linalg.norm(v) for v in rows]
    s = np.sum(rows, axis=0)
    while np.linalg.norm(s) > 1.5:
        rows.append(-s / np.linalg.norm(s))
        s = np.sum(rows, axis=0)
    e = rng.normal(size=n)
    e -= (e @ s) / max(float(s @ s), 1e-300) * s
    e /= np.linalg.norm(e)
    h = math.sqrt(1.0 - float(s @ s) / 4.0)
    rows += [-s / 2.0 + h * e, -s / 2.0 - h * e]
    return np.array(rows)


def _roundtrip_op(make, direction, draw_seed: int, draw_idx) -> Op:
    """``make()`` builds (planes, document, interior centre) in the library;
    the point projected is the centre moved 0.3 of the way to the nearest
    plane along ``direction``."""

    def run(T):
        S, doc, centre = T.call("polytope.generate", make)
        N, c = S.normals, S.offsets
        margin = float((c - N @ centre).min())
        P = centre + 0.3 * margin * direction
        viv = T.call("geometry.is_viviani", is_viviani, S)
        pts = T.call("sampling.sample_points", sample_points, S.dimension,
                     DRAWS // S.dimension, draw_seed, *BOX)
        vals = T.call("geometry.viviani_values", viviani_values, pts, S)
        feet = T.call("duality.viviani_to_fermat", viviani_to_fermat, S, P)
        res = T.call("fermat.geometric_median", geometric_median, feet)
        dual = T.call("duality.fermat_to_viviani", fermat_to_viviani, feet, res.point)
        docs = (doc, points_document(feet.points))
        texts = [T.call("document.serialize", serialize_document, d) for d in docs]
        back = [T.call("document.parse", parse_document, t) for t in texts]
        again = [T.call("document.serialize", serialize_document, d) for d in back]
        T.count("sampling.draws", pts.size)
        T.count("document.bytes", sum(len(t) for t in texts))
        T.count("fermat.iterations", res.iterations)
        T.count("fermat." + res.status.value, 1)

        def check():
            if not viv:
                raise checks.CheckFailed("generated set is not Viviani")
            checks.check_draws(pts, draw_seed, *BOX, draw_idx % pts.size)
            checks.check_values(pts, vals, N, c)
            checks.check_feet(feet.points, N, c, P)
            checks.check_median(feet.points, res.point, res.objective)
            checks.check_recovery(res.point, P, 1.0 + float(np.abs(c).max()))
            checks.check_spoke_planes(dual.normals, dual.offsets, feet.points)
            checks.check_same_planes(dual.normals, dual.offsets, N, c,
                                     1.0 + float(np.abs(c).max()))
            for t, t2, d, d2 in zip(texts, again, docs, back):
                checks.check_roundtrip(t, t2, _doc_arrays(d), _doc_arrays(d2))
        return check

    return Op(run)


def _doc_arrays(doc):
    if doc.planes is not None:
        return [np.array([p.normal for p in doc.planes]),
                np.array([p.offset for p in doc.planes])]
    if doc.polygon is not None:
        return [doc.polygon.vertices]
    return [doc.points]


class VivianiRoundtrip(Workload):
    """The paper's pipeline: sample, evaluate, project, recover, dualise,
    serialise, on equiangular polygons, Platonic solids, the tetrahedron
    family and random n-D cancelling normals (two of each per round)."""

    name = "viviani_roundtrip"
    warm = 40

    def make_round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for _ in range(2):
            makers = [
                _equiangular(closing_sides(rng, int(rng.integers(3, 13)))),
                _platonic(SOLIDS[int(rng.integers(len(SOLIDS)))]),
                _tetrahedron(float(rng.uniform(0.2, math.pi - 0.2))),
                _random_planes(rng, int(rng.integers(2, 9))),
            ]
            for make, dim in makers:
                direction = rng.normal(size=dim)
                direction /= np.linalg.norm(direction)
                ops.append(_roundtrip_op(make, direction,
                                         int(rng.integers(0, 2**63)),
                                         rng.integers(0, DRAWS, 16)))
        return ops


def _equiangular(sides):
    def equiangular():
        G = make_equiangular_polygon(sides)
        return polygon_to_hyperplanes(G), polygon_document(G), G.vertices.mean(axis=0)
    return equiangular, 2


def _platonic(name):
    def platonic():
        S = platonic_solid_normals(name)
        return S, planes_document(S), np.zeros(3)
    return platonic, 3


def _tetrahedron(t):
    def tetrahedron():
        S = tetrahedron_family(t)
        return S, planes_document(S), np.zeros(3)
    return tetrahedron, 3


def _random_planes(rng, n):
    N = cancelling_normals(rng, n, int(rng.integers(n + 1, 2 * n + 3)))
    centre = rng.normal(size=n)
    c = N @ centre + rng.uniform(0.5, 2.0, len(N))

    def random_planes():
        S = HyperplaneSet.from_arrays(N, c)
        return S, planes_document(S), centre
    return random_planes, n


# --- cli_cold ----------------------------------------------------------------

def _csv(v) -> str:
    return ",".join(repr(float(x)) for x in v)


class CliCold(Workload):
    """One cycle of every subcommand, each in a fresh interpreter."""

    name = "cli_cold"
    warm = 1
    SAMPLE_COUNT = 2000

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        # The children see none of the caller's PYTHON* settings, so they
        # load the bytecode that prepare() writes next to the sources, as
        # an installed package would, and write none of their own.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
        self.workdir = None
        self.reference: dict[int, bytes] = {}
        self.peak_rss_kb = 0

    def prepare(self):
        """Byte-compile the package in place, and write this seed's input
        documents into a scratch directory."""
        prefix, sys.pycache_prefix = sys.pycache_prefix, None
        try:
            compileall.compile_dir(os.path.join(self.root, "src", "viviani"),
                                   quiet=1, optimize=0)
        finally:
            sys.pycache_prefix = prefix
        if self.workdir is None:
            self.workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=self.root)
        rng = np.random.default_rng([self.seed, 0])
        pent = _regular(5, rng.uniform(0.5, 3.0), rng.normal(size=2), rng.uniform(0, 2 * math.pi))
        a, b, h = rng.uniform(3.0, 5.0), rng.uniform(1.0, 2.0), rng.uniform(1.0, 3.0)
        x0 = rng.normal(size=2)
        trap = [x0 + v for v in ([0, 0], [a, 0], [(a + b) / 2, h], [(a - b) / 2, h])]
        lengths = rng.uniform(0.5, 2.0, 3)
        box = []
        for j in range(3):
            e = np.eye(3)[j]
            box += [{"normal": e.tolist(), "offset": float(lengths[j])},
                    {"normal": (-e).tolist(), "offset": 0.0}]
        self.box = np.array([p["normal"] for p in box]), np.array([p["offset"] for p in box])
        self.value_point = rng.uniform(-1.0, 2.0, 3)
        self.inner_point = lengths * rng.uniform(0.2, 0.8, 3)
        # a jittered ring: no input point passes the anchor condition, so
        # the median is interior and dualize has spokes to work with
        ang = 2.0 * np.pi * np.arange(7) / 7 + rng.uniform(-0.2, 0.2, 7)
        self.points = rng.normal(size=2) + rng.uniform(0.7, 1.3, (7, 1)) * np.column_stack(
            [np.cos(ang), np.sin(ang)])
        self.t = float(rng.uniform(0.2, math.pi - 0.2))
        self.sample_seed = int(rng.integers(0, 2**63))
        files = {
            "pentagon.json": {"dimension": 2, "polygon": {"vertices": [list(map(float, v)) for v in pent]}},
            "trapezoid.json": {"dimension": 2, "polygon": {"vertices": [list(map(float, v)) for v in trap]}},
            "box.json": {"dimension": 3, "planes": box},
            "points.json": {"dimension": 2, "points": self.points.tolist()},
        }
        for fname, obj in files.items():
            with open(os.path.join(self.workdir, fname), "w") as fh:
                fh.write(json.dumps(obj, indent=1) + "\n")
        self.commands = [
            (["check", "pentagon.json"], 0, None),
            (["check", "trapezoid.json"], 1, None),
            (["value", "box.json", "--point=" + _csv(self.value_point)], 0, self._check_value),
            (["median", "points.json"], 0, self._check_median),
            (["dualize", "points.json"], 0, self._check_dualize),
            (["project", "box.json", "--point=" + _csv(self.inner_point)], 0, self._check_project),
            (["generate", "example5", "--t", repr(self.t)], 0, self._check_generate),
            (["sample", "box.json", "--count", str(self.SAMPLE_COUNT),
              "--seed", str(self.sample_seed), "--box=-1,1"], 0, self._check_sample),
            (["plot", "pentagon.json", "--out", "plot.svg"], 0, self._check_plot),
        ]

    def warm_ops(self) -> list[Op]:
        # a cold command costs the same whatever the seed's documents hold
        return self.make_round(0)[:self.warm]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest cold command."""
        return self.peak_rss_kb / 1024.0

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def make_round(self, r: int) -> list[Op]:
        return [self._cold_op(i) for i in range(len(self.commands))]

    def _cold_op(self, i: int) -> Op:
        argv, code, check = self.commands[i]

        def run(T):
            proc = T.call("cli.cold", run_child, [sys.executable, "-m", "viviani", *argv],
                          self.workdir, self.env)
            self.peak_rss_kb = max(self.peak_rss_kb, proc.maxrss_kb)

            def verify():
                if proc.returncode != code:
                    raise checks.CheckFailed(
                        f"{argv[0]} exited {proc.returncode}, expected {code}: "
                        f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
                out = proc.stdout
                if argv[0] == "plot":
                    with open(os.path.join(self.workdir, "plot.svg"), "rb") as fh:
                        out = fh.read()
                ref = self.reference.setdefault(i, out)
                if out != ref:
                    raise checks.CheckFailed(f"{argv[0]} output changed between runs")
                if check is not None:
                    check(out)
            return verify

        return Op(run)

    # output checks, from the theorems or from independent arithmetic
    def _check_value(self, out: bytes):
        v = float(checks.parse_fields(out.decode())["v"])
        checks.check_values(self.value_point[None, :], [v], *self.box)

    def _check_median(self, out: bytes):
        obj = json.loads(out)
        checks.check_median(self.points, obj["point"], obj["objective"])

    def _check_dualize(self, out: bytes):
        N, c = checks.doc_planes(out.decode())
        checks.check_spoke_planes(N, c, self.points)

    def _check_project(self, out: bytes):
        obj = json.loads(out)
        checks.check_feet(obj["points"], *self.box, self.inner_point)
        err = float(obj["metadata"]["recovery_error"])
        if not err <= 1e-7:
            raise checks.CheckFailed(f"recovery_error {err!r}")

    def _check_generate(self, out: bytes):
        """The four normals of the tetrahedron family at t, recomputed from
        their closed form, cancel; every plane is tangent to the unit sphere."""
        N, c = checks.doc_planes(out.decode())
        t = self.t
        want = np.array([[math.cos(t / 2), math.sin(t) / 2, (1 - math.cos(t)) / 2],
                         [-math.cos(t / 2), math.sin(t) / 2, (1 - math.cos(t)) / 2],
                         [0.0, -math.sin(t), math.cos(t)],
                         [0.0, 0.0, -1.0]])
        checks.check_same_planes(N, c, want, np.ones(4), 1.0)
        checks.check_spoke_planes(N, c, N * c[:, None], rtol=1e-12)

    def _check_sample(self, out: bytes):
        fields = checks.parse_fields(out.decode())
        pts = checks.lcg_points(self.sample_seed, self.SAMPLE_COUNT, 3, -1.0, 1.0)
        ref = checks.affine_values(pts, *self.box)
        scale = 1e-12 * (float(np.abs(self.box[1]).sum()) + 6.0)
        if int(fields["n"]) != self.SAMPLE_COUNT or not (
                abs(float(fields["min"]) - ref.min()) <= scale
                and abs(float(fields["max"]) - ref.max()) <= scale
                and float(fields["spread"]) <= scale):
            raise checks.CheckFailed(f"sample output {out!r} disagrees with the reference")

    def _check_plot(self, out: bytes):
        checks.check_svg(out)

    def after(self, T) -> dict:
        """Where a cold command's time goes: a bare interpreter, the two big
        imports, the command in a warm interpreter, and the SVG renderer."""
        for _ in range(7):
            T.call("cli.interpreter", subprocess.run, [sys.executable, "-c", "pass"],
                   env=self.env, capture_output=True, check=True)
        numpy_ms, viviani_ms = [], []
        for _ in range(7):
            err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import viviani"],
                                 env=self.env, capture_output=True, check=True).stderr.decode()
            cum = _import_cumulative_us(err)
            numpy_ms.append(cum["numpy"] / 1e3)
            viviani_ms.append((cum["viviani"] - cum["numpy"]) / 1e3)
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            for _ in range(3):
                for argv, code, _ in self.commands:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        got = T.call("cli.run_cli", run_cli, list(argv))
                    if got != code:
                        raise checks.CheckFailed(f"run_cli {argv[0]} returned {got}")
            for fname in ("pentagon.json", "trapezoid.json", "box.json", "points.json"):
                with open(fname, "rb") as fh:
                    data = fh.read()
                doc = T.call("document.parse", parse_document, data)
                T.call("document.serialize", serialize_document, doc)
                if doc.dimension == 2:
                    T.call("svgplot.render_svg", render_svg, doc)
        finally:
            os.chdir(here)
        return {"cli.import_numpy_ms": statistics.median(numpy_ms),
                "cli.import_viviani_ms": statistics.median(viviani_ms)}


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(argv: list[str], cwd: str, env: dict) -> Child:
    """Run a command in ``cwd`` to its end and return its output and its own
    peak resident memory, which ``os.wait4`` reports for that child alone.
    The output goes through unnamed files in ``cwd``."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), usage.ru_maxrss)


def _regular(k, radius, centre, phase):
    ang = phase + 2.0 * np.pi * np.arange(k) / k
    return centre + radius * np.column_stack([np.cos(ang), np.sin(ang)])


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def _import_cumulative_us(stderr: str) -> dict[str, int]:
    """Cumulative microseconds of the shallowest ``numpy`` and ``viviani``
    entries of ``python -X importtime`` output."""
    best: dict[str, tuple[int, int]] = {}
    for m in _IMPORTTIME.finditer(stderr):
        name, depth = m.group(4), len(m.group(3))
        if name in ("numpy", "viviani") and (name not in best or depth < best[name][0]):
            best[name] = (depth, int(m.group(2)))
    return {name: us for name, (_, us) in best.items()}


WORKLOADS = {
    "median_small2d": MedianSmall2d,
    "median_sweep_nd": MedianSweepNd,
    "viviani_roundtrip": VivianiRoundtrip,
    "cli_cold": CliCold,
}
