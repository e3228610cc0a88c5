"""Per-layer tracing for the benchmark's traced runs.

`install()` wraps the public functions of each anisospec module at every
module-level name that refers to them, which is the name its callers resolve
(for example `anisospec.functional.solve_quadratic`), and wraps scipy's `cg`
where `anisospec.fem.solver` imported it. Each call becomes a span
(name, start, end, parent, op id) kept in memory; `write()` saves them when
the run ends. `raw()` reduces the spans and counters to additive sums, so the
sums of several processes can be added before `layer_metrics()` turns them
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

# module -> public functions that become spans named "<layer>.<function>";
# every public function defined in anisospec.closed_forms is added
TRACED = {
    "anisospec.functional": ("eval_F", "optimize_quadratic", "optimize_rank1", "q_sweep"),
    "anisospec.fem.solver": ("solve_quadratic", "lambda_euclid_fem", "p1_assemble"),
    "anisospec.fem.meshing": ("mesh_polygon",),
    "anisospec.slicing": ("solve_rank1",),
    "anisospec.geometry": ("slab_decomposition",),
}
OPTIMIZERS = ("functional.optimize_quadratic", "functional.optimize_rank1", "functional.q_sweep")
ROUTES = ("fem.solver.solve_quadratic", "fem.solver.lambda_euclid_fem", "slicing.solve_rank1")
# cg is attributed to the eigensolve or the torsion solve by the function that
# called the solver's CG helper
CG_ROLES = {"_lambda_on_mesh": "eig", "_torsion_on_mesh": "torsion"}

IMPORT_MODULES = (
    "anisospec",
    "anisospec.errors",
    "anisospec.geometry",
    "anisospec.seminorms",
    "anisospec.closed_forms",
    "anisospec.slicing",
    "anisospec.fem",
    "anisospec.fem.meshing",
    "anisospec.fem.solver",
    "anisospec.functional",
    "anisospec.cli",
    "scipy.special",
)

# per-layer metric name -> unit; the order is the order they are reported in
LAYER_UNITS = {
    "fem.solver.eig.cg_calls": "count",
    "fem.solver.eig.cg_iters": "count",
    "fem.solver.eig.cg_s": "s",
    "fem.solver.torsion.cg_iters": "count",
    "fem.solver.torsion.cg_s": "s",
    "fem.solver.cg.matvec_nnz": "count",
    "fem.solver.p1_assemble.calls": "count",
    "fem.solver.p1_assemble.s": "s",
    "fem.solver.nnz_mean": "count",
    "fem.solver.solve_quadratic.calls": "count",
    "fem.solver.solve_quadratic.s": "s",
    "fem.solver.lambda_euclid_fem.calls": "count",
    "fem.solver.lambda_euclid_fem.s": "s",
    "fem.meshing.mesh_polygon.calls": "count",
    "fem.meshing.mesh_polygon.new": "count",
    "fem.meshing.mesh_polygon.s": "s",
    "fem.meshing.nodes_mean": "count",
    "fem.meshing.refined.calls": "count",
    "fem.meshing.refined.s": "s",
    "fem.meshing.transformed.calls": "count",
    "fem.meshing.transformed.s": "s",
    "slicing.solve_rank1.calls": "count",
    "slicing.solve_rank1.s": "s",
    "slicing.breakpoints_mean": "count",
    "geometry.slab_decomposition.calls": "count",
    "geometry.slab_decomposition.s": "s",
    "closed_forms.calls": "count",
    "closed_forms.s": "s",
    "functional.eval_F.calls": "count",
    "functional.eval_F.s": "s",
    "functional.evals_per_op": "count",
    "functional.spectral_hit_ratio": "ratio",
    "functional.optimizer_self_s": "s",
    "cli.import_s": "s",
    **{f"cli.import.{m}_s": "s" for m in IMPORT_MODULES},
    "cli.main_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self.op = 0
        self.counts = defaultdict(float)
        self._meshes = {}  # id -> mesh; holding the mesh keeps its id unique

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(out)
            return out

        return traced

    def wrap_cg(self, cg):
        @functools.wraps(cg)
        def traced_cg(A, b, *args, callback=None, **kwargs):
            role = CG_ROLES.get(sys._getframe(2).f_code.co_name, "other")
            iters = 0

            def count(xk):
                nonlocal iters
                iters += 1
                if callback is not None:
                    callback(xk)

            out = self.call(f"fem.solver.{role}.cg", cg, A, b, *args, callback=count, **kwargs)
            self.counts[f"fem.solver.{role}.cg_iters"] += iters
            self.counts["fem.solver.cg.matvec_nnz"] += iters * A.nnz
            return out

        return traced_cg

    def _new_mesh(self, mesh) -> None:
        if id(mesh) not in self._meshes:
            self._meshes[id(mesh)] = mesh
            self.counts["fem.meshing.mesh_polygon.new"] += 1
            self.counts["fem.meshing.nodes_sum"] += mesh.n_nodes

    def _after(self, name: str):
        def add(key, value):
            self.counts[key] += value

        return {
            "fem.solver.p1_assemble": lambda out: add("fem.solver.nnz_sum", out[0].nnz),
            "fem.meshing.mesh_polygon": self._new_mesh,
            "slicing.solve_rank1": lambda out: add("slicing.breakpoints_sum", out.breakpoints_used),
        }.get(name)

    def raw(self) -> dict:
        """Additive sums: calls, inclusive and self seconds per span name,
        eval_F calls that reached a route function, and the counters."""
        out = defaultdict(float, {f"count:{k}": v for k, v in self.counts.items()})
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        missed = set()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"calls:{name}"] += 1
            out[f"s:{name}"] += end - start
            out[f"self:{name}"] += end - start - child[i]
            if name in ROUTES or name.startswith("closed_forms."):
                while parent >= 0 and self.spans[parent][0] != "functional.eval_F":
                    parent = self.spans[parent][3]
                if parent >= 0:
                    missed.add(parent)
        out["eval_F_missed"] = len(missed)
        return dict(out)

    def write(self, path) -> None:
        """Save the spans as gzipped JSON, names interned in a table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p, op] for n, a, b, p, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": names, "spans": rows}, fh)


def install() -> Tracer:
    """Wrap every traced function at each anisospec module-level name bound
    to it, plus TriMesh.refined/transformed and the solver's cg."""
    import anisospec  # noqa: F401  (loads every module the wrappers patch)
    from anisospec import closed_forms
    from anisospec.fem import meshing, solver

    own = [n for n in closed_forms.__all__ if getattr(closed_forms, n).__module__ == closed_forms.__name__]
    tracer = Tracer()
    wrappers = {}
    for modname, funcs in dict(TRACED, **{closed_forms.__name__: own}).items():
        module = sys.modules[modname]
        layer = modname.removeprefix("anisospec.")
        for fname in funcs:
            name = f"{layer}.{fname}"
            fn = getattr(module, fname)
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, tracer._after(name)))
    for modname, module in list(sys.modules.items()):
        if modname == "anisospec" or modname.startswith("anisospec."):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
    for method in ("refined", "transformed"):
        fn = getattr(meshing.TriMesh, method)
        setattr(meshing.TriMesh, method, tracer.wrap(f"fem.meshing.{method}", fn))
    solver.cg = tracer.wrap_cg(solver.cg)
    return tracer


def merge(raws) -> dict:
    out = defaultdict(float)
    for raw in raws:
        for k, v in raw.items():
            out[k] += v
    return dict(out)


def layer_metrics(raw: dict, n_ops: int) -> dict:
    """Per-layer metrics from merged raw sums (everything but the import,
    cli.main and overhead figures, which the runner adds)."""
    g = lambda key: float(raw.get(key, 0.0))  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {
        "fem.solver.eig.cg_calls": g("calls:fem.solver.eig.cg"),
        "fem.solver.eig.cg_iters": g("count:fem.solver.eig.cg_iters"),
        "fem.solver.eig.cg_s": g("s:fem.solver.eig.cg"),
        "fem.solver.torsion.cg_iters": g("count:fem.solver.torsion.cg_iters"),
        "fem.solver.torsion.cg_s": g("s:fem.solver.torsion.cg"),
        "fem.solver.cg.matvec_nnz": g("count:fem.solver.cg.matvec_nnz"),
        "fem.solver.nnz_mean": ratio(g("count:fem.solver.nnz_sum"), g("calls:fem.solver.p1_assemble")),
        "fem.meshing.mesh_polygon.new": g("count:fem.meshing.mesh_polygon.new"),
        "fem.meshing.nodes_mean": ratio(g("count:fem.meshing.nodes_sum"), g("count:fem.meshing.mesh_polygon.new")),
        "slicing.breakpoints_mean": ratio(g("count:slicing.breakpoints_sum"), g("calls:slicing.solve_rank1")),
        "closed_forms.calls": sum(v for k, v in raw.items() if k.startswith("calls:closed_forms.")),
        "closed_forms.s": sum(v for k, v in raw.items() if k.startswith("s:closed_forms.")),
        "functional.evals_per_op": ratio(g("calls:functional.eval_F"), n_ops),
        "functional.spectral_hit_ratio": ratio(
            g("calls:functional.eval_F") - g("eval_F_missed"), g("calls:functional.eval_F")
        ),
        "functional.optimizer_self_s": sum(g(f"self:{name}") for name in OPTIMIZERS),
    }
    for span in (
        "fem.solver.p1_assemble",
        "fem.solver.solve_quadratic",
        "fem.solver.lambda_euclid_fem",
        "fem.meshing.mesh_polygon",
        "fem.meshing.refined",
        "fem.meshing.transformed",
        "slicing.solve_rank1",
        "geometry.slab_decomposition",
        "functional.eval_F",
    ):
        m[f"{span}.calls"] = g(f"calls:{span}")
        m[f"{span}.s"] = g(f"s:{span}")
    return m


def collect(res: dict, n_ops: int, imports: list, main_s: float, overhead: float) -> dict:
    """All per-layer metrics of a traced pass: the span sums (from the loop
    process, or from each op's own process), the import samples (seconds per
    module plus "total"), time in cli.main and the tracing overhead."""
    raws = [res["raw"]] if "raw" in res else [op["raw"] for op in res["ops"] if "raw" in op]
    m = layer_metrics(merge(raws), n_ops)
    m["cli.import_s"] = statistics.median(s["total"] for s in imports)
    for mod in IMPORT_MODULES:
        m[f"cli.import.{mod}_s"] = statistics.median(s.get(mod, 0.0) for s in imports)
    m["cli.main_s"] = main_s
    m["trace.overhead"] = overhead
    return m


def parse_importtime(stderr: str) -> dict:
    """Seconds per module from `python -X importtime` output: self time for
    anisospec modules, cumulative time for scipy.special (its own body is
    tiny; the cost sits in the extension modules it loads)."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if not fields[0].isdigit():
            continue
        name = fields[2]
        if name in IMPORT_MODULES:
            out[name] = int(fields[1] if name == "scipy.special" else fields[0]) * 1e-6
    return out
