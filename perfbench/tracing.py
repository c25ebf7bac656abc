"""Spans around calls into cgpkit's public functions, recorded from outside
the program.

`Tracer.install()` replaces the listed functions at their module (or class)
attributes with wrappers.  cgpkit calls these through module attributes or
module globals, so calls made inside the program are caught as well.  Each
span is [name, layer, start, end, parent index, op id]; spans stay in
memory and are written out when the run ends.  Work counts (cells applied,
computed flops, Hom-solve rows, ...) are derived from the arguments and
results at the same boundaries; the time spent deriving them is recorded
as a `trace` span, so it is not charged to any layer.

Run as a script, this file is the traced CLI child:
    python3 perfbench/tracing.py SPANS.json -- <cgpkit cli arguments>
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("weightcat", "diagrams", "rt_eval", "surgery", "state_spaces", "cli")

# (module, attribute, layer).  Per-letter helpers (color_dim, realize_letter,
# cell constructors, ...) are left out: a span there costs more than the work.
TRACED = [
    ("weightcat", "constants", "weightcat"),
    ("weightcat", "hom_basis", "weightcat"),
    ("weightcat", "hom_dim_graded", "weightcat"),
    ("weightcat", "modified_trace", "weightcat"),
    ("weightcat", "modified_dimension", "weightcat"),
    ("weightcat", "kirby_color", "weightcat"),
    ("weightcat", "index_set", "weightcat"),
    ("weightcat", "realize", "weightcat"),
    ("weightcat", "braiding", "weightcat"),
    ("weightcat", "braiding_inv", "weightcat"),
    ("weightcat", "ev_coev", "weightcat"),
    ("weightcat", "twist", "weightcat"),
    ("weightcat", "scalar_of", "weightcat"),
    # cell-matrix construction is weightcat work reached through rt_eval
    ("rt_eval", "cell_matrix", "weightcat"),
    ("diagrams", "Diagram.boundary_words", "diagrams"),
    ("diagrams", "Diagram.ports_and_components", "diagrams"),
    ("diagrams", "Diagram.recolor_component", "diagrams"),
    ("diagrams", "Diagram.crossing_records", "diagrams"),
    ("diagrams", "Diagram.component_colors", "diagrams"),
    ("diagrams", "Diagram.components_with_coupons", "diagrams"),
    ("diagrams", "validate", "diagrams"),
    ("diagrams", "compose", "diagrams"),
    ("diagrams", "tensor", "diagrams"),
    ("diagrams", "insert_slices", "diagrams"),
    ("diagrams", "apply_cell", "diagrams"),
    ("diagrams", "add_curl", "diagrams"),
    ("diagrams", "encircle", "diagrams"),
    ("diagrams", "encircle_at", "diagrams"),
    ("diagrams", "trace_closure", "diagrams"),
    ("diagrams", "cut", "diagrams"),
    ("diagrams", "stabilize_projective", "diagrams"),
    ("diagrams", "stabilize_generic", "diagrams"),
    ("diagrams", "diagram_from_json", "diagrams"),
    ("diagrams", "diagram_to_json", "diagrams"),
    ("rt_eval", "evaluate", "rt_eval"),
    ("rt_eval", "evaluate_formal", "rt_eval"),
    ("rt_eval", "find_typical_edge", "rt_eval"),
    ("rt_eval", "f_prime", "rt_eval"),
    ("surgery", "validate_presentation", "surgery"),
    ("surgery", "linking_data", "surgery"),
    ("surgery", "check_computable", "surgery"),
    ("surgery", "check_admissible", "surgery"),
    ("surgery", "cgp", "surgery"),
    ("surgery", "cgp_disjoint", "surgery"),
    ("surgery", "auto_stabilize", "surgery"),
    ("state_spaces", "sphere_hom_dim", "state_spaces"),
    ("state_spaces", "genus1_dim", "state_spaces"),
    ("state_spaces", "graded_vertex_dim", "state_spaces"),
    ("state_spaces", "genus_n_dim", "state_spaces"),
    ("cli", "main", "cli"),
    ("cli", "load_presentation", "cli"),
    ("cli", "render_json", "cli"),
    ("cli", "cmd_cgp", "cli"),
    ("cli", "cmd_constants", "cli"),
    ("cli", "cmd_moddim", "cli"),
    ("cli", "cmd_statespace", "cli"),
]

NAME, LAYER, START, END, PARENT, OP = range(6)
SETUP = "setup"
COMPLEX_BYTES = 16


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP
        self.counts = Counter()
        self.maxima = Counter()
        self.vertex_words: set = set()
        self.child_vertex_words = 0
        self.kappa_max = 0.0
        self._terms: list[list] = []  # [coefficients, traces] of each open f_prime
        self._restore: list[tuple] = []
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    def run_op(self, name: str, fn):
        """Run one benchmark operation as a root span of layer `bench`."""
        self.op = name
        span = self._open("op:" + name, "bench")
        try:
            return fn()
        finally:
            self._close(span)

    def _in_pass(self) -> bool:
        return self.op != SETUP

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in {m for m, _, _ in TRACED}}
        for mod_name, attr, layer in TRACED:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name}.{attr}"
            setattr(owner, leaf, self._wrap(orig, name, layer))
            self._restore.append((owner, leaf, orig))
            self.wrapped.append(name)
        # counted without spans: Kirby terms, theta-piece colourings, and
        # the cell-matrix cache read by cell_cache_counts
        rt, ss = modules["rt_eval"], modules["state_spaces"]
        for owner, leaf, wrap in ((rt, "expand_formal", self._wrap_terms),
                                  (ss, "_vertex_words",
                                   lambda f: self._wrap_count(f, "colorings"))):
            orig = getattr(owner, leaf, None)
            if orig is None:
                self.missing.append(f"{owner.__name__}.{leaf}")
                continue
            self._restore.append((owner, leaf, orig))
            setattr(owner, leaf, wrap(orig))
        if not hasattr(getattr(rt, "_cell_matrix_cached", None), "cache_info"):
            self.missing.append("rt_eval._cell_matrix_cached.cache_info")
        self.weightcat = modules["weightcat"]

    def uninstall(self) -> None:
        for owner, leaf, orig in reversed(self._restore):
            setattr(owner, leaf, orig)
        self._restore.clear()

    def _wrap(self, orig, name: str, layer: str):
        tracer = self
        after = getattr(self, "_after_" + name.rsplit(".", 1)[-1], None)
        before = getattr(self, "_before_" + name.rsplit(".", 1)[-1], None)

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._bookkeep(before, args, kwargs)
            span = tracer._open(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                tracer._bookkeep(after, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def _wrap_count(self, orig, counter: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_pass():
                tracer.counts[counter] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _wrap_terms(self, orig):
        tracer = self

        def expand_formal(*args, **kwargs):
            for coeff, plain in orig(*args, **kwargs):
                if tracer._in_pass():
                    tracer.counts["kirby_terms"] += 1
                if tracer._terms:
                    tracer._terms[-1][0].append(coeff)
                yield coeff, plain
        return expand_formal

    def _bookkeep(self, fn, *args) -> None:
        span = self._open("trace.bookkeeping", "trace")
        try:
            fn(*args)
        finally:
            self._close(span)

    # -- work counts at the boundaries ----------------------------------------

    def _word_dims(self, ctx, word) -> list[int]:
        return [self.weightcat.color_dim(ctx, c) for _, c in word]

    def _before_f_prime(self, args, kwargs):
        self._terms.append([[], []])

    def _after_f_prime(self, args, kwargs, result):
        coeffs, traces = self._terms.pop()
        if self._in_pass() and coeffs and len(coeffs) == len(traces):
            terms = [complex(c) * complex(t) for c, t in zip(coeffs, traces)]
            total = abs(sum(terms))
            kappa = sum(abs(t) for t in terms) / total if total > 0 else math.inf
            self.kappa_max = max(self.kappa_max, kappa)

    def _after_modified_trace(self, args, kwargs, result):
        if self._terms:
            self._terms[-1][1].append(result)

    def _after_cut(self, args, kwargs, result):
        if self._in_pass():
            words = self._unwrapped_boundary_words(result)
            self.maxima["cut_width_max"] = max(self.maxima["cut_width_max"],
                                               max(len(w) for w in words))

    def _unwrapped_boundary_words(self, d):
        for owner, leaf, orig in self._restore:
            if leaf == "boundary_words":
                return orig(d)
        return d.boundary_words()

    def _before_evaluate(self, args, kwargs):
        """Cells applied, complex multiply-adds, bytes of the two transposed
        state copies per cell and the peak state, from boundary-word
        dimensions, following the dense sweep of rt_eval.evaluate."""
        if not self._in_pass():
            return
        ctx, d = args[0], args[1]
        self.counts["evaluate_calls"] += 1
        words = self._unwrapped_boundary_words(d)
        src = math.prod(self._word_dims(ctx, words[0]))
        peak = src * src
        for s, cells in enumerate(d.slices):
            dims = self._word_dims(ctx, words[s])
            pos, prefix = 0, []
            for cell in cells:
                nin = len(cell.in_letters())
                if cell.kind == "id":
                    prefix.append(dims[pos])
                    pos += 1
                    continue
                out_dims = self._word_dims(ctx, cell.out_letters())
                din, dout = math.prod(dims[pos:pos + nin]), math.prod(out_dims)
                dl, dr = math.prod(prefix), math.prod(dims[pos + nin:])
                rest = dl * dr * src
                self.counts["cells_applied"] += 1
                self.counts["flops"] += dout * din * rest
                self.counts["bytes_moved"] += COMPLEX_BYTES * (din + dout) * rest
                peak = max(peak, din * rest, dout * rest)
                prefix.extend(out_dims)
                dims[pos:pos + nin] = out_dims
                pos += len(out_dims)
        self.maxima["peak_state_entries"] = max(self.maxima["peak_state_entries"], peak)

    def _before_hom_basis(self, args, kwargs):
        if self._in_pass():
            ctx, src, dst = args[:3]
            rows = 3 * math.prod(self._word_dims(ctx, src)) * math.prod(self._word_dims(ctx, dst))
            self.maxima["hom_rows_max"] = max(self.maxima["hom_rows_max"], rows)

    def _before_graded_vertex_dim(self, args, kwargs):
        if self._in_pass():
            self.vertex_words.add(tuple(args[1]))

    # -- results ---------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": dict(self.maxima),
                "vertex_words": len(self.vertex_words) + self.child_vertex_words,
                "kappa_max": self.kappa_max,
                "wrapped": self.wrapped, "missing": self.missing}


def graft(tracer: Tracer, child: dict) -> None:
    """Add a traced CLI child's spans and counts under the open op span."""
    root, base = tracer.stack[-1], len(tracer.spans)
    for span in child["spans"]:
        span = list(span)
        span[PARENT] = root if span[PARENT] < 0 else span[PARENT] + base
        span[OP] = tracer.op
        tracer.spans.append(span)
    tracer.counts.update(child["counts"])
    for key, val in child["maxima"].items():
        tracer.maxima[key] = max(tracer.maxima[key], val)
    tracer.child_vertex_words += child["vertex_words"]
    tracer.kappa_max = max(tracer.kappa_max, child["kappa_max"])


def cell_cache_counts(rt_eval) -> dict:
    """Hits and misses so far of the cell-matrix lru_cache, if there is one."""
    info = getattr(getattr(rt_eval, "_cell_matrix_cached", None), "cache_info", None)
    if info is None:
        return {}
    info = info()
    return {"cell_cache_hits": info.hits, "cell_cache_misses": info.misses}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_nesting(spans: list[list], slack: float = 1e-6) -> int:
    """Number of spans that lie outside their parent's interval."""
    bad = 0
    for s in spans:
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            bad += s[START] < p[START] - slack or s[END] > p[END] + slack
    return bad


def layer_metrics(data: dict) -> dict:
    """Per-layer numbers of one traced pass (constants_s and build_s include
    the set-up)."""
    spans = data["spans"]
    own = self_times(spans)

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield p
            p = spans[p][PARENT]

    def inclusive(names, scope="pass"):
        total = 0.0
        for i, s in enumerate(spans):
            if s[NAME] in names and (scope == "all" or s[OP] != SETUP) \
                    and not any(spans[a][NAME] in names for a in ancestors(i)):
                total += s[END] - s[START]
        return total

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name and s[OP] != SETUP)

    in_pass = [i for i, s in enumerate(spans) if s[OP] != SETUP]
    selfs = {layer: 0.0 for layer in (*LAYERS, "bench", "trace")}
    for i in in_pass:
        selfs[spans[i][LAYER]] += own[i]
    build = sum((own[i] for i, s in enumerate(spans)
                if s[OP] == SETUP and s[LAYER] == "diagrams"
                and not any(spans[a][NAME] == "weightcat.constants" for a in ancestors(i))),
                0.0)
    stabilize = sum((own[i] for i in in_pass if spans[i][LAYER] == "diagrams"
                    and any(spans[a][NAME] == "surgery.auto_stabilize" for a in ancestors(i))),
                    0.0)
    counts, maxima = data["counts"], data["maxima"]
    vertex_calls = calls("state_spaces.graded_vertex_dim")
    hits = counts.get("cell_cache_hits", 0)
    lookups = hits + counts.get("cell_cache_misses", 0)
    out = {
        "constants_s": inclusive({"weightcat.constants"}, scope="all"),
        "cell_matrix_s": inclusive({"rt_eval.cell_matrix"}),
        "cell_matrix_calls": calls("rt_eval.cell_matrix"),
        "cell_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "hom_basis_s": inclusive({"weightcat.hom_basis"}),
        "hom_basis_calls": calls("weightcat.hom_basis"),
        "hom_rows_max": maxima.get("hom_rows_max", 0),
        "modified_trace_s": inclusive({"weightcat.modified_trace"}),
        "build_s": build,
        "recolor_s": inclusive({"diagrams.Diagram.recolor_component"}),
        "cut_s": inclusive({"diagrams.cut"}),
        "cut_width_max": maxima.get("cut_width_max", 0),
        "stabilize_s": stabilize,
        "sweep_s": sum(own[i] for i in in_pass if spans[i][NAME] == "rt_eval.evaluate"),
        "evaluate_calls": counts.get("evaluate_calls", 0),
        "kirby_terms": counts.get("kirby_terms", 0),
        "cells_applied": counts.get("cells_applied", 0),
        "flops": counts.get("flops", 0),
        "bytes_moved_mib": counts.get("bytes_moved", 0) / 2**20,
        "peak_state_entries": maxima.get("peak_state_entries", 0),
        "peak_state_mib": maxima.get("peak_state_entries", 0) * COMPLEX_BYTES / 2**20,
        "validate_s": inclusive({"surgery.validate_presentation", "surgery.linking_data",
                                 "surgery.check_admissible"}),
        "cancellation_ratio_max": data["kappa_max"],
        "vertex_dim_s": inclusive({"state_spaces.graded_vertex_dim"}),
        "vertex_dim_calls": vertex_calls,
        "vertex_distinct_ratio": data["vertex_words"] / vertex_calls if vertex_calls else 0.0,
        "colorings": counts.get("colorings", 0),
    }
    for layer, val in selfs.items():
        out[f"self_{layer}_s"] = val
    out["spans"] = len(spans)
    return out


def _child_main(argv: list[str]) -> int:
    """Traced CLI child: install the tracer, run cgpkit.cli.main, write spans."""
    out_path, sep, *cli_args = argv
    assert sep == "--"
    import cgpkit
    from cgpkit import cli, rt_eval

    tracer = Tracer()
    tracer.install(cgpkit)
    tracer.op = "child"
    try:
        code = cli.main(cli_args)
    finally:
        tracer.counts.update(cell_cache_counts(rt_eval))
        Path(out_path).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
