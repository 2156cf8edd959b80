"""Per-layer tracing from outside the library.

The tracer replaces chosen public functions of ``tftflip`` with thin
wrappers for the length of a traced run and puts the originals back
afterwards.  Each wrapped call is a span with a parent link; calls,
self time (span time minus the time of wrapped child calls) and
caller->callee call counts are aggregated for every call, while the
span records themselves are kept in memory up to a quota per name and
written out at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time

# Check names of the ``verify`` registry; one ``checks.<name>.s``
# metric each.  Kept static so the metric set does not depend on the
# code under test; the smoke test compares it with the registry.
CHECK_NAMES = (
    "counting", "short-chords", "phi-roundtrip", "flip-involution",
    "relations", "stabilizer", "volumes", "action-vs-geometry",
    "generator-lengths", "rep-lengths", "rep-phi-correspondence",
    "s0-direction", "self-duality", "order-closure", "meet-join",
    "modularity", "duality", "rank-polynomial", "graph-description",
    "distance-formula", "diameter-bfs", "diameter-scan", "antipodes",
    "bipartition", "shortest-reps", "lower-bound", "rotation-automorphism",
)

# layer -> public functions whose calls and self time are reported
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "geometry": ("enumerate_ctft", "phi_inv", "flip", "is_valid", "phi"),
    "coxeter": ("coxeter_length", "word_to_affine", "compose", "act_on_phi"),
    "representatives": (
        "all_reps", "apply_generator", "leq", "meet", "join", "dual", "covers",
    ),
    "flipgraph": (
        "build_graph", "bfs_distances", "distance_formula",
        "formula_scan_diameter", "shortest_representatives", "write_export",
    ),
}

RATIO_METRICS = {
    "geometry.flip.moved_ratio": "ratio",
    "representatives.apply_generator.moved_ratio": "ratio",
    "flipgraph.build_graph.redundant_ratio": "ratio",
    "flipgraph.shortest_representatives.length_calls_per_letter": "calls/letter",
}

OVERHEAD_METRIC = "trace.overhead_s"

# The first SPANS_PER_NAME spans of each name are stored; aggregates
# count every call.  This bounds memory (the lattice oracle alone makes
# ~10^6 calls) while keeping every span of the rarely called functions.
SPANS_PER_NAME = 2000


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for name in CHECK_NAMES:
        units[f"checks.{name}.s"] = "s"
    units.update(RATIO_METRICS)
    units[OVERHEAD_METRIC] = "s"
    return units


class Tracer:
    """Spans and counters for one traced run.  ``active`` is cleared
    while the benchmark checks outputs, so checking adds no calls."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.tally: dict[str, int] = {}  # name -> sum of post-hook values
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[list] = []  # [id, parent, root, name, start, end]
        self._stack: list[list] = []  # [id, root, name, child_s]
        self._next_id = 0
        self._origin = time.perf_counter()
        self._built_n: set[int] = set()
        self._restore: list[tuple] = []  # (owner, attribute or slice, original)

    def wrap(self, name, fn, post=None):
        """Wrap ``fn`` as span ``name``.  ``post(args, result)`` returns
        a number added to ``tally[name]``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.tally.setdefault(name, 0)
        stack, spans, edges, clock = self._stack, self.spans, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            if parent is None:
                root, parent_id, parent_name = sid, None, None
            else:
                root, parent_id, parent_name = parent[1], parent[0], parent[2]
            key = (parent_name, name)
            edges[key] = edges.get(key, 0) + 1
            span = None
            if stat[0] < SPANS_PER_NAME:
                span = [sid, parent_id, root, name, 0.0, 0.0]
                spans.append(span)
            frame = [sid, root, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][3] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[3]
                stat[2] += elapsed
                if span is not None:
                    span[4] = start - self._origin
                    span[5] = end - self._origin
            if post is not None:
                self.tally[name] += post(args, result)
            return result

        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a root span (one benchmark operation)."""
        return self.wrap(name, fn)(*args)

    def _patch(self, owner, attr, name, post=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, post))

    def install(self, pkg) -> None:
        """Wrap the layer functions of the imported package ``pkg``."""
        owners = {
            "cli": pkg.cli,
            "geometry": pkg.geometry,
            "coxeter": pkg.coxeter,
            "representatives": pkg.representatives,
            "flipgraph": pkg.flipgraph,
        }
        methods = {
            "flip": pkg.geometry.ColoredTriangulation,
            "is_valid": pkg.geometry.ColoredTriangulation,
            "phi": pkg.geometry.ColoredTriangulation,
            "compose": pkg.coxeter.AffineMap,
        }
        posts = {
            "flip": lambda args, out: out is not args[0],
            "apply_generator": lambda args, out: out.moved,
            "build_graph": self._redundant_build,
            "shortest_representatives": lambda args, out: sum(len(w) for _, w in out),
        }
        for layer, names in LAYER_FUNCTIONS.items():
            for attr in names:
                owner = methods.get(attr, owners[layer])
                self._patch(owner, attr, f"{layer}.{attr}", posts.get(attr))
        suites = pkg.checks.SUITES
        self._restore.append((suites, slice(None), list(suites)))
        suites[:] = [
            dataclasses.replace(c, run=self.wrap(f"checks.{c.name}", c.run))
            for c in suites
        ]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(attr, slice):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _redundant_build(self, args, out) -> bool:
        seen = out.n in self._built_n
        self._built_n.add(out.n)
        return seen

    def metrics(self, overhead_s: float) -> dict[str, float]:
        def stat(name):
            return self.stats.get(name, (0, 0.0, 0.0))

        def per_call(name):
            calls = stat(name)[0]
            return self.tally.get(name, 0) / calls if calls else 0.0

        out = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for attr in names:
                calls, self_s, _ = stat(f"{layer}.{attr}")
                out[f"{layer}.{attr}.calls"] = calls
                out[f"{layer}.{attr}.self_s"] = self_s
        for name in CHECK_NAMES:
            out[f"checks.{name}.s"] = stat(f"checks.{name}")[2]
        out["geometry.flip.moved_ratio"] = per_call("geometry.flip")
        out["representatives.apply_generator.moved_ratio"] = per_call(
            "representatives.apply_generator"
        )
        out["flipgraph.build_graph.redundant_ratio"] = per_call("flipgraph.build_graph")
        shortest = "flipgraph.shortest_representatives"
        letters = self.tally.get(shortest, 0)
        length_calls = self.edges.get((shortest, "coxeter.coxeter_length"), 0)
        out[f"{shortest}.length_calls_per_letter"] = (
            length_calls / letters if letters else 0.0
        )
        out[OVERHEAD_METRIC] = overhead_s
        return out

    def dump(self, path) -> None:
        """Write spans (times in seconds from tracer creation), the
        aggregates and the caller->callee counts as JSON.  A span's
        parent is missing from the dump when the parent's name had used
        up its quota."""
        doc = {
            "span_fields": ["id", "parent", "root", "name", "start_s", "end_s"],
            "spans_per_name": SPANS_PER_NAME,
            "spans": self.spans,
            "stats": {k: {"calls": c, "self_s": s, "total_s": t}
                      for k, (c, s, t) in sorted(self.stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items(), key=str)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
