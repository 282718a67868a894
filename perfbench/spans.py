"""Outside-in tracing of smc_kit for the per-layer benchmark metrics.

The tracer wraps public functions and methods of each smc_kit module from
outside the package; nothing in ``src/`` knows about it.  A layer is a module
(``exactla``, ``algebra``, ``homotopy.homs``, ...) and a span is one call of a
wrapped function, recorded with its name, start, end and parent span.

A wrapper must replace the original everywhere it can be reached:

* functions are rebound in every loaded module that holds the original
  object, because modules such as ``smc`` and ``cli`` import ``hom_table``
  by name, package ``__init__`` files re-export them, and the benchmark's
  own workloads import the entry points by name;
* methods are replaced on their class, so calls through instances see them.

Spans are kept in flat arrays while the workload runs and are aggregated only
afterwards, so the cost per call is a few list appends and two clock reads.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# Module -> functions and "Class.method" names whose calls become spans.  A
# name a later version of the library no longer has is skipped and reported.
TRACED = {
    "smc_kit.exactla": [
        "rref", "rank", "kernel_basis", "left_kernel_basis", "solve",
        "solve_matrix", "express_rows", "row_space_basis", "det", "hstack",
        "vstack", "Mat.__matmul__",
    ],
    "smc_kit.algebra": [
        "Algebra.from_quiver", "Algebra.validate", "Algebra.mul_vec",
        "Algebra.lrow", "Algebra.rrow", "Algebra.op", "Algebra.corner",
        "Algebra.quotient", "Algebra.projective_module", "Algebra.simple_module",
        "Algebra.injective_module", "Module.projective_cover",
        "Module.top_generators", "direct_sum_modules", "submodule_from_rows",
        "kernel_module", "module_hom_space", "dual_module", "yoneda_map",
        "projective_resolution", "projective_dimension", "global_dimension",
    ],
    "smc_kit.homotopy.complexes": [
        "minimalize", "cone", "cocone", "compose", "direct_sum", "shift",
        "identity_map", "is_contractible",
    ],
    "smc_kit.homotopy.homs": [
        "hom_table", "hom_dim", "chain_maps_basis", "is_nullhomotopic",
        "homotopic", "lift_through", "factor_through", "is_iso",
        "coords_in_table", "solve_corner_constrained",
    ],
    "smc_kit.homotopy.resolve": [
        "resolve_complex", "stalk_complex", "module_realization",
        "realize_chain_map", "entries_from_realized", "dual_mod_complex",
        "corner_of_proj_complex", "cohomology_dims",
    ],
    "smc_kit.recollement": [
        "build_recollement", "i_star", "j_lower_shriek", "j_upper_shriek",
        "j_upper_shriek_full", "j_lower_star", "j_lower_star_full",
        "canonical_theta", "canonical_triangles", "corner_complex",
    ],
    "smc_kit.smc": [
        "standard_smc", "validate_smc", "truncate", "glue", "glue_dual",
        "mutate", "dominates", "compare", "smc_iso", "smc_distinct_certified",
        "member_filt_geq", "member_filt_leq", "is_rigid",
    ],
    "smc_kit.verify": ["run_paper_examples"],
    "smc_kit.fixtures": ["a2_fixture", "two_cycle_fixture"],
    "smc_kit.cli": ["main", "load_workspace"],
}

LAYERS = tuple(mod[len("smc_kit."):] for mod in TRACED)


def _rref_entries(tr, args, kwargs, out):
    m = args[0] if args else kwargs["m"]
    tr.rref_entries.append(m.nrows * m.ncols)


def _is_iso_outcome(tr, args, kwargs, out):
    if out.isomorphic:
        kind = "certified_yes" if out.certified else "monte_carlo_yes"
    else:
        kind = "certified_no" if out.certified else "monte_carlo_no"
    tr.counters[f"homotopy.homs.is_iso.{kind}"] += 1


def _hom_window(tr, args, kwargs, out):
    lo, hi = out.window
    tr.counters["homotopy.homs.hom_table.window_total"] += hi - lo + 1


def _strip_steps(tr, args, kwargs, out):
    tr.counters["smc.truncate.strip_steps"] += len(out.strip_log)


def _recollement_outcome(tr, args, kwargs, out):
    kind = "validated" if out.validated else "unvalidated"
    tr.counters[f"recollement.build_recollement.{kind}"] += 1


# Span name -> function reading an outcome count from the call's result.
OBSERVERS = {
    "exactla.rref": _rref_entries,
    "homotopy.homs.is_iso": _is_iso_outcome,
    "homotopy.homs.hom_table": _hom_window,
    "smc.truncate": _strip_steps,
    "recollement.build_recollement": _recollement_outcome,
}


class Tracer:
    """Records spans of wrapped smc_kit calls while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names = []          # span-name table; spans store indices into it
        self.layer_of = []       # span-name index -> layer
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")  # no enclosing span of the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = defaultdict(int)
        self.rref_entries = array("q")
        self.missing = []
        self._stack = []
        self._depth = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every name in TRACED; the smc_kit modules must be imported."""
        originals = {}
        for modname, names in TRACED.items():
            mod = sys.modules[modname]
            layer = modname[len("smc_kit."):]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = vars(owner).get(attr)
                if raw is None:
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                span = self._span_id(f"{layer}.{dotted}", layer)
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(span, raw.__func__)))
                elif owner_name:
                    setattr(owner, attr, self._wrap(span, raw))
                else:
                    originals[id(raw)] = (raw, self._wrap(span, raw))
        for mod in list(sys.modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _span_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self._depth.append(0)
        return len(self.names) - 1

    def _wrap(self, nid, fn):
        tr = self
        observe = OBSERVERS.get(self.names[nid])
        clock = time.perf_counter
        names, parents, outer = self.span_name, self.span_parent, self.span_outer
        starts, ends = self.span_start, self.span_end
        stack, depth = self._stack, self._depth

        def span(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] -= 1
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(tr, args, kwargs, out)
            return out

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        span.__doc__ = fn.__doc__
        return span

    # -- aggregation -----------------------------------------------------

    def summary(self, wall_s):
        """Per-span and per-layer totals, exact counts, and the consistency
        check: self times plus time outside any span must equal ``wall_s``,
        the summed wall time of the traced ops."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        nested = True
        tops = []
        for i in range(n):
            p = parents[i]
            dur = ends[i] - starts[i]
            if p < 0:
                tops.append((starts[i], ends[i]))
            else:
                child[p] += dur
                if starts[i] < starts[p] or ends[i] > ends[p]:
                    nested = False
        tops.sort()
        for (s0, e0), (s1, _) in zip(tops, tops[1:]):
            if s1 < e0:
                nested = False
        covered = sum(e - s for s, e in tops)

        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        incl_s = [0.0] * k
        for i in range(n):
            nid = self.span_name[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if self.span_outer[i]:
                incl_s[nid] += dur
        spans = {self.names[j]: {"calls": calls[j], "self_s": self_s[j], "incl_s": incl_s[j]}
                 for j in range(k) if calls[j]}
        layers = {layer: 0.0 for layer in LAYERS}
        for j in range(k):
            layers[self.layer_of[j]] += self_s[j]

        entries = sorted(self.rref_entries)
        counts = {f"{name}.calls": calls[j] for j, name in enumerate(self.names)}
        counts.update(self.counters)
        counts["exactla.rref.entries_total"] = sum(entries)
        counts["exactla.rref.entries_p50"] = _quantile(entries, 0.50)
        counts["exactla.rref.entries_p99"] = _quantile(entries, 0.99)
        outside = wall_s - covered
        self_sum = sum(layers.values())
        return {
            "spans": spans,
            "layers": layers,
            "counts": dict(sorted(counts.items())),
            "consistency": {
                "wall_s": wall_s,
                "self_sum_s": self_sum,
                "outside_s": outside,
                "residual_s": wall_s - (self_sum + outside),
                "spans_nested": nested,
                "span_count": n,
            },
            "missing": self.missing,
        }


def _quantile(sorted_values, q):
    """Nearest-rank quantile of integer counts (exact, no interpolation)."""
    if not sorted_values:
        return 0
    if len(sorted_values) == 1:
        return sorted_values[0]
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[idx]

