"""Run one ncdef CLI invocation inside this process, plain or traced.

    python3 perfbench/layer_trace.py OUT.json plain|traced -- <ncdef arguments>

ncdef itself carries no instrumentation, so the traced mode measures each
layer from outside: it replaces the public functions of every ncdef module
with timing wrappers, at every module that bound them (a ``from .linalg
import solve_sparse`` in yoneda is a second binding of the same function),
and the listed methods on their classes.  Spans are aggregated in memory
and written to OUT.json when the invocation ends; every patched attribute
is restored before that.

OUT.json holds the in-process wall time of ``ncdef.cli.main``, its exit
code, the sha256 of what it printed, and in traced mode the per-layer
``times`` (seconds) and ``counts`` (exact integers and ratios of them).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

# ncdef module -> traced functions and Class.method names defined there.
LAYERS = {
    "algebra": ("normal_form", "multiply", "QuotientModule.reduce",
                "AlgebraPresentation.normal_words"),
    "linalg": ("Echelon.add", "Echelon.reduce", "solve_sparse",
               "kernel_basis"),
    "matrix_ring": ("monomials_of_degree", "build_tagged_truncation",
                    "build_quotient", "quotient_by_vectors"),
    "yoneda": ("is_cocycle", "ExtComputer.ext_dimension",
               "ExtComputer.ext_basis", "ExtBasis.computed",
               "ExtBasis.certify", "project_ext2", "solve_coboundary"),
    "checker": ("curvature", "verify_lifted_complex"),
    "massey": ("compute_hull", "advance_order", "order_obstructions",
               "check_stabilized"),
    "report": ("ext_tables", "build_report", "canonical_json",
               "text_presentation"),
    "presets": ("load_preset", "problem_from_json"),
}

# Orders whose step gets its own time and hull dimension; the deepest
# benchmark workload runs the steps from order 2 to order 7.
ORDERS = range(2, 8)

# Bounded-degree solvers: each bound-ladder rung enumerates normal words once.
SOLVERS = ("yoneda.project_ext2", "yoneda.solve_coboundary")


class Tracer:
    """Timing wrappers around ncdef's layer functions, installed and removed."""

    def __init__(self):
        self.stats = {}        # span name -> [calls, inclusive s, self s]
        self.counts = dict.fromkeys((       # count name -> number
            "linalg.solve_sparse.equations", "linalg.solve_sparse.unknowns",
            "matrix_ring.monomials_of_degree.returned",
            "matrix_ring.build_tagged_truncation.dim_sum",
            "matrix_ring.build_tagged_truncation.dim_max"), 0)
        self.counts.update(dict.fromkeys((s + ".rungs" for s in SOLVERS), 0))
        self.counts.update(dict.fromkeys(("massey.hull_dim.o%d" % n for n in ORDERS), 0))
        self.order_s = dict.fromkeys(ORDERS, 0.0)
        self.stack = []        # open spans: [name, seconds covered by child spans]
        self.top_s = 0.0       # seconds covered by outermost spans
        self.words = set()     # distinct words given to normal_form
        self.sites = {}        # span name -> ["module.attribute", ...] patched
        self._saved = []       # (owner, attribute, original) for restore()

    def wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
            if after is not None:
                after(args, result, elapsed)
            return result

        return span

    def _add(self, name, amount):
        self.counts[name] += amount

    # Hooks that read sizes off a call's arguments and result.

    def _normal_form(self, args, result, elapsed):
        self.words.add(tuple(args[0]))

    def _solve_sparse(self, args, result, elapsed):
        equations = args[0]
        self._add("linalg.solve_sparse.equations", len(equations))
        self._add("linalg.solve_sparse.unknowns",
                  len({var for vec, _ in equations for var in vec}))

    def _monomials_of_degree(self, args, result, elapsed):
        self._add("matrix_ring.monomials_of_degree.returned", len(result))

    def _tagged_truncation(self, args, result, elapsed):
        name = "matrix_ring.build_tagged_truncation"
        self._add(name + ".dim_sum", result.dim)
        self.counts[name + ".dim_max"] = max(self.counts[name + ".dim_max"],
                                             result.dim)

    def _advance_order(self, args, result, elapsed):
        order = args[0].order
        self.order_s[order] = self.order_s.get(order, 0.0) + elapsed
        self.counts["massey.hull_dim.o%d" % order] = result.algebra.dim

    def _normal_words(self, args, result, elapsed):
        open_solvers = {name for name, _ in self.stack if name in SOLVERS}
        for name in open_solvers:
            self._add(name + ".rungs", 1)

    def _hooks(self):
        return {
            "algebra.normal_form": self._normal_form,
            "linalg.solve_sparse": self._solve_sparse,
            "matrix_ring.monomials_of_degree": self._monomials_of_degree,
            "matrix_ring.build_tagged_truncation": self._tagged_truncation,
            "massey.advance_order": self._advance_order,
            "algebra.AlgebraPresentation.normal_words": self._normal_words,
        }

    def _patch(self, owner, attribute, value):
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self):
        import ncdef.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("ncdef.") and m is not None]
        hooks = self._hooks()
        for layer, names in LAYERS.items():
            module = sys.modules["ncdef." + layer]
            for qualname in names:
                name = layer + "." + qualname
                after = hooks.get(name)
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    owner = getattr(module, cls_name)
                    raw = vars(owner)[method]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self.wrap(name, raw.__func__, after))
                    else:
                        wrapped = self.wrap(name, raw, after)
                    self._patch(owner, method, wrapped)
                    self.sites[name] = [layer + "." + qualname]
                    continue
                original = getattr(module, qualname)
                wrapped = self.wrap(name, original, after)
                sites = []
                for mod in modules:
                    for attribute, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attribute, wrapped)
                            sites.append(mod.__name__[len("ncdef."):] + "." + attribute)
                self.sites[name] = sites

    def restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def summary(self, wall_s):
        """Per-layer times and counts, named <module>.<function>.<what>."""
        times = {"trace.wall_s": wall_s, "cli.self_s": wall_s - self.top_s}
        counts = dict(self.counts)
        for layer in LAYERS:
            times[layer + ".self_s"] = 0.0
        for name, (calls, inclusive, own) in self.stats.items():
            layer = name.split(".")[0]
            counts[name + ".calls"] = calls
            times[name + ".s"] = inclusive
            times[name + ".self_s"] = own
            times[layer + ".self_s"] += own
        for order, seconds in self.order_s.items():
            times["massey.advance_order.o%d.s" % order] = seconds
        counts["algebra.normal_form.distinct"] = len(self.words)
        calls = counts["algebra.normal_form.calls"]
        counts["algebra.normal_form.repeat_ratio"] = (
            1 - len(self.words) / calls if calls else 0.0)
        candidates = counts["matrix_ring.monomials_of_degree.returned"]
        counts["matrix_ring.survivor_ratio"] = (
            counts["matrix_ring.build_tagged_truncation.dim_sum"] / candidates
            if candidates else 0.0)
        return {"times": times, "counts": counts, "sites": self.sites}


def run(mode, cli_args):
    """Run ``ncdef.cli.main(cli_args)`` here; returns the OUT.json document."""
    import ncdef.cli

    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    printed = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = ncdef.cli.main(cli_args)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    out = {"mode": mode, "exit": code, "wall_s": wall_s,
           "stdout_sha256": hashlib.sha256(printed.getvalue().encode()).hexdigest()}
    if tracer is not None:
        out.update(tracer.summary(wall_s))
    return out


def main(argv):
    if len(argv) < 3 or argv[1] not in ("plain", "traced") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out = run(argv[1], argv[3:])
    with open(argv[0], "w") as fh:
        json.dump(out, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
