"""Per-layer tracing installed from outside the library.

`Tracer.install` replaces each traced public function with a wrapper in every
loaded ``zerosum`` module that bound the original object (so
``witnesses.find_arrangement`` and ``products.find_arrangement`` both go
through it), and `uninstall` puts every original back.  Two hot methods,
``GroupSpec.mul`` and ``Sequence.__post_init__`` (run once per construction),
are counted without spans.  Spans (name, start, end, parent, op, outcome)
stay in memory until the run writes them; self time is computed from them.
A traced name missing from the library is reported absent, not an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric prefix -> (module, attribute); spans are recorded for these
SPANNED = {
    "groups.stabilizer": ("zerosum.groups", "stabilizer"),
    "products.find_arrangement": ("zerosum.products", "find_arrangement"),
    "products.has_product_one": ("zerosum.products", "has_product_one"),
    "products.product_one_lengths": ("zerosum.products", "product_one_lengths"),
    "products.subproducts": ("zerosum.products", "subproducts"),
    "products.pi_set": ("zerosum.products", "pi_set"),
    "products.products_with_arranger": ("zerosum.products", "products_with_arranger"),
    "products.verify_witness": ("zerosum.products", "verify_witness"),
    "constants.enumerate_free": ("zerosum.constants", "enumerate_free"),
    "bounds.dgm_check": ("zerosum.bounds", "dgm_check"),
    "witnesses.find_big_product_one": ("zerosum.witnesses", "find_big_product_one"),
    "witnesses.extract_product_h_blocks": ("zerosum.witnesses", "extract_product_h_blocks"),
    "witnesses.improve_x_coverage": ("zerosum.witnesses", "improve_x_coverage"),
}
# metric prefix -> (module, class, method); only calls are counted
COUNTED = {
    "groups.mul": ("zerosum.groups", "GroupSpec", "mul"),
    "sequences.new": ("zerosum.sequences", "Sequence", "__post_init__"),
}
# outcome "hit" means a product-one subsequence (or arrangement) was found
_HIT_RESULT = {"products.find_arrangement", "products.has_product_one", "products.product_one_lengths"}

RUNGS = ("y-part", "pipeline", "direct")

# (metric name, unit), in report order; BENCHMARK.json lists the same names
LAYER_METRICS = (
    [("groups.mul.calls", "count"), ("groups.stabilizer.calls", "count"),
     ("groups.stabilizer.self_s", "s"), ("sequences.new.calls", "count"),
     ("products.find_arrangement.calls", "count"), ("products.find_arrangement.self_s", "s"),
     ("products.find_arrangement.hit_ratio", "ratio")]
    + [(f"products.{f}.{m}", u)
       for f in ("product_one_lengths", "subproducts", "pi_set", "products_with_arranger", "verify_witness")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("products.budget_exceeded", "count"),
       ("constants.enumerate_free.calls", "count"), ("constants.enumerate_free.self_s", "s"),
       ("constants.freeness_tests", "count"), ("constants.free_ratio", "ratio"),
       ("bounds.dgm_check.calls", "count"), ("bounds.dgm_check.self_s", "s"),
       ("witnesses.find_big_product_one.calls", "count"),
       ("witnesses.find_big_product_one.self_s", "s"),
       ("witnesses.extract_product_h_blocks.self_s", "s"),
       ("witnesses.improve_x_coverage.self_s", "s")]
    + [(f"witnesses.rung.{r}", "count") for r in RUNGS + ("unknown",)]
    + [("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.overhead_s", "s")]
)


def _library_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None
            and (name == "zerosum" or name.startswith("zerosum."))]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, op, outcome)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list = []  # (namespace object, attribute, original)

    # -- installation

    def install(self) -> None:
        for name, (mod, attr) in SPANNED.items():
            orig = getattr(sys.modules.get(mod), attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._span_wrapper(name, orig)
            for m in _library_modules():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapper)
        for name, (mod, cls_name, meth) in COUNTED.items():
            cls = getattr(sys.modules.get(mod), cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            self._patch(cls, meth, self._count_wrapper(name, orig))

    def _patch(self, target, attr, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, orig = self._restore.pop()
            setattr(target, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers

    def _count_wrapper(self, name, orig):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, orig):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hit_result = name in _HIT_RESULT

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outcome = "ok"
            start = clock()
            try:
                result = orig(*args, **kwargs)
                if hit_result:
                    outcome = "hit" if result else "miss"
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op, outcome)

        return traced

    def op(self, index: int, fn, *args):
        """Run one benchmark op as a root span named 'op'."""
        self._op = index
        return self._span_wrapper("op", fn)(*args)

    # -- results

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op, outcome) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, op, outcome]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        hits: dict[str, int] = {}
        tests = free = budget = 0
        for sid, (name, start, end, parent, _, outcome) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[sid]
            if outcome == "hit":
                hits[name] = hits.get(name, 0) + 1
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name == "constants.enumerate_free":
                tests += 1
                free += outcome == "miss"
            if (outcome == "BudgetExceeded" and name.startswith("products.")
                    and not parent_name.startswith("products.")):
                budget += 1
        out: dict[str, float] = {}
        for name in SPANNED:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        fa = "products.find_arrangement"
        out[f"{fa}.hit_ratio"] = hits.get(fa, 0) / calls[fa] if calls.get(fa) else 0.0
        out["constants.freeness_tests"] = tests
        out["constants.free_ratio"] = free / tests if tests else 0.0
        out["products.budget_exceeded"] = budget
        return out
