"""Span recorder for the traced benchmark run.

Each layer boundary is a public function of an atlab module. `Recorder.install`
replaces that function at every module binding that holds it (for example
`atlab.density.max_density`, `atlab.atsolver.max_density` and
`atlab.theorems.max_density`), so calls made inside the package are seen as
well as the benchmark's own calls. A wrapper opens a span, calls the original
and closes the span; it returns the original's value unchanged and re-raises
whatever the original raised.

A span carries an id, the id of the benchmark op it belongs to (0 outside
any op) and the id of the span that caused it. Self time is a span's duration
minus the time covered by its direct children, so the self times of all spans
add up to the traced time without double counting. Counts and self time are
summed per layer as spans close; the spans themselves stay in memory until
`write_spans` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

from atlab.atsolver import SearchTimeout
from atlab.errors import CapacityError


# ---------------------------------------------------------------------------
# Counters that a boundary adds beside calls and self time
# ---------------------------------------------------------------------------
# An observer gets (counts, binding, args, result, error) when a span closes
# and adds to `counts`. `binding` is the name of the module whose attribute
# was called; `error` is the exception the call raised, if any.


def _capacity_errors(counts, binding, args, result, error):
    if isinstance(error, CapacityError):
        counts["capacity_errors"] += 1


def _density(counts, binding, args, result, error):
    # theorems calls max_density only to build evidence strings
    if binding == "atlab.theorems":
        counts["evidence_calls"] += 1


def _search(counts, binding, args, result, error):
    if isinstance(error, SearchTimeout):
        counts["timeout"] += 1
    elif error is None:
        counts["exhausted" if result is None else "found"] += 1


def _exact(counts, binding, args, result, error):
    if error is None and result.is_exact:
        counts["exact"] += 1


def _tally(counts, binding, args, result, error):
    counts["max_arcs"] = max(counts["max_arcs"], args[0].graph.m)


def _verify(counts, binding, args, result, error):
    if error is None:
        if result.verdict == "accepted":
            counts["accepted"] += 1
        elif result.verdict == "outdegree-only":
            counts["outdegree_only"] += 1


def _bytes_out(counts, binding, args, result, error):
    if error is None:
        counts["bytes"] += len(result)


def _bytes_in(counts, binding, args, result, error):
    counts["bytes"] += len(args[0])


# The claim checkers; on the suite workload each outermost call is one op.
CHECKS = (
    "check_lemma_3_1", "check_lemma_3_2", "check_theorem_1", "check_corollary_3_4",
    "check_lemma_3_5", "check_lemma_3_6", "check_corollary_3_7", "check_theorem_2",
    "check_corollary_3_8", "check_lemma_3_9", "check_toroidal_regression",
    "check_chi_product", "check_remark_gap",
)

# (layer, defining module, public functions, observer, extra counters)
BOUNDARIES: tuple[tuple[str, str, tuple[str, ...], Optional[Callable], tuple[str, ...]], ...] = (
    ("density.max_density", "atlab.density", ("max_density",), _density, ("evidence_calls",)),
    ("atsolver.search", "atlab.atsolver", ("find_at_orientation",), _search,
     ("found", "exhausted", "timeout")),
    ("atsolver.lower_bound", "atlab.atsolver", ("at_lower_bound",), None, ()),
    ("atsolver.chromatic", "atlab.atsolver", ("chromatic_number",), _capacity_errors,
     ("capacity_errors",)),
    ("atsolver.orient", "atlab.atsolver", ("bounded_outdegree_orientation",), None, ()),
    ("atsolver.bipartite", "atlab.atsolver", ("at_bipartite",), None, ()),
    ("atsolver.exact", "atlab.atsolver", ("at_exact",), _exact, ("exact",)),
    ("eulerian.tally", "atlab.eulerian", ("eulerian_tally_enumerate",), _tally, ("max_arcs",)),
    ("eulerian.poly", "atlab.eulerian", ("eulerian_diff_poly",), _capacity_errors,
     ("capacity_errors",)),
    ("eulerian.cut", "atlab.eulerian", ("one_way_cut_check",), None, ()),
    ("construct.build", "atlab.construct", ("product_orientation", "corona_orientation"),
     None, ()),
    ("construct.verify", "atlab.construct", ("verify_certificate",), _verify,
     ("accepted", "outdegree_only")),
    ("documents.write", "atlab.documents", ("serialize_certificate",), _bytes_out, ("bytes",)),
    ("documents.read", "atlab.documents", ("parse_certificate",), _bytes_in, ("bytes",)),
    ("graphs.build", "atlab.graphs",
     ("hypercube", "cycle", "path", "star", "complete", "complete_bipartite",
      "tree_from_pruefer", "tree_from_edges", "cartesian_product", "corona"), None, ()),
    ("graphs.bipartition", "atlab.graphs", ("bipartition",), None, ()),
    ("theorems.check", "atlab.theorems", CHECKS, None, ()),
    ("theorems.corona_at", "atlab.theorems", ("corona_at",), None, ()),
)

class Recorder:
    """Spans and per-layer counts for one traced run.

    `recording` gates the wrappers: while it is False they call straight
    through, so correctness checks between passes leave no spans.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.recording = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [id, name, start, child time, parent id]
        self._next_id = 1
        self._op_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._extra = {layer: extra for layer, _, _, _, extra in BOUNDARIES}
        self._observe = {layer: observe for layer, _, _, observe, _ in BOUNDARIES}
        self.reset_counts()

    # -- counts -------------------------------------------------------------

    def reset_counts(self) -> None:
        self.counts = {
            layer: dict.fromkeys(("calls", "self_s") + extra, 0)
            for layer, extra in self._extra.items()
        }

    def take_counts(self) -> dict[str, dict[str, float]]:
        """Counts since the last call, then start afresh."""
        counts = self.counts
        self.reset_counts()
        return counts

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, name, self.clock(), 0.0, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span closed out of order")
        span_id, name, start, child, parent = frame
        duration = end - start
        self_time = duration - child
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, self._op_id, parent, name, start, end, self_time))
        return self_time

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """One benchmark op: a root span whose id tags every span inside it."""
        if not self.recording:
            yield
            return
        self._op_id = self._next_id
        frame = self._open("op." + name)
        try:
            yield
        finally:
            self._close(frame)
            self._op_id = 0

    def wrap(self, layer: str, fn: Callable, binding: str) -> Callable:
        """`fn` wrapped in a span of `layer`, as bound in module `binding`."""
        observe = self._observe[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = self._open(layer)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self_time = self._close(frame)
                counts = self.counts[layer]
                counts["calls"] += 1
                counts["self_s"] += self_time
                if observe is not None:
                    observe(counts, binding, args, result, error)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary function at every atlab module binding."""
        originals = {}
        for layer, home, names, _, _ in BOUNDARIES:
            module = importlib.import_module(home)
            for name in names:
                originals[id(getattr(module, name))] = (layer, getattr(module, name))
        modules = [
            (name, mod) for name, mod in list(sys.modules.items())
            if name == "atlab" or name.startswith("atlab.")
        ]
        for mod_name, module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))  # originals are kept alive, so ids are unique
                if hit is None:
                    continue
                layer, fn = hit
                self._patches.append((module, attr, value))
                setattr(module, attr, self.wrap(layer, fn, mod_name))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write_spans(self, path) -> None:
        keys = ("id", "op", "parent", "name", "start", "end", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(counts: dict[str, dict[str, float]]) -> dict[str, float]:
    """Flat per-layer metrics of one pass, ratios included.

    A ratio whose layer was not called in the pass is 0.
    """
    out: dict[str, float] = {}
    for layer, c in counts.items():
        calls = c["calls"]
        for key, value in c.items():
            if key in ("exact", "accepted"):
                continue
            out[f"{layer}.{key}"] = value
        if layer == "atsolver.search":
            out[f"{layer}.decided_frac"] = (c["found"] + c["exhausted"]) / calls if calls else 0.0
        elif layer == "atsolver.exact":
            out[f"{layer}.exact_frac"] = c["exact"] / calls if calls else 0.0
        elif layer == "construct.verify":
            out[f"{layer}.accepted_frac"] = c["accepted"] / calls if calls else 0.0
    return out
