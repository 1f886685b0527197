"""Per-layer tracing of betafin from outside the package.

The tracer replaces each traced function at every name it is bound to
(module globals of every loaded betafin module, and class attributes for
methods, aliases such as ``__rmul__ = __mul__`` included) by a wrapper
that keeps a per-call stack.  From the stack it derives, per function,
the call count and the self time (span duration minus the time covered
by traced child spans), and per (caller, callee) pair an edge count, so
ratios are counted at the boundary where the work happens.  Spans of the
non-kernel layers are also kept in memory, tagged with the task that
caused them, and can be written out when the run ends.

Nothing here changes what betafin computes: wrappers pass arguments and
results through unchanged, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

TOP = "<task>"

# (metric name, owner, attribute, bound everywhere).  The owner is a module
# or "module:Class".  The two classify entries time the calls classify makes,
# so only the binding inside betafin.classify is wrapped.
TARGETS = (
    ("field.make_field", "betafin.field", "make_field", True),
    ("field.sign", "betafin.field:FieldElement", "sign", True),
    ("field.floor", "betafin.field:FieldElement", "floor", True),
    ("field.mul", "betafin.field:FieldElement", "__mul__", True),
    ("field.inverse", "betafin.field:FieldElement", "inverse", True),
    ("field.refine", "betafin.field:BetaField", "refine", True),
    ("polys.eval_interval", "betafin.polys", "eval_interval", True),
    ("polys.count_real_roots", "betafin.polys", "count_real_roots", True),
    ("polys.unit_disk_root_profile", "betafin.polys", "unit_disk_root_profile", True),
    ("words.lex_cmp", "betafin.words", "lex_cmp", True),
    ("words.subtract", "betafin.words", "subtract", True),
    ("expansion.t_map", "betafin.expansion", "t_map", True),
    ("expansion.d_beta", "betafin.expansion", "d_beta", True),
    ("expansion.nu", "betafin.expansion", "nu", True),
    ("expansion.is_admissible", "betafin.expansion", "is_admissible", True),
    ("expansion.big_l", "betafin.expansion", "big_l", True),
    ("expansion.beta_expand", "betafin.expansion", "beta_expand", True),
    ("normalization.add_one", "betafin.normalization", "add_one", True),
    ("normalization.free_blocks", "betafin.normalization", "free_blocks", True),
    ("normalization.carry_step", "betafin.normalization", "carry_step", True),
    ("srs.tau", "betafin.srs:ShiftRadixSystem", "tau", True),
    ("srs.tau_star", "betafin.srs:ShiftRadixSystem", "tau_star", True),
    ("srs.q_set", "betafin.srs", "q_set", True),
    ("srs.tau_preimages", "betafin.srs", "tau_preimages", True),
    ("srs.v_box_set", "betafin.srs", "v_box_set", True),
    ("srs.in_f_beta", "betafin.srs", "in_f_beta", True),
    ("srs.f1_certificate", "betafin.srs", "f1_certificate", True),
    ("classify.classify", "betafin.classify", "classify", True),
    ("classify.is_pisot", "betafin.classify", "is_pisot", False),
    ("classify.is_finite_expansion", "betafin.classify", "is_finite_expansion", False),
)

# Hot kernel layers are aggregated only; their calls are too many to keep
# one span each.  Spans beyond the cap are counted but not kept.
KERNEL_LAYERS = ("field.", "polys.", "words.")
SPAN_CAP = 200_000


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.stats`` afterwards."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0] for name, *_ in TARGETS}
        self.edges: Counter = Counter()
        self.t_map_args: set = set()
        self.q_set_nodes = 0
        self.spans: list[tuple] = []
        self.task_id = -1
        # frame: [name, child time, span id of the nearest logged ancestor]
        self._stack: list[list] = [[TOP, 0.0, -1]]
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "betafin" or n.startswith("betafin.")]
        for name, owner, attr, everywhere in TARGETS:
            holder = _resolve(owner)
            original = holder.__dict__[attr]
            wrapper = self._wrap(name, original)
            places = modules if everywhere and ":" not in owner else [holder]
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        self._patches.append((place, key, original))
                        setattr(place, key, wrapper)

    def uninstall(self) -> None:
        for place, key, original in reversed(self._patches):
            setattr(place, key, original)
        self._patches.clear()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        edges = self.edges
        spans = self.spans
        clock = time.perf_counter
        logged = not name.startswith(KERNEL_LAYERS)
        tracer = self

        def after(args, result) -> None:
            if name == "expansion.t_map":
                # elements of different fields compare by raising, so key
                # the argument by its field and coordinates
                x = args[0]
                tracer.t_map_args.add((x.field.coeffs, x.coords))
            elif name == "srs.q_set":
                tracer.q_set_nodes += result.node_count()

        hooked = name in ("expansion.t_map", "srs.q_set")

        def traced(*args, **kwargs):
            parent = stack[-1]
            edges[parent[0], name] += 1
            span_id = parent[2]
            if logged and len(spans) < SPAN_CAP:
                span_id = len(spans)
                spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                parent[1] += elapsed
                if span_id != parent[2]:
                    spans[span_id] = (tracer.task_id, span_id, parent[2], name, start, end)
            if hooked:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def self_time(self, name: str) -> float:
        return self.stats[name][1]

    def edge(self, caller: str, callee: str) -> int:
        return self.edges[caller, callee]

    def write_spans(self, path) -> None:
        """One JSON object per span: task, id, parent id, name, start, end."""
        with open(path, "w") as out:
            for span in self.spans:
                if span is None:
                    continue
                task, sid, parent, name, start, end = span
                out.write(json.dumps(
                    {"task": task, "id": sid, "parent": parent, "name": name,
                     "start": start, "end": end}
                ) + "\n")
