"""Spans around the public entry points of each ``dtry`` module.

The benchmark wraps the functions and methods listed in ``TARGETS`` from
outside the package, replacing every module-level binding of the same
object (``dtry.cli.parse_flat`` is the same function as
``dtry.formats.parse_flat``) and every class attribute. Each call records
a span (name, start, end, parent) in flat in-memory arrays; the spans are
reduced to per-layer self times and counts when the run ends.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, module, owner, attribute). ``owner`` is a class name, or None
# for a module-level function.
TARGETS = (
    ("paths.parse", "paths", "Path", "parse"),
    ("paths.is_prefix_of", "paths", "Path", "is_prefix_of"),
    ("core.record_init", "core", "NonEmptyRecord", "__init__"),
    ("core.insert", "core", "Dtry", "insert"),
    ("core.from_path_map", "core", "Dtry", "from_path_map"),
    ("core.lookup", "core", "Dtry", "lookup"),
    ("core.filter", "core", "Dtry", "filter"),
    ("core.flatten", "core", "Dtry", "flatten"),
    ("core.map_values", "core", "Dtry", "map_values"),
    ("core.path_map", "core", "Dtry", "path_map"),
    ("core.merge_disjoint", "core", None, "merge_disjoint"),
    ("formats.diagnostic", "formats", "Diagnostic", "__init__"),
    ("formats.scan_flat", "formats", None, "scan_flat"),
    ("formats.parse_flat", "formats", None, "parse_flat"),
    ("formats.emit_flat", "formats", None, "emit_flat"),
    ("formats.parse_nested", "formats", None, "parse_nested"),
    ("formats.emit_nested", "formats", None, "emit_nested"),
    ("cli.validate", "cli", None, "cmd_validate"),
    ("cli.convert", "cli", None, "cmd_convert"),
    ("cli.get", "cli", None, "cmd_get"),
    ("cli.merge", "cli", None, "cmd_merge"),
    ("cli.check", "cli", None, "cmd_check"),
    ("fincat.dtryobj_of", "fincat", "DtryObj", "of"),
    ("fincat.dtryobj_check", "fincat", "DtryObj", "__post_init__"),
    ("fincat.dtrymor_check", "fincat", "DtryMor", "__post_init__"),
    ("fincat.compose_mor", "fincat", None, "compose_mor"),
    ("fincat.mu_obj", "fincat", None, "mu_obj"),
    ("fincat.mu_mor", "fincat", None, "mu_mor"),
    ("fincat.algebra_eval_mor", "fincat", None, "algebra_eval_mor"),
    ("fincat.truncate", "fincat", "FinSetSkeleton", "truncate"),
    ("fincat.validate", "fincat", "FinCat", "validate"),
    ("fincat.from_json", "fincat", "FinCat", "from_json"),
)

# Amount recorded with a span, beside its duration: entries a record was
# built with, lines a flat text was scanned in.
_AMOUNTS = {
    "core.record_init": lambda args, kwargs: len(args[0]._entries),
    "formats.scan_flat": lambda args, kwargs: (args[0] if args else kwargs["text"]).count("\n") + 1,
}


class Tracer:
    """Collects spans in memory while installed; see :meth:`installed`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.amounts: dict[int, int] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)
        amount = _AMOUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
                if amount is not None:
                    tracer.amounts[idx] = amount(args, kwargs)
                return result
            finally:
                tracer._close(idx)

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every target in ``package`` (the imported ``dtry``) for the block."""
        saved = []
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        for name, module_name, owner, attr in TARGETS:
            module = getattr(package, module_name)
            if owner is None:
                original = getattr(module, attr)
                traced = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, value))
                            setattr(mod, key, traced)
                continue
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__))
            else:
                replacement = self.wrap(name, raw)
            saved.append((cls, attr, raw))
            setattr(cls, attr, replacement)
        try:
            yield self
        finally:
            for target, key, value in reversed(saved):
                setattr(target, key, value)

    def reduce(self):
        """Per span name: (calls, self seconds, total amount), plus insert-side entries.

        The last item counts record entries built inside ``Dtry.insert``
        spans: the copying that repeated insertion costs.
        """
        n = len(self.span_name)
        names, parents, start, end = self.span_name, self.span_parent, self.span_start, self.span_end
        self_time = array("d", end)
        for i in range(n):
            self_time[i] -= start[i]
            p = parents[i]
            if p >= 0:
                self_time[p] -= end[i] - start[i]
        insert_id = self._ids.get("core.insert", -2)
        record_id = self._ids.get("core.record_init", -2)
        under_insert = bytearray(n)
        insert_entries = 0
        calls = [0] * len(self.names)
        seconds = [0.0] * len(self.names)
        amounts = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            seconds[nid] += self_time[i]
            p = parents[i]
            if p >= 0 and (under_insert[p] or names[p] == insert_id):
                under_insert[i] = 1
            if i in self.amounts:
                amounts[nid] += self.amounts[i]
                if nid == record_id and under_insert[i]:
                    insert_entries += self.amounts[i]
        stats = {
            name: (calls[k], seconds[k], amounts[k]) for k, name in enumerate(self.names)
        }
        return stats, insert_entries
