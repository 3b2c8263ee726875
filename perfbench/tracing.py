"""Traced mode: spans and work counters at the layer boundaries.

The program is left untouched.  ``Tracer.install`` replaces the module
attributes through which the layers call each other with recording
wrappers, and ``uninstall`` puts the originals back.  A wrapper records
only while an operation runs under ``Tracer.run_op``; calls made by the
output checks between operations pass straight through.

Spans are kept in memory as ``[name, start, end, parent, op]`` (times
relative to the tracer's creation, parent an index into the span list or
-1) and written out by ``dump``.  A span's self time is its duration
minus the time covered by its children; in one thread children nest and
never overlap, so that is the sum of their durations.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter

from fzn2qip import frontend, kernels, model, oracle, rewrite


def _count_tokens(c, args, res):
    c["tokens"] += len(res)


def _count_ir(c, args, res):
    c["aux_vars"] += sum(1 for v in res.vars.values() if not v.is_model)
    c["equalities"] += len(res.equalities)
    c["inequalities"] += len(res.inequalities)
    c["products"] += len(res.products)
    c["onehot_bits"] += sum(len(g.bits) for g in res.onehot_groups)


def _count_bytes(c, args, res):
    c["bytes"] += len(res)


def _count_source_rows(c, args, res):
    c["source_rows"] += math.prod(len(d.domain) for d in args[0].vars.values())


def _count_compiled_rows(c, args, res):
    c["compiled_rows"] += res.space_size
    c["free_vars"] += len(res.free_names)


def _count_mask(c, args, res):
    c["mask_calls"] += 1
    c["mask_rows"] += len(res)
    c["mask_feasible"] += int(res.sum())


# (owner, attribute, span name, counter update or None)
TARGETS = [
    (frontend, "tokenize", "frontend.tokenize", _count_tokens),
    (frontend, "parse_model", "frontend.parse", None),
    (frontend, "typecheck", "frontend.typecheck", None),
    (rewrite, "compile_model", "rewrite.compile", _count_ir),
    (model.QipProblem, "serialize", "model.serialize", _count_bytes),
    (oracle, "check_equivalence", "oracle.compare", None),
    (oracle, "enumerate_fzn", "oracle.source_enum", _count_source_rows),
    (oracle, "enumerate_qip", "oracle.compiled_enum", _count_compiled_rows),
    (kernels, "feasible_mask", "kernels.mask", _count_mask),
]


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._n_ops = 0
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
            self.spans.append(span)
            self._stack.append(sid)
            span[1] = time.perf_counter() - self.t0
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self.t0
                self._stack.pop()
            if count is not None:
                count(self.counts, args, res)
            return res

        return traced

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def run_op(self, fn, *args):
        """Run one operation as a root span."""
        self._op = self._n_ops
        self._n_ops += 1
        try:
            return self._wrap(fn, "op", None)(*args)
        finally:
            self._op = None

    def times(self) -> tuple[Counter, Counter]:
        """Total (inclusive, self) seconds per span name."""
        child = [0.0] * len(self.spans)
        incl: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for (name, start, end, _, _), c in zip(self.spans, child):
            own[name] += end - start - c
        return incl, own

    def layer_metrics(self, rounds: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a per-round total or a rate."""
        incl, own = self.times()
        c = self.counts

        def rate(num, den):
            return num / den if den else 0.0

        per = 1.0 / rounds
        return {
            "frontend.tokenize_s": (own["frontend.tokenize"] * per, "s"),
            "frontend.tokens_per_s": (rate(c["tokens"], incl["frontend.tokenize"]), "1/s"),
            "frontend.parse_s": (own["frontend.parse"] * per, "s"),
            "frontend.typecheck_s": (own["frontend.typecheck"] * per, "s"),
            "rewrite.compile_s": (own["rewrite.compile"] * per, "s"),
            "rewrite.aux_vars": (c["aux_vars"] * per, "count"),
            "rewrite.equalities": (c["equalities"] * per, "count"),
            "rewrite.inequalities": (c["inequalities"] * per, "count"),
            "rewrite.products": (c["products"] * per, "count"),
            "rewrite.onehot_bits": (c["onehot_bits"] * per, "count"),
            "model.serialize_s": (own["model.serialize"] * per, "s"),
            "model.bytes_per_s": (rate(c["bytes"], incl["model.serialize"]), "B/s"),
            "oracle.source_enum_s": (own["oracle.source_enum"] * per, "s"),
            "oracle.source_rows": (c["source_rows"] * per, "count"),
            "oracle.source_rows_per_s": (
                rate(c["source_rows"], incl["oracle.source_enum"]), "1/s"),
            "oracle.compiled_enum_s": (own["oracle.compiled_enum"] * per, "s"),
            "oracle.compiled_rows": (c["compiled_rows"] * per, "count"),
            "oracle.free_vars": (c["free_vars"] * per, "count"),
            "oracle.compiled_rows_per_s": (
                rate(c["compiled_rows"], incl["oracle.compiled_enum"]), "1/s"),
            "oracle.row_ratio": (rate(c["compiled_rows"], c["source_rows"]), "ratio"),
            "oracle.compare_s": (own["oracle.compare"] * per, "s"),
            "kernels.mask_s": (own["kernels.mask"] * per, "s"),
            "kernels.calls": (c["mask_calls"] * per, "count"),
            "kernels.rows_per_s": (rate(c["mask_rows"], incl["kernels.mask"]), "1/s"),
            "kernels.feasible_ratio": (rate(c["mask_feasible"], c["mask_rows"]), "ratio"),
            "trace.overhead_s": (overhead_s, "s"),
        }

    def dump(self, path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
