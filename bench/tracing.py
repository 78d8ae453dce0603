"""Spans around the benchmark's own calls into qgcipher.

A span is one call the benchmark makes into a public function of a layer
(`codec.encrypt`, `qgdb.get_quasigroup`, ...) or one benchmark op that
groups such calls (`bench.*`).  Each records its name, start, end, parent
span and op id, plus the amount of work it was handed (symbols, or symbols
times levels) and, for table lookups, the table it asked for.  Spans stay
in memory and are written out when the run ends.

The library itself is not instrumented: spans time only the calls the
benchmark makes, which is why the traced run splits composite calls into
their public parts.
"""

import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

LAYERS = ("seeds", "qgdb", "latin", "keying", "codec", "analysis", "tasim", "bench")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "work", "tag")

    def __init__(self, name, parent, op, work, tag):
        self.name = name
        self.parent = parent
        self.op = op
        self.work = work
        self.tag = tag
        self.start = self.end = 0.0

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "work": self.work,
                "tag": self.tag}


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, work=0, tag=None):
        return fn(*args)

    def op(self, name, op_id):
        return nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._open = []
        self._op = None

    def _begin(self, name, work, tag):
        span = Span(name, self._open[-1] if self._open else -1, self._op, work, tag)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _end(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    def call(self, name, fn, *args, work=0, tag=None):
        """fn(*args) inside a span named after the layer function."""
        span = self._begin(name, work, tag)
        try:
            return fn(*args)
        finally:
            self._end(span)

    @contextmanager
    def op(self, name, op_id):
        """A benchmark op; the calls made inside it become its children."""
        outer = self._op
        self._op = op_id
        span = self._begin(name, 0, None)
        try:
            yield
        finally:
            self._end(span)
            self._op = outer

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    def self_seconds(self):
        """Per layer: span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.seconds
        out = dict.fromkeys(LAYERS, 0.0)
        for span, covered in zip(self.spans, child):
            out[span.name.split(".", 1)[0]] += span.seconds - covered
        return out

    def by_name(self):
        groups = defaultdict(list)
        for span in self.spans:
            groups[span.name].append(span)
        return groups


def _busy(spans):
    return sum(s.seconds for s in spans)


def _per_work(spans, scale):
    work = sum(s.work for s in spans)
    return _busy(spans) / work * scale if work else 0.0


def _first_requests(spans):
    """Split spans into first requests of their tag in this run, and repeats."""
    seen, cold, warm = set(), [], []
    for span in spans:
        (warm if span.tag in seen else cold).append(span)
        seen.add(span.tag)
    return cold, warm


def nearest_rank(values, q):
    """The q-quantile of values by the nearest-rank rule (no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median_ms(spans):
    return statistics.median(s.seconds for s in spans) * 1e3 if spans else 0.0


def _p90_ms(spans):
    return nearest_rank([s.seconds for s in spans], 0.9) * 1e3 if spans else 0.0


CODEC_PER_SYM = ("text_to_symbols", "pack_container", "unpack_container",
                 "symbol_stream", "symbols_to_text")


def layer_metrics(tracer, tables, sim_counts):
    """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}.

    `tables` maps each distinct table tag fetched to (table bytes, inverse
    bytes or 0); `sim_counts` holds the authority-sim counters.  A layer the
    workload never calls reports zero calls and zero time.
    """
    g = tracer.by_name()
    m = {}
    m["seeds.permutation_from_seed.us_per_elem"] = (
        _per_work(g["seeds.permutation_from_seed"], 1e6), "us")

    tables_q = g["qgdb.get_quasigroup"]
    cold, warm = _first_requests(tables_q)
    m["qgdb.get_quasigroup.calls"] = (len(tables_q), "count")
    m["qgdb.get_quasigroup.busy_s"] = (_busy(tables_q), "s")
    m["qgdb.get_quasigroup.cold_ms"] = (_median_ms(cold), "ms")
    m["qgdb.repeat_share"] = (len(warm) / len(tables_q) if tables_q else 0.0, "ratio")

    inverses = g["latin.left_inverse"]
    cold, _ = _first_requests(inverses)
    m["latin.left_inverse.calls"] = (len(inverses), "count")
    m["latin.left_inverse.busy_s"] = (_busy(inverses), "s")
    m["latin.left_inverse.cold_ms"] = (_median_ms(cold), "ms")
    m["latin.table_mb"] = (sum(a + b for a, b in tables.values()) / 2**20, "MB")

    m["keying.generate_frame.busy_s"] = (_busy(g["keying.generate_frame"]), "s")
    m["keying.derive_hidden_key.calls"] = (len(g["keying.derive_hidden_key"]), "count")
    m["keying.derive_hidden_key.busy_s"] = (_busy(g["keying.derive_hidden_key"]), "s")
    m["keying.validate_frame.calls"] = (len(g["keying.validate_frame"]), "count")

    for fn in CODEC_PER_SYM:
        spans = g["codec." + fn]
        m[f"codec.{fn}.ns_per_sym"] = (_per_work(spans, 1e9), "ns")
        m[f"codec.{fn}.calls"] = (len(spans), "count")
        m[f"codec.{fn}.busy_s"] = (_busy(spans), "s")
    for fn in ("encrypt", "decrypt"):
        spans = g["codec." + fn]
        m[f"codec.{fn}.ns_per_sym_level"] = (_per_work(spans, 1e9), "ns")
        m[f"codec.{fn}.calls"] = (len(spans), "count")
        m[f"codec.{fn}.busy_s"] = (_busy(spans), "s")

    acf = g["analysis.autocorrelation"]
    m["analysis.autocorrelation.calls"] = (len(acf), "count")
    m["analysis.autocorrelation.busy_s"] = (_busy(acf), "s")
    m["analysis.autocorrelation.p90_ms"] = (_p90_ms(acf), "ms")
    m["analysis.entropy.busy_s"] = (_busy(g["analysis.entropy"]), "s")

    sends = g["tasim.node_send"]
    m["tasim.node_send.calls"] = (len(sends), "count")
    m["tasim.node_send.warm_busy_s"] = (_busy(sends), "s")
    m["tasim.advance.calls"] = (len(g["tasim.advance"]), "count")
    m["tasim.rekeys"] = (sim_counts["rekeys"], "count")
    for reason in ("no-frame", "expired", "invalid"):
        m[f"tasim.rejected.{reason}"] = (sim_counts["rejected"].get(reason, 0), "count")
    m["tasim.log_entries"] = (sim_counts["log_entries"], "count")

    for layer, seconds in tracer.self_seconds().items():
        m[f"{layer}.self_s"] = (seconds, "s")
    return m
