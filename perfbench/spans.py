"""Outside-in tracing of ``nilcone``: spans around its public functions.

``install`` replaces each function in ``TARGETS`` by a wrapper wherever a
``nilcone`` module holds a reference to it.  A module that did
``from .bott import euler_of_weights`` is patched under that name too, and
methods are patched on their class, so every call path goes through the
wrapper.  A wrapper returns exactly what the wrapped function returns.

Each call records a span: name, parent span, job, start ``t0``, end of the
call ``t1``, and end of the span's own bookkeeping ``t2`` (the counters it
derives from the call's arguments and result).  Spans stay in memory and
are written out at exit.  A span's self time is ``t1 - t0`` minus the
``t2 - t0`` of its children, so over a job's span tree

    job wall time = sum of self times + sum of bookkeeping (t2 - t1)

holds exactly; ``additivity`` checks it.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "job", "t0", "t1", "t2", "counts")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.t0 = self.t1 = self.t2 = 0.0
        self.counts = None

    def as_list(self):
        return [self.name, self.parent, self.job, self.t0, self.t1, self.t2,
                self.counts]


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.t1 = span.t2 = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, counter=None):
        """A function that records a span around each call of ``fn``."""
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, result)
                span.t2 = clock()
            return result

        return wrapper

    @contextmanager
    def root(self, job):
        """Root span of one job; its self time is the job's unwrapped remainder."""
        self.job = job
        span = self._open("job")
        span.t0 = self.clock()
        try:
            yield span
        finally:
            self._close(span)
            self.job = None

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# what is wrapped, and the counters each span derives from its call
# ---------------------------------------------------------------------------

def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rref_counts(args, result):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0),
            "pivots": len(result[1]),
            "entry_bits_max": max((_bits(x) for row in rows for x in row),
                                  default=0)}


def _multiset(weights):
    return {"weights": len(weights), "weights_distinct": len(set(weights))}


# (span name, module, attribute or Class.method, counter or None)
TARGETS = (
    ("linalg.rref", "linalg", "rref", _rref_counts),
    ("linalg.rank", "linalg", "rank", None),
    ("linalg.nullspace", "linalg", "nullspace", None),
    ("linalg.IncrementalRank.add", "linalg", "IncrementalRank.add",
     lambda a, r: {"raised": int(r), "width_max": len(a[1])}),
    ("linalg.Span.coords", "linalg", "Span.coords", None),
    ("oracle.realize", "oracle", "realize", None),
    ("oracle.ad_matrix", "oracle", "ClassicalRealization.ad_matrix", None),
    ("oracle.sample_orbit_points", "oracle", "sample_orbit_points",
     lambda a, r: {"points": len(r)}),
    ("oracle.coordinate_ring_dims", "oracle", "coordinate_ring_dims", None),
    ("oracle.not_in_closure_certificate", "oracle", "not_in_closure_certificate",
     lambda a, r: {"certified": int(bool(r))}),
    ("oracle.qct_evidence", "oracle", "qct_evidence", None),
    ("oracle.dense_orbit_check", "oracle", "dense_orbit_check",
     lambda a, r: {"passed": int(bool(r))}),
    ("oracle.orbit_dimension", "oracle", "orbit_dimension", None),
    ("oracle.nilcone_dimension", "oracle", "nilcone_dimension", None),
    ("oracle.principal_nilpotent_search", "oracle", "principal_nilpotent_search",
     None),
    ("oracle.even_grading_orbit_dims", "oracle", "even_grading_orbit_dims", None),
    ("oracle.verify_grading_dims", "oracle", "verify_grading_dims", None),
    ("rootdata.make_dominant", "rootdata", "make_dominant",
     lambda a, r: {"singular": int(r[2])}),
    ("rootdata.weyl_elements", "rootdata", "weyl_elements",
     lambda a, r: {"elements": len(r)}),
    ("rootdata.kostant_partition", "rootdata", "kostant_partition", None),
    ("rootdata.weyl_dimension", "rootdata", "weyl_dimension", None),
    ("bott.euler_of_weights", "bott", "euler_of_weights",
     lambda a, r: _multiset(a[0])),
    ("series.sym_weights", "series", "sym_weights", lambda a, r: _multiset(r)),
    ("series.euler_series", "series", "euler_series", None),
    ("series.verify_vanishing", "series", "verify_vanishing", None),
    ("series.hilbert_series", "series", "hilbert_series", None),
    ("series.blattner_series_identity", "series", "blattner_series_identity", None),
    ("series.blattner_multiplicity", "series", "blattner_multiplicity", None),
    ("grading.grade", "grading", "grade", None),
    ("grading.search_even_gradings", "grading", "search_even_gradings",
     lambda a, r: {"hits": len(r), "confirmed": sum(h.confirmed for h in r)}),
    ("cli.verify_form", "cli", "verify_form", None),
)

# Counters summed from a span's direct children: (span, child span, counter).
CHILD_SUMS = (
    ("oracle.coordinate_ring_dims", "oracle.sample_orbit_points", "points"),
)


def install(tracer, package="nilcone"):
    """Wrap every target wherever a module of ``package`` references it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for span_name, module, attr, counter in TARGETS:
        mod = sys.modules["%s.%s" % (package, module)]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name)
            tracer.patch(cls, method,
                         tracer.wrap(span_name, cls.__dict__[method], counter))
            continue
        original = getattr(mod, attr)
        wrapper = tracer.wrap(span_name, original, counter)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    tracer.patch(m, name, wrapper)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: (self time, bookkeeping time)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.t2 - s.t0
    return [(s.t1 - s.t0 - covered[i], s.t2 - s.t1) for i, s in enumerate(spans)]


def additivity(spans):
    """Per job: (wall, sum of self times, sum of bookkeeping) over its spans."""
    out = {}
    for s, (own, book) in zip(spans, self_times(spans)):
        wall, total_self, total_book = out.get(s.job, (0.0, 0.0, 0.0))
        if s.name == "job":
            wall = s.t1 - s.t0
        out[s.job] = (wall, total_self + own, total_book + book)
    return out


def aggregate(spans):
    """Per span name: calls, self_s, s (outermost calls only) and counters.

    Counters named ``*_max`` are maxima; every other counter is a sum.
    """
    stats = defaultdict(lambda: defaultdict(float))
    times = self_times(spans)
    for i, s in enumerate(spans):
        st = stats[s.name]
        st["calls"] += 1
        st["self_s"] += times[i][0]
        if not _inside(spans, s.parent, s.name):
            st["s"] += s.t1 - s.t0
        for key, value in (s.counts or {}).items():
            if key.endswith("_max"):
                st[key] = max(st[key], value)
            else:
                st[key] += value
    for name, child, key in CHILD_SUMS:
        for s in spans:
            if s.name == child and s.parent is not None \
                    and spans[s.parent].name == name:
                stats[name][key] += (s.counts or {}).get(key, 0)
    return stats


def _inside(spans, idx, name):
    while idx is not None:
        if spans[idx].name == name:
            return True
        idx = spans[idx].parent
    return False


def layer_metrics(spans, names):
    """Values of metrics named ``<span name>.<field>``; absent spans read 0."""
    stats = aggregate(spans)
    out = {}
    for metric in names:
        span_name, field = metric.rsplit(".", 1)
        value = stats[span_name][field] if span_name in stats else 0
        out[metric] = int(value) if field not in ("s", "self_s") else value
    return out


# Per-layer metrics read from the spans, named <span name>.<field>.  ``s`` is
# inclusive time of the outermost calls, ``self_s`` excludes wrapped callees.
LAYER_METRICS = (
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.cells",
    "linalg.rref.pivots", "linalg.rref.entry_bits_max",
    "linalg.rank.calls", "linalg.rank.s",
    "linalg.nullspace.calls", "linalg.nullspace.s",
    "linalg.IncrementalRank.add.calls", "linalg.IncrementalRank.add.self_s",
    "linalg.IncrementalRank.add.raised", "linalg.IncrementalRank.add.width_max",
    "linalg.Span.coords.calls", "linalg.Span.coords.self_s",
    "oracle.realize.self_s",
    "oracle.ad_matrix.calls", "oracle.ad_matrix.self_s",
    "oracle.sample_orbit_points.self_s", "oracle.sample_orbit_points.points",
    "oracle.coordinate_ring_dims.s", "oracle.coordinate_ring_dims.points",
    "oracle.not_in_closure_certificate.calls", "oracle.not_in_closure_certificate.s",
    "oracle.not_in_closure_certificate.certified",
    "oracle.qct_evidence.s",
    "oracle.dense_orbit_check.calls", "oracle.dense_orbit_check.self_s",
    "oracle.dense_orbit_check.passed",
    "oracle.orbit_dimension.calls", "oracle.orbit_dimension.self_s",
    "oracle.nilcone_dimension.s", "oracle.principal_nilpotent_search.s",
    "oracle.even_grading_orbit_dims.s", "oracle.verify_grading_dims.s",
    "rootdata.make_dominant.calls", "rootdata.make_dominant.self_s",
    "rootdata.make_dominant.singular",
    "rootdata.weyl_elements.calls", "rootdata.weyl_elements.self_s",
    "rootdata.weyl_elements.elements",
    "rootdata.kostant_partition.calls", "rootdata.kostant_partition.self_s",
    "rootdata.weyl_dimension.calls", "rootdata.weyl_dimension.self_s",
    "bott.euler_of_weights.calls", "bott.euler_of_weights.self_s",
    "bott.euler_of_weights.weights", "bott.euler_of_weights.weights_distinct",
    "series.sym_weights.self_s", "series.sym_weights.weights",
    "series.sym_weights.weights_distinct",
    "series.euler_series.calls", "series.euler_series.self_s",
    "series.verify_vanishing.s", "series.hilbert_series.s",
    "series.blattner_series_identity.s",
    "series.blattner_multiplicity.calls", "series.blattner_multiplicity.s",
    "grading.grade.calls", "grading.grade.self_s",
    "grading.search_even_gradings.s", "grading.search_even_gradings.hits",
    "grading.search_even_gradings.confirmed",
    "cli.verify_form.self_s",
    "job.self_s",
)
