"""Spans around the public functions of hoffline, recorded from outside.

``install`` replaces each traced function at every name a hoffline
module binds it to (``hoffline.enumeration.canonical_data`` as well as
``hoffline.core.canonical_data``), so calls the program makes internally
are seen too.  A span is (name, start, end, parent, flag): ``parent`` is
the index of the enclosing span or -1, and ``flag`` is 1 when a call
returned something other than None or a generator step yielded.
Generators get one span per step, so a consumer's work between steps is
not charged to the generator.  Spans stay in memory until ``dump``.

``layer_metrics`` turns a dumped span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

#: (module, attribute, span name); "Class.method" attributes are patched
#: on the class.
TARGETS = (
    ("core", "canonical_data", "core.canonical_data"),
    ("core", "find_embedding", "core.find_embedding"),
    ("enumeration", "parse_graph6", "enumeration.parse_graph6"),
    ("enumeration", "connected_slim_graphs", "enumeration.generate"),
    ("enumeration", "sum_graphs", "enumeration.sum_graphs"),
    ("enumeration", "enumerate_sums", "enumeration.enumerate_sums"),
    ("recognition", "is_h_line", "recognition.is_h_line"),
    ("recognition", "enumerate_strict_covers", "recognition.enumerate_strict_covers"),
    ("spectral", "char_poly", "spectral.char_poly"),
    ("spectral", "smallest_root_interval", "spectral.smallest_root_interval"),
    ("spectral", "compare_threshold", "spectral.compare_threshold"),
    ("spectral", "equals_threshold", "spectral.equals_threshold"),
    ("verify", "build_catalog", "verify.build_catalog"),
    ("verify", "verify_prop21", "verify.verify_prop21"),
    ("verify", "verify_eigen_claims", "verify.verify_eigen_claims"),
    ("verify", "verify_table1", "verify.verify_table1"),
    ("verify", "table1_row_occurrence", "verify.table1_row"),
    ("verify", "screen", "verify.screen"),
    ("verify", "MfsCatalog.save", "verify.catalog_save"),
    ("verify", "MfsCatalog.load", "verify.catalog_load"),
)

#: spans named after their first argument as well: one span name per
#: table-1 row, so K graphs can be counted per row
NAMED_BY_FIRST_ARG = {"verify.table1_row"}

#: table-1 rows in the order the K counts are reported
TABLE1_ROWS = "abcdefg"


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self.stack.append(idx)
        return idx

    def end(self, idx, flag):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = flag
        self.stack.pop()

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[n], a, b, p, f] for n, a, b, p, f in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh)


def _wrap_call(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = f"{name}.{args[0]}" if name in NAMED_BY_FIRST_ARG else name
        idx = rec.begin(label)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.end(idx, int(result is not None))

    return wrapper


def _wrap_generator(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _steps(rec, name, fn(*args, **kwargs))

    return wrapper


def _steps(rec, name, it):
    while True:
        idx = rec.begin(name)
        try:
            item = next(it)
        except StopIteration:
            rec.end(idx, 0)
            return
        except BaseException:
            rec.end(idx, 0)
            raise
        rec.end(idx, 1)
        yield item


def install(rec):
    """Wrap every target at every hoffline name bound to it."""
    import hoffline.verify  # noqa: F401  (loads every traced module)

    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "hoffline"]
    for mod_name, attr, name in TARGETS:
        owner = sys.modules[f"hoffline.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = inspect.getattr_static(cls, meth)
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(_wrap_call(rec, name, raw.__func__)))
            else:
                setattr(cls, meth, _wrap_call(rec, name, raw))
            continue
        fn = getattr(owner, attr)
        wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_call
        wrapped = wrap(rec, name, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# Per-layer metrics from a span file
# ---------------------------------------------------------------------------


def _load(path):
    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [(names[i], a, b, p, f) for i, a, b, p, f in doc["spans"]]


def layer_metrics(path):
    """Per-layer metrics (name -> (value, unit)) from a dumped span file."""
    spans = _load(path)
    child_time = [0.0] * len(spans)
    for name, a, b, p, _f in spans:
        if p >= 0:
            child_time[p] += b - a

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    calls = {}
    hits = {}
    incl = {}
    self_s = {}
    for i, (name, a, b, p, f) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        hits[name] = hits.get(name, 0) + f
        self_s[name] = self_s.get(name, 0.0) + (b - a) - child_time[i]
        # inclusive time counts only the outermost span of a name, so a
        # recursive generator is not counted once per level
        if all(spans[q][0] != name for q in ancestors(i)):
            incl[name] = incl.get(name, 0.0) + (b - a)

    def frac(name):
        return hits.get(name, 0) / calls[name] if calls.get(name) else 0.0

    gen = "enumeration.generate"
    gen_canon = sum(
        1 for name, _a, _b, p, _f in spans
        if name == "core.canonical_data" and p >= 0 and spans[p][0] == gen
    )
    k_per_row = dict.fromkeys(TABLE1_ROWS, 0)
    for i, (name, _a, _b, _p, f) in enumerate(spans):
        if name == "enumeration.sum_graphs" and f:
            for q in ancestors(i):
                if spans[q][0].startswith("verify.table1_row."):
                    k_per_row[spans[q][0].rsplit(".", 1)[1]] += 1
                    break

    out = {
        "core.canonical_data.calls": (calls.get("core.canonical_data", 0), "count"),
        "core.canonical_data.self_s": (self_s.get("core.canonical_data", 0.0), "s"),
        "core.find_embedding.calls": (calls.get("core.find_embedding", 0), "count"),
        "core.find_embedding.s": (incl.get("core.find_embedding", 0.0), "s"),
        "core.find_embedding.hit_frac": (frac("core.find_embedding"), "ratio"),
        "enumeration.generate.self_s": (self_s.get(gen, 0.0), "s"),
        "enumeration.generate.children_per_class": (
            gen_canon / hits[gen] if hits.get(gen) else 0.0, "calls/class"),
        "enumeration.sum_graphs.s": (incl.get("enumeration.sum_graphs", 0.0), "s"),
        "enumeration.enumerate_sums.self_s": (
            self_s.get("enumeration.enumerate_sums", 0.0), "s"),
        "recognition.is_h_line.calls": (calls.get("recognition.is_h_line", 0), "count"),
        "recognition.is_h_line.s": (incl.get("recognition.is_h_line", 0.0), "s"),
        "recognition.is_h_line.line_frac": (frac("recognition.is_h_line"), "ratio"),
        "recognition.enumerate_strict_covers.s": (
            incl.get("recognition.enumerate_strict_covers", 0.0), "s"),
        "spectral.char_poly.s": (incl.get("spectral.char_poly", 0.0), "s"),
        "spectral.smallest_root_interval.s": (
            incl.get("spectral.smallest_root_interval", 0.0), "s"),
        "spectral.threshold.s": (
            incl.get("spectral.compare_threshold", 0.0)
            + incl.get("spectral.equals_threshold", 0.0), "s"),
        "verify.catalog_save_s": (incl.get("verify.catalog_save", 0.0), "s"),
        "verify.catalog_load_s": (incl.get("verify.catalog_load", 0.0), "s"),
        "verify.screen.s": (incl.get("verify.screen", 0.0), "s"),
        "trace.spans": (len(spans), "count"),
    }
    for row in TABLE1_ROWS:
        out[f"enumeration.sum_graphs.k_graphs.{row}"] = (k_per_row[row], "count")
    return out
