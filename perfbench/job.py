"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` with ``src`` on PYTHONPATH:

    python3 perfbench/job.py --workload W --seed N --workdir DIR [--setup-only] [--trace]

The job sets up (imports hoffline and builds its inputs), runs the
workload's operations timed one by one, checks every output against the
known answer outside the timed calls, and prints one JSON result line
holding the wall-clock time at which set-up ended.  A failed check or
an exception in one operation is counted and the job goes on with the
next one.  With ``--trace`` the public functions of hoffline are traced
(see spans.py) and the spans are written into DIR after the work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import spans
import streamgen

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "mfs38.g6")

#: stream inputs: count and vertex range; see README.md for the choice
STREAM_COUNT = 100
STREAM_SIZES = (12, 15)

CATALOG_COUNTS = {5: 2, 6: 28, 7: 7, 8: 1}
TABLE1_GRAPHS_PER_ROW = {"a": 129, "b": 57, "c": 224, "d": 20, "e": 57, "f": 6, "g": 57}
TABLE1_EXTRA_PER_ROW = {"a": 0, "b": 0, "c": 1, "d": 4, "e": 0, "f": 0, "g": 0}
LINE_GRAPHS_CHECKED = 235


class Job:
    """Operations timed one by one, with their failed checks."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.attempted = 0

    @property
    def busy_s(self):
        return sum(self.latencies)

    def op(self, label, fn, *args):
        """Run and time ``fn(*args)``; returns (ok, result)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return True, fn(*args)
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return False, None
        finally:
            self.latencies.append(time.perf_counter() - t0)

    def check(self, label, problems):
        """Record the operation as failed when ``problems`` is non-empty."""
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def fixture_catalog(n_max):
    """The 38 members from the stored graph6 lines, with forms and eigen
    certificates recomputed by the code under test."""
    from hoffline import core, enumeration, spectral, verify

    cat = verify.MfsCatalog(n_max=n_max)
    with open(FIXTURE) as fh:
        for line in fh:
            g = enumeration.parse_graph6(line)
            interval = spectral.smallest_eigenvalue(g)
            cat.entries.setdefault(g.n, []).append(
                verify.CatalogEntry(
                    graph=g,
                    form=core.canonical_form(g),
                    eigen=interval,
                    verdict=spectral.compare_threshold(interval),
                    equals_threshold=spectral.equals_threshold(interval),
                    witnesses={},
                )
            )
    for n in range(5, n_max + 1):
        cat.entries.setdefault(n, [])
    return cat


def fixture_forms():
    from hoffline import core, enumeration

    with open(FIXTURE) as fh:
        return sorted(core.canonical_form(enumeration.parse_graph6(line)) for line in fh)


# ---------------------------------------------------------------------------
# Workloads: setup(seed) -> state; run(job, state) -> extra result fields
# ---------------------------------------------------------------------------


def setup_catalog(seed, workdir):
    import hoffline.verify  # noqa: F401

    return {"fixture_forms": fixture_forms(), "workdir": workdir}


def run_catalog(job, state):
    from hoffline import verify

    stages = []
    ok, cat = job.op(
        "build_catalog",
        verify.build_catalog, 8, 1, lambda msg: stages.append(time.perf_counter()),
    )
    if not ok:
        return {}
    built = sorted(e.form for e in cat.members())
    problems = []
    if cat.counts() != CATALOG_COUNTS:
        problems.append(f"counts {cat.counts()}")
    if built != state["fixture_forms"]:
        problems.append("members differ from the fixture up to isomorphism")
    job.check("build_catalog", problems)

    ok, rep = job.op("verify_prop21", verify.verify_prop21, cat)
    if ok:
        job.check("verify_prop21", [] if rep.ok else [rep.to_json()])

    ok, rep = job.op("verify_eigen_claims", verify.verify_eigen_claims, cat)
    if ok:
        job.check("verify_eigen_claims", [] if (
            rep.ok
            and rep.counts["below"] == 1
            and rep.details["below_member_vertices"] == 5
            and rep.counts["line_graphs_checked"] == LINE_GRAPHS_CHECKED
        ) else [rep.to_json()])

    path = tempfile.mkdtemp(prefix="catalog-", dir=state["workdir"])
    try:
        job.op("catalog_save", cat.save, path)
        ok, loaded = job.op("catalog_load", verify.MfsCatalog.load, path)
        if ok:
            job.check("catalog_load", [] if (
                loaded.counts() == cat.counts()
                and sorted(e.form for e in loaded.members()) == built
                and [e.verdict for e in loaded.members()] == [e.verdict for e in cat.members()]
            ) else ["round trip changed the catalog"])
    finally:
        shutil.rmtree(path, ignore_errors=True)
    # the n=8 stage is the interval between the n=7 and n=8 progress calls
    return {"stage_n8_s": stages[3] - stages[2] if len(stages) == 4 else 0.0}


def setup_table1(seed, workdir):
    return {"catalog": fixture_catalog(8)}


def run_table1(job, state):
    from hoffline import verify

    ok, rep = job.op("verify_table1", verify.verify_table1, state["catalog"])
    if ok:
        problems = []
        if not rep.ok:
            problems.append("not confirmed")
        if rep.counts["graphs_per_row"] != TABLE1_GRAPHS_PER_ROW:
            problems.append(f"graphs_per_row {rep.counts['graphs_per_row']}")
        if rep.details["extra_members_per_row"] != TABLE1_EXTRA_PER_ROW:
            problems.append(f"surplus {rep.details['extra_members_per_row']}")
        job.check("verify_table1", problems)
    return {}


def setup_stream(seed, workdir):
    return {
        "inputs": streamgen.stream(seed, STREAM_COUNT, *STREAM_SIZES),
        "catalog": fixture_catalog(9),
    }


def classify(line, catalog):
    """What piping one line through recognize, covers, spectral and
    screen computes."""
    from hoffline import core, enumeration, recognition, spectral, verify

    g = enumeration.parse_graph6(line)
    cover = recognition.is_h_line(g)
    covers = recognition.enumerate_strict_covers(g)
    interval = spectral.smallest_eigenvalue(g)
    verdict = spectral.compare_threshold(interval)
    spectral.equals_threshold(interval)
    screened = verify.screen(g, catalog)
    core.canonical_form(g)
    return cover, covers, verdict, screened


def run_stream(job, state):
    from hoffline import sums

    for i, (line, built_as_line) in enumerate(state["inputs"]):
        label = f"input {i} {line}"
        ok, out = job.op(label, classify, line, state["catalog"])
        if not ok:
            continue
        cover, covers, verdict, screened = out
        is_line = cover is not None
        problems = []
        if screened != is_line:
            problems.append(f"screen says {screened}, is_h_line says {is_line}")
        if built_as_line and not is_line:
            problems.append("built as a line graph but not recognized")
        if is_line and not covers:
            problems.append("line graph without a strict cover")
        if covers and not is_line:
            problems.append("strict covers of a non-line graph")
        for c in covers:
            valid, rule = sums.validate_sum(c.host, c.parts)
            if not valid:
                problems.append(f"cover violates sum condition {rule}")
        if is_line and verdict.value != "at_or_above":
            problems.append(f"line graph certifies {verdict.value}")
        job.check(label, problems)
    return {"requests_s": job.latencies}


WORKLOADS = {
    "catalog": (setup_catalog, run_catalog),
    "table1": (setup_table1, run_table1),
    "stream": (setup_stream, run_stream),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    setup, run = WORKLOADS[args.workload]
    state = setup(args.seed, args.workdir)
    setup_end = time.time()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    job = Job()
    cpu0 = time.process_time()
    result = run(job, state)
    result["cpu_s"] = time.process_time() - cpu0
    result.setdefault("requests_s", [job.busy_s])
    if rec is not None:
        result["spans"] = os.path.join(args.workdir, f"spans-{args.workload}-{args.seed}.json")
        rec.dump(result["spans"])
    print(json.dumps({
        "setup_end": setup_end,
        "wall_s": job.busy_s,
        "attempted": job.attempted,
        "failures": job.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
