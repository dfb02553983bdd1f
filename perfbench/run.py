"""The hoffline benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {catalog,table1,stream} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a hoffline checkout; it runs the program from
``src/`` there.  Every repetition is a fresh interpreter (``job.py``),
because recognition and the family loader keep module-level caches
that a second repetition in one process would find warm.

With ``--trace 0`` it measures rounds until ``--seconds`` have passed
(at least one; a job is never cut short).  A round is ``PASSES`` jobs,
one after another, over the same inputs; each request's latency in the
round is its fastest pass, which filters out the seconds-long slowdowns
a shared host imposes.  Then set-up runs alone until there are
``SETUP_SAMPLES`` set-up times, and the end-to-end metrics are reported
as medians.  With ``--trace 1`` it runs
the workload once plain and once traced, and reports the per-layer
metrics of the traced job and the tracing overhead (traced minus plain
``wall_s``).  The last line of standard output is the result as JSON;
the full record, stamped with revision, Python version, cores, seed and
``src/`` line count, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))

#: jobs per round: a stream job is short enough to repeat within a run
PASSES = {"catalog": 1, "table1": 1, "stream": 2}
SETUP_SAMPLES = 5
#: a run must end within 180 s; jobs still running at this point are killed
BUDGET_S = 170
WORKDIR = ".perfbench_out"


class JobFailed(Exception):
    pass


def spawn(args, extra, deadline):
    """Run one job to completion; returns its result with ``setup_s``."""
    cmd = [
        sys.executable, os.path.join(HERE, "job.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", WORKDIR,
        *extra,
    ]
    paths = [os.path.abspath("src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    t0 = time.time()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"job killed after {exc.timeout:.0f} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise JobFailed(f"job exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_end"] - t0
    return out


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fastest(jobs):
    """Per request, its lowest latency over the jobs of one round."""
    return [min(times) for times in zip(*(j["requests_s"] for j in jobs))]


def end_to_end(rounds, setups):
    jobs = [j for r in rounds for j in r]
    requests = [fastest(r) for r in rounds]
    requests_ms = [1000 * x for r in requests for x in r]
    return {
        "wall_s": (statistics.median(sum(r) for r in requests), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in jobs), "MB"),
        "latency_p50_ms": (percentile(requests_ms, 50), "ms"),
        "latency_p90_ms": (percentile(requests_ms, 90), "ms"),
    }, len(requests_ms)


def per_layer(plain, traced):
    out = spans.layer_metrics(traced["spans"])
    out["verify.stage_n8_s"] = (traced.get("stage_n8_s", 0.0), "s")
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return out


def stamp(args):
    rev = None
    if os.path.exists(".git"):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob("src/**/*.py", recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(path.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "hoffline", "__init__.py")):
        print("perfbench: run from the root of a hoffline checkout "
              "(src/hoffline is missing here)", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            plain = spawn(args, [], deadline)
            traced = spawn(args, ["--trace"], deadline)
            reps = [plain, traced]
            metrics = per_layer(plain, traced)
            samples = None
        else:
            rounds = []
            start = time.monotonic()
            while not rounds or time.monotonic() - start < args.seconds:
                rounds.append([
                    spawn(args, [], deadline) for _ in range(PASSES[args.workload])
                ])
            reps = [j for r in rounds for j in r]
            setups = [j["setup_s"] for j in reps]
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args, ["--setup-only"], deadline)["setup_s"])
            metrics, samples = end_to_end(rounds, setups)
    except JobFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    record = {
        "stamp": stamp(args),
        "repetitions": [
            {k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "attempted")}
            for r in reps
        ],
        "latency_samples": samples,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(
        WORKDIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for failure in failures[:10]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit}")
    print(f"{'fail_frac':45s} {record['fail_frac']:14.6f} ratio "
          f"({len(failures)} of {attempted} operations)")
    print(f"record: {path}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
