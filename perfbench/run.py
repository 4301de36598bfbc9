#!/usr/bin/env python3
"""The treegrowth benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from `src/`.
Each job of the workload is a real `treegrowth` CLI command run in a fresh
child process, one at a time, from this single-threaded process.  A
repetition runs every job of the workload plus SETUP_SAMPLES `define` jobs
per group, in an order shuffled by the seed; repetitions go on until
`--seconds` have passed, and at least one runs.  Every job's output is
checked against `references.json`.

The last line of standard output is the result: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, each the median over the run's samples.  With `--trace 1` the run
then repeats each job once under `tracer.py` and reports per-layer metrics
from the spans.  The line before the result holds the details: seed, job
orders, sample counts, error rate, machine facts and failures.  The same
details, the job outputs and the span files stay in
`.bench_out/<workload>-seed<seed>-trace<0|1>/`.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"

SETUP_SAMPLES = 10      # `define` runs per group in each repetition
JOB_CPU_LIMIT_S = 150   # a child using more CPU than this is killed


@dataclass(frozen=True)
class Job:
    name: str           # key of the job's entry in references.json
    group: str          # config file stem under configs/
    command: str        # treegrowth subcommand
    flags: tuple = ()

    def cli_argv(self, out):
        return [self.command, "--config", str(CONFIGS / f"{self.group}.json"),
                *self.flags, "--out", str(out)]


# Why each workload: see BENCHMARK.json and README.md beside this file.
WORKLOADS = {
    "fg-spheres": (
        Job("fg-spheres-r9", "fg", "spheres", ("--max-radius", "9")),),
    "fg-criterion": (
        Job("fg-criterion-r7", "fg", "criterion",
            ("--max-radius", "7", "--k-depth", "6", "--epsilon", "0.45")),),
    "multiclass-report": (
        Job("grigorchuk-report-r12", "grigorchuk", "report",
            ("--max-radius", "12")),
        Job("sunic320-report-r4", "sunic320", "report", ("--max-radius", "4")),
        Job("neumann6-report-r2", "neumann6", "report", ("--max-radius", "2"))),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "engine.mul.s": "s",
    "engine.mul.calls": "count",
    "engine.mul.us_per_call": "us",
    "engine.mul.memo_hit_ratio": "ratio",
    "engine.mul.new_id_ratio": "ratio",
    "engine.ids": "count",
    "engine.mul_memo.size": "count",
    "engine.inv_memo.size": "count",
    "engine.init.s": "s",
    "engine.gen_id.s": "s",
    "store.build_spec.s": "s",
    "family.validate.s": "s",
    "growth.enumerate_spheres.s": "s",
    "growth.enumerate_spheres.self_s": "s",
    "growth.elements_per_s": "1/s",
    "growth.bytes_per_element": "B",
    "growth.products_per_element": "ratio",
    "growth.enumerate_spheres.s.grigorchuk": "s",
    "growth.enumerate_spheres.s.sunic320": "s",
    "growth.enumerate_spheres.s.neumann6": "s",
    "incompressible.factorization_dp.s": "s",
    "incompressible.factorization_dp.products": "count",
    "incompressible.factorization_dp.accept_ratio": "ratio",
    "incompressible.approximate_I_infty.s": "s",
    "criterion.run_criterion.self_s": "s",
    "criterion.pair_factors.calls": "count",
    "criterion.theorem_hypotheses_report.s": "s",
    "runtime.gc.s": "s",
    "runtime.gc.collections": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def setup_jobs(jobs):
    """One `define` job per distinct group of the workload."""
    groups = dict.fromkeys(job.group for job in jobs)
    return [Job(f"{group}-define", group, "define") for group in groups]


def job_output(job, out, stdout):
    """The part of a job's output that references.json pins."""
    if job.command == "define":
        return {"stdout": stdout.read_text(encoding="utf-8")}
    if job.command == "spheres":
        return {"csv": out.read_text(encoding="utf-8").splitlines()}
    return json.loads(out.read_text(encoding="utf-8"))


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S))


class Runner:
    """Runs and checks jobs, keeping one record per job attempted."""

    def __init__(self, reference, run_dir):
        self.reference = reference
        self.run_dir = run_dir
        self.records = []
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([path] if path else [])))

    def run(self, job, tag, prefix=None):
        """Run the job in a child process and check its output.  `prefix`
        replaces the `python -m treegrowth.cli` that starts it."""
        base = self.run_dir / f"{job.name}.{tag}"
        out, stdout, stderr = (base.with_name(base.name + s)
                               for s in (".out", ".stdout", ".stderr"))
        argv = (prefix or [sys.executable, "-m", "treegrowth.cli"]) \
            + job.cli_argv(out)
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env,
                                    cwd=ROOT, preexec_fn=_limit_cpu)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"job": job.name, "tag": tag, "rc": proc.returncode,
                  "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024,
                  "error": self.check(job, proc.returncode, out, stdout)}
        if record["error"]:
            print(f"{job.name} ({tag}): {record['error']}", file=sys.stderr)
        self.records.append(record)
        return record

    def check(self, job, rc, out, stdout):
        """None when the job exited 0 with the pinned output, else why not."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            got = job_output(job, out, stdout)
        except (OSError, ValueError) as e:
            return f"unreadable output: {e}"
        expected = self.reference[job.name]
        bad = sorted(k for k, v in expected.items() if got.get(k) != v)
        return f"differs from the reference in {bad}" if bad else None


def measure(runner, jobs, seconds, rng):
    """Untraced repetitions; returns the per-repetition samples and the job
    order of each repetition."""
    defines = setup_jobs(jobs)
    for job in defines:     # compiles the package's bytecode; not timed
        runner.run(job, "warmup")
    samples = {name: [] for name in END_TO_END}
    orders = []
    start = perf_counter()
    while True:
        rep = len(orders)
        items = [(job, None) for job in jobs] \
            + [(job, k) for job in defines for k in range(SETUP_SAMPLES)]
        rng.shuffle(items)
        orders.append([job.name for job, _ in items])
        wall = cpu = rss = 0.0
        setup = [0.0] * SETUP_SAMPLES
        for job, k in items:
            tag = f"r{rep}" if k is None else f"r{rep}s{k}"
            r = runner.run(job, tag)
            if k is None:
                wall += r["wall_s"]
                cpu += r["cpu_s"]
                rss = max(rss, r["peak_rss_mb"])
            else:
                setup[k] += r["wall_s"]
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        samples["setup_s"].extend(setup)
        if perf_counter() - start >= seconds:
            return samples, orders


def trace(runner, jobs, rng):
    """Each job, and each group's `define`, once under tracer.py; returns
    [(job, wall seconds, tracer record or None)] and the order run."""
    items = setup_jobs(jobs) + list(jobs)
    rng.shuffle(items)
    out = []
    for job in items:
        spans = runner.run_dir / f"{job.name}.spans.json"
        r = runner.run(job, "traced", [sys.executable, str(HERE / "tracer.py"),
                                       str(spans)])
        record = json.loads(spans.read_text()) if spans.exists() else None
        out.append((job, r["wall_s"], record))
    return out, [job.name for job in items]


def summarize(record):
    """Per-layer totals of one traced job: for each span name its seconds,
    self seconds, calls and summed extras; for the hot engine calls also
    memo hits, new ids and calls per caller."""
    spans, hot = record["spans"], record["hot"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    for _, parent, _, secs, _, _ in hot:
        covered[parent] += secs
    totals = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, extra) in enumerate(spans):
        t = totals[name]
        t["s"] += end - start
        t["self_s"] += end - start - covered[i]
        t["calls"] += 1
        for k, v in (extra or {}).items():
            t[k] += v
    for name, parent, calls, secs, hits, new in hot:
        t = totals[name]
        t["s"] += secs
        t["self_s"] += secs
        t["calls"] += calls
        t["memo_hits"] += hits
        t["new_ids"] += new
        t["calls from " + spans[parent][0]] += calls
    return totals


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics, summed over the traced jobs; engine sizes are the
    largest of any job, like peak RSS."""
    tot = defaultdict(lambda: defaultdict(float))
    spheres_by_group = defaultdict(float)
    engine = defaultdict(int)
    gc_s = gc_n = 0
    traced_wall = 0.0
    for job, wall, record in traced:
        if job.command != "define":
            traced_wall += wall
        if record is None:
            continue
        for name, t in summarize(record).items():
            for k, v in t.items():
                tot[name][k] += v
            if name == "growth.enumerate_spheres":
                spheres_by_group[job.group] += t["s"]
        for e in record["engines"]:
            for k in ("ids", "mul_memo", "inv_memo"):
                engine[k] = max(engine[k], e[k])
        gc_s += record["gc"]["s"]
        gc_n += record["gc"]["collections"]
    mul, grow = tot["engine.mul"], tot["growth.enumerate_spheres"]
    dp, crit = tot["incompressible.factorization_dp"], tot["criterion.run_criterion"]
    dp_products = mul["calls from incompressible.factorization_dp"]
    values = {
        "engine.mul.s": mul["s"],
        "engine.mul.calls": mul["calls"],
        "engine.mul.us_per_call": 1e6 * _ratio(mul["s"], mul["calls"]),
        "engine.mul.memo_hit_ratio": _ratio(mul["memo_hits"], mul["calls"]),
        "engine.mul.new_id_ratio": _ratio(mul["new_ids"], mul["calls"]),
        "engine.ids": engine["ids"],
        "engine.mul_memo.size": engine["mul_memo"],
        "engine.inv_memo.size": engine["inv_memo"],
        "engine.init.s": tot["engine.init"]["s"],
        "engine.gen_id.s": tot["engine.gen_id"]["s"],
        "store.build_spec.s": tot["store.build_spec"]["s"],
        "family.validate.s": tot["family.validate"]["s"],
        "growth.enumerate_spheres.s": grow["s"],
        "growth.enumerate_spheres.self_s": grow["self_s"],
        "growth.elements_per_s": _ratio(grow["elements"], grow["s"]),
        "growth.bytes_per_element": _ratio(grow["rss_growth"], grow["elements"]),
        "growth.products_per_element": _ratio(
            mul["calls from growth.enumerate_spheres"], grow["elements"]),
        "incompressible.factorization_dp.s": dp["s"],
        "incompressible.factorization_dp.products": dp_products,
        # the identity is reached without a product
        "incompressible.factorization_dp.accept_ratio": _ratio(
            dp["reached"] - dp["calls"], dp_products),
        "incompressible.approximate_I_infty.s":
            tot["incompressible.approximate_I_infty"]["s"],
        "criterion.run_criterion.self_s": crit["self_s"],
        "criterion.pair_factors.calls": tot["criterion.pair_factors"]["calls"],
        "criterion.theorem_hypotheses_report.s":
            tot["criterion.theorem_hypotheses_report"]["s"],
        "runtime.gc.s": gc_s,
        "runtime.gc.collections": gc_n,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_ratio": _ratio(traced_wall - untraced_wall,
                                       untraced_wall),
    }
    for group in ("grigorchuk", "sunic320", "neumann6"):
        values[f"growth.enumerate_spheres.s.{group}"] = spheres_by_group[group]
    return values


def machine_facts():
    model = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def loadavg():
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def run_workload(jobs, seed, seconds, traced, reference, run_dir):
    """Measure one workload; returns (result, details)."""
    load_start = loadavg()
    rng = random.Random(seed)
    runner = Runner(reference, run_dir)
    samples, orders = measure(runner, jobs, seconds, rng)
    medians = {name: statistics.median(v) for name, v in samples.items()}
    if traced:
        spans, trace_order = trace(runner, jobs, rng)
        orders.append(trace_order)
        metrics = {name: {"value": v, "unit": PER_LAYER[name]}
                   for name, v in layer_metrics(spans, medians["wall_s"]).items()}
    else:
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failures = [r for r in runner.records if r["error"]]
    result = {"correct": not failures, "attempted": len(runner.records),
              "failed": len(failures), "metrics": metrics}
    details = {
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "error_rate": len(failures) / len(runner.records),
        "samples": {name: {"median": medians[name], "n": len(v), "values": v}
                    for name, v in samples.items()},
        "orders": orders,
        "failures": failures,
        "jobs": runner.records,
        "machine": machine_facts(),
        "loadavg": {"start": load_start, "end": loadavg()},
    }
    return result, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "treegrowth" / "cli.py").is_file():
        print(f"error: no treegrowth sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "references.json").read_text())
    run_dir = ROOT / ".bench_out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result, details = run_workload(WORKLOADS[args.workload], args.seed,
                                   args.seconds, args.trace, reference, run_dir)
    details = {"workload": args.workload, **details}
    (run_dir / "result.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
