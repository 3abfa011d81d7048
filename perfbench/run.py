"""Benchmark of the surftop CLI: four seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload fermat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run from anywhere inside a source checkout; the program is imported from
src/ of the checkout, nothing is installed. Each job is one `surftop`
process (the console-script entry point, `surftop.cli:main`), and the
next job starts only after it exits, so at most two processes run: this
harness and one job. Jobs run in whole balanced blocks (see jobs.py):
the first block, then as many more as fit in --seconds at its pace.
About every two seconds between jobs, a fresh process that only imports
the CLI and loads the catalog is timed for setup_s. Between jobs, at
most 0.3 s apart, a fixed reference task (REF) runs in a fresh
interpreter, and every time metric is scaled by the reference runs on
either side of the job (or probe) to a host of fixed speed, so that it
moves with the program and not with a shared host's speed swings. The
unscaled values go to the run record.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
replays the same blocks in-process instead: each job runs once untraced
and once with spans around every public function of the five layer
modules, and the run reports the per-layer metrics, the tracing overhead
(in-process jobs/s, untraced against traced) and where job time goes.
Every job's exit code, stdout bytes and stderr are checked in both modes.

The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}. A run record (Python, nproc, CPU, commit, seed,
sample counts, tail percentile, input properties) and, with --trace 1,
the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import jobs as J
from spans import LAYERS, Tracer, layer_of, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
CLI = "import sys; from surftop.cli import main; sys.exit(main())"
PROBE = (
    "import time; t0 = time.perf_counter_ns(); import surftop.cli; t1 = time.perf_counter_ns(); "
    "surftop.surfaces.catalog(); print(t1 - t0, time.perf_counter_ns() - t1)"
)
# A fixed task in a fresh interpreter that imports nothing of surftop: a
# counting loop like the program's, after interpreter start-up like each
# job's. It runs between jobs, at most REF_EVERY_NS apart, and the time
# metrics are scaled by the runs on either side of each job to a host on
# which it takes REF_S of wall time and of CPU (about its median on a
# 2-vCPU Xeon VM). Such a shared host slows everything by 30-70% for
# minutes at a time, which moves the jobs and this task alike, so the
# scaled metrics move with the program and far less with the host.
REF = (
    "import time\n"
    "t = time.perf_counter_ns()\n"
    "d = {}\n"
    "for x in range(37):\n"
    "    for y in range(37):\n"
    "        for z in range(37):\n"
    "            v = (x * x * x + y * y * y + z * z * z) % 37\n"
    "            d[v, x] = d.get((v, x), 0) + 1\n"
    "print(len(d), time.perf_counter_ns() - t)\n"
)
REF_S = 0.12
REF_EVERY_NS = 300_000_000
SETUP_PROBES = 11
PROBE_EVERY_NS = 2_000_000_000
POOL_BLOCKS = 4
JOB_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
}

MODEL_OF = {"zeta.count_p1xp1": "P1xP1", "zeta.count_blowup_p2": "Bl1P2", "zeta.count_hypersurface_p3": "fermat"}
COUNTING = {"zeta.count_variety", *MODEL_OF}

PER_LAYER = {
    **{f"zeta.count_ns_per_rep.{m}.k{k}": "ns" for m in ("fermat", "Bl1P2", "P1xP1") for k in (1, 2, 3)},
    "zeta.reps_enumerated": "count",
    "zeta.counterexample_report_s": "s",
    **{f"zeta.build_field_us.k{k}": "us" for k in (1, 2, 3)},
    **{f"lattice.invariants_s.r{r}": "s" for r in J.CLASSIFY_RANKS},
    **{f"lattice.determinant_s.r{r}": "s" for r in J.CLASSIFY_RANKS},
    "lattice.ns_per_n3": "ns",
    "lattice.from_dict_ms": "ms",
    "classification.classify_form_us": "us",
    "classification.class_to_dict_us": "us",
    "classification.describe_us": "us",
    "surfaces.catalog_load_ms": "ms",
    "surfaces.compute_invariants_us": "us",
    "surfaces.intersection_form_class_us": "us",
    "surfaces.homeomorphic_us": "us",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "count",
    "cli.exit1_jobs": "count",
    "cli.exit2_jobs": "count",
    "trace.overhead_pct": "%",
}


def reps(model: str, q: int) -> int:
    """Projective representatives each counting model enumerates over GF(q)."""
    if model == "fermat":
        return q**3 + q**2 + q + 1
    if model == "Bl1P2":
        return (q * q + q + 1) * (q + 1)
    return (q + 1) ** 2


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it: the 11th largest value, or the median for 20 samples or fewer."""
    n = len(values)
    if n <= 20:
        return statistics.median(values), 50.0
    return sorted(values)[-11], 100 * (n - 10) / n


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_cli(argv: list[str], env: dict) -> tuple[int | None, bytes, bytes, int]:
    """Run one surftop job to completion; code None means it timed out."""
    start = time.perf_counter_ns()
    try:
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=ROOT, env=env,
                              capture_output=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return None, exc.stdout or b"", exc.stderr or b"", time.perf_counter_ns() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter_ns() - start


def run_ref(env: dict) -> tuple[float, float, float]:
    """(wall_s, cpu_s, loop_s) of one run of the reference task."""
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", REF], cwd=ROOT, env=env, capture_output=True, timeout=JOB_TIMEOUT_S)
    wall = (time.perf_counter_ns() - start) / 1e9
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    size, loop_ns = map(int, proc.stdout.split()) if proc.returncode == 0 else (0, 0)
    if size != 37 * 37:
        raise RuntimeError(f"reference task failed:\n{proc.stderr.decode()}")
    return wall, ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime, loop_ns / 1e9


def host_scale(refs: list[float], i: int) -> float:
    """The factor that takes a time measured between the reference runs i
    and i + 1 to the nominal host: REF_S / the mean of those two."""
    return REF_S / statistics.fmean(refs[i : i + 2])


def setup_probe(env: dict) -> tuple[int, int, int]:
    """(wall_ns, import_ns, catalog_ns) of a fresh process that imports
    surftop.cli, loads the catalog and exits."""
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, timeout=JOB_TIMEOUT_S)
    wall = time.perf_counter_ns() - start
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import surftop from {ROOT / 'src'}:\n{proc.stderr.decode()}")
    imp, cat = map(int, proc.stdout.split())
    return wall, imp, cat


def make_pool(workload: str, seed: int) -> tuple[list[list[J.Job]], Path]:
    gram_dir = OUT / f"grams-{workload}-seed{seed}"
    gram_dir.mkdir(parents=True, exist_ok=True)
    pool = J.make_blocks(workload, seed, POOL_BLOCKS, str(gram_dir))
    J.write_grams(pool)
    return pool, gram_dir


def input_properties(pool: list[list[J.Job]]) -> dict:
    """What the generated inputs look like, over every block of the pool."""
    all_jobs = [job for block in pool for job in block]
    mix: dict[str, int] = defaultdict(int)
    for job in all_jobs:
        p = job.props
        if "q" in p:
            mix[f"q={p['q']},k={p['k']}"] += 1
        elif "rank" in p:
            mix[f"rank={p['rank']}"] += 1
        elif "degrees" in p:
            mix[f"counterexample degrees={p['degrees']}"] += 1
        else:
            mix[job.kind] += 1
    grams = [job.props for job in all_jobs if "rank" in job.props]
    props = {
        "jobs_per_block": len(pool[0]),
        "blocks_in_pool": len(pool),
        "mix": dict(sorted(mix.items())),
        "exit1_share": sum(j.exit_code == 1 for j in all_jobs) / len(all_jobs),
        "exit2_share": sum(j.exit_code == 2 for j in all_jobs) / len(all_jobs),
    }
    if grams:
        props["density"] = [min(g["density"] for g in grams), max(g["density"] for g in grams)]
        props["max_entry_bits"] = max(g["entry_bits"] for g in grams)
    return props


def run_record(workload: str, seed: int, seconds: int, trace: int, **fields) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu, "commit": commit,
        **fields,
    }


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------ end-to-end run


def measure(workload: str, seed: int, seconds: int) -> dict:
    env = child_env()
    pool, gram_dir = make_pool(workload, seed)
    setup_probe(env)  # warm-up: bytecode caches are written once per checkout
    run_ref(env)
    # job i ran between the reference runs refs[before[i]] and refs[before[i] + 1]
    probes, ran, walls, cpus, before, refs, failures = [], [], [], [], [], [run_ref(env)], []
    start = last_probe = last_ref = time.perf_counter_ns()
    blocks, planned = 0, 1
    while blocks < planned:
        for job in pool[blocks % len(pool)]:
            ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            code, out, err, wall = run_cli(job.argv, env)
            ran.append(" ".join(job.argv))
            ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            walls.append(wall / 1e9)
            cpus.append(ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime)
            before.append(len(refs) - 1)
            if not J.check(job, code, out, err):
                failures.append({"argv": job.argv, "exit": code, "stderr": err.decode(errors="replace")[-300:]})
            if time.perf_counter_ns() - last_ref >= REF_EVERY_NS:
                refs.append(run_ref(env))
                last_ref = time.perf_counter_ns()
            # set-up is sampled every two seconds or so, so it sees the same host as the jobs
            if time.perf_counter_ns() - last_probe >= PROBE_EVERY_NS:
                probes.append((setup_probe(env), len(refs) - 1))
                last_probe = time.perf_counter_ns()
        blocks += 1
        if blocks == 1:
            # whole blocks only, as many as fit the requested time. A block
            # takes 20-30 s on a shared 2-vCPU Xeon VM, so the count changes
            # when the program gets about twice as fast, not with the speed
            # swings of such a host
            planned = max(1, int(seconds * 1e9 // (time.perf_counter_ns() - start)))
    refs.append(run_ref(env))
    while len(probes) < SETUP_PROBES:
        probes.append((setup_probe(env), len(refs) - 1))
    elapsed = (time.perf_counter_ns() - start) / 1e9
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    shutil.rmtree(gram_dir, ignore_errors=True)
    n = len(walls)
    ref_walls, ref_cpus = [w for w, _, _ in refs], [c for _, c, _ in refs]
    wall_scale = [host_scale(ref_walls, b) for b in before]
    cpu_scale = [host_scale(ref_cpus, b) for b in before]

    def metrics(walls, cpus, setups):
        tail_value, _ = tail(walls)
        return {
            "setup_s": statistics.median(setups),
            "jobs_per_s": (n - len(failures)) / sum(walls),
            "job_s_p50": statistics.median(walls),
            "job_s_tail": tail_value,
            "cpu_s_per_job": sum(cpus) / n,
            "peak_rss_mb": peak_kb / 1024,
        }

    raw_setups = [w / 1e9 for (w, _, _), _ in probes]
    raw = metrics(walls, cpus, raw_setups)
    values = metrics([w * f for w, f in zip(walls, wall_scale)], [c * f for c, f in zip(cpus, cpu_scale)],
                     [s * host_scale(ref_walls, i) for s, (_, i) in zip(raw_setups, probes)])
    record = run_record(
        workload, seed, seconds, 0,
        blocks=blocks, elapsed_s=elapsed, failed_ratio=len(failures) / n, failures=failures[:20],
        job_s_tail_percentile=tail(walls)[1],
        samples={"setup_s": len(probes), "jobs_per_s": n, "job_s_p50": n, "job_s_tail": n,
                 "cpu_s_per_job": n, "peak_rss_mb": n},
        reference={"wall_s_median": statistics.median(ref_walls), "cpu_s_median": statistics.median(ref_cpus),
                   "loop_s_median": statistics.median(loop for _, _, loop in refs), "nominal_s": REF_S,
                   "runs": len(refs)},
        input_properties=input_properties(pool), metrics=values, unscaled_metrics=raw,
        jobs=[{"argv": a, "wall_s": w, "cpu_s": c, "refs_around": refs[b : b + 2], "scaled_wall_s": w * f}
              for a, w, c, b, f in zip(ran, walls, cpus, before, wall_scale)],
    )
    return {"attempted": n, "failed": len(failures), "values": values, "units": END_TO_END, "record": record}


# ----------------------------------------------------------------- traced run


def _field_k(args) -> int:
    return (args[1] if len(args) > 1 else args[0]).k


ANNOTATE = {
    **{name: (lambda a, r: {"q": r.q, "k": _field_k(a)}) for name in MODEL_OF},
    "zeta.build_field": lambda a, r: {"k": r.k},
    "lattice.invariants": lambda a, r: {"n": a[0].n},
    "lattice.determinant": lambda a, r: {"n": a[0].n},
}


def replay_job(job: J.Job, tracer: Tracer | None = None, job_id: int = 0) -> tuple[int, object, bytes, bool]:
    """Run one job in-process through surftop.cli.main, traced when a tracer
    is given; returns (elapsed ns, exit code, stdout bytes, ok)."""
    cli = sys.modules["surftop.cli"]
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job = job_id
        tracer.install()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback: the job failed, the run goes on
                code = None
                err.write("Traceback\n")
    finally:
        ns = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.uninstall()
    stdout = out.getvalue().encode()
    return ns, code, stdout, J.check(job, code, stdout, err.getvalue().encode())


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metric values and their sample counts from traced spans."""
    durs: dict[str, list] = defaultdict(list)
    for name, start, end, _parent, _job, attrs in spans:
        if attrs is not None or name not in ANNOTATE:  # skip annotated calls that raised
            durs[name].append((end - start, attrs))
    out: dict[str, list[float]] = defaultdict(list)
    for name, model in MODEL_OF.items():
        for d, a in durs[name]:
            out[f"zeta.count_ns_per_rep.{model}.k{a['k']}"].append(d / reps(model, a["q"]))
    for d, a in durs["zeta.build_field"]:
        out[f"zeta.build_field_us.k{a['k']}"].append(d / 1e3)
    for d, a in durs["lattice.invariants"]:
        out[f"lattice.invariants_s.r{a['n']}"].append(d / 1e9)
        if a["n"]:
            out["lattice.ns_per_n3"].append(d / a["n"] ** 3)
    for d, a in durs["lattice.determinant"]:
        out[f"lattice.determinant_s.r{a['n']}"].append(d / 1e9)
    scaled = {
        "zeta.counterexample_report_s": ("zeta.counterexample_report", 1e9),
        "lattice.from_dict_ms": ("lattice.GramMatrix.from_dict", 1e6),
        "classification.classify_form_us": ("classification.classify_form", 1e3),
        "classification.class_to_dict_us": ("classification.class_to_dict", 1e3),
        "classification.describe_us": ("classification.describe", 1e3),
        "surfaces.compute_invariants_us": ("surfaces.compute_invariants", 1e3),
        "surfaces.intersection_form_class_us": ("surfaces.intersection_form_class", 1e3),
        "surfaces.homeomorphic_us": ("surfaces.homeomorphic", 1e3),
        "cli.main_s": ("cli.main", 1e9),
    }
    for metric, (name, scale) in scaled.items():
        out[metric] = [d / scale for d, _ in durs[name]]
    selfs = self_times(spans)
    cli_self: dict[int, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        if layer_of(span[0]) == "cli":
            cli_self[span[4]] += own
    out["cli.self_s"] = [v / 1e9 for v in cli_self.values()]
    values = {k: statistics.median(v) for k, v in out.items() if k in PER_LAYER and v}
    return values, {k: len(out[k]) for k in values}


def attribution(spans: list[list], setup_s: float) -> tuple[dict, dict]:
    """Share of estimated job time (process start + import, taken as
    setup_s, plus in-process main) by where it went, and each layer's
    self time per job."""
    selfs = self_times(spans)
    jobs = {s[4] for s in spans}
    main_ns = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
    total = setup_s * 1e9 * len(jobs) + main_ns

    def outermost(names):
        ns = 0
        for s in spans:
            parent, inside = s[3], False
            while parent is not None:
                if spans[parent][0] in names:
                    inside = True
                    break
                parent = spans[parent][3]
            if s[0] in names and not inside:
                ns += s[2] - s[1]
        return ns

    layer_self = defaultdict(int)
    for s, own in zip(spans, selfs):
        layer_self[layer_of(s[0])] += own
    shares = {
        "process start + import (setup_s per job)": setup_s * 1e9 * len(jobs) / total,
        "zeta counting (count_variety and the model counters)": outermost(COUNTING) / total,
        "lattice.invariants": outermost({"lattice.invariants"}) / total,
        "cli self time": layer_self["cli"] / total,
    }
    shares["everything else in-process"] = 1 - sum(shares.values())
    per_job = {layer: layer_self[layer] / 1e9 / max(1, len(jobs)) for layer in LAYERS}
    return shares, per_job


def trace_run(workload: str, seed: int, seconds: int) -> dict:
    env = child_env()
    pool, gram_dir = make_pool(workload, seed)
    setup_probe(env)
    probes = [setup_probe(env) for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(ROOT / "src"))
    import surftop.cli  # noqa: F401  (traced calls go through sys.modules)

    cover = J.coverage_jobs(str(gram_dir))
    J.write_grams([cover])
    for job in cover:  # warm-up: lazy loads and first-call costs stay out of the timed replays
        replay_job(job)
    tracer = Tracer(annotate=ANNOTATE)
    busy_ns, done = {False: 0, True: 0}, {False: 0, True: 0}  # keyed by traced
    failed = attempted = job_id = passes = 0
    first_pass = []
    start = time.perf_counter_ns()
    while True:
        for i, job in enumerate(pool[passes % len(pool)]):
            # each job runs untraced and traced back to back, in alternating
            # order, so drift and second-run effects cancel in the overhead
            for t in (None, tracer) if i % 2 == 0 else (tracer, None):
                ns, code, stdout, ok = replay_job(job, t, job_id)
                busy_ns[t is not None] += ns
                done[t is not None] += 1
                attempted, failed = attempted + 1, failed + (not ok)
                if t is not None and passes == 0:
                    first_pass.append((job_id, code, stdout, ok))
            job_id += 1
        passes += 1
        if time.perf_counter_ns() - start >= seconds * 1e9:
            break
    work_spans = tracer.spans
    values, samples = layer_metrics(work_spans)
    source = {k: "workload" for k in values}
    first_ids = {jid for jid, *_ in first_pass}
    setup_s = statistics.median(w for w, _, _ in probes) / 1e9
    plain_rate, traced_rate = (done[t] / (busy_ns[t] / 1e9) for t in (False, True))
    values.update({
        "cli.import_s": statistics.median(i for _, i, _ in probes) / 1e9,
        "surfaces.catalog_load_ms": statistics.median(c for _, _, c in probes) / 1e6,
        "cli.stdout_bytes": sum(len(out) for _, _, out, _ in first_pass),
        "cli.exit1_jobs": sum(code == 1 for _, code, _, _ in first_pass),
        "cli.exit2_jobs": sum(code == 2 for _, code, _, _ in first_pass),
        "zeta.reps_enumerated": sum(reps(MODEL_OF[s[0]], s[5]["q"]) for s in work_spans
                                    if s[0] in MODEL_OF and s[4] in first_ids and s[5]),
        "trace.overhead_pct": 100 * (plain_rate - traced_rate) / plain_rate,
    })
    for k in ("cli.import_s", "surfaces.catalog_load_ms"):
        samples[k], source[k] = len(probes), "setup probes"
    for k in ("cli.stdout_bytes", "cli.exit1_jobs", "cli.exit2_jobs", "zeta.reps_enumerated"):
        samples[k], source[k] = len(first_pass), "first block"
    samples["trace.overhead_pct"], source["trace.overhead_pct"] = done[False] + done[True], "workload"
    missing = [k for k in PER_LAYER if k not in values]
    if missing:  # layers this workload never calls get their numbers from the coverage jobs
        cover_tracer = Tracer(annotate=ANNOTATE)
        for i, job in enumerate(cover):
            *_, ok = replay_job(job, cover_tracer, i)
            attempted, failed = attempted + 1, failed + (not ok)
        cover_values, cover_samples = layer_metrics(cover_tracer.spans)
        for k in missing:
            if k in cover_values:
                values[k], samples[k], source[k] = cover_values[k], cover_samples[k], "coverage"
    shares, self_per_job = attribution(work_spans, setup_s)
    shutil.rmtree(gram_dir, ignore_errors=True)
    write_json(OUT / f"spans-{workload}-seed{seed}.json", {
        "fields": ["name", "start_ns", "end_ns", "parent", "job", "attrs"], "spans": work_spans,
    })
    record = run_record(
        workload, seed, seconds, 1,
        passes=passes, failed_ratio=failed / attempted, samples=samples, source=source,
        jobs_per_s_in_process={"untraced": plain_rate, "traced": traced_rate},
        attribution=shares, layer_self_s_per_job=self_per_job,
        input_properties=input_properties(pool), metrics=values,
    )
    missing = [k for k in PER_LAYER if k not in values]
    if missing:
        raise RuntimeError(f"traced run produced no samples for {missing}")
    return {"attempted": attempted, "failed": failed, "values": values, "units": PER_LAYER, "record": record}


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*J.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "surftop" / "cli.py").is_file():
        print(f"no surftop source tree at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    w = args.workload
    result = (trace_run if args.trace else measure)(w, args.seed, args.seconds)
    record = result["record"]
    write_json(OUT / f"record-{w}-seed{args.seed}-trace{args.trace}.json", record)
    for name, value in result["values"].items():
        print(f"{w:15s} {name:40s} {value:14.6g} {result['units'][name]}")
    print(f"{w:15s} {'failed_ratio':40s} {record['failed_ratio']:14.6g} ratio")
    if args.trace:
        print(f"{w:15s} tracing overhead {record['metrics']['trace.overhead_pct']:.2f}% of in-process jobs/s")
        for where, share in record["attribution"].items():
            print(f"{w:15s} share of job time: {share:6.1%}  {where}")
    else:
        print(f"{w:15s} job_s_tail is p{record['job_s_tail_percentile']:.1f} of {record['samples']['job_s_tail']} jobs")
    metrics = {name: {"value": value, "unit": result["units"][name]} for name, value in result["values"].items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own harness process so that
    child rusage (peak RSS) starts afresh; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in J.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
