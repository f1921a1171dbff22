"""loccfisher benchmark: whole CLI commands under a closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each job is one CLI command, or a fixed pair, run in process through
``loccfisher.cli.cli_main(argv)`` with stdout captured; the next job starts
when the previous one has returned. The job list is run in passes until
``--seconds`` is spent; outputs are checked after each pass, outside the
timed region. With ``--trace 0`` the last line carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones (passes alternate untraced and
traced, so the tracing overhead is measured in the same run). Interpreter
start and import are not part of any job: they are ``setup_s``, the median
of several fresh interpreters that import the package and make one call.
``--workload all`` runs every workload in its own fresh process.

Everything the run records (environment, per-pass times, failures, tracing
overhead, baseline cross-check, spans) is written under ``.bench_out/``.
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
import traceback
from pathlib import Path
from time import perf_counter

# BLAS threads are fixed before numpy is first imported (numpy and the package
# are only imported inside functions), here and in every child interpreter;
# one thread keeps the measurement clear of the other core.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 3
CHUNK_S = 2.0       # seconds of jobs between two machine-speed probes
MIN_JOB_SAMPLES = 100
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); import loccfisher; "
              "from loccfisher.cli import cli_main; "
              "sys.exit(cli_main(['qfi', 'ghz3', '--theta', '0.3']))")

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Single-run stage times at theta = 0.3 from the Baseline table of ROADMAP.md.
BASELINE = {
    "ghz6@0.3": {"metrology.qfi": 0.0017, "locc.synthesize_tree": 0.024,
                 "locc.flatten": 0.038, "metrology.check_saturation": 0.123},
    "ghz7@0.3": {"metrology.qfi": 0.007, "locc.synthesize_tree": 0.047,
                 "locc.flatten": 0.294, "metrology.check_saturation": 1.35},
}


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(argv: list[str]) -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "command": [sys.executable, sys.argv[0], *argv],
    }


class Calibration:
    """Fixed kernel timed between measurements to track the machine's speed.

    On a shared host the speed of the same code drifts by up to 1.7x over
    minutes, in CPU time as much as in wall time. The kernel mixes what the
    package spends its time on (LAPACK eigh, many small numpy calls, plain
    interpreter work) and does not use the package, so a change to the
    package cannot move it. A measured time t next to kernel times c gives
    t * CAL_REF_S / mean(c): seconds at the speed where the kernel takes
    CAL_REF_S, about the quiet speed of the 2-core x86_64 host that the
    figures in bench/RESULTS.md come from.
    """

    CAL_REF_S = 0.1

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.herm = a + a.conj().T
        self.vecs = [rng.standard_normal(2) + 0j for _ in range(4)]
        self.samples: list[float] = []

    def measure(self) -> float:
        np = self.np
        t0 = perf_counter()
        for _ in range(20):
            np.linalg.eigh(self.herm)
        for _ in range(1500):
            out = self.vecs[0]
            for f in self.vecs[1:]:
                out = np.kron(out, f)
        acc = 0
        for k in range(150_000):
            acc += k * k
        self.samples.append(perf_counter() - t0)
        return self.samples[-1]

    def factor(self, before: float, after: float) -> float:
        return self.CAL_REF_S / (0.5 * (before + after))


def measure_setup(cal: Calibration) -> tuple[list[float], list[float]]:
    """Raw and speed-normalized wall times of fresh interpreters that import
    the package and make one call."""
    code = SETUP_CODE.format(src=str(SRC))
    raw, scaled = [], []
    before = cal.measure()
    for _ in range(SETUP_STARTS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, env=os.environ.copy())
        raw.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up start failed: {proc.stderr.decode()[-500:]}")
        after = cal.measure()
        scaled.append(raw[-1] * cal.factor(before, after))
        before = after
    return raw, scaled


def run_job(job, cli_main, tracer):
    """Run the job's commands; return (seconds, exit codes, stdouts, error)."""
    codes, outputs, error = [], [], None
    t0 = perf_counter()
    try:
        for argv in job.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli_main(argv)
                else:
                    code = tracer.call_root(job.label, cli_main, argv)
            codes.append(code)
            outputs.append(out.getvalue())
            if code != 0:
                error = f"exit {code}: {err.getvalue().strip()[-300:]}"
                break
    except Exception:  # a crashing job is a failed job; the run goes on
        error = traceback.format_exc(limit=3)[-600:]
    return perf_counter() - t0, codes, outputs, error


def run_pass(jobs, cli_main, tracer, cal: Calibration):
    """Run every job once, probing the machine speed after about every CHUNK_S.

    Returns the raw and the speed-normalized pass time, and per job
    [normalized seconds, exit codes, stdouts, error].
    """
    results, chunk, raw, scaled = [], [], 0.0, 0.0
    cal.measure()
    t0 = perf_counter()
    for i, job in enumerate(jobs):
        chunk.append(list(run_job(job, cli_main, tracer)))
        elapsed = perf_counter() - t0
        if elapsed >= CHUNK_S or i == len(jobs) - 1:
            before = cal.samples[-1]
            speed = cal.factor(before, cal.measure())
            raw += elapsed
            scaled += elapsed * speed
            for r in chunk:
                r[0] *= speed
            results.extend(chunk)
            chunk = []
            t0 = perf_counter()
    return raw, scaled, results


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def cross_check(spans: list[list], traced_passes: list[tuple[int, int, float]],
                job_times: dict[str, list[float]]) -> list[dict]:
    """ghz6/ghz7 stage times from the traced verify passes beside the baseline.

    ``traced_passes`` holds each traced pass's span range and speed factor.
    The run-to-run spread is that of the whole job over every pass of the
    run, (max - min) / median; a stage whose ratio to the baseline lies
    further from 1 than that spread is marked as differing.
    """
    rows = []
    for job, stages in BASELINE.items():
        times = job_times[job]
        spread = (max(times) - min(times)) / statistics.median(times)
        for stage, base in stages.items():
            raw = [sum(s[3] - s[2] for s in spans[a:b] if s[0] == stage and s[1] == job)
                   for a, b, _ in traced_passes]
            med = statistics.median(r * speed for r, (_, _, speed) in zip(raw, traced_passes))
            rows.append({"job": job, "stage": stage, "roadmap_s": base,
                         "traced_median_s": med, "traced_raw_median_s": statistics.median(raw),
                         "ratio_to_roadmap": med / base,
                         "job_spread": spread,
                         "verdict": "agrees" if abs(med / base - 1) <= spread else "differs"})
    return rows


def run_workload(args, argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import checker
    import tracing
    import workloads
    from loccfisher.cli import cli_main

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        spec = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
        want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        spec = END_TO_END
        want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if spec != want:
        return _fail("metrics emitted by bench/ do not match BENCHMARK.json")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        cal = Calibration()
        cal.measure()
        setup_raw, setup_times = measure_setup(cal)
        jobs = workloads.make_jobs(args.workload, args.seed, workdir)
        for argv_w in workloads.warmup_commands(args.workload, workdir):
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(argv_w)
        check = checker.Checker()
        tracer = tracing.Tracer() if args.trace else None

        walls = {False: [], True: []}
        raw_walls: list[float] = []
        job_times: list[float] = []
        per_job: dict[str, list[float]] = {job.label: [] for job in jobs}
        layer_passes: list[dict] = []
        traced_passes: list[tuple[int, int, float]] = []
        attempted = failed = 0
        failures: list[str] = []
        # enough passes for MIN_JOB_SAMPLES job times, so that at least a tenth
        # of them lie beyond job_p90_s; a traced run needs one pass of each kind
        min_passes = 2 if args.trace else -(-MIN_JOB_SAMPLES // len(jobs))
        start = perf_counter()
        n_pass = 0
        while True:
            traced = bool(args.trace) and n_pass % 2 == 1
            first = len(tracer.spans) if traced else 0
            if traced:
                tracer.install()
            try:
                raw, wall, results = run_pass(jobs, cli_main, tracer if traced else None,
                                              cal)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if not traced:
                raw_walls.append(raw)
            exit_nonzero = 0
            for job, (secs, codes, outputs, error) in zip(jobs, results):
                attempted += 1
                exit_nonzero += sum(c != 0 for c in codes)
                per_job[job.label].append(secs)
                if not traced:
                    job_times.append(secs)
                if error is None:
                    try:
                        check.check(job, codes, outputs)
                    except (checker.CheckError, KeyError, TypeError, ValueError,
                            OSError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                if error is not None:
                    failed += 1
                    if len(failures) < 20:
                        failures.append(f"{job.label}: {error}")
            if traced:
                traced_passes.append((first, len(tracer.spans), wall / raw))
                layer_passes.append({**tracer.pass_metrics(first, wall / raw),
                                     **tracing.counter_metrics(tracer.counts, exit_nonzero)})
            n_pass += 1
            elapsed = perf_counter() - start
            if n_pass >= min_passes and elapsed * (n_pass + 1) / n_pass > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        record = {
            "workload": args.workload, "why": workloads.WHY[args.workload],
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment(argv), "jobs_per_pass": len(jobs),
            "passes": n_pass, "untraced_pass_s": walls[False],
            "traced_pass_s": walls[True], "raw_untraced_pass_s": raw_walls,
            "setup_starts_s": setup_times, "raw_setup_starts_s": setup_raw,
            "calibration_s": cal.samples, "cal_ref_s": cal.CAL_REF_S,
            "attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted, "failures": failures,
        }
        if args.trace:
            metrics = tracing.median_metrics(layer_passes)
            record["trace_overhead_s"] = (statistics.median(walls[True])
                                          - statistics.median(walls[False]))
            spans_path = OUT / f"spans-{tag}.json"
            spans_path.write_text(json.dumps(
                {"fields": ["name", "job", "start", "end", "parent"],
                 "clock": "raw perf_counter seconds, not speed-normalized",
                 "traced_passes": traced_passes, "spans": tracer.spans}))
            record["spans_file"] = str(spans_path.relative_to(ROOT))
            if args.workload == "verify":
                record["baseline_cross_check"] = cross_check(tracer.spans, traced_passes,
                                                             per_job)
        else:
            metrics = {
                "wall_s": statistics.median(walls[False]),
                "job_p50_s": statistics.median(job_times),
                "job_p90_s": quantile(job_times, 0.9),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
            }
            record["job_samples"] = len(job_times)
            record["jobs_beyond_p90"] = sum(t > metrics["job_p90_s"] for t in job_times)
        record["metrics"] = metrics
        record["job_s"] = per_job
        OUT.mkdir(exist_ok=True)
        result_path = OUT / f"result-{tag}.json"
        result_path.write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {spec[name]}")
    if not args.trace:
        print(f"{args.workload} raw wall_s = {statistics.median(raw_walls)!r} s, "
              f"raw setup_s = {statistics.median(setup_raw)!r} s (not speed-normalized)")
    print(f"{args.workload} fail_frac = {record['fail_frac']!r} 1 "
          f"({failed} of {attempted} jobs over {n_pass} passes)")
    if args.trace:
        print(f"{args.workload} trace_overhead_s = {record['trace_overhead_s']!r} s")
    for line in failures:
        print(f"FAILED {line}")
    print(f"results: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": spec[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; prints every workload's
    metric lines, then one JSON object keyed by workload."""
    import workloads

    summary, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = {"correct": False, "error": f"exit {proc.returncode}"}
    print(json.dumps(summary))
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loccfisher" / "__init__.py").is_file():
        return _fail(f"no package source under {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail("BENCHMARK.json is missing")
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}, all")
    return run_workload(args, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
