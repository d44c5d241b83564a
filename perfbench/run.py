"""delayvar benchmark: closed-loop workloads with closed-form oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve|sweep|noether --seed N \\
        --seconds S --trace 0|1

One caller issues the workload's cases back to back (a closed loop), pass
after pass, for about S seconds.  Every result is checked against its closed
form.  With --trace 0 the last stdout line is the JSON result with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of
traced passes, each following an untraced pass whose outputs must match it
bit for bit.  The lines before it are a readable report: medians with
quartiles and sample counts, per-case times, fail share and max error.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads: on small machines threaded
# BLAS can stall a 221 x 221 solve for 100x its single-thread time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11

END_TO_END = [("pass_s", "s"), ("case1_s", "s"), ("case2_s", "s"), ("case3_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summary(values: list[float]) -> dict:
    """Median, quartiles, count, and the highest tail percentile with at
    least ten samples beyond it."""
    ordered = sorted(values)
    q1, med, q3 = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
                   else [ordered[0]] * 3)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(ordered)}
    for pct in (99, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(ordered, n=100)[pct - 1]
            break
    return out


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": len(list(task_dir.iterdir())) if task_dir.is_dir() else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
    }


def setup_seconds(workload: str, seed: int, tmp: Path) -> list[float]:
    """Fresh process until the first operation could start, SETUP_PROBES times."""
    probe = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(tmp)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(ready - start)
    return times


def run_pass(cases, tracer=None) -> dict:
    """Issue every case once, back to back; check the results afterwards."""
    times, results = {}, {}
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for op, case in enumerate(cases):
            gc.collect()
            if tracer is not None:
                tracer.op = op
            t0 = time.perf_counter()
            try:
                results[case.name] = (case.call(), None)
            except Exception as err:  # a failed operation is counted, not fatal
                results[case.name] = (None, f"{type(err).__name__}: {err}")
            times[case.name] = time.perf_counter() - t0
        pass_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    verdicts = {case.name: case.judge(*results[case.name]) for case in cases}
    return {"pass_s": pass_s, "times": times, "verdicts": verdicts}


def measure(cases, seconds: float, new_tracer=None) -> list[tuple[dict, dict | None]]:
    """Passes (untraced, or untraced + traced pairs when new_tracer is given)
    while at least half of another fits in the time budget; at least one.

    Every pass is a sample, the first (cold) one too: medians absorb it, and
    the slowest workload gets three samples instead of two.
    """
    rounds = []
    begin = time.perf_counter()
    while True:
        plain = run_pass(cases)
        traced_pass = None
        if new_tracer is not None:
            tracer = new_tracer()
            traced_pass = run_pass(cases, tracer)
            traced_pass["tracer"] = tracer
        rounds.append((plain, traced_pass))
        per_round = statistics.median(
            p["pass_s"] + (t["pass_s"] if t else 0.0) for p, t in rounds)
        if time.perf_counter() - begin + per_round / 2 > seconds:
            return rounds


def tally(passes: list[dict]) -> tuple[int, int, float, list[str]]:
    attempted = failed = 0
    worst, problems = 0.0, []
    for p in passes:
        for name, verdict in p["verdicts"].items():
            attempted += 1
            worst = max(worst, verdict.max_err)
            if not verdict.ok:
                failed += 1
                problems.append(f"{name}: {verdict.detail}")
    return attempted, failed, worst, problems


def fmt_row(name: str, unit: str, stats: dict) -> str:
    tail = "".join(f"  {k}={v:.6g}" for k, v in stats.items() if k.startswith("p"))
    return (f"{name:<34} {unit:<6} median={stats['median']:.6g}  q1={stats['q1']:.6g}"
            f"  q3={stats['q3']:.6g}  n={stats['n']}{tail}")


def output_files(tmp: Path) -> list[int]:
    return [f.stat().st_size for f in sorted(tmp.iterdir()) if f.is_file()]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delayvar" / "__init__.py").is_file():
        print(f"perfbench: no delayvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import delayvar
    import tracing
    import workloads

    if not Path(delayvar.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: delayvar imported from {delayvar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    params = workloads.Params.from_seed(args.seed)
    print(f"# delayvar benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} loop=closed callers=1")
    print(f"# environment: {json.dumps(environment())}")
    print(f"# data: {params}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, tmp)
        cases = workloads.build(args.workload, params, tmp)
        rounds = measure(cases, args.seconds, tracing.Tracer if args.trace else None)
        files = output_files(tmp)

    plain = [p for p, _ in rounds]
    traced = [t for _, t in rounds if t is not None]
    attempted, failed, max_err, problems = tally(plain + traced)
    mismatched = [c.name for p, t in rounds if t is not None for c in cases
                  if p["verdicts"][c.name].digest != t["verdicts"][c.name].digest]
    for line in problems:
        print(f"# FAILED {line}")
    if mismatched:
        print(f"# traced outputs differ from untraced: {sorted(set(mismatched))}")

    print("# pass seconds: " + " ".join(f"{p['pass_s']:.4f}" for p in plain)
          + ("; traced " + " ".join(f"{t['pass_s']:.4f}" for t in traced) if traced else ""))
    pass_stats = summary([p["pass_s"] for p in plain])
    case_stats = [summary([p["times"][c.name] for p in plain]) for c in cases]
    print(fmt_row("pass_s", "s", pass_stats))
    for case, stats in zip(cases, case_stats):
        print(fmt_row(f"case_s.{case.name}", "s", stats))
    print(f"{'fail_share':<34} {'ratio':<6} {failed / attempted:.6g}  "
          f"({failed} of {attempted} operations)")
    print(f"{'max_err':<34} {'abs':<6} {max_err:.6g}")

    if args.trace:
        layers = [t["tracer"].layer_metrics(dict(enumerate(c.name for c in cases)))
                  for t in traced]
        for layer, t in zip(layers, traced):
            layer["trace.pass_s"] = t["pass_s"]
            layer["cli.out_files"] = len(files)
            layer["cli.out_bytes_per_file"] = sum(files) / len(files) if files else 0.0
            _, t_failed, t_err, _ = tally([t])
            layer["check.max_err"] = t_err
            layer["check.fail_share"] = t_failed / len(cases)
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.untraced_pass_s"]["value"] = pass_stats["median"]
        metrics["trace.overhead_s"]["value"] = (metrics["trace.pass_s"]["value"]
                                                - pass_stats["median"])
        for name, entry in metrics.items():
            print(f"{name:<44} {entry['unit']:<6} {entry['value']:.6g}")
    else:
        setup_stats = summary(setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(fmt_row("setup_s", "s", setup_stats))
        print(f"{'peak_rss_mb':<34} {'MiB':<6} {rss_mb:.6g}")
        values = {"pass_s": pass_stats["median"], "setup_s": setup_stats["median"],
                  "peak_rss_mb": rss_mb}
        for i, stats in enumerate(case_stats, start=1):
            values[f"case{i}_s"] = stats["median"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": failed == 0 and not mismatched, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
