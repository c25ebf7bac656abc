"""cgpkit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {surgery,knots,statespace,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src`.
Each workload runs in fresh worker processes, one operation after another
(a closed loop with one client).  With --trace 0 the last line of stdout
is the JSON result with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a separate traced run.  The environment and the
per-operation record go to stderr and to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# one BLAS thread in this process, the workers and their CLI children: the
# closed loop has no concurrency, and on these small matrix products a
# second thread gains nothing and doubles the run-to-run spread
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

from worker import AS_CAP_BYTES  # noqa: E402

WORKLOADS = ("surgery", "knots", "statespace", "cli")
LEVELS = ("r4", "r6", "r10", "r14", "hp")
# fresh workers a run, each running its share of the pass: an operation's
# time is its fastest in any of them, and set-up time their median
WORKERS = 3
DEADLINE_S = 170.0


def unit_of(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_ratio_max"):
        return "ratio"
    return "count"


def blas_threads() -> int | None:
    import numpy  # noqa: F401  (loads the BLAS library)
    maps = Path("/proc/self/maps").read_text()
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path) -> dict:
    import mpmath
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": blas_threads(),
        "address_space_cap_bytes": AS_CAP_BYTES,
        "git_commit": commit or "not a git checkout",
    }


class Runner:
    def __init__(self, root: Path, args):
        self.root, self.args = root, args
        self.out = root / ".perfbench_out"
        self.out.mkdir(exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, mode: str, seconds: float) -> dict:
        self.count += 1
        out = self.out / f"{self.args.workload}-{self.args.seed}-{mode}-{os.getpid()}-{self.count}.json"
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(self.root), self.args.workload,
             str(self.args.seed), str(seconds), mode, str(out)],
            cwd=self.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - t0))
        sys.stderr.write(proc.stdout + proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
        record = json.loads(out.read_text())
        out.unlink()
        record["setup_s"] = record["ready"] - t0
        return record

    def wall(self, argv: list[str], env: dict) -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=self.root, env=env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0


# the yardstick's fastest time on the 2-CPU sandbox the reference figures
# come from, in a calm stretch of its host
YARDSTICK_REF_S = 1.1e-3


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    """Each operation's time is its fastest repetition in any worker of the
    run; the repetitions are spread evenly over each worker's pass, so this
    is its time in the fastest moments the run holds.  A level's time is
    one pass over its operations, each at its fastest, scaled to the
    yardstick's reference speed: times YARDSTICK_REF_S over the yardstick's
    fastest time in the same run, so that a drift of the host's speed that
    outlasts the run cancels (see README.md).  An operation with a known
    fault fails every time: its time is kept in the record and left out of
    the metrics.  Returns the metrics and the unscaled level times."""
    best, level_of = {}, {}
    for run in runs:
        for name, level, _, dur in run["passes"][0]["ops"]:
            if name not in run["known_faults"]:
                best[name] = min(best.get(name, dur), dur)
                level_of[name] = level
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in runs),
    }
    scale = YARDSTICK_REF_S / min(r["yardstick_s"] for r in runs)
    unscaled = {}
    for level in LEVELS:
        times = [t for name, t in best.items() if level_of[name] == level]
        if not times:
            raise RuntimeError(f"workload has no operation at {level}")
        unscaled[f"{level}_s"] = sum(times)
        metrics[f"{level}_s"] = sum(times) * scale
    return metrics, unscaled


# trace figures that describe the harness rather than the program: kept in
# the record, not printed as metrics
HARNESS = ("spans", "self_bench_s", "self_trace_s")


def per_layer(runner: Runner, run: dict, traced: dict) -> dict:
    metrics = dict(traced["trace"])
    traced["harness"] = {k: metrics.pop(k) for k in HARNESS}
    traced["harness"]["traced_run_s"] = traced["passes"][0]["wall"]
    env = dict(os.environ, PYTHONPATH=str(runner.root / "src"))
    interp = statistics.median(runner.wall([sys.executable, "-c", "pass"], env)
                               for _ in range(3))
    imp = statistics.median(runner.wall([sys.executable, "-c", "import cgpkit.cli"], env)
                            for _ in range(3))
    ops = {name: dur for name, _, _, dur in traced["passes"][0]["ops"]}
    metrics.update({
        "interpreter_s": interp,
        "import_s": imp - interp,
        "cache_hit_s": ops.get("r6:cache-hit", 0.0),
        "cache_miss_s": ops.get("r6:cache-miss", 0.0),
        "trace_overhead_s": traced["passes"][0]["wall"] - run["passes"][0]["wall"],
    })
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "cgpkit" / "__init__.py").is_file():
        print(f"no cgpkit sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = environment(root)
    print(json.dumps({"environment": env}), file=sys.stderr)
    runner = Runner(root, args)
    share = args.seconds / WORKERS
    unscaled = None
    if args.trace:
        run, traced = runner.spawn("run", share), runner.spawn("traced", share)
        records = [run, traced]
        metrics = per_layer(runner, run, traced)
    else:
        records = [runner.spawn("run", share) for _ in range(WORKERS)]
        metrics, unscaled = end_to_end(records)
    problems = [p for r in records for p in r["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(len(p["ops"]) for r in records for p in r["passes"]),
        "failed": sum(p["failed"] for r in records for p in r["passes"]),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    log = runner.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({"args": vars(args), "environment": env, "result": result,
                               "level_s_unscaled": unscaled, "records": records}, indent=1))
    for p in problems:
        print("PROBLEM", p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
