"""One fresh worker process: set up a workload, run one pass over its
operations, check every output, and write the record as JSON.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE OUT

MODE is `run` (one pass, its repetitions planned to take about SECONDS)
or `traced` (the same pass with spans recorded).  Between operations the pass times a yardstick, a fixed
computation outside cgpkit, so that the host's speed during the run is
known.  The worker caps its own address space first, so an operation
that asks for more memory than the cap fails with MemoryError instead of
being killed; CLI children inherit the cap.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

import oracles
import tracing

AS_CAP_BYTES = 2 << 30
# time an in-process operation may spend outside every traced layer: the
# benchmark's own call into the program and the opening of its first span
SPLIT_TOL_S = 1e-3


def main(root: Path, workload: str, seed: int, seconds: float, mode: str, out: Path) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))
    src = root / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import cgpkit
    from cgpkit import rt_eval

    if not Path(cgpkit.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"cgpkit imported from {cgpkit.__file__}, not from {src}")
    import workloads

    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install(cgpkit)
    scratch = root / ".perfbench_out" / f"work-{os.getpid()}"
    if workload == "cli":
        env = dict(os.environ, PYTHONPATH=str(src))
        if tracer is None:
            runner = workloads.CliRunner(root, env)
        else:
            runner = TracedCliRunner(root, env, tracer, scratch / "spans.json")
        wl = workloads.cli(seed, root, runner, scratch)
    else:
        wl = workloads.LIBRARY[workload](seed)
    ready = time.monotonic()
    record = {"ready": ready}
    try:
        record.update(run_passes(wl, seconds, tracer, rt_eval))
    finally:
        wl.cleanup()
    if tracer is not None:
        data = tracer.dump()
        record["trace"] = tracing.layer_metrics(data)
        if tracer.missing:
            record["problems"].append("not traced: " + ", ".join(tracer.missing))
        if tracing.check_nesting(tracer.spans):
            record["problems"].append("spans do not nest")
        record["largest_op"] = largest_op_split(tracer)
        if workload != "cli":  # a CLI op's process start lies outside every layer
            record["problems"] += split_problems(record["largest_op"])
        spans_file = out.with_suffix(".spans.json")
        spans_file.write_text(json.dumps(data))
        record["spans_file"] = str(spans_file)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mib"] = (kids if workload == "cli" else own) / 1024
    out.write_text(json.dumps(record))
    return 0


class TracedCliRunner:
    """Runs each CLI call through the tracing bootstrap and grafts the
    child's spans under the current op span."""

    def __init__(self, root, env, tracer, spans_file: Path):
        import workloads
        self.inner = workloads.CliRunner(
            root, env, [sys.executable, str(Path(tracing.__file__)), str(spans_file), "--"])
        self.tracer = tracer
        self.spans_file = spans_file

    def __call__(self, args):
        self.spans_file.unlink(missing_ok=True)
        result = self.inner(args)
        if self.tracer._in_pass():
            tracing.graft(self.tracer, json.loads(self.spans_file.read_text()))
        return result


def run_passes(wl, seconds: float, tracer, rt_eval) -> dict:
    """One pass, its repetitions planned to take about `seconds` (each
    operation at least once).  A pass is a whole round of the workload's
    operations, so a failing operation is the same share of every run."""
    cache0 = tracing.cell_cache_counts(rt_eval)
    ops, yard = [], []
    t_pass = time.perf_counter()
    for op, rep in wl.pass_order(seconds):
        if not yard or time.perf_counter() - t_pass > YARDSTICK_EVERY_S * len(yard):
            t0 = time.perf_counter()
            yardstick()
            yard.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        try:
            value = op.run() if tracer is None else tracer.run_op(op.name, op.run)
            error = None
        except Exception as e:  # an operation's failure is a result, not a crash
            value, error = None, f"{type(e).__name__}: {e}"[:300]
        ops.append((op, rep, time.perf_counter() - t0, value, error))
    passes = [(time.perf_counter() - t_pass, ops)]
    if tracer is not None:
        cache1 = tracing.cell_cache_counts(rt_eval)
        tracer.counts.update({k: cache1[k] - cache0[k] for k in cache1})
        tracer.op = "checks"
        tracer.uninstall()
    verdict = judge(wl, passes)
    verdict["yardstick_s"] = min(yard)
    verdict["yardstick_samples_s"] = yard
    return verdict


# how often the pass times the yardstick
YARDSTICK_EVERY_S = 0.1


def yardstick():
    """A fixed computation of about a millisecond that shares no code with
    cgpkit but does the same kinds of work: interpreted arithmetic on
    Python complex numbers and dicts, small complex matrix products in
    numpy and 106-bit complex arithmetic in mpmath."""
    acc, table = 0j, {}
    for i in range(500):
        z = complex(i % 7, i % 5) * (0.5 + 0.25j)
        table[(i % 11, i % 13)] = table.get((i % 11, i % 13), 0j) + z
        acc += z * z
    a = np.arange(36, dtype=np.complex128).reshape(6, 6) * (0.1 + 0.05j)
    for _ in range(20):
        a = np.einsum("ij,jk->ik", a, a) * 0.01 + 1j
    with mpmath.workprec(106):
        w = mpmath.mpc(1, 2)
        for _ in range(50):
            w = w * mpmath.mpc("0.5", "0.25") + 1
    return acc, table, a, w


def same(a, b) -> bool:
    if hasattr(a, "imag"):
        return abs(complex(a) - complex(b)) <= 1e-12 * max(abs(complex(a)), 1e-300)
    return a == b


def passes_check(check, values) -> bool:
    try:
        return bool(check.test(*values))
    except Exception:
        return False


def vacuous_inputs(check, values) -> list[str]:
    """Operations whose output the check still accepts after it is scaled
    by 1 + 1e-6; a check that accepts one is not checking it."""
    bad = []
    for j, name in enumerate(check.ops):
        moved = list(values)
        moved[j] = oracles.perturb(values[j])
        if passes_check(check, moved):
            bad.append(name)
    return bad


def shows_fault(op, value, error) -> bool:
    try:
        return bool(op.fault.shows(value, error))
    except Exception:
        return False


def judge(wl, passes) -> dict:
    """Checks on the first pass; every later pass must repeat its outputs.
    An operation with a known fault may fail only in the way its fault
    shows; any other failure of it is a problem."""
    first = {}
    for op, _, _, value, error in passes[0][1]:
        first.setdefault(op.name, (value, error))
    known = {op.name: op for op in wl.ops if op.fault}
    failed_ops, problems = set(), []
    for check in wl.checks:
        if any(first[name][1] is not None for name in check.ops):
            continue  # the raising operation is counted below
        values = [first[name][0] for name in check.ops]
        if passes_check(check, values):
            problems += [f"{check.name}: accepts a perturbed {name}"
                         for name in vacuous_inputs(check, values)]
            continue
        faulty = [n for n in check.ops if n in known]
        failed_ops.update(faulty or check.ops)
        if not faulty:
            problems.append(f"check failed: {check.name}")
    for name in failed_ops & known.keys():
        if not shows_fault(known[name], *first[name]):
            problems.append(f"{name} fails otherwise than by its known fault: "
                            f"{first[name][0]!r}"[:300])
    per_pass = []
    for wall, ops in passes:
        failed = 0
        for op, _, _, value, error in ops:
            if error is not None:
                failed += 1
                if op.name not in known or not shows_fault(op, value, error):
                    problems.append(f"{op.name} raised {error}")
            elif op.name in failed_ops:
                failed += 1
            elif not same(value, first[op.name][0]):
                problems.append(f"{op.name} changed between repetitions")
        per_pass.append({"wall": wall, "failed": failed,
                         "ops": [(op.name, op.level, rep, dur) for op, rep, dur, _, _ in ops]})
    errors = {op.name: error for op, _, _, _, error in passes[0][1] if error}
    unexpected_ok = sorted(known.keys() - failed_ops - set(errors))
    return {"passes": per_pass, "problems": sorted(set(problems)), "errors": errors,
            "known_faults": {name: op.fault.why for name, op in known.items()},
            "known_faults_not_seen": unexpected_ok, "notes": wl.notes}


def largest_op_split(tracer) -> dict:
    """Layer self times of the longest traced operation against its wall
    time.  `bench` is the operation's time outside every wrapped function;
    for an in-process operation it holds only the span bookkeeping, so the
    layers and the trace bookkeeping account for the rest of the wall time."""
    own = tracing.self_times(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s[tracing.LAYER] == "bench"]
    if not roots:
        return {}
    root = max(roots, key=lambda i: tracer.spans[i][tracing.END] - tracer.spans[i][tracing.START])
    members = {root}
    for i in range(root + 1, len(tracer.spans)):
        if tracer.spans[i][tracing.PARENT] in members:
            members.add(i)
    split = {}
    for i in members:
        layer = tracer.spans[i][tracing.LAYER]
        split[layer] = split.get(layer, 0.0) + own[i]
    wall = tracer.spans[root][tracing.END] - tracer.spans[root][tracing.START]
    return {"op": tracer.spans[root][tracing.NAME], "wall_s": wall, "self_s": split,
            "outside_layers_s": split.get("bench", 0.0)}


def split_problems(split: dict) -> list[str]:
    """The layer self times of an in-process operation must account for its
    wall time to within SPLIT_TOL_S, and none may be negative."""
    out = []
    if not split:
        out.append("no traced operation")
    elif abs(split["outside_layers_s"]) > SPLIT_TOL_S:
        out.append(f"{split['op']}: {split['outside_layers_s']:.6f} s of "
                   f"{split['wall_s']:.6f} s lies outside every traced layer")
    elif min(split["self_s"].values()) < -SPLIT_TOL_S:
        out.append(f"{split['op']}: a negative self time in {split['self_s']}")
    return out


if __name__ == "__main__":
    r, w, s, sec, m, o = sys.argv[1:7]
    sys.exit(main(Path(r), w, int(s), float(sec), m, Path(o)))
