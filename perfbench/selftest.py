"""Self-test of the benchmark, in seconds:

    python3 perfbench/selftest.py        (from the root of a checkout)

1. The Seifert-matrix Alexander oracle agrees with the Burau one on random
   braid knots, so the knots check does not rest on one construction.
2. The smallest slice of each workload runs one pass; every check passes,
   and every check rejects each of its inputs scaled by 1 + 1e-6 (the
   worker's judge does this on every run, too).
3. The checks of the two known faults accept the correct outcome and
   reject it perturbed, so they will pass once the faults are mended.
4. Each known fault is recognised by the way it fails, and other failures
   of its operation (another exception, another value) are not taken for it.
5. A traced operation's spans nest, every listed function is wrapped, and
   the layer self times account for the operation's wall time; time spent
   outside every layer is caught.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from cgpkit import rt_eval  # noqa: E402
from cgpkit import surgery as sg  # noqa: E402
from cgpkit import surgery_fixtures as sfx  # noqa: E402
from cgpkit.qscalars import ScalarContext  # noqa: E402


def fail(msg: str) -> None:
    print("FAIL", msg)
    sys.exit(1)


def test_alexander_oracles() -> None:
    rng = random.Random(0)
    t = 0.7 + 0.3j
    tried = 0
    while tried < 200:
        n = rng.choice((2, 3, 4, 5))
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(n, 11))]
        if set(map(abs, word)) != set(range(1, n)) or not oracles.closes_to_knot(word, n):
            continue
        tried += 1
        ratio = oracles.alexander_from_seifert(oracles.braid_seifert_matrix(word, n), t) \
            / oracles.alexander_from_burau(word, n, t)
        if not any(abs(ratio - s * t ** k) < 1e-8 for s in (1, -1) for k in range(-12, 13)):
            fail(f"Seifert and Burau Alexander polynomials differ on {word}")
    print("ok   Seifert-matrix Alexander polynomial equals Burau's on 200 braid knots")


def small_workloads():
    scratch = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runner = workloads.CliRunner(ROOT, env)
    yield workloads.surgery(1, small=True)
    yield workloads.knots(1, small=True)
    yield workloads.statespace(1, small=True)
    yield workloads.cli(1, ROOT, runner, scratch, small=True)


def test_small_slices() -> None:
    for wl in small_workloads():
        t0 = time.perf_counter()
        try:
            verdict = worker.run_passes(wl, 0, None, rt_eval)
        finally:
            wl.cleanup()
        if verdict["problems"] or verdict["errors"]:
            fail(f"{wl.name}: {verdict['problems']} {verdict['errors']}")
        print(f"ok   {wl.name}: {len(wl.ops)} operations, {len(wl.checks)} checks, each "
              f"rejecting a 1e-6 perturbation ({time.perf_counter() - t0:.1f} s)")


def test_known_fault_checks() -> None:
    refused = (1, "", "error: weight (2+0j) is not typical at level 10\n")
    served = (0, '{\n  "cgp": [0.1, 0.2]\n}\n', "")
    same = workloads.same_outcome
    if not same(refused, refused) or same(served, refused) \
            or same(oracles.perturb(refused), refused) \
            or not workloads.refuses_level10(refused) \
            or workloads.refuses_level10(oracles.perturb(refused)):
        fail("cache-transparency checks")
    print("ok   cache-transparency check accepts the refusal, rejects the cached level-6 value")


def test_known_fault_signatures() -> None:
    """Each known fault is recognised by how it fails, and no other failure
    of its operation passes for it."""
    scratch = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = workloads.cli(1, ROOT, workloads.CliRunner(ROOT, env), scratch)
    cli.cleanup()
    faults = {op.name: op for op in workloads.surgery(1).ops + cli.ops if op.fault}
    split, cached = faults["r10:auto-stabilized-split"], faults["r10:cgp-docs-cached"]
    level6 = sg.cgp(ScalarContext(6), sfx.lens_unknot_presentation(ScalarContext(6), 5, 1))
    served = (0, json.dumps({"cgp": [level6.real, level6.imag]}), "")
    cases = [
        (split, None, "MemoryError: Unable to allocate 3.64 GiB", True),
        (split, None, "CannotStabilize: no admissible edge", False),
        (split, None, "TypeError: unsupported operand", False),
        (split, 0.5 + 0.1j, None, False),
        (cached, served, None, True),
        (cached, oracles.perturb(served), None, False),
        (cached, (1, "", "error: weight (2+0j) is not typical at level 10\n"), None, False),
        (cached, None, "TimeoutExpired: 150 s", False),
    ]
    for op, value, error, want in cases:
        if worker.shows_fault(op, value, error) != want:
            fail(f"{op.name}: fault signature {'rejects' if want else 'accepts'} "
                 f"{error or value!r}")
    print("ok   known faults are told apart from any other failure of their operations")


def test_trace_identity() -> None:
    import cgpkit
    tracer = tracing.Tracer()
    tracer.install(cgpkit)
    try:
        wl = workloads.surgery(2, small=True)
        op = max(wl.ops, key=lambda o: o.name.endswith("slid-lens"))
        tracer.run_op(op.name, op.run)
    finally:
        tracer.uninstall()
    if tracer.missing:
        fail(f"not traced: {tracer.missing}")
    if tracing.check_nesting(tracer.spans):
        fail("spans do not nest")
    split = worker.largest_op_split(tracer)
    problems = worker.split_problems(split)
    if problems or set(split["self_s"]) - {"bench", "trace", *tracing.LAYERS}:
        fail(f"layer self times do not account for the wall time: {problems} {split}")
    # a stretch of the operation outside every layer must be caught
    root = next(s for s in tracer.spans if s[tracing.LAYER] == "bench")
    root[tracing.START] -= 10 * worker.SPLIT_TOL_S
    if not worker.split_problems(worker.largest_op_split(tracer)):
        fail("time outside every layer passes unnoticed")
    print(f"ok   traced {split['op']}: layer self times account for its "
          f"{split['wall_s'] * 1e3:.1f} ms wall time to within "
          f"{split['outside_layers_s'] * 1e6:.0f} us")


if __name__ == "__main__":
    test_alexander_oracles()
    test_small_slices()
    test_known_fault_checks()
    test_known_fault_signatures()
    test_trace_identity()
    print("selftest passed")
