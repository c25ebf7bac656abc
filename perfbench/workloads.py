"""The four workloads: their inputs, made from the seed, their operations
and the checks on every operation's output.

A workload is built once per worker process, after cgpkit is imported.
Each operation is tagged with its level (r4, r6, r10, r14) or hp for the
106-bit operations.  Checks compare outputs with the closed forms in
`oracles`, with brute-force routes of the program that share no code with
the route timed, or with partners that must agree (handle slides,
blow-downs, second cut edges, conjugate braid words, cached and uncached
CLI runs).  Reference values computed by checks are memoised and never
timed.
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import state_spaces as ss
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext

LEVELS = ("r4", "r6", "r10", "r14", "hp")
HP_BITS = 106
# the repetition counts below make a pass take about this long on a
# 2-CPU sandbox; a run of other length scales them
PASS_SECONDS = 15.0

# partners that must agree (the tolerance named in the benchmark's README)
PARTNER_TOL = 1e-7
HP_TOL = 1e-9
KNOT_TOL = 1e-9


@dataclass
class Fault:
    """A fault of the program that makes an operation fail on every run: it
    is counted in `failed` and does not make the run incorrect.  `shows`
    tells from the operation's (value, error) that this fault, and no other
    failure, is what happened."""
    why: str
    shows: Callable[[object, str | None], bool]


@dataclass
class Op:
    name: str
    level: str
    run: Callable[[], object]
    fault: Fault | None = None
    # repetitions a pass, when not its level's (Workload.reps)
    reps: int | None = None


@dataclass
class Check:
    name: str
    ops: tuple[str, ...]
    test: Callable[..., bool]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    checks: list[Check]
    # times each level's operations repeat within a pass: many
    # repetitions spread over the run, so that an operation's fastest
    # repetition falls in a fast moment of the machine
    reps: dict[str, int] = field(default_factory=dict)
    cleanup: Callable[[], None] = lambda: None
    notes: dict = field(default_factory=dict)

    def pass_order(self, seconds: float) -> list[tuple[Op, int]]:
        """(operation, repetition) in the order of a pass that takes about
        `seconds`.  An operation runs `op.reps` or `reps[level]` times,
        scaled by seconds / PASS_SECONDS, and at least once; the
        repetitions of all operations are interleaved evenly over the pass,
        so the samples of an operation are spread over the whole pass
        instead of falling in one burst."""
        scale = seconds / PASS_SECONDS
        units = []
        for li, level in enumerate(LEVELS):
            group = [op for op in self.ops if op.level == level]
            for j, op in enumerate(group):
                reps = max(1, round((op.reps or self.reps.get(level, 1)) * scale))
                for rep in range(reps):
                    units.append(((rep + (j + 0.5) / len(group)) / reps, li, rep, j, op))
        units.sort(key=lambda u: u[:4])
        return [(u[4], u[2]) for u in units]


def close(a, b, tol: float) -> bool:
    a, b = complex(a), complex(b)
    return abs(a - b) <= tol * max(abs(a), abs(b)) and abs(a) > 0


def contexts_for(levels) -> dict[str, ScalarContext]:
    """One context per level tag, with its constants computed (cold set-up)."""
    out = {}
    for tag, r in levels:
        ctx = ScalarContext(r, precision=HP_BITS if tag.startswith("hp") else 53)
        wc.constants(ctx)
        out[tag] = ctx
    return out


def typical_weight(rng: random.Random) -> complex:
    # a nonzero imaginary part keeps the weight typical and its degree
    # generic at every level
    return complex(round(rng.uniform(0.2, 1.8), 6), round(rng.uniform(0.1, 0.4), 6))


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------


def surgery(seed: int, small: bool = False) -> Workload:
    rng = random.Random(seed)
    levels = [("r4", 4)] if small else [("r4", 4), ("r6", 6), ("r10", 10), ("r14", 14),
                                        ("hp", 6)]
    ctxs = contexts_for(levels)
    ops, checks = [], []
    k = rng.choice((0, 1))  # L(5,1) classes generic at every level

    def cgp(ctx, p, auto=False):
        return lambda: sg.cgp(ctx, p, auto=auto)

    def eta_d(tag, alpha, framing=0):
        """eta d(alpha) theta_alpha^framing: the framed unknot in S^3."""
        r = ctxs[tag].r
        return (wc.constants(ctxs[tag]).eta * oracles.modified_dimension(r, alpha)
                * oracles.twist(r, alpha) ** framing)

    inputs = {}
    for tag, r in levels:
        if tag == "hp":
            continue
        ctx = ctxs[tag]
        alpha = typical_weight(rng)
        g = wc.Degree(complex(round(rng.uniform(0.1, 0.9), 6), round(rng.uniform(0.1, 0.4), 6)))
        inputs[tag] = alpha, g
        ops += [
            Op(f"{tag}:unknot", tag, cgp(ctx, sfx.unknot_presentation(ctx, alpha))),
            Op(f"{tag}:unknot-1", tag, cgp(ctx, sfx.unknot_presentation(ctx, alpha, framing=-1))),
            Op(f"{tag}:unknot+1", tag, cgp(ctx, sfx.unknot_presentation(ctx, alpha, framing=1))),
            Op(f"{tag}:s1xs2", tag, cgp(ctx, sfx.s1xs2_presentation(ctx, g))),
        ]

        def s1xs2_value(tag=tag, g=g):
            ctx = ctxs[tag]
            c = wc.constants(ctx)
            return c.eta / c.D * sum(co * oracles.modified_dimension(ctx.r, col.alpha)
                                     for co, col in wc.kirby_color(ctx, g).terms)

        checks += [
            Check(f"{tag}: unknot gives eta d(alpha)", (f"{tag}:unknot",),
                  lambda v, tag=tag, a=alpha: close(v, eta_d(tag, a), PARTNER_TOL)),
            Check(f"{tag}: -1-framed unknot gives eta d(alpha) / theta", (f"{tag}:unknot-1",),
                  lambda v, tag=tag, a=alpha: close(v, eta_d(tag, a, -1), PARTNER_TOL)),
            Check(f"{tag}: +1-framed unknot gives eta d(alpha) theta", (f"{tag}:unknot+1",),
                  lambda v, tag=tag, a=alpha: close(v, eta_d(tag, a, 1), PARTNER_TOL)),
            Check(f"{tag}: S1xS2 gives eta/D sum coeff d", (f"{tag}:s1xs2",),
                  lambda v, f=s1xs2_value: close(v, f(), PARTNER_TOL)),
        ]
        # the +-1 meridians take 1.5 s at r = 14, and the handle-slide
        # partner of the lens 0.65 s at r = 10 and 11 s at r = 14: too long
        # to repeat often enough in a run for a steady fastest repetition
        if r <= 10:
            ops += [
                Op(f"{tag}:meridian+1", tag,
                   cgp(ctx, sfx.surgery_meridian_presentation(ctx, alpha, 1))),
                Op(f"{tag}:meridian-1", tag,
                   cgp(ctx, sfx.surgery_meridian_presentation(ctx, alpha, -1))),
            ]
            checks += [
                Check(f"{tag}: +1 meridian blows down", (f"{tag}:meridian+1", f"{tag}:unknot-1"),
                      lambda a, b: close(a, b, PARTNER_TOL)),
                Check(f"{tag}: -1 meridian blows down", (f"{tag}:meridian-1", f"{tag}:unknot+1"),
                      lambda a, b: close(a, b, PARTNER_TOL)),
            ]
        if r <= 6:
            ops += [
                Op(f"{tag}:lens", tag, cgp(ctx, sfx.lens_unknot_presentation(ctx, 5, k))),
                Op(f"{tag}:slid-lens", tag, cgp(ctx, sfx.slid_lens_presentation(ctx, 5, k))),
            ]
            checks.append(Check(f"{tag}: handle-slide partners agree",
                                (f"{tag}:lens", f"{tag}:slid-lens"),
                                lambda a, b: close(a, b, PARTNER_TOL)))
        if small:
            continue
        if r in (6, 10):
            name = f"{tag}:auto-stabilized-split"
            fault = None if r == 6 else Fault(
                "the dense sweep of rt_eval.evaluate asks for a (25, 5^10) complex128 "
                "array (3.64 GiB); MemoryError under the worker's address-space cap",
                lambda v, e: e is not None and e.startswith("MemoryError"))
            # the failing operation takes 2 s: once a pass; the working one
            # takes 0.15 s, so it repeats more often than its level
            ops.append(Op(name, tag, cgp(ctx, sfx.split_surgery_unknot_presentation(
                ctx, alpha, 1), auto=True), fault=fault, reps=24 if fault is None else 1))
            checks.append(Check(f"{tag}: auto-stabilized split unknot gives eta d(alpha)",
                                (name,), lambda v, tag=tag, a=alpha: close(v, eta_d(tag, a),
                                                                           PARTNER_TOL)))
    if not small:
        hp = ctxs["hp"]
        alpha, g = inputs["r6"]
        ops += [
            Op("hp:lens", "hp", cgp(hp, sfx.lens_unknot_presentation(hp, 5, k))),
            Op("hp:unknot-1", "hp", cgp(hp, sfx.unknot_presentation(hp, alpha, framing=-1))),
            Op("hp:s1xs2", "hp", cgp(hp, sfx.s1xs2_presentation(hp, g))),
        ]
        checks += [Check(f"hp: 106-bit {name} matches 53-bit", (f"hp:{name}", f"r6:{name}"),
                         lambda a, b: close(a, b, HP_TOL))
                   for name in ("lens", "unknot-1", "s1xs2")]
    return Workload("surgery", ops, checks,
                    reps={"r4": 25, "r6": 12, "r10": 16, "r14": 60, "hp": 12},
                    notes={"lens_class": k})


# ---------------------------------------------------------------------------
# knots
# ---------------------------------------------------------------------------

# generator sequences whose closures are knots (an n-cycle needs a length
# of parity n-1), and how many occurrences of each generator are positive
# crossings.  The seed shuffles the signs among the occurrences of each
# generator: the knot changes, the work does not (a crossing's cost depends
# on its sign and its strands, and every braid slice is equally wide).
BRAID_GENERATORS = {2: [1, 1, 1, 1, 1], 3: [1, 2, 1, 2, 1, 1], 4: [1, 2, 3, 1, 2, 3, 2]}
POSITIVE = {2: {1: 4}, 3: {1: 2, 2: 1}, 4: {1: 1, 2: 2, 3: 1}}
STRANDS = {4: (2, 3, 4), 6: (2, 3, 4), 10: (2, 3), 14: (2,)}


def braid_word(rng: random.Random, n: int) -> list[int]:
    gens = BRAID_GENERATORS[n]
    signs = {}
    for g, pos in POSITIVE[n].items():
        signs[g] = [1] * pos + [-1] * (gens.count(g) - pos)
        rng.shuffle(signs[g])
    word = [g * signs[g].pop() for g in gens]
    assert oracles.closes_to_knot(word, n)
    return word


def knots(seed: int, small: bool = False) -> Workload:
    rng = random.Random(seed)
    levels = [("r4", 4), ("hp4", 4)] if small else [
        ("r4", 4), ("r6", 6), ("r10", 10), ("r14", 14), ("hp4", 4), ("hp6", 6)]
    ctxs = contexts_for(levels)
    ops, checks, words = [], [], {}
    for tag, r in levels:
        if tag.startswith("hp"):
            continue
        ctx = ctxs[tag]
        # the widest sweeps are left out: 4 strands at r = 10 and 3 at r = 14
        # take a second or more, too long to repeat often enough in a run
        # for a steady fastest repetition (and 4 strands at r = 14 would
        # need a dense state of about 4.5 GB)
        for n in STRANDS[r]:
            word = braid_word(rng, n)
            alpha = typical_weight(rng)
            words[f"{tag}:n{n}"] = word
            # blackboard framing (the writhe); framing curls would widen
            # every cut by two letters
            d = fx.braid_closure(wc.Typical(alpha), n, word)
            d_rot = fx.braid_closure(wc.Typical(alpha), n, word[1:] + word[:1])
            # the boundary before the closing cups is as short as the one
            # after the opening caps, so this cut is no wider than the default
            second = (len(d.slices) - 1, 0)
            base = f"{tag}:n{n}"
            ops += [
                Op(base, tag, functools.partial(rt_eval.f_prime, ctx, d)),
                Op(f"{base}:second-cut", tag,
                   functools.partial(rt_eval.f_prime, ctx, d, edge=second)),
                Op(f"{base}:rotated", tag, functools.partial(rt_eval.f_prime, ctx, d_rot)),
            ]
            checks += [
                Check(f"{base}: independent of the cut edge", (base, f"{base}:second-cut"),
                      lambda a, b: close(a, b, KNOT_TOL)),
                Check(f"{base}: invariant under conjugation", (base, f"{base}:rotated"),
                      lambda a, b: close(a, b, KNOT_TOL)),
            ]
            if r == 4:
                t = oracles.q_power(4, 2 * alpha)
                writhe = sum(1 if g > 0 else -1 for g in word)
                want = oracles.twist(4, alpha) ** writhe * oracles.alexander_from_seifert(
                    oracles.braid_seifert_matrix(word, n), t)
                checks.append(Check(
                    f"{base}: F'/d(alpha) is theta^writhe times the Seifert-matrix "
                    "Alexander polynomial", (base,),
                    lambda v, want=want, a=alpha: close(v / oracles.modified_dimension(4, a),
                                                        want, KNOT_TOL)))
            hp_tag = "hp" + tag[1:]
            # 106 bits: 3 strands at r = 6 take a second
            if hp_tag in ctxs and (r == 4 or n == 2):
                hp_name = f"hp:{tag}:n{n}"
                ops.append(Op(hp_name, "hp", functools.partial(rt_eval.f_prime, ctxs[hp_tag], d)))
                checks.append(Check(f"{hp_name}: 106-bit matches 53-bit", (hp_name, base),
                                    lambda a, b: close(a, b, HP_TOL)))
    return Workload("knots", ops, checks, reps={"r4": 45, "r6": 45, "r10": 30, "r14": 45, "hp": 38},
                    notes={"braid_words": words})


# ---------------------------------------------------------------------------
# state spaces
# ---------------------------------------------------------------------------


HP_DEGREE = wc.Degree(0.5 + 0.15j)


def statespace(seed: int, small: bool = False) -> Workload:
    rng = random.Random(seed)
    levels = [("r4", 4), ("hp4", 4)] if small else [
        ("r4", 4), ("r6", 6), ("r10", 10), ("r14", 14), ("hp4", 4)]
    ctxs = contexts_for(levels)

    def degree(lo, hi):
        # imaginary parts of m0 and m' lie in disjoint ranges, so every
        # spine class, m'' = m0 - m' included, is generic
        return wc.Degree(complex(round(rng.uniform(0.1, 0.9), 6), round(rng.uniform(lo, hi), 6)))

    m0 = degree(0.1, 0.2)
    primes = (degree(0.3, 0.45), degree(0.3, 0.45))
    data = {g: ss.TrivalentSurfaceData(g, m0, primes[:g - 1]) for g in (2, 3)}

    @functools.cache
    def brute(r: int, genus: int) -> int:
        return ss.genus_n_dim(ScalarContext(r), data[genus], brute=True)

    @functools.cache
    def genus1_brute(r: int, m: wc.Degree = m0) -> int:
        ctx = ScalarContext(r)
        return sum(wc.hom_dim_graded(ctx, wc.ObjectWord([(-1, wc.Typical(a)), (1, wc.Typical(a))]))
                   for a in wc.index_set(ctx, m))

    # genus 2 at r = 10 (15 s) and genus 3 at r = 6 (1.4 s) are left out:
    # too long to repeat often enough in a run for a steady fastest
    # repetition; genus 1 stands for the higher levels
    cases = [("r4", 2), ("r4", 3)] if small else [
        ("r4", 2), ("r4", 3), ("r6", 2), ("r6", 1), ("r10", 1), ("r14", 1)]
    ops, checks = [], []
    for tag, genus in cases:
        ctx = ctxs[tag]
        name = f"{tag}:genus{genus}"
        if genus == 1:
            ops.append(Op(name, tag, functools.partial(ss.genus1_dim, ctx, m0)))
            checks.append(Check(f"{name}: equals the nullspace count", (name,),
                                lambda v, r=ctx.r: v == genus1_brute(r)))
            continue
        ops.append(Op(name, tag, functools.partial(ss.genus_n_dim, ctx, data[genus])))
        checks.append(Check(f"{name}: trivalent formula equals the nullspace oracle", (name,),
                            lambda v, r=ctx.r, g=genus: v == brute(r, g)))
        ops.append(Op(f"{name}:shifted", tag,
                      functools.partial(ss.genus_n_dim, ctx, data[genus], rep_shift=1)))
        checks.append(Check(f"{name}: independent of the representatives",
                            (name, f"{name}:shifted"), lambda a, b: a == b))
    # 106 bits: genus 1 at r = 4 takes 5-9 ms, depending on the degree
    # (mpmath's cost moves with the values), so its degree is fixed; genus 2
    # at r = 4 (0.9 s) and genus 1 at r = 6 (0.4 s) repeat too seldom for a
    # steady fastest repetition
    ops.append(Op("hp:r4:genus1", "hp", functools.partial(ss.genus1_dim, ctxs["hp4"], HP_DEGREE)))
    checks.append(Check("hp:r4:genus1: 106-bit equals the nullspace count", ("hp:r4:genus1",),
                        lambda v: v == genus1_brute(4, HP_DEGREE)))
    return Workload("statespace", ops, checks,
                    reps={"r4": 50, "r6": 20, "r10": 150, "r14": 75, "hp": 112},
                    notes={"m0": str(m0.g), "mprime": [str(p.g) for p in primes]})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs `python -m cgpkit.cli` in a fresh process from the checkout."""

    def __init__(self, root: Path, env: dict, prefix: list[str] | None = None):
        self.root = root
        self.env = env
        self.prefix = prefix or [sys.executable, "-m", "cgpkit.cli"]

    def __call__(self, args: list[str]):
        proc = subprocess.run(self.prefix + args, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr


def _presentation_json(level: int, p: sg.SurgeryPresentation) -> str:
    return json.dumps({"level": level, "presentation": {
        "diagram": dg.diagram_to_json(p.diagram),
        "surgery_components": sorted(p.surgery_components),
        "meridian_degrees": {str(c): [g.g.real, g.g.imag]
                             for c, g in p.meridian_degrees.items()},
        "signature_defect": p.signature_defect}})


def _cgp_value(result) -> complex:
    code, out, _ = result
    if code != 0:
        raise ValueError(f"exit {code}")
    re_, im = json.loads(out)["cgp"]
    return complex(re_, im)


def _constants_hold(result) -> bool:
    """Exit 0 and the printed constants satisfy Delta_- Delta_+ = |Z/Z+| zeta,
    D^2 = Delta_- Delta_+, eta D = |Z/Z+| and delta D = Delta_+."""
    code, out, _ = result
    if code != 0:
        return False
    c = {k: complex(*v) if isinstance(v, list) else v for k, v in json.loads(out).items()}
    nz = c["z_mod_zplus"]
    if nz not in (1, 2):
        return False
    prod = c["delta_minus"] * c["delta_plus"]
    return (abs(prod - nz * c["zeta"]) <= 1e-8 * max(1.0, abs(c["zeta"]))
            and close(c["D"] ** 2, prod, 1e-9) and close(c["eta"] * c["D"], nz, 1e-9)
            and close(c["delta"] * c["D"], c["delta_plus"], 1e-9))


def _csv_dimension(result) -> int | None:
    code, out, _ = result
    lines = out.strip().splitlines()
    if code != 0 or len(lines) != 2 or lines[0] != "genus,degrees,dimension":
        return None
    try:
        return int(lines[1].rsplit(",", 1)[1])
    except ValueError:
        return None


def same_outcome(a, b) -> bool:
    """Same exit code and stdout."""
    return a[:2] == b[:2]


def refuses_level10(result) -> bool:
    code, out, err = result
    return code == 1 and out == "" and "not typical at level 10" in err


def cli(seed: int, root: Path, runner: CliRunner, workdir: Path,
        small: bool = False) -> Workload:
    rng = random.Random(seed)
    levels = [("r4", 4), ("r6", 6)] if small else [
        ("r4", 4), ("r6", 6), ("r10", 10), ("r14", 14)]
    ctxs = contexts_for(levels)
    ctx6 = ctxs["r6"]
    k = rng.choice((0, 1))
    workdir.mkdir(parents=True, exist_ok=True)
    lens_file, slid_file = workdir / "lens.json", workdir / "slid.json"
    lens_file.write_text(_presentation_json(6, sfx.lens_unknot_presentation(ctx6, 5, k)))
    slid_file.write_text(_presentation_json(6, sfx.slid_lens_presentation(ctx6, 5, k)))
    cache = workdir / "cache"
    docs = str(root / "docs" / "example_lens_5_1.json")
    weights = [typical_weight(rng) for _ in range(2)]
    m0 = complex(round(rng.uniform(0.1, 0.9), 6), round(rng.uniform(0.1, 0.2), 6))
    m1 = complex(round(rng.uniform(0.1, 0.9), 6), round(rng.uniform(0.3, 0.45), 6))

    def lit(z: complex) -> str:
        return f"{z.real!r}{z.imag:+}j"

    def run(*args):
        return functools.partial(runner, [str(a) for a in args])

    def miss(*args):
        def cold():
            shutil.rmtree(cache, ignore_errors=True)
            return runner([str(a) for a in args])
        return cold

    @functools.cache
    def slid_docs_partner() -> complex:
        return sg.cgp(ctx6, sfx.slid_lens_presentation(ctx6, 5, 1))

    def serves_level6_value(v, error) -> bool:
        return error is None and close(_cgp_value(v), slid_docs_partner(), PARTNER_TOL)

    ops = [
        Op("r6:cgp-docs", "r6", run("cgp", docs)),
        Op("r6:cgp-lens", "r6", run("cgp", lens_file)),
        Op("r6:cgp-slid-lens", "r6", run("cgp", slid_file)),
        Op("r6:cache-miss", "r6", miss("cgp", docs, "--cache-dir", cache)),
        Op("r6:cache-hit", "r6", run("cgp", docs, "--cache-dir", cache)),
        Op("r6:statespace-genus1", "r6", run("statespace", 6, 1, lit(m0))),
        Op("r4:constants", "r4", run("constants", 4)),
        Op("r4:moddim", "r4", run("moddim", 4, *map(lit, weights))),
    ]
    if not small:
        ops += [
            Op("r6:statespace-genus2", "r6", run("statespace", 6, 2, lit(m0), lit(m1))),
            Op("r10:cgp-docs-uncached", "r10", run("cgp", docs, "--level", 10)),
            Op("r10:cgp-docs-cached", "r10", run("cgp", docs, "--level", 10, "--cache-dir", cache),
               fault=Fault("cmd_cgp's cache key omits the effective level, so a cache "
                           "warmed at level 6 answers a --level 10 run with its level-6 value",
                           serves_level6_value)),
            Op("r10:constants", "r10", run("constants", 10)),
            Op("r14:constants", "r14", run("constants", 14)),
            Op("r14:moddim", "r14", run("moddim", 14, *map(lit, weights))),
            # a 106-bit cgp of the docs example takes 1.5 s
            Op("hp:moddim", "hp", run("moddim", 6, *map(lit, weights), "--precision", HP_BITS)),
            Op("hp:constants", "hp", run("constants", 4, "--precision", HP_BITS)),
        ]

    @functools.cache
    def genus1_brute() -> int:
        return sum(wc.hom_dim_graded(ctx6, wc.ObjectWord([(-1, wc.Typical(a)), (1, wc.Typical(a))]))
                   for a in wc.index_set(ctx6, wc.Degree(m0)))

    @functools.cache
    def genus2_brute() -> int:
        data = ss.TrivalentSurfaceData(2, wc.Degree(m0), (wc.Degree(m1),))
        return ss.genus_n_dim(ctx6, data, brute=True)

    def moddim_ok(r):
        def ok(result):
            code, out, _ = result
            if code != 0:
                return False
            vals = list(json.loads(out).values())
            return len(vals) == len(weights) and all(
                close(complex(*v), oracles.modified_dimension(r, w), 1e-9)
                for v, w in zip(vals, weights))
        return ok

    def same_stdout(a, b):
        return a[0] == b[0] == 0 and a[1] == b[1]

    checks = [
        Check("docs example matches its handle-slide partner", ("r6:cgp-docs",),
              lambda v: close(_cgp_value(v), slid_docs_partner(), PARTNER_TOL)),
        Check("generated handle-slide pair agrees", ("r6:cgp-lens", "r6:cgp-slid-lens"),
              lambda a, b: close(_cgp_value(a), _cgp_value(b), PARTNER_TOL)),
        Check("cache miss prints what the uncached run prints", ("r6:cgp-docs", "r6:cache-miss"),
              same_stdout),
        Check("cache hit prints what the uncached run prints", ("r6:cgp-docs", "r6:cache-hit"),
              same_stdout),
        Check("genus-1 statespace equals the nullspace count", ("r6:statespace-genus1",),
              lambda v: _csv_dimension(v) == genus1_brute()),
        Check("r4 constants satisfy their identities", ("r4:constants",), _constants_hold),
        Check("r4 moddim matches the closed form", ("r4:moddim",), moddim_ok(4)),
    ]
    if not small:
        checks += [
            Check("genus-2 statespace equals the nullspace oracle", ("r6:statespace-genus2",),
                  lambda v: _csv_dimension(v) == genus2_brute()),
            Check("uncached --level 10 refuses the non-typical weight",
                  ("r10:cgp-docs-uncached",),
                  refuses_level10),
            Check("cached --level 10 behaves as the uncached run",
                  ("r10:cgp-docs-cached", "r10:cgp-docs-uncached"), same_outcome),
            Check("r10 constants satisfy their identities", ("r10:constants",), _constants_hold),
            Check("r14 constants satisfy their identities", ("r14:constants",), _constants_hold),
            Check("r14 moddim matches the closed form", ("r14:moddim",), moddim_ok(14)),
            Check("106-bit moddim matches the closed form", ("hp:moddim",), moddim_ok(6)),
            Check("106-bit constants satisfy their identities", ("hp:constants",),
                  _constants_hold),
        ]

    # the cache holds the level-6 entry of the docs example from here on (a
    # miss deletes and rewrites it within one operation), so every cache
    # read finds it, whatever the order of the pass
    runner(["cgp", docs, "--cache-dir", str(cache)])
    return Workload("cli", ops, checks, reps={"r4": 4, "r6": 2, "r10": 4, "r14": 5, "hp": 4},
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True),
                    notes={"lens_class": k, "moddim_weights": [lit(w) for w in weights],
                           "statespace_degrees": [lit(m0), lit(m1)]})


LIBRARY = {"surgery": surgery, "knots": knots, "statespace": statespace}
NAMES = ("surgery", "knots", "statespace", "cli")
