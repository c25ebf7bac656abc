"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured deviation.  Tolerances are fixed here and match the
stated targets; run with -s to see the lines."""

import itertools
import json

import numpy as np
import pytest

from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import state_spaces as ss
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext
import maslov as ms
from conftest import marked, relative_modularity_matrix

CTX = {r: ScalarContext(r) for r in (4, 6)}


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_algebra_relations():
    worst = 0.0
    for r in (4, 6):
        ctx = CTX[r]
        mods = [
            wc.typical_module(ctx, 0.37 + 0.2j),
            wc.typical_module(ctx, ctx.nilpotency - 1),
            wc.sigma_module(ctx, ctx.rbar),
            wc.sigma_module(ctx, -ctx.rbar),
        ]
        mods.append(wc.dual_module(ctx, mods[0]))
        mods.append(wc.tensor_module(ctx, mods[0], mods[4]))
        mods.append(wc.tensor_module(ctx, mods[2], mods[0]))
        worst = max(worst, max(wc.check_module_relations(ctx, M) for M in mods))
    report(1, "algebra relations", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_02_constants_identity():
    worst_id = 0.0
    worst_probe = 0.0
    for r in (4, 6):
        ctx = CTX[r]
        c = wc.constants(ctx)
        nz = c.z_mod_zplus
        assert nz == (2 if r == 4 else 1)
        rel = abs(c.delta_minus * c.delta_plus - nz * c.zeta) / abs(nz * c.zeta)
        worst_id = max(worst_id, rel)
        for fr in (-1, 1):
            v1 = fx.stabilization_coefficient(ctx, 0.37 + 0.2j, fr)
            v2 = fx.stabilization_coefficient(ctx, 1.43 - 0.7j, fr)
            worst_probe = max(worst_probe, abs(v1 - v2) / max(1.0, abs(v1)))
    ok = worst_id <= 1e-8 and worst_probe <= 1e-8
    report(2, "constants identity", ok,
           f"identity rel {worst_id:.2e}, probe spread {worst_probe:.2e}")


def test_03_relative_modularity():
    ctx = CTX[6]
    g = wc.Degree(0.5)
    reps = wc.index_set(ctx, g)
    h = wc.Degree(0.37 + 0.2j)
    diag = []
    off = 0.0
    for i, wi in enumerate(reps):
        for j, wj in enumerate(reps):
            A = relative_modularity_matrix(ctx, wi, wj, h)
            n = float(np.abs(A).max())
            if i == j:
                diag.append(n)
            else:
                off = max(off, n)
    bound = 1e-8 * min(diag)
    report(3, "relative modularity", off <= bound,
           f"offdiag {off:.2e} vs 1e-8*diag {bound:.2e}")


def test_04_renormalized_invariant():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for r in (4, 6):
        ctx = CTX[r]
        for _ in range(5):
            a = complex(rng.uniform(0.1, 1.9), rng.uniform(0.05, 0.6))
            fp = rt_eval.f_prime(ctx, fx.unknot(wc.Typical(a)))
            worst = max(worst, abs(fp - wc.modified_dimension(ctx, a)))
    cut_dev = 0.0
    for r in (4, 6):
        ctx = CTX[r]
        H = fx.hopf_link(wc.Typical(0.37 + 0.2j), wc.Typical(0.59 - 0.11j))
        words = H.boundary_words()
        vals = []
        for b in range(1, len(words)):
            for i, (s, c) in enumerate(words[b]):
                if isinstance(c, wc.Typical):
                    vals.append(rt_eval.f_prime(ctx, H, edge=(b, i)))
        cut_dev = max(cut_dev, max(abs(v - vals[0]) for v in vals))
    ok = worst <= 1e-10 and cut_dev <= 1e-9
    report(4, "renormalized invariant", ok,
           f"unknot dev {worst:.2e}, cut dev {cut_dev:.2e}")


def test_05_surgery_axioms():
    worst = 0.0
    for r in (4, 6):
        ctx = CTX[r]
        c = wc.constants(ctx)
        a = 0.37 + 0.2j
        d_a = wc.modified_dimension(ctx, a)
        # index 0
        v0 = sg.cgp(ctx, sfx.unknot_presentation(ctx, a))
        worst = max(worst, abs(v0 - c.eta * d_a) / abs(c.eta * d_a))
        # index 2 on the attach/belt pair
        pa, pb = sfx.index2_pair(ctx, wc.Degree(0.5))
        ratio = sg.cgp(ctx, pb) / sg.cgp(ctx, pa)
        worst = max(worst, abs(ratio - 1 / c.D) / abs(1 / c.D))
        # index 1: connected sum along typical edges
        T1 = fx.unknot(wc.Typical(a))
        T2 = fx.trefoil(wc.Typical(a))
        c1 = dg.cut(ctx, T1, *rt_eval.find_typical_edge(ctx, T1))
        c2 = dg.cut(ctx, T2, *rt_eval.find_typical_edge(ctx, T2))
        joined = dg.trace_closure(dg.compose(c1, c2))
        p_sum = sg.SurgeryPresentation(joined)
        lhs = sg.cgp(ctx, p_sum)
        rhs = (1 / (c.eta * d_a)) * sg.cgp(ctx, sfx.unknot_presentation(ctx, a)) \
            * sg.cgp(ctx, sg.SurgeryPresentation(T2))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    report(5, "surgery axioms", worst <= 1e-8, f"max rel dev {worst:.2e}")


def test_06_kirby_invariance():
    ctx = CTX[6]
    a = 0.37 + 0.2j
    devs = []
    v1 = sg.cgp(ctx, sfx.surgery_meridian_presentation(ctx, a, 1))
    v2 = sg.cgp(ctx, sfx.unknot_presentation(ctx, a, framing=-1))
    devs.append(abs(v1 - v2) / max(abs(v1), abs(v2)))
    for k in (0, 1):
        va = sg.cgp(ctx, sfx.lens_unknot_presentation(ctx, 5, k))
        vb = sg.cgp(ctx, sfx.slid_lens_presentation(ctx, 5, k))
        devs.append(abs(va - vb) / max(abs(va), abs(vb)))
    worst = max(devs)
    vals1 = [sg.cgp(ctx, sfx.lens_unknot_presentation(ctx, 5, k)) for k in range(4)]
    vals2 = [sg.cgp(ctx, sfx.lens_chain_presentation(ctx, 2, 3, k)) for k in range(4)]
    separation = min(max(abs(x - y) for x, y in zip(vals1, p))
                     for p in itertools.permutations(vals2))
    ok = worst <= 1e-7 and separation > 1e-3
    report(6, "Kirby invariance", ok,
           f"pair dev {worst:.2e}, lens separation {separation:.2e}")


def test_07_stabilization_invariance():
    worst = 0.0
    for r in (4, 6):
        ctx = CTX[r]
        a = 0.37 + 0.2j
        p0 = sfx.unknot_presentation(ctx, a)
        v0 = sg.cgp(ctx, p0)
        d1 = dg.stabilize_projective(ctx, p0.diagram, 1, 0, wc.index_set(ctx, wc.Degree(0.7))[0])
        v1 = sg.cgp(ctx, sg.SurgeryPresentation(d1))
        worst = max(worst, abs(v1 - v0) / abs(v0))
        d2 = dg.stabilize_generic(ctx, p0.diagram, 1, (0, 1), wc.Degree(a))
        v2 = sg.cgp(ctx, sg.SurgeryPresentation(d2))
        worst = max(worst, abs(v2 - v0) / abs(v0))
        ps = sfx.s1xs2_presentation(ctx, 0.5)
        vs = sg.cgp(ctx, ps)
        d3 = dg.stabilize_generic(ctx, ps.diagram, 1, (0, 1), wc.Degree(0.5))
        surg = d3.ports_and_components()[(1, 0)]
        vs2 = sg.cgp(ctx, marked(d3, {surg: wc.Degree(0.5)}))
        worst = max(worst, abs(vs2 - vs) / abs(vs))
    report(7, "stabilization invariance", worst <= 1e-8, f"max rel dev {worst:.2e}")


def test_08_hom_dimension_lemma():
    bad = 0
    for r in (4, 6):
        ctx = CTX[r]
        reps = wc.index_set(ctx, wc.Degree(0.5))
        ks = (-ctx.rbar, 0, ctx.rbar)
        for i, wi in enumerate(reps):
            for j, wj in enumerate(reps):
                for k in ks:
                    for kp in ks:
                        got = ss.sphere_hom_dim(ctx, wi, wj, k, kp)
                        want = 1 if (i == j and k == kp) else 0
                        bad += got != want
    report(8, "Hom-dimension lemma", bad == 0, f"{bad} pattern mismatches")


def test_09_state_spaces():
    d4 = ss.genus1_dim(CTX[4], wc.Degree(0.5))
    d6 = ss.genus1_dim(CTX[6], wc.Degree(0.5))
    data = ss.TrivalentSurfaceData(2, wc.Degree(0.5), (wc.Degree(0.3 + 0.1j),))
    fast = ss.genus_n_dim(CTX[4], data)
    brute = ss.genus_n_dim(CTX[4], data, brute=True)
    ok = d4 == 1 and d6 == 3 and fast == brute
    report(9, "state spaces", ok,
           f"genus1 r4={d4} r6={d6}; genus2 formula {fast} vs brute {brute}")


def seifert_alexander(V, t):
    """Independent oracle: det(V - t V^T), genus-normalized so that the
    value at 1 is +1 (symmetric Alexander normalization)."""
    V = np.asarray(V, dtype=complex)
    g = V.shape[0] // 2
    raw = np.linalg.det(V - t * V.T)
    at_one = np.linalg.det(V - V.T).real
    return raw / (t ** g) / at_one


def test_10_alexander_cross_check():
    # normalization fixed on the unknot and figure eight: the renormalized
    # knot value over the modified dimension is the Alexander polynomial at
    # t = q^{2 alpha}, with unit monomial 1
    ctx = CTX[4]
    tref_seifert = [[-1, 1], [0, -1]]
    fig8_seifert = [[1, 1], [0, -1]]
    rng = np.random.default_rng(77)
    worst_fix = 0.0
    worst = 0.0
    for _ in range(5):
        a = complex(rng.uniform(0.1, 1.9), rng.uniform(0.05, 0.5))
        t = ctx.q_power(2 * a)

        def ratio(builder):
            return rt_eval.f_prime(ctx, builder(wc.Typical(a))) / \
                wc.modified_dimension(ctx, a)
        worst_fix = max(worst_fix, abs(ratio(fx.unknot) - 1.0))
        worst_fix = max(worst_fix,
                        abs(ratio(fx.figure_eight) - seifert_alexander(fig8_seifert, t)))
        worst = max(worst, abs(ratio(fx.trefoil) - seifert_alexander(tref_seifert, t)))
    ok = worst <= 1e-6 and worst_fix <= 1e-6
    report(10, "Alexander cross-check", ok,
           f"trefoil dev {worst:.2e} (normalization dev {worst_fix:.2e})")


def test_11_maslov_suite():
    rng = np.random.default_rng(11)
    perms = list(itertools.permutations([0, 1, 2]))

    def sgn(p):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return 1 if inv % 2 == 0 else -1

    bad = 0
    triples = 0
    for n in (1, 2, 3):
        sp = ms.standard_symplectic(n)
        for _ in range(34):
            Ls = [ms.random_lagrangian(n, rng) for _ in range(3)]
            m0 = ms.maslov_index(sp, *Ls)
            for p in perms:
                if ms.maslov_index(sp, Ls[p[0]], Ls[p[1]], Ls[p[2]]) != sgn(p) * m0:
                    bad += 1
            if ms.maslov_index(sp, Ls[0], Ls[0], Ls[1]) != 0:
                bad += 1
            triples += 1
    contr_bad = 0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        sp = ms.standard_symplectic(n)
        A = ms.random_lagrangian(n, rng)[:, :int(rng.integers(0, n + 1))]
        img, quo = ms.contract(sp, ms.random_lagrangian(n, rng), A)
        if not ms.is_lagrangian(quo.space, img):
            contr_bad += 1
    ok = bad == 0 and contr_bad == 0 and triples >= 100
    report(11, "Maslov suite", ok,
           f"{triples} triples, {bad} antisymmetry misses, {contr_bad} contraction misses")


def test_12_cli_determinism(tmp_path):
    from tests.test_cli import presentation_payload, run_cli
    from cgpkit import cli
    ctx = CTX[6]
    p = sfx.lens_unknot_presentation(ctx, 5, 1)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(presentation_payload(ctx, p, 6)))
    outs = set()
    for _ in range(3):
        code, out = run_cli(["cgp", str(path)])
        assert code == 0
        outs.add(out)
    bad_inputs = ["{oops", json.dumps({"level": 6}),
                  json.dumps({"level": 6, "presentation": {"diagram": []}})]
    codes = []
    for i, blob in enumerate(bad_inputs):
        f = tmp_path / f"bad{i}.json"
        f.write_text(blob)
        codes.append(run_cli(["cgp", str(f)])[0])
    ok = len(outs) == 1 and all(c == cli.EXIT_PARSE for c in codes)
    report(12, "CLI determinism and exit codes", ok,
           f"distinct outputs {len(outs)}, parse exits {codes}")
