"""Self-check suite backing the check subcommand: algebra relations,
duality and braiding conformance, constants identities, and the basic
surgery axioms at a given level."""

from __future__ import annotations

from . import _linalg as la
from . import fixtures as fx
from . import rt_eval
from . import surgery as sg
from . import surgery_fixtures as sfx
from . import weightcat as wc
from .qscalars import ScalarContext


def run_all(ctx: ScalarContext) -> list[tuple[str, bool, str]]:
    report = []

    def add(name, dev):
        dev = float(dev)  # an mpf at high precision, which f"{:.3e}" rejects
        report.append((name, dev <= 100 * ctx.tol, f"deviation {dev:.3e}"))

    a = 0.37 + 0.2j
    b = 0.59 - 0.11j
    V = wc.typical_module(ctx, a)
    W = wc.typical_module(ctx, b)
    D = wc.dual_module(ctx, V)
    T = wc.tensor_module(ctx, V, W)
    add("algebra relations (typical)", wc.check_module_relations(ctx, V))
    add("algebra relations (dual)", wc.check_module_relations(ctx, D))
    add("algebra relations (tensor)", wc.check_module_relations(ctx, T))

    I = la.eye(ctx, V.dim)
    z = la.kron(I, wc.ev_coev(ctx, V, "ev_l")) @ la.kron(wc.ev_coev(ctx, V, "coev_l"), I)
    add("zig-zag", la.norm_inf(z - I))

    S = wc.sigma_module(ctx, ctx.rbar)
    dbl = wc.braiding(ctx, S, V) @ wc.braiding(ctx, V, S)
    add("periodicity compatibility", la.norm_inf(dbl - la.eye(ctx, V.dim) * ctx.q_power(a * ctx.rbar)))

    add("twist self-duality",
        abs(wc.twist(ctx, D)[0, 0] - wc.twist(ctx, V)[0, 0]))

    c = wc.constants(ctx)
    add("constants identity", abs(c.delta_minus * c.delta_plus
                                  - c.z_mod_zplus * c.zeta) / max(1.0, abs(c.zeta)))

    fp = rt_eval.f_prime(ctx, fx.unknot(wc.Typical(a)))
    add("renormalized unknot", abs(fp - wc.modified_dimension(ctx, a)))

    v0 = sg.cgp(ctx, sfx.unknot_presentation(ctx, a))
    add("surgery axiom index 0", abs(v0 - c.eta * wc.modified_dimension(ctx, a)))

    pa, pb = sfx.index2_pair(ctx, wc.Degree(0.5))
    ratio = sg.cgp(ctx, pb) / sg.cgp(ctx, pa)
    add("surgery axiom index 2", abs(ratio - 1 / c.D))
    return report
