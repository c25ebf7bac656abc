"""Framing as one twist cell: every builder's figure against the same
diagram with its twists drawn as curls (`conftest.drawn_kinks`), the
widths the twist cell saves, and JSON cells checked at the boundary."""

import io
import json
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from cgpkit import cli
from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext
from conftest import drawn_kinks

A = 0.37 + 0.2j

BUILDERS = {
    "unknot-1": lambda ctx: sfx.unknot_presentation(ctx, A, -1),
    "unknot+1": lambda ctx: sfx.unknot_presentation(ctx, A, 1),
    "meridian-1": lambda ctx: sfx.surgery_meridian_presentation(ctx, A, -1),
    "meridian+1": lambda ctx: sfx.surgery_meridian_presentation(ctx, A, 1),
    "lens5": lambda ctx: sfx.lens_unknot_presentation(ctx, 5, 1),
    "slid-lens5": lambda ctx: sfx.slid_lens_presentation(ctx, 5, 1),
    "chain231": lambda ctx: sfx.lens_chain_presentation(ctx, 2, 3, 1),
    "split-1": lambda ctx: sfx.split_surgery_unknot_presentation(ctx, A, -1),
    "split+1": lambda ctx: sfx.split_surgery_unknot_presentation(ctx, A, 1),
    "trefoil-1": lambda ctx: sg.SurgeryPresentation(fx.trefoil(wc.Typical(A), -1)),
    "figure-eight+2": lambda ctx: sg.SurgeryPresentation(fx.figure_eight(wc.Typical(A), 2)),
}

LEVELS = [(4, 53, 1e-12), (6, 53, 1e-12), (10, 53, 1e-12), (4, 106, 1e-28), (6, 106, 1e-28)]


def _width(d):
    return max(len(w) for w in d.boundary_words())


CASES = [(name, *level) for level in LEVELS for name in sorted(BUILDERS)]


@pytest.mark.parametrize("name,r,precision,tol", CASES)
def test_twist_cells_match_drawn_kinks(name, r, precision, tol):
    ctx = ScalarContext(r, precision=precision)
    p = BUILDERS[name](ctx)
    drawn = sg.SurgeryPresentation(drawn_kinks(p.diagram), signature_defect=p.signature_defect)
    assert len(drawn.diagram.slices) > len(p.diagram.slices)
    assert np.array_equal(p.linking.matrix, drawn.linking.matrix)
    assert p.linking.signature == drawn.linking.signature
    writhe = [sum(s for _, _, s, _, _ in q.diagram.crossing_records()) for q in (p, drawn)]
    assert writhe[0] == writhe[1]
    v = sg.cgp(ctx, p, auto=True)
    w = sg.cgp(ctx, drawn, auto=True)
    assert abs(v - w) <= tol * max(1, abs(w))


def test_auto_stabilized_split_unknot_completes_at_r10():
    # a dense sweep of this cut allocates about 300 MiB; the sparse one 18 MiB
    ctx = ScalarContext(10)
    tracemalloc.start()
    try:
        v = sg.cgp(ctx, sfx.split_surgery_unknot_presentation(ctx, A, 1), auto=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = wc.constants(ctx).eta * wc.modified_dimension(ctx, A)
    assert abs(v - want) <= 1e-12 * max(1, abs(want))
    assert peak < 64 * 2 ** 20


def test_twist_cells_keep_framed_diagrams_narrow():
    # drawn curls made these 4 and 6 letters wide
    assert _width(fx.unknot(wc.Typical(A), framing=5)) <= 2
    assert _width(sfx.lens_chain_presentation(ScalarContext(10), 2, 3, 1).diagram) <= 4


def _run_cgp(tmp_path, diagram, *extra):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"level": 6, "presentation": {
        "diagram": diagram, "surgery_components": []}}))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["cgp", str(path), *extra])
    return code, buf.getvalue()


def test_json_drawn_curl_auto_stabilizes_through_the_cable_branch(tmp_path):
    ctx = ScalarContext(6)
    p = sfx.split_surgery_unknot_presentation(ctx, A, 1)
    code, out = _run_cgp(tmp_path, dg.diagram_to_json(drawn_kinks(p.diagram)), "--auto-stabilize")
    assert code == cli.EXIT_OK
    want = sg.cgp(ctx, p, auto=True)
    assert abs(complex(*json.loads(out)["cgp"]) - want) <= 1e-12 * max(1, abs(want))


@pytest.mark.parametrize("kind,count", [("cap_r", 0), ("cap_r", 2), ("curl", 1)])
def test_json_cells_are_checked_at_the_boundary(tmp_path, kind, count):
    letter = (1, wc.Typical(A))
    d = dg.apply_cell(dg.Diagram(wc.ObjectWord(()), []), 0, dg.cap(letter, left=False))
    blob = dg.diagram_to_json(dg.apply_cell(d, 0, dg.cup(letter, left=True)))
    blob["slices"][0]["cells"][0] = {"kind": kind, "letters": [dg.letter_to_json(letter)] * count}
    with pytest.raises(ValueError):
        dg.diagram_from_json(blob)
    code, out = _run_cgp(tmp_path, blob)
    assert code == cli.EXIT_PARSE and out == ""
