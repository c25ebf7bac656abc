import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cgpkit import cli
from cgpkit import diagrams as dg
from cgpkit import state_spaces as ss
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext


DOCS_EXAMPLE = str(Path(__file__).resolve().parents[1] / "docs" / "example_lens_5_1.json")
SPLIT_EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "example_split_unknot_auto.json"
SPLIT_ALPHA = 0.37 + 0.11j


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def presentation_payload(ctx, p, level):
    return {
        "level": level,
        "presentation": {
            "diagram": dg.diagram_to_json(p.diagram),
            "surgery_components": sorted(p.surgery_components),
            "meridian_degrees": {
                str(c): [g.g.real, g.g.imag]
                for c, g in p.meridian_degrees.items()
            },
            "signature_defect": p.signature_defect,
        },
    }


@pytest.fixture(scope="module")
def lens_input(tmp_path_factory):
    ctx = ScalarContext(6)
    p = sfx.lens_unknot_presentation(ctx, 5, 1)
    payload = presentation_payload(ctx, p, 6)
    path = tmp_path_factory.mktemp("cli") / "lens.json"
    path.write_text(json.dumps(payload))
    return path


def test_cgp_roundtrip_and_determinism(lens_input):
    code1, out1 = run_cli(["cgp", str(lens_input)])
    code2, out2 = run_cli(["cgp", str(lens_input)])
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    doc = json.loads(out1)
    assert set(doc) == {"cgp", "constants", "ell", "sigma", "warnings"}
    assert doc["ell"] == 1 and doc["sigma"] == 1
    val = complex(*doc["cgp"])
    ctx = ScalarContext(6)
    direct = sg.cgp(ctx, sfx.lens_unknot_presentation(ctx, 5, 1))
    assert abs(val - direct) < 1e-12


def test_cgp_cache(tmp_path, lens_input):
    cache = tmp_path / "cache"
    code1, out1 = run_cli(["cgp", str(lens_input), "--cache-dir", str(cache)])
    assert code1 == 0 and len(list(cache.glob("*.json"))) == 1
    code2, out2 = run_cli(["cgp", str(lens_input), "--cache-dir", str(cache)])
    assert code2 == 0 and out1 == out2


def test_exit_codes_on_malformed_inputs(tmp_path):
    bad1 = tmp_path / "bad1.json"
    bad1.write_text("{not json")
    code, _ = run_cli(["cgp", str(bad1)])
    assert code == cli.EXIT_PARSE
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"level": 6}))
    code, _ = run_cli(["cgp", str(bad2)])
    assert code == cli.EXIT_PARSE
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"level": 6, "presentation": {"diagram": 3}}))
    code, _ = run_cli(["cgp", str(bad3)])
    assert code == cli.EXIT_PARSE


def test_not_computable_exit(tmp_path, capsys):
    ctx = ScalarContext(6)
    p = sfx.s1xs2_decorated_presentation(ctx, 0.0, [2.0])
    payload = presentation_payload(ctx, p, 6)
    path = tmp_path / "critical.json"
    path.write_text(json.dumps(payload))
    code, _ = run_cli(["cgp", str(path)])
    assert code == cli.EXIT_NOT_COMPUTABLE
    assert capsys.readouterr().err == ("not computable: critical meridian degrees on "
                                       "components [0]; rerun with --auto-stabilize\n")
    code2, out = run_cli(["cgp", str(path), "--auto-stabilize"])
    assert code2 == 0
    assert json.loads(out)["warnings"]


def test_split_unknot_docs_example():
    """docs/example_split_unknot_auto.json is the level-6 split surgery
    unknot fixture, whose meridian is critical: without --auto-stabilize it
    exits 3, with it its value is eta d(alpha), the benchmark's check of
    the auto-stabilized split unknot (relative 1e-7), at 53 and 106 bits."""
    want = sfx.split_surgery_unknot_presentation(ScalarContext(6), SPLIT_ALPHA, 1)
    assert json.loads(SPLIT_EXAMPLE.read_text()) == {"level": 6, "presentation": {
        "diagram": json.loads(json.dumps(dg.diagram_to_json(want.diagram))),
        "surgery_components": [], "signature_defect": 0}}
    for precision in ("53", "106"):
        argv = ["cgp", str(SPLIT_EXAMPLE), "--precision", precision]
        assert run_cli(argv)[0] == cli.EXIT_NOT_COMPUTABLE
        code, out = run_cli([*argv, "--auto-stabilize"])
        assert code == 0
        ctx = ScalarContext(6, precision=int(precision))
        eta_d = complex(wc.constants(ctx).eta * wc.modified_dimension(ctx, SPLIT_ALPHA))
        got = complex(*json.loads(out)["cgp"])
        assert abs(got - eta_d) <= 1e-7 * abs(eta_d), (precision, got, eta_d)


def test_constants_command():
    code, out = run_cli(["constants", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["z_mod_zplus"] == 2
    assert abs(complex(*doc["D"]) - 4) < 1e-9


@pytest.mark.parametrize("argv", [["check", "6"], ["check", "4", "--precision", "106"]])
def test_check_command(argv):
    proc = subprocess.run([sys.executable, "-m", "cgpkit.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "all checks passed"
    if "--precision" in argv:
        # the module weights are formed at working precision
        devs = {name: float(detail.split()[-1])
                for _, name, detail in (line.split("  ") for line in proc.stdout.splitlines()[:-1])}
        for name in ("algebra relations (typical)", "algebra relations (dual)",
                     "algebra relations (tensor)", "twist self-duality"):
            assert devs[name] < 1e-28, (name, devs[name])


def test_moddim_command():
    code, out = run_cli(["moddim", "4", "0.5"])
    assert code == 0
    doc = json.loads(out)
    val = complex(*doc["0.5"])
    ctx = ScalarContext(4)
    assert abs(val - wc.modified_dimension(ctx, 0.5)) < 1e-12


def test_statespace_command():
    code, out = run_cli(["statespace", "6", "1", "0.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "genus,degrees,dimension"
    assert lines[1].startswith("1,") and lines[1].endswith(",3")


def test_statespace_command_genus2():
    code, out = run_cli(["statespace", "4", "2", "0.5", "0.3+0.1j"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "genus,degrees,dimension"
    assert lines[1].startswith("2,0.5;") and lines[1].endswith(",4")
    data = ss.TrivalentSurfaceData(2, wc.Degree(0.5), (wc.Degree(0.3 + 0.1j),))
    assert ss.genus_n_dim(ScalarContext(4), data) == 4


@pytest.mark.parametrize("argv", [["6", "1", "0.5-0.3j"],
                                  ["4", "2", "0.5+0.7j", "0.3-0.1j"],
                                  ["6", "2", "0.1", "0.45-0.2j"]])
def test_statespace_degrees_parse_back(argv):
    """Each printed degree, a negative imaginary part included, is a
    literal the CLI reads back as the input degree."""
    code, out = run_cli(["statespace", *argv])
    assert code == 0
    printed = out.strip().splitlines()[1].split(",")[1].split(";")
    assert [cli._parse_complex(s) for s in printed] == [complex(s) for s in argv[2:]]


@pytest.mark.parametrize("alpha", ["-0.5+0.2j", "-0.5"])
def test_moddim_takes_a_negative_weight(alpha):
    """A weight with a negative real part is a positional, without `--`."""
    code, out = run_cli(["moddim", "4", alpha])
    assert code == 0
    val = complex(*json.loads(out)[alpha])
    assert abs(val - wc.modified_dimension(ScalarContext(4), complex(alpha))) < 1e-12
    assert run_cli(["moddim", "4", "--", alpha]) == (code, out)


def test_statespace_takes_a_negative_degree():
    code, out = run_cli(["statespace", "4", "2", "0.5", "-0.3-0.1j"])
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",4")
    data = ss.TrivalentSurfaceData(2, wc.Degree(0.5), (wc.Degree(-0.3 - 0.1j),))
    assert ss.genus_n_dim(ScalarContext(4), data) == 4


def _docs_with_degree(tmp_path, degree):
    payload = json.loads(Path(DOCS_EXAMPLE).read_text())
    payload["presentation"]["meridian_degrees"]["0"] = degree
    path = tmp_path / "degree.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("degree", [0.8, "0.8+0j"])
def test_meridian_degree_as_number_or_string(tmp_path, degree):
    code, want = run_cli(["cgp", DOCS_EXAMPLE])
    assert code == 0 and json.loads(want)["cgp"]
    assert run_cli(["cgp", _docs_with_degree(tmp_path, degree)]) == (0, want)


def test_meridian_degree_of_another_type_is_a_parse_error(tmp_path, capsys):
    assert run_cli(["cgp", _docs_with_degree(tmp_path, {"x": 1})]) == (cli.EXIT_PARSE, "")
    assert capsys.readouterr().err == "parse error: bad presentation: bad degree {'x': 1}\n"


def _docs_with(tmp_path, key, value):
    """The docs example with one integer field, top-level or of its
    presentation, set to `value`."""
    payload = json.loads(Path(DOCS_EXAMPLE).read_text())
    (payload if key in ("level", "precision") else payload["presentation"])[key] = value
    path = tmp_path / f"{key}={json.dumps(value)}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("key, value", [
    ("level", 6.7), ("precision", 53.5), ("signature_defect", 0.5),
    ("surgery_components", [0.9])])
def test_fractional_integers_are_parse_errors(tmp_path, capsys, key, value):
    """int() would truncate each of these to a number the file does not
    state (level 6, 53 bits, defect 0, component 0) and exit 0."""
    assert run_cli(["cgp", _docs_with(tmp_path, key, value)]) == (cli.EXIT_PARSE, "")
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("level", 6), ("precision", 53), ("signature_defect", 1), ("surgery_components", [0])])
def test_integral_floats_read_as_integers(tmp_path, key, value):
    code, want = run_cli(["cgp", _docs_with(tmp_path, key, value)])
    assert code == 0 and json.loads(want)["cgp"]
    floats = [float(v) for v in value] if isinstance(value, list) else float(value)
    assert run_cli(["cgp", _docs_with(tmp_path, key, floats)]) == (0, want)


def _docs_edited(tmp_path, name, edit):
    """The docs example with `edit` applied to its diagram."""
    payload = json.loads(Path(DOCS_EXAMPLE).read_text())
    edit(payload["presentation"]["diagram"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _split_circle(k):
    """Add a split circle colored {"sigma": k} on top of the diagram."""
    def edit(diagram):
        letter = ["+", {"sigma": k}]
        diagram["slices"] += [{"cells": [{"kind": kind, "letters": [letter]}]}
                              for kind in ("cap_l", "cup_r")]
    return edit


def _first_sign(sign):
    def edit(diagram):
        diagram["slices"][0]["cells"][0]["letters"][0][0] = sign
    return edit


@pytest.mark.parametrize("good, bad, message", [
    (_split_circle(0), _split_circle(0.5), "not an integer: 0.5"),
    (_first_sign("+"), _first_sign("x"), "letter sign is not '+' or '-': 'x'")],
    ids=["sigma index", "letter sign"])
def test_malformed_colors_and_signs_are_parse_errors(tmp_path, capsys, good, bad, message):
    """int() would read sigma 0.5 as sigma(0) and exit 0, and any sign but
    "+" as -1, which fails later as a boundary mismatch with exit 1."""
    code, out = run_cli(["cgp", _docs_edited(tmp_path, "good", good)])
    assert code == 0 and json.loads(out)["cgp"]
    capsys.readouterr()
    assert run_cli(["cgp", _docs_edited(tmp_path, "bad", bad)]) == (cli.EXIT_PARSE, "")
    assert capsys.readouterr().err == f"parse error: bad presentation: {message}\n"


def _on_top(*cells):
    """Add rows of one cell each on top of the diagram of a presentation."""
    return lambda p: p["diagram"]["slices"].extend({"cells": [c]} for c in cells)


_FALSE_KIRBY = ["+", {"kirby": {"g": [0.5, False], "tag": 7, "surgery": False}}]


@pytest.mark.parametrize("edit", [
    lambda p: p["meridian_degrees"].update({"0": True}),
    lambda p: p["meridian_degrees"].update({"0": [0.8, False]}),
    lambda p: p["diagram"]["slices"][0]["cells"][0]["letters"][0][1]["typical"].update(im=False),
    _on_top({"kind": "cap_l", "letters": [_FALSE_KIRBY]},
            {"kind": "cup_r", "letters": [_FALSE_KIRBY]}),
    lambda p: p["diagram"].update(formal={"0": [[[True, 0.0], {"typical": {"re": 0.8, "im": 0.0}}]]}),
    lambda p: p["diagram"].update(prefactor=[1.0, False]),
    _on_top({"kind": "coupon", "domain": [], "codomain": [], "matrix": [[[1.0, False]]]}),
], ids=["degree", "degree pair", "typical", "kirby g", "formal terms", "prefactor", "coupon"])
def test_booleans_in_number_fields_are_parse_errors(tmp_path, capsys, edit):
    """complex() reads true as 1 and false as 0: degree true would exit 1
    on the cohomology constraint as degree 1, and "im": false or a coupon
    entry [1.0, false] would give the value of 0.0."""
    payload = json.loads(Path(DOCS_EXAMPLE).read_text())
    edit(payload["presentation"])
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    assert run_cli(["cgp", str(path)]) == (cli.EXIT_PARSE, "")
    assert "bad presentation: not a number: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["moddim", "4", "abc"], cli.EXIT_PARSE),
    (["statespace", "6", "1", "xyz"], cli.EXIT_PARSE),
    (["statespace", "6", "1", "1"], cli.EXIT_ERROR),  # a critical class
    (["constants", "8"], cli.EXIT_ERROR),  # a level divisible by 8
    (["statespace", "6", "1", "0.5", "0.7"], cli.EXIT_PARSE),  # one class too many
    # r is positional: only cgp has a file for --level to override
    (["constants", "6", "--level", "10"], cli.EXIT_PARSE),
    (["moddim", "4", "0.5", "--level", "10"], cli.EXIT_PARSE),
    (["statespace", "6", "1", "0.5", "--level", "10"], cli.EXIT_PARSE),
    (["check", "6", "--level", "10"], cli.EXIT_PARSE),
    (["constants"], cli.EXIT_PARSE),  # a usage error
    # a level or precision the context refuses is no parse error on cgp either
    (["cgp", DOCS_EXAMPLE, "--level", "8"], cli.EXIT_ERROR),
    (["cgp", DOCS_EXAMPLE, "--precision", "0"], cli.EXIT_ERROR),
    # a tolerance below rounding fails a sign, or a scalar check, numerically
    (["constants", "6", "--tol", "1e-17"], cli.EXIT_NUMERIC),
    (["cgp", DOCS_EXAMPLE, "--tol", "1e-17"], cli.EXIT_NUMERIC),
    (["cgp", "SPLIT", "--auto-stabilize", "--tol", "1e-16"], cli.EXIT_NUMERIC),
    (["moddim", "4", "-0.5+0.2j", "--bogus"], cli.EXIT_PARSE),  # an unknown option
    # level 0 is a level the context refuses, not "no --level"
    (["cgp", DOCS_EXAMPLE, "--level", "0"], cli.EXIT_ERROR),
])
def test_every_subcommand_exits_by_error_kind(argv, code, tmp_path):
    if "SPLIT" in argv:
        split = tmp_path / "split.json"
        split.write_text(json.dumps(_split_payload(ScalarContext(6))))
        argv = [str(split) if a == "SPLIT" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "cgpkit.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, env", [
    (["statespace", "6", "1", "0.5+0.1j", "--tol", "inf"], None),
    (["moddim", "6", "0.5", "--tol", "-inf"], None),
    (["cgp", DOCS_EXAMPLE], "inf"),
])
def test_a_non_finite_tolerance_is_refused(argv, env, monkeypatch, capsys):
    """--tol inf, or CGP_TOL=inf, is refused up front, not taken on to
    call every class critical or every weight atypical."""
    if env:
        monkeypatch.setenv("CGP_TOL", env)
    assert run_cli(argv) == (cli.EXIT_ERROR, "")
    assert capsys.readouterr().err == "error: tolerance must be positive and finite\n"


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cgpkit.cli", "moddim", "6", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.5" in proc.stdout


def test_cli_import_loads_neither_mpmath_nor_hashlib():
    # 53-bit calls without a cache directory need neither module
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cgpkit.cli; "
         "print(sorted(m for m in ('mpmath', 'hashlib') if m in sys.modules))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_graph_colors_recoloring(tmp_path):
    ctx = ScalarContext(6)
    p = sfx.unknot_presentation(ctx, 0.37 + 0.2j)
    comp = p.diagram.ports_and_components()[(1, 0)]
    payload = presentation_payload(ctx, p, 6)
    payload["presentation"]["graph_colors"] = {
        str(comp): {"typical": {"re": 0.8, "im": 0.3}}}
    path = tmp_path / "recolored.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["cgp", str(path)])
    assert code == 0
    val = complex(*json.loads(out)["cgp"])
    direct = sg.cgp(ctx, sfx.unknot_presentation(ctx, 0.8 + 0.3j))
    assert abs(val - direct) < 1e-12


def test_cache_is_keyed_on_the_effective_level(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cli.main(["cgp", DOCS_EXAMPLE, "--cache-dir", cache]) == 0
    capsys.readouterr()
    for extra in ([], ["--cache-dir", cache]):
        assert cli.main(["cgp", DOCS_EXAMPLE, "--level", "10", *extra]) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and "not typical at level 10" in err
    assert [p.suffix for p in (tmp_path / "cache").iterdir()] == [".json"]


def test_precision_flag_and_env_override_the_file(tmp_path, monkeypatch, capsys):
    """--precision, and CGP_PRECISION, win over the input file's precision
    key, and the cache entry is keyed on the precision used."""
    assert cli.main(["cgp", DOCS_EXAMPLE, "--precision", "106"]) == 0
    want = capsys.readouterr().out
    assert json.loads(want)["cgp"][0] == pytest.approx(-0.097647601109490514, abs=1e-17)
    payload = dict(json.loads(Path(DOCS_EXAMPLE).read_text()), precision=53)
    path = tmp_path / "p53.json"
    path.write_text(json.dumps(payload))
    cache = tmp_path / "cache"
    assert cli.main(["cgp", str(path), "--precision", "106", "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == want
    key = cli._canonical_digest({"input": payload, "version": cli.__version__, "level": 6,
                                 "precision": 106, "tol": 1e-9, "auto": False})
    assert [p.name for p in cache.iterdir()] == [f"{key}.json"]
    monkeypatch.setenv("CGP_PRECISION", "106")
    assert cli.main(["cgp", str(path), "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == want
    assert len(list(cache.iterdir())) == 1


def test_component_id_errors_exit_1(tmp_path):
    ctx = ScalarContext(6)
    payload = presentation_payload(ctx, sfx.lens_unknot_presentation(ctx, 5, 1), 6)
    pres = payload["presentation"]
    bad_surgery = dict(pres, surgery_components=[99], meridian_degrees={"99": [0.8, 0.0]})
    bad_degrees = dict(pres, meridian_degrees={})
    bad_formal = dict(pres, diagram=dict(pres["diagram"], formal={"99": [
        [[1.0, 0.0], {"typical": {"re": 0.5, "im": 0.0}}]]}))
    bad_graph = dict(pres, graph_colors={"7": {"typical": {"re": 0.8, "im": 0.3}}})
    # an id named by two of formal, graph_colors and surgery_components
    (surg,) = pres["surgery_components"]
    sums = {str(surg): [[[1.0, 0.0], {"typical": {"re": 0.5, "im": 0.0}}]]}
    graph = {str(surg): {"typical": {"re": 0.8, "im": 0.3}}}
    twice = (dict(pres, graph_colors=graph),
             dict(pres, diagram=dict(pres["diagram"], formal=sums)),
             dict(pres, graph_colors=graph, surgery_components=[], meridian_degrees={},
                  diagram=dict(pres["diagram"], formal=sums)))
    for i, bad in enumerate((bad_surgery, bad_degrees, bad_formal, bad_graph, *twice)):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(dict(payload, presentation=bad)))
        code, out = run_cli(["cgp", str(path)])
        assert code == cli.EXIT_ERROR and out == ""


@pytest.mark.parametrize("summand", [
    {"typical": {"re": 0.8, "im": 0.0}},  # a second degree beside V_0.5
    {"sigma": 6},  # not typical
])
def test_malformed_formal_sums_exit_1(tmp_path, capsys, summand):
    ctx = ScalarContext(6)
    d = dg.encircle_at(sfx.unknot_presentation(ctx, 0.37 + 0.2j).diagram, 1, (0, 1),
                       wc.Typical(0.5))
    (mer,) = (c for c, col in d.component_colors().items() if col == wc.Typical(0.5))
    blob = dg.diagram_to_json(d)
    blob["formal"] = {str(mer): [[[1.0, 0.0], {"typical": {"re": 0.5, "im": 0.0}}],
                                 [[1.0, 0.0], summand]]}
    path = tmp_path / "formal.json"
    path.write_text(json.dumps({"level": 6, "presentation": {
        "diagram": blob, "surgery_components": []}}))
    code, out = run_cli(["cgp", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_ERROR and out == ""
    assert err.startswith("error: invalid diagram: Kirby(") and "terms=" in err


@pytest.mark.parametrize("key", ["diagram", "formal", "graph_colors", "meridian_degrees"])
def test_a_map_that_is_no_object_is_a_parse_error(tmp_path, key, capsys):
    payload = json.loads(Path(DOCS_EXAMPLE).read_text())
    pres = payload["presentation"]
    (pres["diagram"] if key == "formal" else pres)[key] = [1, 2]
    path = tmp_path / "list.json"
    path.write_text(json.dumps(payload))
    assert run_cli(["cgp", str(path)]) == (cli.EXIT_PARSE, "")
    assert capsys.readouterr().err == (
        "parse error: bad presentation: 'list' object is not a mapping\n")


@pytest.mark.parametrize("under", [(), ("sub",)])
def test_an_unusable_cache_dir_exits_1_before_computing(tmp_path, under, monkeypatch, capsys):
    """A file given as the cache directory, or a path under one, is one
    error line and exit 1, before any value is computed."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(cli, "load_presentation", None)  # computing would raise TypeError
    assert run_cli(["cgp", DOCS_EXAMPLE, "--cache-dir", str(blocker.joinpath(*under))]) == (
        cli.EXIT_ERROR, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("genus", ["0", "-1"])
def test_statespace_refuses_a_genus_below_1(genus, capsys):
    assert run_cli(["statespace", "6", genus, "0.5"]) == (cli.EXIT_PARSE, "")
    assert capsys.readouterr().err == f"parse error: genus must be at least 1, got {genus}\n"


def test_cgp_reads_stdin():
    """`cgp -` prints the bytes of the file run; a truncated document on
    stdin is a parse error."""
    text = Path(DOCS_EXAMPLE).read_text()

    def cgp(source, stdin=None):
        return subprocess.run([sys.executable, "-m", "cgpkit.cli", "cgp", source],
                              input=stdin, capture_output=True, text=True)

    from_file, piped, cut = cgp(DOCS_EXAMPLE), cgp("-", text), cgp("-", text[:len(text) // 2])
    assert from_file.returncode == piped.returncode == 0
    assert piped.stdout == from_file.stdout and piped.stdout.startswith("{")
    assert cut.returncode == cli.EXIT_PARSE and cut.stdout == ""
    assert cut.stderr.startswith("parse error: ") and len(cut.stderr.splitlines()) == 1


def test_kirby_letter_of_another_degree_exits_1(tmp_path, capsys):
    """A Kirby letter whose g is not its summands' degree is refused: the
    cohomology check reads g, so V_0.5 passed off as degree 0 would let a
    surgery longitude of class 0.5 through."""
    ctx = ScalarContext(6)
    p = sfx.s1xs2_decorated_presentation(ctx, 0.3, [2.0])
    fake = wc.Kirby(0j, 5, terms=wc.FormalColorSum(((1.0, wc.Typical(0.5)),)))
    path = tmp_path / "kirby.json"
    path.write_text(json.dumps({"level": 6, "presentation": {
        "diagram": dg.diagram_to_json(p.diagram.recolor(wc.Typical(2.0), fake)),
        "surgery_components": []}}))
    code, out = run_cli(["cgp", str(path)])
    assert code == cli.EXIT_ERROR and out == ""
    assert "summands are not of degree 0j" in capsys.readouterr().err


def test_inadmissible_critical_exits_4(tmp_path, capsys):
    """Admissibility is checked before computability: a bare critical
    surgery unknot is refused as inadmissible, with or without
    --auto-stabilize."""
    ctx = ScalarContext(6)
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(presentation_payload(ctx, sfx.s1xs2_presentation(ctx, 0.0), 6)))
    for extra in ([], ["--auto-stabilize"]):
        code, out = run_cli(["cgp", str(path), *extra])
        assert code == cli.EXIT_NOT_ADMISSIBLE and out == ""
        assert capsys.readouterr().err == "not admissible: presentation is not admissible\n"


def _two_piece_payload(ctx):
    pieces = [sfx.lens_unknot_presentation(ctx, 5, 1), sfx.lens_chain_presentation(ctx, 2, 3, 1)]
    return {"level": 6, "presentations": [presentation_payload(ctx, p, 6)["presentation"]
                                          for p in pieces]}


def _split_payload(ctx):
    return presentation_payload(ctx, sfx.split_surgery_unknot_presentation(ctx, 0.37 + 0.11j, 1), 6)


def _docs_payload(ctx):
    return json.loads(Path(DOCS_EXAMPLE).read_text())


def _per_piece_stdout(ctx, payload, auto):
    """The output assembled piece by piece: validate, read the critical
    components and the linking data, then multiply in each piece's cgp."""
    objs = payload.get("presentations") or [payload["presentation"]]
    total, ell, sigmas, warnings = ctx.scalar(1), 0, [], []
    for obj in objs:
        p = cli.load_presentation(obj)
        sg.validate_presentation(ctx, p)
        offending = sg.check_computable(ctx, p)
        ell += len(p.surgery_components)
        sigmas.append(sg.linking_data(ctx, p).signature)
        total = total * sg.cgp(ctx, p, auto=auto)
        if offending:
            warnings.append(f"auto-stabilized components {offending}")
    total = complex(total)
    return cli.render_json({
        "cgp": [total.real, total.imag],
        "constants": cli._constants_dict(wc.constants(ctx)),
        "ell": ell,
        "sigma": sigmas[0] if len(sigmas) == 1 else sigmas,
        "warnings": warnings,
    }) + "\n"


def _count_calls(monkeypatch, owner, name, counts):
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return orig(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("make, auto, pieces, validations", [
    (_docs_payload, False, 1, 1),
    (_two_piece_payload, False, 2, 2),
    (_split_payload, True, 1, 2),
])
def test_cgp_stdout_and_work_per_piece(tmp_path, monkeypatch, make, auto, pieces, validations):
    """stdout matches the per-piece assembly byte for byte; each piece is
    validated once, plus once more when stabilized, and its linking data
    is computed once."""
    ctx = ScalarContext(6)
    payload = make(ctx)
    want = _per_piece_stdout(ctx, payload, auto)
    assert ("auto-stabilized" in want) == auto
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    counts = {}
    _count_calls(monkeypatch, sg, "validate_presentation", counts)
    _count_calls(monkeypatch, sg, "_signature", counts)
    code, out = run_cli(["cgp", str(path), *(["--auto-stabilize"] if auto else [])])
    assert code == 0 and out == want
    assert counts == {"validate_presentation": validations, "_signature": pieces}
