"""Command-line front end.

Subcommands: cgp (surgery presentations from JSON), constants, moddim,
statespace (CSV), check (runs the axiom and property suites).  Flags can
also be set through CGP_-prefixed environment variables; outputs are
deterministic, with floats printed at 17 significant digits in a fixed
field order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from . import diagrams as dg
from . import state_spaces as ss
from . import surgery as sg
from . import weightcat as wc
from ._linalg import NumericInstability
from .qscalars import ScalarContext

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_NOT_COMPUTABLE = 3
EXIT_NOT_ADMISSIBLE = 4
EXIT_NUMERIC = 5


class ParseError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors leave through main's handler, as one stderr line."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # a number such as -0.3-0.1j is a positional, not an unknown option
        try:
            _parse_complex(arg_string)
        except ParseError:
            return super()._parse_optional(arg_string)
        return None


def _fmt_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize negative zero
    return format(x, ".17g")


def render_json(obj, indent=0) -> str:
    """Deterministic JSON with fixed float formatting and insertion order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append(f'{pad}  "{k}": {render_json(v, indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(x, (int, float, str, bool)) or x is None for x in obj)
        if flat:
            return "[" + ", ".join(render_json(x) for x in obj) + "]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, complex):
        return render_json([obj.real, obj.imag])
    return json.dumps(obj)


def _env_default(name: str, fallback):
    """CGP_<name>, or `fallback` when unset or empty; argparse converts a
    string default by the argument's type."""
    return os.environ.get(f"CGP_{name}") or fallback


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cgpkit", description="CGP quantum invariants of decorated 3-manifolds")
    ap.add_argument("--version", action="version", version=f"cgpkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, *ints):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--precision", type=int, default=_env_default("PRECISION", None),
                       help="working precision in bits (default 53, or the input file's)")
        p.add_argument("--tol", type=float, default=_env_default("TOL", 1e-9))
        for arg in ints:
            p.add_argument(arg, type=int)
        return p

    p = command("cgp", "evaluate a surgery presentation from JSON")
    p.add_argument("--level", type=int, default=_env_default("LEVEL", None),
                   help="even level r (overrides the input file)")
    p.add_argument("input", help="input JSON file, or - for stdin")
    p.add_argument("--auto-stabilize", action="store_true",
                   default=bool(int(_env_default("AUTO_STABILIZE", "0"))))
    p.add_argument("--cache-dir", default=_env_default("CACHE_DIR", None))
    command("constants", "print the invariant constants at a level", "r")
    p = command("moddim", "modified dimensions of typical weights", "r")
    p.add_argument("alpha", nargs="+", help="weights as floats or re+imj complex literals")
    p = command("statespace", "state-space dimension table (CSV)", "r", "genus")
    p.add_argument("degrees", nargs="+",
                   help="meridian classes: m0 for genus 1; m0 m1' ... for higher genus")
    command("check", "run the axiom/property suite at a level", "r")
    return ap


def _parse_complex(s: str) -> complex:
    try:
        return complex(s.replace(" ", ""))
    except ValueError as e:
        raise ParseError(f"bad complex literal {s!r}") from e


def _degree_from_json(v) -> wc.Degree:
    if isinstance(v, (int, float)):
        return wc.Degree(dg.complex_from_json(v))
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return wc.Degree(dg.complex_from_json(*v))
    if isinstance(v, str):
        return wc.Degree(_parse_complex(v))
    raise ParseError(f"bad degree {v!r}")


def load_presentation(obj) -> sg.SurgeryPresentation:
    """The one place where component ids become colors: `formal` sums,
    `graph_colors` and surgery Kirby colors, tagged from `dg.fresh_tag`,
    formal sums by id first.  ParseError for malformed input; ComponentError
    for an id that names no component it can color, or that two maps name."""
    try:
        # {**m} refuses a map m that is no JSON object, here and below
        structure = {**obj["diagram"]}
        formal = {int(cid): dg.terms_from_json(terms)
                  for cid, terms in {**structure.pop("formal", {})}.items()}
        d = dg.diagram_from_json(structure)
        colors = {int(cid): dg.color_from_json(col)
                  for cid, col in {**obj.get("graph_colors", {})}.items()}
        surgery = frozenset(map(dg.integer_from_json, obj["surgery_components"]))
        degrees = {int(k): _degree_from_json(v)
                   for k, v in {**obj.get("meridian_degrees", {})}.items()}
        n = dg.integer_from_json(obj.get("signature_defect", 0))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad presentation: {e}") from e
    if set(degrees) != surgery:
        raise dg.ComponentError("meridian degrees must cover exactly the surgery components")
    named = [*formal, *colors, *surgery]
    if twice := sorted({c for c in named if named.count(c) > 1}):
        raise dg.ComponentError(f"components {twice} are named by more than one map")
    kirby = [(c, wc.color_degree(fc.terms[0][1]).g, False, fc) for c, fc in sorted(formal.items())]
    kirby += [(c, degrees[c].g, True, None) for c in sorted(surgery)]
    tag = dg.fresh_tag(d)
    colors.update({c: wc.Kirby(g, tag + t, s, fc) for t, (c, g, s, fc) in enumerate(kirby)})
    return sg.SurgeryPresentation(dg.mark_components(d, colors), n)


def _canonical_digest(payload: dict) -> str:
    import hashlib  # only cached calls need it

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _context(args, r: int, precision: int = 53) -> ScalarContext:
    """The working context at level r; --precision, or CGP_PRECISION,
    overrides `precision`, which is the input file's key or 53 bits."""
    if args.precision is not None:
        precision = args.precision
    return ScalarContext(r, precision=precision, tol=args.tol)


def cmd_cgp(args) -> int:
    try:
        raw = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
        payload = json.loads(raw)
        r = args.level if args.level is not None else dg.integer_from_json(payload["level"])
        precision = dg.integer_from_json(payload.get("precision", 53))
        objs = payload["presentations"] if "presentations" in payload \
            else [payload["presentation"]]
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise ParseError(e) from e
    ctx = _context(args, r, precision)  # a refused level or precision is no parse error
    cache_file = None
    if args.cache_dir:
        key = _canonical_digest(
            {"input": payload, "version": __version__, "level": ctx.r,
             "precision": ctx.precision, "tol": args.tol, "auto": bool(args.auto_stabilize)})
        cache_file = Path(args.cache_dir) / f"{key}.json"
        # an unusable directory fails before the value is computed
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        if cache_file.exists():
            sys.stdout.write(cache_file.read_text())
            return EXIT_OK
    pieces = [load_presentation(o) for o in objs]
    total = complex(sg.cgp_disjoint(ctx, pieces, auto=args.auto_stabilize))
    sigmas = [p.linking.signature for p in pieces]
    out = {
        "cgp": total,
        "constants": _constants_dict(wc.constants(ctx)),
        "ell": sum(len(p.surgery_components) for p in pieces),
        "sigma": sigmas[0] if len(sigmas) == 1 else sigmas,
        "warnings": [f"auto-stabilized components {c}"
                     for c in (sg.check_computable(ctx, p) for p in pieces) if c],
    }
    text = render_json(out) + "\n"
    if cache_file is not None:
        # a concurrent reader sees the whole entry or none of it
        fd, tmp = tempfile.mkstemp(dir=cache_file.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, cache_file)
    sys.stdout.write(text)
    return EXIT_OK


def _constants_dict(c: wc.InvariantConstants) -> dict:
    out = {f.name: complex(getattr(c, f.name)) for f in dataclasses.fields(c)}
    out["z_mod_zplus"] = c.z_mod_zplus  # an int, in its place
    return out


def cmd_constants(args) -> int:
    c = wc.constants(_context(args, args.r))
    resid = abs(c.delta_minus * c.delta_plus - c.z_mod_zplus * c.zeta)
    out = _constants_dict(c)
    out["identity_residual"] = float(resid)
    sys.stdout.write(render_json(out) + "\n")
    return EXIT_OK if resid <= 1e-8 * max(1.0, abs(c.zeta)) else EXIT_NUMERIC


def cmd_moddim(args) -> int:
    ctx = _context(args, args.r)
    out = {s: complex(wc.modified_dimension(ctx, _parse_complex(s))) for s in args.alpha}
    sys.stdout.write(render_json(out) + "\n")
    return EXIT_OK


def cmd_statespace(args) -> int:
    ctx = _context(args, args.r)
    if args.genus < 1:
        raise ParseError(f"genus must be at least 1, got {args.genus}")
    degrees = [_parse_complex(s) for s in args.degrees]
    if len(degrees) != args.genus:
        raise ParseError(f"genus {args.genus} takes that many meridian classes "
                         f"(m0 m1' ...), got {len(degrees)}")
    lines = ["genus,degrees,dimension"]
    if args.genus == 1:
        dim = ss.genus1_dim(ctx, wc.Degree(degrees[0]))
    else:
        data = ss.TrivalentSurfaceData(
            args.genus, wc.Degree(degrees[0]),
            tuple(wc.Degree(g) for g in degrees[1:]))
        dim = ss.genus_n_dim(ctx, data)
    deg_str = ";".join(format(g.real, ".17g") + (format(g.imag, "+.17g") + "j" if g.imag else "")
                       for g in degrees)
    lines.append(f"{args.genus},{deg_str},{dim}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    from . import checks
    report = checks.run_all(_context(args, args.r))
    ok = True
    for name, passed, detail in report:
        status = "pass" if passed else "FAIL"
        ok = ok and passed
        sys.stdout.write(f"{status}  {name}  {detail}\n")
    sys.stdout.write(("all checks passed" if ok else "CHECKS FAILED") + "\n")
    return EXIT_OK if ok else EXIT_ERROR


def main(argv=None) -> int:
    """Run one subcommand; an error it raises becomes one line on stderr
    and the exit code of its kind."""
    handlers = {
        "cgp": cmd_cgp,
        "constants": cmd_constants,
        "moddim": cmd_moddim,
        "statespace": cmd_statespace,
        "check": cmd_check,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except sg.NotComputable as e:
        print(f"not computable: {e}; rerun with --auto-stabilize", file=sys.stderr)
        return EXIT_NOT_COMPUTABLE
    except sg.NotAdmissible as e:
        print(f"not admissible: {e}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except NumericInstability as e:
        print(f"numeric instability: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
