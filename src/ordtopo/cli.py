"""Command-line surface over the ordinal, band, logic, and embedding modules.

Exit codes: 0 on success (or a verified countermodel), 1 when a
verification fails, 2 on errors and on "unknown" search results.  With
--json the output is a stable, golden-testable JSON record; the plain
text output is human-oriented.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache, partial
from typing import List, Optional

from .ordinal import (
    MAX_DIGITS,
    OMEGA,
    Ordinal,
    OrdinalError,
    Scanner,
    big_l,
    e,
    e_iter,
    ell,
    ell_iter,
    left_subtract,
    ordinal_to_text,
    parse_ordinal,
    pounds,
)
from .topology import (
    TopologyError,
    bandset_to_text,
    derived_set,
    is_empty,
    member,
    min_witness,
    parse_bandset,
)
from .logic import (
    LogicError,
    PolySpace,
    condense,
    eval_kripke,
    eval_topo,
    formula_to_text,
    parse_formula,
)
from .jtree import (
    FrameError,
    NODE_LIST,
    find_jtree_model,
    jframe_from_json,
    jframe_to_json,
)
from .embed import (
    EmbedError,
    countermodel_from_json,
    countermodel_to_json,
    embed,
    verify_countermodel,
)


def _eiter(n: Ordinal, a: Ordinal) -> Ordinal:
    if not n.is_finite():
        raise OrdinalError("eiter needs a finite iteration count")
    return e_iter(n.to_int(), a)


# The functions of the `ord` subcommand: name -> (arity, function).
ORD_FUNCTIONS = {"e": (1, e), "l": (1, ell), "L": (1, big_l), "pounds": (1, pounds),
                 "eiter": (2, _eiter), "liter": (2, ell_iter),
                 "sub": (2, left_subtract)}


def _emit(args, record: dict, text: str) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _levels(text: str):
    s = Scanner(text)
    return tuple(s.done(s.args()))


def _flag(name: str, read, text: str):
    """read(text), where a parse error names the flag and its text."""
    try:
        return read(text)
    except OrdinalError as exc:
        raise ValueError(f"{name} {text!r}: {exc}")


def _int(what: str, text: str) -> int:
    """int(text); a non-integer or more than MAX_DIGITS digits is an error naming what."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"{what} has more than {MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, not {text!r}")


def _load_json(path: str):
    """The JSON value in a file; an object that repeats a key is an error
    (json.load keeps the last value), and so is an integer past MAX_DIGITS."""
    def unique_keys(pairs) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: JSON object has key {key!r} twice")
            obj[key] = value
        return obj

    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys,
                             parse_int=partial(_int, f"{path}: a JSON number"))
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read")


# JSON shapes of valuation values: (what the error says, test)
_BANDSET_TEXT = ("a band-set string", lambda v: isinstance(v, str))


def _load_valuation(path: str, shape, read) -> dict:
    """{atom index: read(value)} from a JSON object whose keys are atom
    indices in digits and whose values have the given shape."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError("a valuation must be a JSON object")
    out = {}
    for key, value in obj.items():
        if not (key.isascii() and key.isdigit()):
            raise ValueError(f"valuation key {key!r} must be an atom index in digits")
        atom = _int(f"valuation key starting {key[:8]!r}", key)
        if atom in out:
            raise ValueError(f"valuation key {key!r} names atom {atom} twice")
        if not shape[1](value):
            raise ValueError(f"valuation field {key!r} must be {shape[0]}")
        try:
            out[atom] = read(value)
        except TopologyError as exc:
            raise ValueError(f"valuation field {key!r}: {exc}")
    return out


def _write_out(args, record: dict) -> None:
    blob = json.dumps(record, sort_keys=True, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


# --- subcommands ---------------------------------------------------------------------


def cmd_ord(args) -> int:
    s = Scanner(args.expr, ORD_FUNCTIONS)
    value = s.done(s.ordinal())
    _emit(args, {"value": ordinal_to_text(value)}, ordinal_to_text(value))
    return 0


def cmd_band(args) -> int:
    s = parse_bandset(args.expr)
    if args.derive is not None:
        theta = _flag("--theta", parse_ordinal, args.theta) if args.theta else \
            max((b.hi for b in s.bands), default=OMEGA)
        s = derived_set(s, _int("--derive", args.derive), theta)
    mw = min_witness(s)
    record = {"set": bandset_to_text(s), "empty": is_empty(s),
              "min": None if mw is None else ordinal_to_text(mw)}
    _emit(args, record, bandset_to_text(s))
    return 0


def cmd_eval(args) -> int:
    phi = parse_formula(args.formula)
    space = PolySpace(_flag("--theta", parse_ordinal, args.theta),
                      _flag("--levels", _levels, args.levels))
    v = _load_valuation(args.val, _BANDSET_TEXT, parse_bandset) if args.val else {}
    got = eval_topo(phi, space, v)
    record = {"set": bandset_to_text(got), "empty": is_empty(got),
              "theta_member": member(space.theta, got)}
    _emit(args, record, bandset_to_text(got))
    return 0


def cmd_kripke(args) -> int:
    phi = parse_formula(args.formula)
    t = jframe_from_json(_load_json(args.frame))
    v = _load_valuation(args.val, NODE_LIST, frozenset) if args.val else {}
    got = eval_kripke(phi, t, v)
    nodes = sorted(got, key=repr)
    _emit(args, {"nodes": nodes}, " ".join(map(str, nodes)) or "(none)")
    return 0


def cmd_embed(args) -> int:
    t = jframe_from_json(_load_json(args.tree))
    entries = args.sigma.split(",") if args.sigma else []
    if not all(s.isascii() and s.isdigit() for s in entries):
        raise ValueError("--sigma must be comma-separated integers, "
                         f"not {args.sigma!r}")
    sigma = tuple(_int(f"--sigma entry {i}", s) for i, s in enumerate(entries, 1))
    cm = embed(t, sigma)
    _write_out(args, countermodel_to_json(cm))
    return 0


def cmd_verify(args) -> int:
    cm = countermodel_from_json(_load_json(args.cm))
    phi = parse_formula(args.formula)
    rep = verify_countermodel(cm, phi)
    record = {"ok": rep.ok,
              "checks": [[name, mode, ok, detail]
                         for name, mode, ok, detail in rep.checks]}
    _emit(args, record, str(rep))
    return 0 if rep.ok else 1


def cmd_search(args) -> int:
    max_nodes = _int("--max-nodes", args.max_nodes)
    if max_nodes < 1:
        raise ValueError(f"--max-nodes must be at least 1, not {max_nodes}")
    phi, idxs = condense(parse_formula(args.formula))
    if any(not i.is_finite() for i in idxs):
        raise ValueError("transfinite modality indices are out of scope")
    sigma = [1 + i.to_int() for i in idxs]
    res = find_jtree_model(phi, max_nodes)
    if res is None:
        _emit(args, {"result": "unknown"}, "unknown")
        return 2
    record = {
        "result": "found",
        "frame": jframe_to_json(res.frame),
        "node": res.node,
        "valuation": {str(i): sorted(ns) for i, ns in res.valuation.items()},
        "sigma": sigma,
        "formula": formula_to_text(phi),
    }
    _write_out(args, record)
    return 0


# --- entry point ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parse_args keeps no
    state between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")

    ap = argparse.ArgumentParser(prog="ordtopo", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ord", parents=[common],
                       help="evaluate an ordinal expression")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_ord)

    p = sub.add_parser("band", parents=[common],
                       help="normalize (and optionally derive) a band set")
    p.add_argument("expr")
    p.add_argument("--derive", default=None, metavar="LEVEL")
    p.add_argument("--theta", default=None)
    p.set_defaults(fn=cmd_band)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a formula over an ordinal interval")
    p.add_argument("formula")
    p.add_argument("--theta", required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--val", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("kripke", parents=[common],
                       help="evaluate a formula on a finite frame")
    p.add_argument("formula")
    p.add_argument("--frame", required=True)
    p.add_argument("--val", default=None)
    p.set_defaults(fn=cmd_kripke)

    p = sub.add_parser("embed", parents=[common],
                       help="build a countermodel for a treelike frame")
    p.add_argument("--tree", required=True)
    p.add_argument("--sigma", default="")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("verify", parents=[common],
                       help="check a countermodel against a formula")
    p.add_argument("formula")
    p.add_argument("--cm", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", parents=[common],
                       help="bounded search for a treelike model")
    p.add_argument("formula")
    p.add_argument("--max-nodes", default="5")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_search)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OrdinalError, TopologyError, LogicError, FrameError, EmbedError,
            OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
