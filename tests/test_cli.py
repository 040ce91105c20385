import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtopo import cli
from ordtopo.cli import main
from ordtopo.embed import countermodel_to_json, embed
from ordtopo.jtree import jframe_to_json, make_jframe
from ordtopo.ordinal import MAX_NESTING, parse_ordinal
from ordtopo.topology import member, parse_bandset

o = parse_ordinal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- ord --------------------------------------------------------------------------


@pytest.mark.parametrize("expr,want", [
    ("liter(2, w^(w^3))", "3"),
    ("e(0)", "0"),
    ("pounds(w*5+3)", "4"),
    ("w^2*3 + w + 5", "w^2*3+w+5"),
    ("sub(w, w^2)", "w^2"),
    ("eiter(2, 1)", "w^w"),
    ("L(w^(w^3)+w)", "w^3"),
    ("(w+1)*w", "w^2"),
])
def test_ord_goldens(capsys, expr, want):
    code, out, _ = run(capsys, "ord", expr)
    assert code == 0
    assert out.strip() == want


def test_eiter_of_zero_returns_at_once(capsys):
    # e(0) = 0, so no count of steps can matter
    assert run(capsys, "ord", "eiter(100000000000, 0)") == (0, "0\n", "")


def test_ord_json(capsys):
    code, out, _ = run(capsys, "ord", "w*2+1", "--json")
    assert code == 0
    assert json.loads(out) == {"value": "w*2+1"}


@pytest.mark.parametrize("expr", [
    "w +",            # dangling operator
    "sub(w^2, w)",    # underflow
    "liter(2)",       # arity
    "frob(1)",        # unknown function
    "l(0)",           # rank of zero
])
def test_ord_errors(capsys, expr):
    code, _, err = run(capsys, "ord", expr)
    assert code == 2
    assert "error:" in err


# --- band -------------------------------------------------------------------------


def test_band_normalizes(capsys):
    code, out, _ = run(capsys, "band", "[1,w] ; [2,w]")
    assert code == 0
    assert out.strip() == "[1,w]"


def test_band_folds_a_level_zero_constraint_into_the_interval(capsys):
    # l^0(x) in (2,5] is 2 < x <= 5
    assert run(capsys, "band", "[1,w^2] & l^0 in (2,5]") == (0, "[3,5]\n", "")


def test_band_derive(capsys):
    code, out, _ = run(capsys, "band", "[1,w^2]", "--derive", "1",
                       "--theta", "w^2", "--json")
    assert code == 0
    rec = json.loads(out)
    got = parse_bandset(rec["set"])
    assert member(o("w"), got) and not member(o("5"), got)
    assert rec["min"] == "w"
    assert not rec["empty"]


# --- eval -------------------------------------------------------------------------


def test_eval_diamond_top(capsys):
    code, out, _ = run(capsys, "eval", "<0>T", "--theta", "w",
                       "--levels", "1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert not rec["empty"]
    assert rec["theta_member"]
    got = parse_bandset(rec["set"])
    assert member(o("w"), got) and not member(o("3"), got)


def test_eval_bottom_and_top(capsys):
    code, out, _ = run(capsys, "eval", "F", "--theta", "w", "--levels", "1",
                       "--json")
    assert json.loads(out)["empty"]
    code, out, _ = run(capsys, "eval", "T", "--theta", "w", "--levels", "1",
                       "--json")
    assert json.loads(out)["set"] == "[1,w]"


def test_eval_with_valuation_file(capsys, tmp_path):
    vf = tmp_path / "val.json"
    vf.write_text(json.dumps({"0": "[1,w^2]"}))
    code, out, _ = run(capsys, "eval", "<0>p0", "--theta", "w^2",
                       "--levels", "1", "--val", str(vf), "--json")
    assert code == 0
    got = parse_bandset(json.loads(out)["set"])
    assert member(o("w^2"), got)


# --- kripke -----------------------------------------------------------------------


def test_kripke(capsys, tmp_path):
    ff = tmp_path / "frame.json"
    t = make_jframe(["r", "a"], [[("r", "a")]])
    ff.write_text(json.dumps(jframe_to_json(t)))
    code, out, _ = run(capsys, "kripke", "<0>T", "--frame", str(ff), "--json")
    assert code == 0
    assert json.loads(out)["nodes"] == ["r"]
    vf = tmp_path / "val.json"
    vf.write_text(json.dumps({"0": ["a"]}))
    code, out, _ = run(capsys, "kripke", "[0]p0", "--frame", str(ff),
                       "--val", str(vf), "--json")
    assert json.loads(out)["nodes"] == ["a", "r"]


def test_kripke_rejects_nodes_outside_the_frame(capsys, tmp_path):
    ff = tmp_path / "frame.json"
    ff.write_text(json.dumps(jframe_to_json(make_jframe(["r", "a"], [[("r", "a")]]))))
    vf = tmp_path / "val.json"
    vf.write_text(json.dumps({"0": ["a", "z"]}))
    code, out, err = run(capsys, "kripke", "p0", "--frame", str(ff),
                         "--val", str(vf), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'z'" in err
    assert "Traceback" not in err


def fan_file(tmp_path):
    ff = tmp_path / "frame.json"
    ff.write_text(json.dumps(jframe_to_json(
        make_jframe(["r", "a", "b"], [[("r", "a"), ("r", "b")]]))))
    return str(ff)


@pytest.mark.parametrize("cmd,blob,why", [
    ("eval", [1], "a valuation must be a JSON object"),
    ("eval", {"0": 5}, "valuation field '0' must be a band-set string"),
    ("eval", {"p0": "[1,w]"}, "valuation key 'p0' must be an atom index in digits"),
    ("eval", {"0": "[1,w"}, "valuation field '0': expected ']' at position 4"),
    ("kripke", [1], "a valuation must be a JSON object"),
    ("kripke", {"0": 5}, "valuation field '0' must be a list of node ids"),
    ("kripke", {"0": [["a"]]}, "valuation field '0' must be a list of node ids"),
    ("eval", {"0": "[1,1]", "00": "[2,2]"}, "valuation key '00' names atom 0 twice"),
    ("kripke", {"0": ["a"], "00": ["r"]}, "valuation key '00' names atom 0 twice"),
    ("eval", {"1" * 5000: "[1,w]"},
     "valuation key starting '11111111' has more than 4300 digits"),
])
def test_malformed_valuation_files(capsys, tmp_path, cmd, blob, why):
    vf = tmp_path / "val.json"
    vf.write_text(json.dumps(blob))
    argv = {"eval": ["eval", "p0", "--theta", "w", "--levels", "1"],
            "kripke": ["kripke", "p0", "--frame", fan_file(tmp_path)]}[cmd]
    assert run(capsys, *argv, "--val", str(vf)) == (2, "", f"error: {why}\n")


# each file parses under plain json.load, whose last value of a repeated
# key wins, to an input the command accepts
CHAIN = make_jframe(["r", "a"], [[("r", "a")]])
CHAIN_TEXT = json.dumps(jframe_to_json(CHAIN))
CHAIN_CM_TEXT = json.dumps(countermodel_to_json(embed(CHAIN, (1,))))


@pytest.mark.parametrize("argv,text,key", [
    (["kripke", "p0", "--frame", "{chain}", "--val"], '{"0": ["a"], "0": ["r"]}', "0"),
    (["eval", "p0", "--theta", "w", "--levels", "1", "--val"],
     '{"0": "[1,1]", "0": "[2,2]"}', "0"),
    (["kripke", "p0", "--frame"], '{"nodes": ["x"], ' + CHAIN_TEXT[1:], "nodes"),
    (["embed", "--sigma", "1", "--tree"], CHAIN_TEXT[:-1] + ', "rels": [[]]}', "rels"),
    (["verify", "<0>T", "--cm"],
     CHAIN_CM_TEXT.replace('{"map": "rank"', '{"map": "const", "map": "rank"', 1), "map"),
], ids=["kripke-val", "eval-val", "kripke-frame", "embed-tree", "verify-cm"])
def test_a_repeated_json_key_is_rejected(tmp_path, argv, text, key):
    chain = tmp_path / "chain.json"
    chain.write_text(CHAIN_TEXT)
    dup = tmp_path / "dup.json"
    dup.write_text(text)
    json.loads(text)  # plain JSON reads it
    argv = [a.format(chain=chain) for a in argv] + [str(dup)]
    assert run_quiet(argv) == (2, "", f"error: {dup}: JSON object has key {key!r} twice\n")


# --- embed / verify ----------------------------------------------------------------


def chain_file(tmp_path):
    ff = tmp_path / "chain.json"
    t = make_jframe(["r", "a"], [[("r", "a")]])
    ff.write_text(json.dumps(jframe_to_json(t)))
    return str(ff)


def test_embed_two_chain(capsys, tmp_path):
    code, out, _ = run(capsys, "embed", "--tree", chain_file(tmp_path),
                       "--sigma", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["theta"] == "w"
    assert rec["sigma"] == [1]


def test_embed_verify_round_trip(capsys, tmp_path):
    cmf = tmp_path / "cm.json"
    code, out, _ = run(capsys, "embed", "--tree", chain_file(tmp_path),
                       "--sigma", "1", "--out", str(cmf))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", "<0>T", "--cm", str(cmf))
    assert code == 0
    assert out.startswith("PASS")


def test_verify_failure_exit_code(capsys, tmp_path):
    cmf = tmp_path / "cm.json"
    run(capsys, "embed", "--tree", chain_file(tmp_path),
        "--sigma", "1", "--out", str(cmf))
    code, out, _ = run(capsys, "verify", "F", "--cm", str(cmf), "--json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def embed_file(capsys, tmp_path, nodes, rels, sigma="1"):
    ff, cmf = tmp_path / "tree.json", tmp_path / "cm.json"
    ff.write_text(json.dumps(jframe_to_json(make_jframe(nodes, [rels]))))
    assert run(capsys, "embed", "--tree", str(ff), "--sigma", sigma,
               "--out", str(cmf))[0] == 0
    return cmf


def test_verify_without_the_root_fiber_fails(capsys, tmp_path):
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    obj["algebra"] = [[v, s] for v, s in obj["algebra"] if v != "r"]
    cmf.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf), "--json")
    assert (code, err) == (1, "")
    assert ["(b) root fiber is {theta}", "EXACT", False, ""] in \
        json.loads(out)["checks"]


@pytest.mark.parametrize("point", ["0", "w^w+1"])  # theta is w^w
def test_verify_witness_outside_one_to_theta_fails(capsys, tmp_path, point):
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")], sigma="2")
    obj = json.loads(cmf.read_text())
    assert obj["theta"] == "w^w"
    obj["witnesses"] = [[v, point if v == "a" else w] for v, w in obj["witnesses"]]
    cmf.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf), "--json")
    assert (code, err) == (1, "")
    assert ["(b) witness table", "EXACT", False,
            f"witness {point} is outside the map's domain"] in json.loads(out)["checks"]


@pytest.mark.parametrize("keep,lost", [((), "r"), (("r",), "a")])
def test_verify_node_without_a_witness_fails(capsys, tmp_path, keep, lost):
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    obj["witnesses"] = [[v, w] for v, w in obj["witnesses"] if v in keep]
    cmf.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf), "--json")
    assert (code, err) == (1, "")
    assert ["(b) witness table", "EXACT", False,
            f"no witness for node {lost!r}"] in json.loads(out)["checks"]


def test_verify_witness_of_another_node_fails(capsys, tmp_path):
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    obj["witnesses"] = [[v, "w"] for v, _ in obj["witnesses"]]  # w maps to r
    cmf.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf))
    assert (code, err) == (1, "")
    assert "(b) witness table: FAIL -- witness w of node 'a' maps to 'r'" in out


# why: the shape the field must have, or the entry's path and why its text
# does not parse
@pytest.mark.parametrize("field,value,why", [
    ("levels", "1", "a list of strings"),
    ("theta", 5, "a string"),
    ("sigma", 1, "a list"),
    ("witnesses", "ab", "a list of [node, text] pairs"),
    ("witnesses", [["a", 1], ["r", "w"]], "a list of [node, text] pairs"),
    ("algebra", [1, 2], "a list of [node, text or null] pairs"),
    ("witnesses", [[["a"], "1"], ["r", "w"]], "a list of [node, text] pairs"),
    ("algebra", [["a", "[1,w"], ["r", "[w,w]"]],
     "'algebra[0][1]': expected ']' at position 4"),
    ("theta", "w+", "'theta': expected a number, 'w' or '(' at position 2"),
    ("levels", ["x"], "'levels[0]': unknown name 'x' at position 0"),
    # a node listed twice: the later entry would silently win
    ("witnesses", [["a", "w+5"], ["a", "1"], ["r", "w"]],
     "'witnesses[1][0]' names node 'a' twice"),
    ("algebra", [["r", "empty"], ["a", "[1,w] & l^1 in (-1,0]"],
                 ["r", "[1,w] & l^1 in (0,1]"]],
     "'algebra[2][0]' names node 'r' twice"),
    # a node the tree lacks is rejected as the file is read, before any row
    ("algebra", [["a", None], ["r", "[w,w]"], ["zz", "[1,1]"]],
     "'algebra[2][0]' names node 'zz', which is not in the tree"),
    ("witnesses", [["a", "1"], ["r", "w"], ["zz", "1"]],
     "'witnesses[2][0]' names node 'zz', which is not in the tree"),
])
def test_verify_names_a_malformed_field(capsys, tmp_path, field, value, why):
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    obj[field] = value
    cmf.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf))
    assert (code, out) == (2, "")
    if not why.startswith("'"):
        why = f"{field!r} must be {why}"
    assert err == f"error: countermodel field {why}\n"


def test_verify_names_a_theta_that_int_cannot_read(capsys, tmp_path):
    # past MAX_DIGITS, on every Python, the numeral's position is named
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    obj["theta"] = "1" * 5000
    cmf.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf))
    assert (code, out) == (2, "")
    assert err == ("error: countermodel field 'theta': numeral longer than 4300 "
                   "digits at position 0\n")


@pytest.mark.parametrize("argv,blob", [
    (["verify", "<0>T", "--cm"], dict(json.loads(CHAIN_CM_TEXT), sigma=[12345])),
    (["kripke", "p0", "--frame"], {"nodes": [12345], "rels": []}),
    (["eval", "p0", "--theta", "w", "--levels", "1", "--val"], {"0": 12345}),
], ids=["verify-cm", "kripke-frame", "eval-val"])
def test_a_json_number_past_the_digit_cap_names_its_file(capsys, tmp_path, argv, blob):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(blob).replace("12345", "1" * 5000))
    assert run(capsys, *argv, str(path)) == (
        2, "", f"error: {path}: a JSON number has more than 4300 digits\n")


def test_verify_theta_outside_the_maps_domain_fails(capsys, tmp_path):
    # the fan's valuation splits the rank class {a, b}, so stage (c) reads
    # theta's truth at f(theta), which does not exist past the map's w
    cmf = embed_file(capsys, tmp_path, "rab", [("r", "a"), ("r", "b")])
    obj = json.loads(cmf.read_text())
    obj["theta"] = "w*2"
    cmf.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "<0>p0 & <0>~p0", "--cm", str(cmf),
                         "--json")
    assert (code, err) == (1, "")
    assert ["(c) theta satisfies phi", "EXACT", False,
            "theta w*2 is outside [1, w]"] in json.loads(out)["checks"]


@pytest.mark.parametrize("sigma,levels,why", [
    ([3], ["1"], "levels ['1'] are not sigma [3]"),
    ([1], ["1", "2"], "levels ['1', '2'] are not sigma [1]"),
    ([0], ["0"], "level 0 must be a positive integer"),
    ([True], ["1"], "level True must be a positive integer"),
    ([1, 2], ["1", "2"], "sigma has 2 levels for 1 relations"),
])
def test_verify_rejects_a_bad_sigma(capsys, tmp_path, sigma, levels, why):
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    obj["sigma"], obj["levels"] = sigma, levels
    cmf.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf))
    assert (code, out, err) == (2, "", f"error: {why}\n")


@pytest.mark.parametrize("nodes,rels", [
    ("ra", [("r", "a")]),                 # every fiber a band set
    ("rab", [("r", "a"), ("r", "b")]),    # fibers of a, b are not
])
def test_verify_budget_too_small(capsys, tmp_path, nodes, rels):
    # the map check samples nothing, so there is no budget to give
    cmf = embed_file(capsys, tmp_path, nodes, rels)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "<0>T", "--cm", str(cmf), "--budget", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage:") and "Traceback" not in err


def _const(node):
    return {"map": "const", "node": node, "theta": "1"}


def _segments(*parts):
    return {"map": "segments", "parts": [{"nodes": n, "fmap": f} for n, f in parts]}


def _fan(**fields):
    """The fan r -> a, r -> b's product map at sigma (1,2), fields replaced."""
    return {"map": "product", "kappas": ["1", "1"], "lam": "1", "alpha": ["r"],
            "f0": _const("r"),
            "fstar": _segments((["a"], _const("a")), (["b"], _const("b"))), **fields}


_NOT_SEGMENTS = ("must be a map object tagged 'compose' or 'const' or 'product' or "
                 "'rank', not 'segments'")


@pytest.mark.parametrize("field,value,why", [
    ("fmap", {"map": "liter", "delta": 1, "theta": "w"},
     "countermodel field 'fmap' must be a map object tagged 'compose' or "
     "'const' or 'product' or 'rank', not 'liter'"),
    ("fmap", [1], "countermodel field 'fmap' must be a map object tagged "
     "'compose' or 'const' or 'product' or 'rank'"),
    ("fmap", {"map": "rank"}, "countermodel has no 'fmap.root' field"),
    ("fmap", {"map": "rank", "root": "r", "children": 5},
     "countermodel field 'fmap.children' must be a list"),
    ("fmap", {"map": "rank", "root": "r",
              "children": [{"map": "rank", "root": ["a"], "children": []}]},
     "countermodel field 'fmap.children[0].root' must be a node id "
     "(a string or an integer)"),
    ("fmap", {"map": "compose", "inner": {"map": "const", "node": "r", "theta": "w"},
              "outer": {"map": "const", "node": "r", "theta": "w"}},
     "countermodel field 'fmap.inner' must be a map object tagged 'liter', "
     "not 'const'"),
    ("fmap", {"map": "const", "node": 1.5, "theta": "w"},
     "countermodel field 'fmap.node' must be a node id (a string or an integer)"),
    ("fmap", {"map": "compose", "outer": {"map": "const", "node": "r", "theta": "w"},
              "inner": {"map": "liter", "delta": True, "theta": "w"}},
     "countermodel field 'fmap.inner.delta' must be a non-negative integer"),
    ("fmap", _fan(fstar=_segments(("a", _const("a")), (["b"], _const("b")))),
     "countermodel field 'fmap.fstar.parts[0].nodes' must be a list of node ids"),
    ("tree", {"nodes": "ra", "rels": [[["r", "a"]]]},
     "frame field 'tree.nodes' must be a list of node ids (strings or integers)"),
    ("tree", {"nodes": ["r", "a"], "rels": [[["r"]]]},
     "frame field 'tree.rels[0][0]' must be a [node, node] pair"),
    ("fmap", {"map": "rank", "root": "r", "children": [
        {"map": "rank", "root": "a", "children": []},
        {"map": "rank", "root": "b", "children": [
            {"map": "rank", "root": "a", "children": []}]}]},
     "countermodel field 'fmap' names a node twice"),
    ("fmap", {"map": "compose", "inner": {"map": "liter", "delta": 1, "theta": "w"},
              "outer": {"map": "rank", "root": "r", "children": [
                  {"map": "rank", "root": "a", "children": []}]}},
     "countermodel field 'fmap.inner.theta' must be e^1 of the outer map's theta"),
    # the fan at sigma (1,2), its cells laid out for kappas 1, 2 but its second
    # part of theta 1: pi0 would land outside fstar's domain
    ("fmap", {"map": "product", "kappas": ["1", "2"], "lam": "1", "alpha": ["r"],
              "f0": {"map": "const", "node": "r", "theta": "1"},
              "fstar": {"map": "segments", "parts": [
                  {"nodes": ["a"], "fmap": {"map": "const", "node": "a", "theta": "1"}},
                  {"nodes": ["b"], "fmap": {"map": "const", "node": "b", "theta": "1"}}]}},
     "countermodel field 'fmap.fstar.parts[1]' must have theta 2 = kappas[1]"),
    # the same fan with lam 2 but f0 still of theta 1: pi1 maps the upper part
    # onto [1, 2], past f0's domain
    ("fmap", {"map": "product", "kappas": ["1", "1"], "lam": "2", "alpha": ["r"],
              "f0": {"map": "const", "node": "r", "theta": "1"},
              "fstar": {"map": "segments", "parts": [
                  {"nodes": ["a"], "fmap": {"map": "const", "node": "a", "theta": "1"}},
                  {"nodes": ["b"], "fmap": {"map": "const", "node": "b", "theta": "1"}}]}},
     "countermodel field 'fmap.f0' must have theta 2 = lam"),
    # a tree that is read but is not a tree: rejected as the file is read
    ("tree", {"nodes": ["r", "a", "b"], "rels": [[["r", "a"]]]},
     "countermodel field 'tree': frame is not connected"),
    ("tree", {"nodes": ["r", "a", "b"], "rels": [[["r", "a"], ["a", "b"]]]},
     "countermodel field 'tree': 1 violation(s)\n"
     "  transitivity of R_0: witness ('r', 'a', 'b')"),
    ("tree", {"nodes": ["r", "r", "a"], "rels": [[["r", "a"]]]},
     "frame field 'tree': node 'r' is listed twice"),
    ("fmap", _fan(fstar=_segments((["a"], _const("a")))),
     "countermodel field 'fmap.fstar' must have 2 parts, one per kappa"),
    ("fmap", _fan(fstar={"map": "segments", "parts": [["a"], ["b"]]}),
     "countermodel field 'fmap.fstar.parts[0]' must be a JSON object"),
    # segments is read only as a product's fstar, as its parts, never as a
    # node map: each placement below has the theta a node map there needs
    ("fmap", _segments((["r"], _const("r"))),
     f"countermodel field 'fmap' {_NOT_SEGMENTS}"),
    ("fmap", {"map": "compose", "outer": _segments((["r"], _const("r"))),
              "inner": {"map": "liter", "delta": 0, "theta": "1"}},
     f"countermodel field 'fmap.outer' {_NOT_SEGMENTS}"),
    ("fmap", _fan(f0=_segments((["r"], _const("r")))),
     f"countermodel field 'fmap.f0' {_NOT_SEGMENTS}"),
    ("fmap", _fan(fstar=_segments((["a"], _segments((["a"], _const("a")))),
                                  (["b"], _const("b")))),
     f"countermodel field 'fmap.fstar.parts[0].fmap' {_NOT_SEGMENTS}"),
])
def test_verify_names_the_bad_map_or_tree_field(capsys, tmp_path, field, value, why):
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    obj[field] = value
    cmf.write_text(json.dumps(obj))
    assert run(capsys, "verify", "<0>T", "--cm", str(cmf)) == (2, "", f"error: {why}\n")


@pytest.mark.parametrize("theta,code", [("0", 1), ("w", 2)])
def test_verify_reads_a_huge_liter_delta_at_once(capsys, tmp_path, theta, code):
    # e^delta(0) = 0 for every delta, and e^delta(w) is past DEPTH_CAP: the
    # compose check must not take delta steps to see either
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    obj["fmap"] = {"map": "compose",
                   "outer": {"map": "const", "node": "r", "theta": theta},
                   "inner": {"map": "liter", "delta": 10**18, "theta": theta}}
    cmf.write_text(json.dumps(obj))
    got, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf))
    assert got == code and "Traceback" not in err
    if code == 2:
        assert err == ("error: countermodel field 'fmap.inner.theta' must be "
                       f"e^{10**18} of the outer map's theta\n")


@pytest.mark.parametrize("depth,code", [(100, 0), (200, 2)])
def test_verify_caps_map_nesting(capsys, tmp_path, depth, code):
    cmf = embed_file(capsys, tmp_path, "ra", [("r", "a")])
    obj = json.loads(cmf.read_text())
    for _ in range(depth):  # identity layers: l^0 is the identity
        obj["fmap"] = {"map": "compose", "outer": obj["fmap"],
                       "inner": {"map": "liter", "delta": 0, "theta": "w"}}
    cmf.write_text(json.dumps(obj))
    got, out, err = run(capsys, "verify", "<0>T", "--cm", str(cmf))
    assert got == code and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: countermodel field 'fmap") and \
            "nests maps deeper than 128" in err


@pytest.mark.parametrize("n,code,err", [
    (129, 0, ""), (130, 2, "error: cm.json would nest maps 129 deep, deeper than 128\n")],
    ids=["chain129", "chain130"])
def test_embed_writes_no_map_that_verify_refuses(tmp_path, n, code, err):
    # an n-node chain's rank map nests n - 1 deep in cm.json, and verify
    # reads at most 128
    ff = tmp_path / "chain.json"
    ff.write_text(json.dumps({"nodes": list(range(n)), "rels": [
        [[i, j] for i in range(n) for j in range(i + 1, n)]]}))
    assert run_quiet(["embed", "--tree", str(ff), "--sigma", "1",
                      "--out", str(tmp_path / "cm.json")]) == (code, "", err)


def test_embed_past_the_recursion_limit_is_the_nesting_error(tmp_path):
    # each empty relation above the last lifts the map once more, until the
    # embedding recurses past the interpreter's limit
    k = 1000
    ff = tmp_path / "deep.json"
    ff.write_text(json.dumps({"nodes": [0, 1], "rels": [[]] * (k - 1) + [[[0, 1]]]}))
    sigma = ",".join(map(str, range(1, k + 1)))
    got, out, err = run_quiet(["embed", "--tree", str(ff), "--sigma", sigma])
    assert (got, out, err) == (2, "", "error: cm.json would nest maps deeper than 128\n")


@pytest.mark.parametrize("k,err", [
    (40, ""), (64, "error: theta at sigma's last level 64 would nest ordinals "
              "deeper than 64\n")], ids=["rels40", "rels64"])
def test_embed_past_the_depth_cap_names_sigma(tmp_path, k, err):
    # each empty relation above the last lifts theta by one e, until its
    # CNF nests past DEPTH_CAP
    ff = tmp_path / "deep.json"
    ff.write_text(json.dumps({"nodes": [0, 1], "rels": [[]] * (k - 1) + [[[0, 1]]]}))
    sigma = ",".join(map(str, range(1, k + 1)))
    got, _, got_err = run_quiet(["embed", "--tree", str(ff), "--sigma", sigma,
                                 "--out", str(tmp_path / "cm.json")])
    assert (got, got_err) == (2 if err else 0, err)


@pytest.mark.parametrize("argv", [["verify", "T", "--cm"], ["kripke", "T", "--frame"]])
def test_deeply_nested_json_file(tmp_path, argv):
    ff = tmp_path / "deep.json"
    ff.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_quiet(argv + [str(ff)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "nested too deeply" in err


def _json_paths(value, at=()):
    yield at
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _json_paths(value[k], at + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _json_paths(v, at + (i,))


def _replaced(value, at, new):
    if not at:
        return new
    value = json.loads(json.dumps(value))
    cur = value
    for k in at[:-1]:
        cur = cur[k]
    cur[at[-1]] = new
    return value


CM_BLOBS = [countermodel_to_json(embed(make_jframe(nodes, rels), sigma))
            for nodes, rels, sigma in (
                ("ra", [[("r", "a")]], (1,)),                      # 2-chain
                ("rab", [[("r", "a"), ("r", "b")]], (1,)),         # fan
                ("rab", [[("r", "a"), ("r", "b")], []], (1, 2)),   # its product
                ("ra", [[("r", "a")]], (2,)),                      # a compose map
                # a product whose f0 is a compose map
                ("rab", [[("a", "b"), ("r", "b")], [("r", "a")]], (1, 2)))]
CM_WORDS = ["0", "1", "w", "w+1", "r", "a", "b", "map", "nodes", "rels", "rank",
            "liter", "const", "compose", "segments", "product", "otyp_up"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(CM_WORDS),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(CM_WORDS) | st.text(max_size=4), kids,
                      max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CM_BLOBS), st.data(), JSON_VALUES)
def test_cm_json_exit_contract(blob, data, new):
    at = data.draw(st.sampled_from(list(_json_paths(blob))))
    # on the fan, the second formula's valuation is not band-representable
    phi = data.draw(st.sampled_from(["<0>T", "<0>p0 & <0>~p0"]))
    with tempfile.TemporaryDirectory() as tmp:
        cmf = os.path.join(tmp, "cm.json")
        with open(cmf, "w") as fh:
            json.dump(_replaced(blob, at, new), fh)
        code, _, err = run_quiet(["verify", phi, "--cm", cmf])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert (code == 2) == err.startswith("error:")


MAP_TAGS = ["rank", "const", "compose", "product", "liter", "segments", "otyp_up"]
RETYPED = [None, True, False, 0, 7, -1, "", "x", "w", [], [1], ["r"], {}, {"map": "rank"}]
MARK = "@@mutated@@"          # stands for a value whose JSON text is written by hand


def _at(value, at):
    for k in at:
        value = value[k]
    return value


@st.composite
def cm_mutations(draw):
    """One model's cm.json text with one mutation at a drawn path: a key
    dropped or repeated, a value retyped, a map's tag swapped, a map wrapped
    in 130 compose layers, or a 5,000-digit numeral put in."""
    blob = draw(st.sampled_from(CM_BLOBS))
    paths = list(_json_paths(blob))
    keyed = [p for p in paths if p and isinstance(p[-1], str)]
    maps = [p for p in paths if isinstance(_at(blob, p), dict) and "map" in _at(blob, p)]
    kind = draw(st.sampled_from(["drop", "repeat", "retype", "tag", "wrap", "digits"]))
    raw = None
    if kind in ("drop", "repeat"):
        at = draw(st.sampled_from(keyed))
        parent = _at(blob, at[:-1])
        if kind == "drop":
            new = {k: v for k, v in parent.items() if k != at[-1]}
        else:
            new = MARK
            items = [(k, parent[k]) for k in parent] + [(at[-1], parent[at[-1]])]
            raw = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items) + "}"
        at = at[:-1]
    elif kind in ("tag", "wrap"):
        at = draw(st.sampled_from(maps))
        new = dict(_at(blob, at))
        if kind == "tag":
            new["map"] = draw(st.sampled_from([t for t in MAP_TAGS if t != new["map"]]))
        else:
            for _ in range(130):
                new = {"map": "compose", "outer": new,
                       "inner": {"map": "liter", "delta": 1, "theta": "w"}}
    else:
        at = draw(st.sampled_from(paths))
        if kind == "retype":
            new = draw(st.sampled_from(RETYPED))
        else:
            new, raw = MARK, draw(st.sampled_from(["9" * 5000, '"' + "9" * 5000 + '"']))
    text = json.dumps(_replaced(blob, at, new))
    return text if raw is None else text.replace(json.dumps(MARK), raw, 1)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(cm_mutations())
def test_mutated_cm_json_keeps_the_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        cmf = os.path.join(tmp, "cm.json")
        with open(cmf, "w") as fh:
            fh.write(text)
        code, _, err = run_quiet(["verify", "T", "--cm", cmf])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert (code == 2) == (bool(lines) and lines[0].startswith("error:"))
    assert sum(line.startswith("error:") for line in lines) == (code == 2)


FAN = jframe_to_json(make_jframe(["r", "a", "b"], [[("r", "a"), ("r", "b")]]))
# each input file and the command line reading it: (blob, argv up to the path)
INPUT_FILES = [
    (FAN, ["kripke", "<0>p0", "--val", "{val}", "--frame"]),
    (FAN, ["embed", "--sigma", "1", "--tree"]),
    ({"0": "[1,w^2]"}, ["eval", "<0>p0", "--theta", "w^2", "--levels", "1", "--val"]),
    ({"0": ["a"], "1": ["r", "b"]}, ["kripke", "<0>p0 & p1", "--frame", "{frame}",
                                     "--val"]),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INPUT_FILES), st.data(), JSON_VALUES)
def test_frame_and_valuation_files_exit_contract(case, data, new):
    blob, argv = case
    at = data.draw(st.sampled_from(list(_json_paths(blob))))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name + ".json")
                 for name in ("frame", "val", "input")}
        for name, value in (("frame", FAN), ("val", {"0": ["a"]}),
                            ("input", _replaced(blob, at, new))):
            with open(paths[name], "w") as fh:
                json.dump(value, fh)
        code, _, err = run_quiet([a.format(**paths) for a in argv] + [paths["input"]])
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 2) == err.startswith("error:")


def test_embed_rejects_non_tree(capsys, tmp_path):
    ff = tmp_path / "bad.json"
    t = make_jframe(["a", "b", "c"], [[("a", "c"), ("b", "c")]])
    ff.write_text(json.dumps(jframe_to_json(t)))
    code, _, err = run(capsys, "embed", "--tree", str(ff), "--sigma", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [["kripke", "<0>T", "--frame"],
                                  ["embed", "--sigma", "1", "--tree"]])
@pytest.mark.parametrize("blob", [{"nodes": [0, 0, 1], "rels": [[[0, 1]]]},
                                  {"nodes": [0, 0], "rels": [[]]}])
def test_a_frame_file_listing_a_node_twice_is_rejected(capsys, tmp_path, argv, blob):
    ff = tmp_path / "frame.json"
    ff.write_text(json.dumps(blob))
    assert run(capsys, *argv, str(ff)) == (2, "", "error: node 0 is listed twice\n")


def test_embed_determinism(capsys, tmp_path):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "embed", "--tree", chain_file(tmp_path),
                        "--sigma", "1")
        outs.append(out)
    assert outs[0] == outs[1]


# --- search -----------------------------------------------------------------------


def test_search_finds_model(capsys, tmp_path):
    outf = tmp_path / "found.json"
    code, _, _ = run(capsys, "search", "<0><1>T", "--out", str(outf))
    assert code == 0
    rec = json.loads(outf.read_text())
    assert rec["result"] == "found"
    assert rec["sigma"] == [1, 2]
    assert len(rec["frame"]["nodes"]) == 3


def test_search_feeds_embed(capsys, tmp_path):
    outf = tmp_path / "found.json"
    run(capsys, "search", "<0><1>T", "--out", str(outf))
    code, out, _ = run(capsys, "embed", "--tree", str(outf), "--sigma", "1,2")
    assert code == 0
    assert json.loads(out)["theta"] == "w^(w+1)"


def test_search_unknown(capsys):
    code, out, _ = run(capsys, "search", "[0]F & <0>T", "--max-nodes", "4")
    assert code == 2
    assert out.strip() == "unknown"


@pytest.mark.parametrize("text,code", [("<0><1>T", 0), ("<0>T & [0]F", 2)])
def test_python_m_ordtopo_keeps_the_exit_contract(text, code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-m", "ordtopo", "search", text],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr


def test_frame_errors_do_not_depend_on_the_hash_seed(tmp_path):
    # string node ids hash differently under each seed; the error text of
    # a frame that is not transitive must not follow them
    ff = tmp_path / "tree.json"
    ff.write_text(json.dumps({"nodes": ["a", "b", "c", "d"], "rels": [[
        ["b", "c"], ["c", "a"], ["a", "c"], ["b", "a"], ["d", "a"], ["d", "c"],
        ["c", "d"]]]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    got = set()
    for seed in ("1", "2"):
        p = subprocess.run([sys.executable, "-m", "ordtopo", "embed", "--tree", str(ff),
                            "--sigma", "1"], capture_output=True, text=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        got.add((p.returncode, p.stdout, p.stderr))
    assert len(got) == 1
    (code, out, err), = got
    assert (code, out) == (2, "")
    assert err.splitlines()[:3] == ["error: 6 violation(s)",
                                    "  transitivity of R_0: witness ('a', 'c', 'a')",
                                    "  transitivity of R_0: witness ('a', 'c', 'd')"]


def test_search_sparse_indices(capsys, tmp_path):
    outf = tmp_path / "found.json"
    code, _, _ = run(capsys, "search", "<2>T", "--out", str(outf))
    assert code == 0
    rec = json.loads(outf.read_text())
    assert rec["sigma"] == [3]
    assert rec["formula"] == "<0>T"


def test_search_rejects_transfinite_indices(capsys):
    assert run(capsys, "search", "<w>p0") == \
        (2, "", "error: transfinite modality indices are out of scope\n")


# --- text surfaces -----------------------------------------------------------------

SURFACES = {
    "ord": ["ord", "--"],
    "band": ["band", "--"],
    "eval": ["eval", "--theta", "w", "--levels", "1", "--"],
}
TOKENS = ["0", "1", "2", "12", "w", "^", "+", "*", "(", ")", ",", " ", "e", "l",
          "L", "pounds", "eiter", "liter", "sub", "[", "]", "&", ";", "in", "-1",
          "inf", "empty", "~", "<", ">", "|", "->", "T", "F", "p", "p0", "p1"]


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SURFACES)),
       st.lists(st.sampled_from(TOKENS), max_size=16).map("".join))
def test_text_surfaces_exit_contract(cmd, text):
    code, _, err = run_quiet(SURFACES[cmd] + [text])
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 2) == err.startswith("error:")


def deep(n):
    return {"ord": ["(" * n + "1" + ")" * n, "w^" * n + "1"],
            "band": ["[1," + "(" * n + "w" + ")" * n + "]",
                     "[1,w] & l^2 in (-1," + "w^" * n + "0]"],
            "eval": ["~" * n + "T", "(" * n + "T" + ")" * n, "<0>" * n + "T"]}


@pytest.mark.parametrize("n", [10, 100, 3000])
def test_deep_nesting_exit_contract(n):
    for cmd, texts in deep(n).items():
        for text in texts:
            code, _, err = run_quiet(SURFACES[cmd] + [text])
            assert code in (0, 2) and "Traceback" not in err
            if n == 3000:
                assert code == 2 and err.startswith("error:")
                assert "nesting deeper than" in err


@pytest.mark.parametrize("op", ["&", "|", "->"])
def test_flat_chain_exit_contract(tmp_path, op):
    text = f" {op} ".join(["p0"] * 3000)
    ff, bv, kv = (tmp_path / n for n in ("frame.json", "bands.json", "nodes.json"))
    ff.write_text(json.dumps(jframe_to_json(make_jframe(["r", "a"], [[("r", "a")]]))))
    bv.write_text(json.dumps({"0": "[1,w]"}))
    kv.write_text(json.dumps({"0": ["a"]}))
    found = tmp_path / "found.json"
    for argv in (["eval", "--theta", "w", "--levels", "1", "--val", str(bv)],
                 ["kripke", "--frame", str(ff), "--val", str(kv)],
                 ["search", "--max-nodes", "1", "--out", str(found)]):
        code, _, err = run_quiet(argv + ["--", text])
        assert code in (0, 2) and "Traceback" not in err, argv[0]
    assert json.loads(found.read_text())["formula"] == text


def test_flat_conjunction_of_distinct_atoms_exit_contract(tmp_path):
    # 3000 atoms on one node: the odometer runs all but the packed last ones,
    # and the only model is the last valuation
    text = " & ".join(f"p{i}" for i in range(3000))
    found = tmp_path / "found.json"
    code, _, err = run_quiet(["search", "--max-nodes", "1", "--out", str(found), "--", text])
    assert (code, err) == (0, "")
    assert json.loads(found.read_text())["valuation"] == {str(i): [0] for i in range(3000)}


def test_nesting_cap_on_the_command_line():
    text = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert run_quiet(["ord", text])[:2] == (0, "1\n")
    code, _, err = run_quiet(["ord", "(" + text + ")"])
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv,want", [
    (["band", "[1,w] & l^3000 in (1,2]"], "empty"),
    (["band", "[1,w]", "--derive", "3000"], "empty"),
    (["eval", "<0>T", "--theta", "w^w", "--levels", "3000"], "empty"),
])
def test_levels_past_the_depth_cap(argv, want):
    code, out, err = run_quiet(argv)
    assert (code, out.strip(), err) == (0, want, "")


@pytest.mark.parametrize("argv,why", [
    (["embed", "--sigma", "1,,2", "--tree", "{frame}"],
     "--sigma must be comma-separated integers, not '1,,2'"),
    (["band", "[1,w]", "--derive", "-1"], "level -1"),
    # a parse position counts from the start of the flag's text
    (["eval", "<0>T", "--theta", "w", "--levels", "1,,2"],
     "--levels '1,,2': expected a number, 'w' or '(' at position 2"),
    (["eval", "<0>T", "--theta", "w+", "--levels", "1"],
     "--theta 'w+': expected a number, 'w' or '(' at position 2"),
    (["band", "[1,w]", "--derive", "1", "--theta", "w+"],
     "--theta 'w+': expected a number, 'w' or '(' at position 2"),
    (["search", "T", "--max-nodes", "0"], "--max-nodes must be at least 1, not 0"),
    (["search", "T", "--max-nodes", "-1"], "--max-nodes must be at least 1, not -1"),
    # int() would read both, as 10 and 1
    (["embed", "--sigma", "1_0", "--tree", "{frame}"],
     "--sigma must be comma-separated integers, not '1_0'"),
    (["embed", "--sigma", "\uff11", "--tree", "{frame}"],
     "--sigma must be comma-separated integers, not '\uff11'"),
    (["ord", "eiter(w, 1)"], "eiter needs a finite iteration count"),
    (["eval", "p0", "--theta", "w", "--levels", "2,1"],
     "levels must be strictly increasing"),
    (["eval", "<0>T", "--theta", "w", "--levels", "w"], "level w"),
    # numerals past MAX_DIGITS, which int() would refuse with its own text
    (["ord", "1" * 5000], "numeral longer than 4300 digits at position 0"),
    (["band", "[1,w] & l^" + "1" * 5000 + " in (0,inf]"],
     "numeral longer than 4300 digits at position 10"),
    (["eval", "p" + "1" * 5000, "--theta", "w", "--levels", "1"],
     "numeral longer than 4300 digits at position 1"),
    (["embed", "--tree", "{frame}", "--sigma", "1" * 5000],
     "--sigma entry 1 has more than 4300 digits"),
    (["eval", "p0", "--theta", "w", "--levels", "1"], "no valuation for atom p0"),
    (["kripke", "p0", "--frame", "{frame}"], "no valuation for atom p0"),
    # integer flags, read as --sigma entries are
    (["band", "[1,w]", "--derive", "1" * 5000], "--derive has more than 4300 digits"),
    (["search", "T", "--max-nodes", "1" * 5000], "--max-nodes has more than 4300 digits"),
    (["search", "T", "--max-nodes", "five"], "--max-nodes must be an integer, not 'five'"),
])
def test_bad_option_values_are_named(tmp_path, argv, why):
    frame = fan_file(tmp_path)
    code, out, err = run_quiet([a.format(frame=frame) for a in argv])
    assert (code, out, err) == (2, "", f"error: {why}\n")


@pytest.mark.parametrize("blob", [
    [{"nodes": ["r"], "rels": []}],                # a top-level array
    {"nodes": [["r"], ["a"]], "rels": [[[["r"], ["a"]]]]},   # list node ids
    {"frame": {"nodes": [["r"]], "rels": [[]]}},
])
@pytest.mark.parametrize("argv", [
    ["embed", "--sigma", "1", "--tree"],
    ["kripke", "T", "--frame"],
])
def test_malformed_frame_files(tmp_path, blob, argv):
    ff = tmp_path / "frame.json"
    ff.write_text(json.dumps(blob))
    code, out, err = run_quiet(argv + [str(ff)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_a_frame_without_relations_is_one_node(tmp_path):
    ff = tmp_path / "frame.json"
    ff.write_text(json.dumps({"nodes": [1, 2], "rels": []}))
    assert run_quiet(["embed", "--tree", str(ff)]) == (
        2, "", "error: a frame without relations must be a single node\n")


# --- plumbing ----------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["ord", "1", "--seed", "5", "--budget", "2"],
    ["band", "[1,w]", "--budget", "2"],
    ["search", "T", "--seed", "5"],
    ["verify", "T", "--cm", "cm.json", "--seed", "5"],
])
def test_no_subcommand_takes_seed_or_budget(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage:") and "Traceback" not in err


def test_the_reused_parser_answers_as_a_fresh_process(tmp_path, monkeypatch):
    # argparse is asked again after usage errors, help and every subcommand;
    # each answer must be what a new process gives
    monkeypatch.setenv("COLUMNS", "80")  # the width of help text
    cmf = tmp_path / "cm.json"
    assert run_quiet(["embed", "--tree", chain_file(tmp_path), "--sigma", "1",
                      "--out", str(cmf)])[0] == 0
    calls = [[], ["--help"], ["ord", "--help"], ["ord", "w+1"], ["ord", "w+1", "--json"],
             ["eval", "<0>T", "--theta", "w", "--levels", "1"],
             ["eval", "<0>T", "--theta", "w", "--levels", "1", "--json"],
             ["search", "<0>T"], ["search", "<0>T", "--json"], ["frob"],
             ["verify", "F", "--cm", str(cmf)], ["ord", "w +"], ["search", "T", "-x"]]

    src = str(Path(__file__).resolve().parents[1] / "src")
    want = []
    for argv in calls:
        p = subprocess.run([sys.executable, "-m", "ordtopo", *argv], capture_output=True,
                           text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        want.append((p.returncode, p.stdout, p.stderr))
    assert {w[0] for w in want} == {0, 1, 2}

    def answer(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    cli._build_parser.cache_clear()
    for _ in range(2):
        assert [answer(argv) for argv in calls] == want


def test_missing_file(capsys):
    code, _, err = run(capsys, "verify", "T", "--cm", "/nonexistent/cm.json")
    assert code == 2
    assert "error:" in err
