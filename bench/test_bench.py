"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import formulas as F  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def small_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    lines = small_run(workload, trace)
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert res["correct"] and res["attempted"] >= 1
    if trace and workload == "algebra":
        assert all(v["value"] == 0 for k, v in res["metrics"].items()
                   if k.startswith(("jtree.", "embed.")))
    if not trace:
        for m in declared:  # the text table names the same metrics
            assert any(line.split()[:1] == [m["name"]] for line in lines)


def test_every_known_answer_class_is_run(tmp_path):
    kinds = {
        "search": {"sat-catalog", "sat-tree", "glp-gap", "unsat-seriality",
                   "unsat-box-dia", "unsat-lob", "unsat-transitive",
                   "unsat-cond-I", "unsat-cond-J"},
        "countermodel": {"model", "model-height4", *W.CORRUPTIONS},
        "algebra": {"ordinal-oracle", "ordinal-laws", "bands", "derived-iter",
                    "eval-topo", "check-axioms"},
        "cli": {"cli.ord", "cli.band", "cli.eval", "cli.search", "cli.embed",
                "cli.verify"},
    }
    for name, want in kinds.items():
        _, items = R.setup(name, 5, True, str(tmp_path))
        assert {it.kind for it in items} == want


def run_one(wl, item):
    return wl.run(item, R.direct)


def test_checks_reject_wrong_answers(tmp_path):
    wl, items = R.setup("search", 5, True, str(tmp_path))
    unsat = next(it for it in items if it.expect is None)
    sat = next(it for it in items if it.kind == "sat-catalog")
    assert wl.check(unsat, None, R.direct, {})
    assert not wl.check(unsat, run_one(wl, sat), R.direct, {})  # a "model"
    assert not wl.check(sat, None, R.direct, {})                 # "unknown"
    gap = next(it for it in items if it.kind == "glp-gap")
    assert wl.check(gap, run_one(wl, gap), R.direct, {})
    assert not wl.check(sat, run_one(wl, gap), R.direct, {})  # FAIL is wrong

    wl, items = R.setup("countermodel", 5, True, str(tmp_path))
    model = next(it for it in items if it.kind == "model")
    swap = next(it for it in items if it.kind == "swap-fibers")
    assert wl.check(model, run_one(wl, model), R.direct, {})
    assert wl.check(swap, run_one(wl, swap), R.direct, {})
    swap.expect = "pass"
    assert not wl.check(swap, run_one(wl, swap), R.direct, {})

    wl, items = R.setup("cli", 5, True, str(tmp_path))
    ord_item = next(it for it in items if it.kind == "cli.ord" and it.expect == 0)
    code, out, err = run_one(wl, ord_item)
    assert wl.check(ord_item, (code, out, err), R.direct, {})
    assert not wl.check(ord_item, (2, out, err), R.direct, {})
    assert not wl.check(ord_item, (0, '{"value": "w"}', ""), R.direct, {})


def test_theta_raised_on_a_rank_map_is_counted_as_failed(tmp_path):
    """The open defect listed in bench/README.md: a stored theta above the
    map's own raises instead of failing a check."""
    wl, items = R.setup("countermodel", 5, True, str(tmp_path))
    loop = R.Loop(wl, R.Calibration())
    loop.run_round(items, R.direct)
    assert [(kind, outcome) for _, kind, outcome, _ in loop.failures] == \
        [("theta-up", W.RAISED)]


def test_generated_frames_and_formulas():
    rng = random.Random(0)
    counts = [len(F.treelike_frames(n, k)) for k in (1, 2) for n in (1, 2, 3, 4)]
    assert counts == [1, 1, 2, 6, 1, 2, 7, 35]
    for frame in F.treelike_frames(4, 2):
        frame = F.relabel(rng, frame)
        r = F.root(frame)
        assert all(F.depth(frame, x) > 0 for x in frame[0] if x != r)
    for kf_nodes, rel in [((0, 1, 2), {(0, 1), (0, 2)}), ((0, 1, 2), {(0, 1), (0, 2), (1, 2)})]:
        frame = (kf_nodes, [rel])
        phi = F.tree_formula(frame)
        val = {i: {x} for i, x in enumerate(kf_nodes)}
        assert F.holds(phi, frame, val) == {0}
    assert F.isomorphic(((0, 1), [{(0, 1)}]), ((5, 7), [{(7, 5)}]))
    assert not F.isomorphic(((0, 1, 2), [{(0, 1), (0, 2)}]),
                            ((0, 1, 2), [{(0, 1), (0, 2), (1, 2)}]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = bench("--workload", "algebra", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
