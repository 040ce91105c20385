"""ordtopo benchmark: one workload per run, one caller in a closed loop.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/` and the
oracles from `tests/helpers.py`.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones from a separate traced run.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  `--workload all` runs the four workloads one after another, each
in its own process.  See bench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.0015  # reference-work time that defines "reference speed"
CALIBRATE_EVERY_S = 0.25
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODES = ("EXACT", "SAMPLED", "UNIVERSE", "EXACT-WHERE-DEFINED", "SKIPPED")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "checks_made_ratio": "ratio",
}


def _timed(names):
    return [f"{n}.{suffix}" for n in names for suffix in ("s", "calls")]


PER_LAYER = (
    _timed(["jtree.find_jtree_model"]) + ["jtree.unknown", "jtree.model_nodes"]
    + _timed(["logic.eval_kripke", "embed.verify_countermodel"])
    + [f"embed.checks.{m}" for m in MODES]
    + _timed(["embed.embed"]) + ["embed.fiber_bands"]
    + _timed(["embed.countermodel_to_json", "embed.countermodel_from_json"])
    + _timed([f"ordinal.{f}" for f in ("compare", "add", "multiply", "ell_iter",
                                       "parse_ordinal", "ordinal_to_text")])
    + _timed([f"topology.{f}" for f in ("derived_set", "derived_iter",
                                        "complement_within", "intersect", "union",
                                        "sets_equal")])
    + ["topology.bands_out"]
    + _timed([f"logic.{f}" for f in ("parse_formula", "condense", "eval_topo",
                                     "check_axioms")])
    + _timed([f"cli.main.{c}" for c in ("ord", "band", "eval", "search", "embed",
                                        "verify")])
    + [f"cli.exit.{c}" for c in (0, 1, 2)]
    + ["trace.overhead_ratio"]
)
PER_LAYER_UNIT = {n: ("s" if n.endswith(".s") else
                      "ratio" if n == "trace.overhead_ratio" else "count")
                  for n in PER_LAYER}


# --- machine speed --------------------------------------------------------------------


def reference_work():
    """A fixed piece of pure-Python work, independent of the package."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class Calibration:
    """Times `reference_work` between items, at most every CALIBRATE_EVERY_S.

    The speed of a shared machine drifts by up to 2x within minutes, and the
    package's pure-Python code drifts with it.  End-to-end times are reported
    at reference speed: raw time * REF_NOMINAL_S / (median reference time of
    the run).  The table prints the raw values beside them.
    """

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self):
        t0 = time.perf_counter()
        reference_work()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self):
        """Factor from raw times to times at reference speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)


# --- tracing ---------------------------------------------------------------------------


def direct(name, fn, *args, **kw):
    return fn(*args, **kw)


class Tracer:
    """Spans (name, start, end, parent, item id) kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.item])

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kw):
        self.open(name)
        try:
            return fn(*args, **kw)
        finally:
            self.close()

    def self_times(self):
        """name -> (self seconds, span count); self time excludes children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = {}
        for (name, *_), t in zip(self.spans, own):
            s, n = out.get(name, (0.0, 0))
            out[name] = (s + t, n + 1)
        return out


# --- set-up and the closed loop -------------------------------------------------------


def round_rng(seed, r):
    return random.Random(f"ordtopo-bench:{seed}:{r}")


def setup(name, seed, small, workdir):
    """Import the package afresh and make the first round of inputs."""
    for mod in list(sys.modules):
        if mod == "ordtopo" or mod.startswith("ordtopo.") or mod == "helpers":
            del sys.modules[mod]
    o = workloads.load_program()
    src = Path(o.ordinal.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise ImportError(f"ordtopo imported from {src}, not from {ROOT / 'src'}")
    cls = workloads.WORKLOADS[name]
    wl = cls(o, workdir) if name == "cli" else cls(o)
    return wl, wl.make_round(round_rng(seed, 0), small)


class Loop:
    """Runs rounds of items for one workload and keeps what they produced."""

    def __init__(self, wl, calib):
        self.wl = wl
        self.calib = calib
        self.times = []
        self.tally = {}
        self.failures = []
        self.kinds = {}

    def run_round(self, items, call, tracer=None):
        wl = self.wl
        for it in items:
            self.calib.maybe_sample()
            if tracer:
                tracer.item = it.id
                tracer.open("item." + it.kind)
            t0 = time.perf_counter()
            try:
                out, err = wl.run(it, call), None
            except Exception as exc:  # a failed operation is a result, not a crash
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close()
                tracer.open("check." + it.kind)
            if err is not None:
                outcome = workloads.RAISED
            else:
                outcome = workloads.OK if wl.check(it, out, call, self.tally) \
                    else workloads.WRONG
            if tracer:
                tracer.close()
            self.times.append(dt)
            self.kinds[it.kind] = self.kinds.get(it.kind, 0) + 1
            if outcome != workloads.OK:
                detail = "" if err is None else f"{type(err).__name__}: {err}"
                self.failures.append((it.id, it.kind, outcome, detail[:160]))


def tail(times, per_round):
    """The highest ladder percentile with at least ten items of one round
    beyond it, so that the percentile does not change with the number of
    rounds a run completes; returns (percentile, value, items beyond)."""
    for p in TAIL_LADDER:
        if per_round * (100.0 - p) / 100.0 >= 10:
            break
    else:
        p = 50.0
    n = len(times)
    rank = max(1, -(-int(p * n) // 100))
    return p, sorted(times)[rank - 1], n - rank


def measure(args, wl, items, calib):
    """Untraced rounds until --seconds is spent (at least one round)."""
    loop = Loop(wl, calib)
    walls = []
    start = time.perf_counter()
    r = 0
    while True:
        w0 = time.perf_counter()
        loop.run_round(items, direct)
        walls.append(time.perf_counter() - w0)
        r += 1
        if time.perf_counter() - start + statistics.mean(walls) > args.seconds:
            break
        items = wl.make_round(round_rng(args.seed, r), args.small)
    return loop, r


def measure_traced(args, wl, items, calib):
    """Pairs of one untraced and one traced round over the same inputs, the
    order alternating, until --seconds is spent (at least one pair)."""
    plain, traced = Loop(wl, calib), Loop(wl, calib)
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    r = 0
    while True:
        for on in ((False, True) if r % 2 == 0 else (True, False)):
            w0 = time.perf_counter()
            if on:
                traced.run_round(items, tracer.call, tracer)
            else:
                plain.run_round(items, direct)
            walls[on] += time.perf_counter() - w0
        r += 1
        if time.perf_counter() - start + (walls[False] + walls[True]) / r > args.seconds:
            break
        items = wl.make_round(round_rng(args.seed, r), args.small)
    return traced, tracer, r, walls[True] / walls[False]


# --- reporting ------------------------------------------------------------------------


def end_to_end(setup_s, loop, rounds):
    times, tally = loop.times, loop.tally
    checks = sum(tally.get(f"embed.checks.{m}", 0) for m in MODES)
    skipped = tally.get("embed.checks.SKIPPED", 0)
    p, tail_s, beyond = tail(times, len(times) // rounds)
    raw = {
        "setup_s": setup_s,
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1000 * statistics.median(times),
        "item_tail_ms": 1000 * tail_s,
    }
    k = loop.calib.scale()
    values = {name: v / k if name == "items_per_s" else v * k for name, v in raw.items()}
    values.update({
        "ok_ratio": 1 - len(loop.failures) / len(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_made_ratio": 1 - skipped / checks if checks else 1.0,
    })
    notes = {name: f"raw {v:.6g}" for name, v in raw.items()}
    notes["setup_s"] += f"; median of {SETUP_REPEATS} set-ups (imports + inputs)"
    notes["item_tail_ms"] += f"; p{p:g}, {beyond} of {len(times)} items beyond it"
    notes.update({
        "ok_ratio": f"fail_ratio = {len(loop.failures) / len(times):.4f} "
                    f"({len(loop.failures)} of {len(times)} items)",
        "checks_made_ratio": (f"checks_skipped_ratio = {skipped / checks:.4f} "
                              f"({skipped} of {checks} verify checks)" if checks
                              else "checks_skipped_ratio: n/a, no verify checks"),
    })
    return values, notes


def per_layer(tracer, loop, rounds, overhead):
    """Per traced round: self time and calls of each span, and the counts."""
    own = tracer.self_times()
    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = overhead
        elif name.endswith(".s"):
            values[name] = own.get(name[:-2], (0.0, 0))[0] / rounds
        elif name.endswith(".calls"):
            values[name] = own.get(name[:-6], (0.0, 0))[1] / rounds
        else:
            values[name] = loop.tally.get(name, 0) / rounds
    return values


def write_spans(args, tracer, env):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"env": env, "fields": ["name", "start", "end", "parent", "item"],
                   "spans": tracer.spans}, fh)
    return path


def print_table(env, values, units, notes, loop):
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    kinds = ", ".join(f"{k} {n}" for k, n in sorted(loop.kinds.items()))
    print(f"items by kind: {kinds}")
    for name, value in values.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value:14.6g} {units[name]:6s} {note}")
    for item_id, kind, outcome, detail in loop.failures[:20]:
        print(f"  FAILED {item_id} {kind}: {outcome} {detail}")


def run(args):
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calib = Calibration()
        setups = []
        for _ in range(SETUP_REPEATS):
            calib.sample()
            t0 = time.perf_counter()
            wl, items = setup(args.workload, args.seed, args.small, str(workdir))
            setups.append(time.perf_counter() - t0)
        env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "python": platform.python_version(),
               "nproc": os.cpu_count(), "loop": "closed, 1 caller, no threads"}
        if args.trace:
            loop, tracer, rounds, overhead = measure_traced(args, wl, items, calib)
            values = per_layer(tracer, loop, rounds, overhead)
            units = PER_LAYER_UNIT
            env.update(rounds=rounds, items=len(loop.times))
            notes = {"trace.overhead_ratio": "traced wall / untraced wall"}
            env["spans"] = str(write_spans(args, tracer, env).relative_to(ROOT))
        else:
            loop, rounds = measure(args, wl, items, calib)
            values, notes = end_to_end(statistics.median(setups), loop, rounds)
            units = END_TO_END
            env.update(rounds=rounds, items=len(loop.times))
        env["reference_ms"] = round(1000 * statistics.median(calib.samples), 4)
        print_table(env, values, units, notes, loop)
        wrong = sum(1 for f in loop.failures if f[2] == "wrong")
        return {"correct": wrong == 0, "attempted": len(loop.times),
                "failed": len(loop.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()


def run_all(args):
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("search", "countermodel", "algebra", "cli"):
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["search", "countermodel", "algebra", "cli", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="smaller rounds, for the benchmark's own tests")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import helpers  # noqa: F401  (the oracles; also pulls in hypothesis)
        import ordtopo  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
