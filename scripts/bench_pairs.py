#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and summarise them.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload slab2d-decay \
        --pairs 10 --topic rhs_workspace [--seconds 12] [--out BENCH_DIR]

Pair i runs each tree's ``perfbench/run.py --workload W --seed i --seconds S
--trace 0`` once from that tree's root, the parent first on even pairs and
the change first on odd ones, so that drift of the machine's speed falls on
both sides. Each invocation also records the usage of its whole process
tree (run.py, its set-up probes and operations, and the operations' forked
workers), as ``os.wait4`` reports it: ``minor_faults`` and ``tree_cpu_s``
(user plus system seconds) are what the invocation adds to
``getrusage(RUSAGE_CHILDREN)``, and ``tree_max_rss_mb`` is the largest
resident set of any one process in the tree. ``peak_rss_mb`` sees only an
operation's own process, so these show what a wall-time gain costs in CPU
and in worker memory. An invocation runs operations until its seconds run
out, so a faster tree runs more of them and its totals grow; the
``tree_cpu_s_per_op`` and ``minor_faults_per_op`` entries divide the totals
by the invocation's ``operations``. The totals, and so these quotients,
still include run.py's set-up probes, which every invocation runs the same
number of.

Refuses two checkouts whose resolved paths differ in length. The heap
state of a run, and with it ``wall_s`` and the fault counts, depends on the
length of the checkout's path: at one commit, ``nosolver-studies`` read
about 40k faults and 0.122 s an operation from directory names of most
lengths and 12.7k faults and 0.107 s from 9-character ones. Of the two ways
ROADMAP item 4 names, fixing glibc's thresholds in the benchmark's child
environment or refusing such pairs here, this is the second, so
``BENCHMARK.json`` and ``perfbench/`` stay as they are: bench from
directories with names of equal length.

Refuses two checkouts of which only one holds bytecode (``*.pyc``) under
``src/rarefan/__pycache__``: with ``PYTHONDONTWRITEBYTECODE`` set, that side
alone skips compiling its sources, which shows as a shorter ``setup_s``. The
solver's kernel library, which a checkout's first solver run builds there,
is not bytecode and does not count.

Each side's ``commits`` entry is the sha of its checkout's HEAD, and its
``dirty`` entry says whether ``git status --porcelain -- src`` lists anything
there (null outside a git checkout): a change run from an uncommitted tree
carries its parent's sha and ``dirty: true``.

Adds the workload's entry to ``BENCH_<topic>.json`` (in --out, default the
current directory), so that one file holds several workloads: the machine,
each side's median and quartiles of every end-to-end metric and of the
faults, per pair the values and which side was better, and per metric the
number of pairs the change won (ties count for neither side). A metric with
a ``bound`` in ``BENCHMARK.json`` carries ``over_bound``: true when the
change's median is worse than the parent's by more than that fraction of
it, which the summary also prints as a warning line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def invoke(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py invocation: its end-to-end metrics, provenance and the usage
    of its process tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=err, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 reports the invocation's own tree, where RUSAGE_CHILDREN's
        # ru_maxrss would be the largest child of every invocation so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_lines = err.read().strip().splitlines()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}: "
                           f"{(err_lines or ['no output'])[-1]}")
    result = json.loads(lines[-1])
    provenance = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
                      if ln.startswith("provenance "))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["minor_faults"] = usage.ru_minflt
    metrics["tree_cpu_s"] = usage.ru_utime + usage.ru_stime
    metrics["tree_max_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    operations = sum(1 for ln in lines if ln.startswith("op "))
    metrics["tree_cpu_s_per_op"] = metrics["tree_cpu_s"] / operations
    metrics["minor_faults_per_op"] = usage.ru_minflt / operations
    return {"metrics": metrics, "correct": result["correct"], "operations": operations,
            "provenance": provenance}


def holds_bytecode(root: Path) -> bool:
    """Whether the checkout holds compiled Python under src/rarefan/__pycache__."""
    return any((root / "src" / "rarefan" / "__pycache__").glob("*.pyc"))


def src_dirty(root: Path) -> bool | None:
    """Whether the checkout at root has uncommitted changes under src/; None
    when root is not a git checkout."""
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                         capture_output=True, text=True, timeout=10, check=True)
    return bool(out.stdout.strip())


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def winner(pair: dict, name: str, direction: str) -> str:
    a, b = pair["parent"]["metrics"][name], pair["change"]["metrics"][name]
    if a == b:
        return "tie"
    return "change" if (b < a) == (direction == "lower") else "parent"


def summarise(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric: each side's quartiles, the change's wins and the median
    change, and for a metric in bounds whether that change is worse than its
    bound."""
    out = {}
    for name, direction in better.items():
        side = {s: quartiles([p[s]["metrics"][name] for p in pairs]) for s in SIDES}
        wins = sum(p["better"][name] == "change" for p in pairs)
        base = side["parent"]["median"]
        change = (side["change"]["median"] - base) / base if base else 0.0
        out[name] = {"better": direction, **side, "change_wins": wins, "pairs": len(pairs),
                     "median_change": change,
                     "parent_iqr": side["parent"]["q3"] - side["parent"]["q1"]}
        if name in bounds:
            worse = change if direction == "lower" else -change
            out[name]["over_bound"] = worse > bounds[name]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--topic", required=True, help="names the output BENCH_<topic>.json")
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lengths = {s: len(str(roots[s])) for s in SIDES}
    if lengths["parent"] != lengths["change"]:
        ap.error(f"the parent checkout's path has {lengths['parent']} characters and the "
                 f"change's {lengths['change']}; the heap state depends on it, so bench "
                 "from directories with names of equal length")
    cached = {s: holds_bytecode(roots[s]) for s in SIDES}
    if cached["parent"] != cached["change"]:
        ap.error(f"only the {'parent' if cached['parent'] else 'change'} checkout has "
                 "bytecode in src/rarefan/__pycache__; remove it or bench from fresh clones")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better.update(minor_faults="lower", tree_cpu_s="lower", tree_max_rss_mb="lower",
                  tree_cpu_s_per_op="lower", minor_faults_per_op="lower")

    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": i, "first": order[0]}
        for side in order:
            pair[side] = invoke(roots[side], args.workload, i, args.seconds)
        provenance = {s: pair[s].pop("provenance") for s in SIDES}
        pair["better"] = {name: winner(pair, name, d) for name, d in better.items()}
        pairs.append(pair)
        print(f"pair {i}: " + ", ".join(
            f"{s} wall {pair[s]['metrics']['wall_s']:.3f} s, "
            f"cpu {pair[s]['metrics']['tree_cpu_s']:.2f} s "
            f"({pair[s]['metrics']['tree_cpu_s_per_op']:.3f} s/op), "
            f"faults {pair[s]['metrics']['minor_faults']} "
            f"({pair[s]['metrics']['minor_faults_per_op']:.0f}/op)" for s in SIDES), flush=True)

    machine = {k: provenance["change"][k] for k in ("cpu_model", "nproc", "caches", "python",
                                                    "numpy", "scipy", "blas_threads")}
    machine["platform"] = platform.platform()
    record = {
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "command": "perfbench/run.py --workload W --seed <pair> --seconds S --trace 0",
        "machine": machine,
        "commits": {s: provenance[s]["commit"] for s in SIDES},
        "dirty": {s: src_dirty(roots[s]) for s in SIDES},
        "src_sha256": {s: provenance[s]["src_sha256"] for s in SIDES},
        "src_py_lines": {s: provenance[s]["src_py_lines"] for s in SIDES},
        "summary": summarise(pairs, better, bounds),
        "per_pair": pairs,
    }
    path = args.out / f"BENCH_{args.topic}.json"
    existing = json.loads(path.read_text()) if path.exists() else {}
    existing[args.workload] = record
    path.write_text(json.dumps(existing, indent=1) + "\n")
    for name, s in record["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.6g} (q1 {s['parent']['q1']:.6g}, "
              f"q3 {s['parent']['q3']:.6g}), change {s['change']['median']:.6g} "
              f"({s['median_change']:+.1%}), change better in {s['change_wins']}/{s['pairs']}")
        if s.get("over_bound"):
            print(f"WARNING: {name} moved {s['median_change']:+.1%}, worse than its bound "
                  f"{bounds[name]:.0%} in BENCHMARK.json")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
