"""rarefan benchmark: time to a study verdict, with a correctness gate.

    python3 perfbench/run.py --workload slab2d-decay --seed 3 --seconds 12 --trace 0

Run from the repository root. Workloads (see ``operation.WORKLOADS``):

  slab2d-decay      non-zero-mode decay on the 256x32 slab, horizon 0.05
  line1d-sweep      the shipped eps-sweep config: four 1-D solver runs
  nosolver-studies  cutoff-study, profile-study and gn-check; no solver

Each operation runs in a fresh process (``operation.py``) with BLAS pinned
to one thread, one after another, a closed loop of one client. A new
operation starts while less than ``--seconds`` have elapsed, so at least one
always runs. ``setup_s`` is the median of
``SETUP_PROBES`` fresh processes that only import rarefan and parse the
workload's INI files. ``--seed n`` selects ``experiment.seed = n mod
seed_pool``, the seeds whose reference outputs the gate holds.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` traced and untraced operations alternate (at least one each)
and it carries the per-layer metrics of the traced ones. Lines before it
give provenance, every operation, and quartiles. A full record is written to
``.bench_out/results/``. Exit code 2 when the source tree or a workload INI
is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import operation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0   # every child is stopped before the run exceeds this
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in BLAS_ENV})
    # fixed str hashing, so that allocation patterns repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    # git (reached through the reports' commit header) stays inside the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def run_child(args: list[str], env: dict, timeout: float) -> tuple[dict | None, str]:
    """Run operation.py; (its JSON result or None, error text)."""
    cmd = [sys.executable, str(HERE / "operation.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(lines[-1]), ""


def provenance(versions: dict) -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = out.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)), "caches": caches,
            **versions, "blas_threads": {var: "1" for var in BLAS_ENV},
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_py_lines": lines}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(operation.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    needed = [ROOT / "src" / "rarefan" / "__init__.py"] + [
        ROOT / path for _, path in operation.WORKLOADS[args.workload]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2

    ref = gate.load_reference()
    exp_seed = args.seed % ref["seed_pool"]
    env = child_env()
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    setups = []
    for _ in range(SETUP_PROBES):
        res, err = run_child(["--workload", args.workload, "--setup-only"], env, remaining())
        if res is None:
            print(f"benchmark: set-up probe failed: {err}", file=sys.stderr)
            return 1
        setups.append(res)
    prov = provenance(setups[0]["versions"])
    print(f"workload {args.workload} seed {args.seed} (experiment.seed {exp_seed}) "
          f"trace {args.trace} seconds {args.seconds:g}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    ops = []   # dicts: traced, result (None when the child failed), error
    loop_start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 0
        child_args = ["--workload", args.workload, "--experiment-seed", str(exp_seed),
                      "--out", str(out_dir)] + (["--trace"] if traced else [])
        tic = time.perf_counter()
        res, err = run_child(child_args, env, remaining())
        longest = max(longest, time.perf_counter() - tic)
        ops.append({"traced": traced, "result": res, "error": err})
        status = "crashed: " + err if res is None else (
            "passed" if res["passed"] else "FAILED: " + "; ".join(res["problems"]))
        wall = f"{res['wall_s']:.3f} s" if res else "-"
        print(f"op {len(ops)} {'traced' if traced else 'untraced'}: wall {wall}, {status}",
              flush=True)
        elapsed = time.perf_counter() - loop_start
        want_pair = bool(args.trace) and len(ops) < 2
        if longest > remaining():
            break
        if not want_pair and elapsed >= args.seconds:
            break

    attempted = len(ops)
    failed = sum(1 for op in ops if op["result"] is None or not op["result"]["passed"])
    done = [op for op in ops if op["result"] is not None]
    plain = [op["result"] for op in done if not op["traced"]]
    traced_res = [op["result"] for op in done if op["traced"]]
    setup_vals = [s["import_s"] + s["parse_s"] for s in setups]

    def med(values):
        return statistics.median(values) if values else 0.0

    if args.trace:
        names = sorted({k for r in traced_res for k in r["metrics"]})
        per_layer = {k: med([r["metrics"][k] for r in traced_res]) for k in names}
        per_layer["process.import_s"] = med([s["import_s"] for s in setups])
        per_layer["config.parse_config.s"] = med([s["parse_s"] for s in setups])
        per_layer["process.cpu_s"] = med([r["cpu_s"] for r in plain])
        traced_wall = med([r["wall_s"] for r in traced_res])
        plain_wall = med([r["wall_s"] for r in plain])
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.untraced_wall_s"] = plain_wall
        per_layer["trace.overhead_s"] = traced_wall - plain_wall if plain else 0.0
        metrics = per_layer
    else:
        metrics = {
            "wall_s": med([r["wall_s"] for r in plain]),
            "setup_s": med(setup_vals),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in plain]),
            "pass_ratio": (attempted - failed) / attempted,
        }
        for name, vals in (("wall_s", [r["wall_s"] for r in plain]),
                           ("setup_s", setup_vals)):
            if vals:
                q1, q2, q3 = quartiles(vals)
                print(f"{name}: median {q2:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, n={len(vals)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name in units:
        print(f"metric {name} = {metrics.get(name, 0.0):.6g} {units[name]}")

    record = {"workload": args.workload, "seed": args.seed, "experiment_seed": exp_seed,
              "trace": args.trace, "seconds": args.seconds, "provenance": prov,
              "setups": setups, "ops": ops, "metrics": metrics}
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
