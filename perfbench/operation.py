"""One benchmark operation, run in a fresh process by ``run.py``.

An operation is the study-driver calls of one workload, each from a parsed
config through ``StudyReport.emit``, ending in a verdict. The process times
its own set-up (``import rarefan`` plus ``parse_config``), the operation, and
reports one JSON object on its last stdout line.

    python3 perfbench/operation.py --workload slab2d-decay --experiment-seed 5 \
        --out .bench_out/x [--trace]
    python3 perfbench/operation.py --workload slab2d-decay --setup-only
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time

# workload -> [(driver kind, INI path relative to the checkout root)]
WORKLOADS = {
    "slab2d-decay": [("decay", "perfbench/configs/slab2d_decay.ini")],
    "line1d-sweep": [("eps-sweep", "configs/eps_sweep.ini")],
    "nosolver-studies": [("cutoff-study", "configs/cutoff_study.ini"),
                         ("profile-study", "configs/profile_study.ini"),
                         ("gn-check", "configs/gn_check.ini")],
}


def setup(workload: str) -> tuple[list, float, float]:
    """(parsed configs, import seconds, parse seconds) in this process."""
    t0 = time.perf_counter()
    import rarefan  # noqa: F401
    from rarefan.config import parse_config
    import rarefan.experiments  # noqa: F401
    t1 = time.perf_counter()
    cfgs = [parse_config(path) for _, path in WORKLOADS[workload]]
    return cfgs, t1 - t0, time.perf_counter() - t1


def run_operation(workload: str, cfgs: list, seed: int, out_dir: str, tracer=None):
    """Run every driver of the workload; returns (reports, wall seconds)."""
    from rarefan.experiments import DRIVERS

    kinds = [kind for kind, _ in WORKLOADS[workload]]
    cfgs = [dataclasses.replace(c, out_dir=out_dir,
                                experiment=dataclasses.replace(c.experiment, seed=seed))
            for c in cfgs]
    reports = []
    t0 = time.perf_counter()
    for kind, cfg in zip(kinds, cfgs):
        if tracer is None:
            report = DRIVERS[kind](cfg)
        else:
            report = tracer.call("experiments.driver", DRIVERS[kind], cfg)
        report.emit(cfg.out_dir)
        reports.append(report)
    return reports, time.perf_counter() - t0


def versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--experiment-seed", type=int, default=0)
    ap.add_argument("--out", default=".bench_out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cfgs, import_s, parse_s = setup(args.workload)
    result = {"import_s": import_s, "parse_s": parse_s}
    if args.setup_only:
        result["versions"] = versions()
        print(json.dumps(result))
        return 0

    import gate
    from spans import Tracer

    ref = gate.load_reference()
    by_seed = ref["workloads"][args.workload]
    expected = by_seed.get(str(args.experiment_seed), by_seed.get("*"))
    if expected is None:
        raise SystemExit(f"no reference for {args.workload} "
                         f"at experiment seed {args.experiment_seed}")

    tracer = Tracer() if args.trace else None
    cpu0 = time.process_time()
    if tracer is None:
        reports, wall_s = run_operation(args.workload, cfgs, args.experiment_seed, args.out)
    else:
        with tracer:
            reports, wall_s = run_operation(args.workload, cfgs, args.experiment_seed,
                                            args.out, tracer)
    cpu_s = time.process_time() - cpu0
    found = gate.problems(reports, expected, ref["rel_tol"])
    result.update({
        "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "passed": not found, "problems": found,
        "outputs": gate.outputs(reports),
    })
    if tracer is not None:
        result["metrics"] = tracer.metrics(wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
