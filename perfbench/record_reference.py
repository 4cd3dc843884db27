"""Record the gate's reference outputs from the current source tree.

Run from the repository root on an unmodified solver:

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]
    PYTHONPATH=src python3 perfbench/record_reference.py --held-out workload seed ...

Seed-dependent workloads get one entry per experiment seed in the pool; the
1-D sweep has no perturbation (eta = 0), so the seed does not enter it and
one entry, keyed "*", serves every seed.

``--held-out`` writes nothing: it runs the workload at seeds outside the pool
and applies the part of the gate that needs no reference (the studies' own
checks and the planar control), to show the workload does not pass only at
the recorded seeds.
"""

from __future__ import annotations

import json
import sys

import gate
import operation

SEED_POOL = 16
# Halving the viscous dt moves no output by more than 0.32%; dropping the
# heat flux or halving the Rusanov dissipation moves some output of each
# solver workload by 0.9% to 40%.
REL_TOL = 0.01
SEED_FREE = {"line1d-sweep"}


def held_out(workload: str, seeds: list[int]) -> int:
    cfgs, _, _ = operation.setup(workload)
    failed = 0
    for seed in seeds:
        if seed < SEED_POOL:
            raise SystemExit(f"seed {seed} is in the pool 0..{SEED_POOL - 1}")
        reports, wall = operation.run_operation(workload, cfgs, seed, ".bench_out/held-out")
        found = gate.problems(reports, None, REL_TOL)
        failed += bool(found)
        print(f"{workload} held-out seed {seed}: {wall:.2f} s "
              f"{'FAILED ' + '; '.join(found) if found else 'passed'} "
              f"{gate.outputs(reports)}", flush=True)
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--held-out"]:
        return held_out(argv[1], [int(s) for s in argv[2:]])
    try:
        ref = gate.load_reference()
    except FileNotFoundError:
        ref = {"workloads": {}}
    ref.update(rel_tol=REL_TOL, seed_pool=SEED_POOL)
    for workload in argv or sorted(operation.WORKLOADS):
        cfgs, _, _ = operation.setup(workload)
        seeds = ["*"] if workload in SEED_FREE else [str(s) for s in range(SEED_POOL)]
        entry = {}
        for seed in seeds:
            reports, wall = operation.run_operation(
                workload, cfgs, 0 if seed == "*" else int(seed), ".bench_out/record")
            found = gate.problems(reports, None, REL_TOL)
            if found:
                raise SystemExit(f"{workload} seed {seed}: {'; '.join(found)}")
            got = gate.outputs(reports)
            got.pop("planar_control_max", None)
            entry[seed] = got
            print(f"{workload} seed {seed}: {wall:.2f} s {got}", flush=True)
        ref["workloads"][workload] = entry
        with open(gate.REFERENCE_PATH, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
