"""Write the reference outputs the benchmark checks against.

    python3 bench/make_refs.py [workload ...]

Runs the analytic calls of load_sweep and meta_sweep, and the analytic
counterparts of the mc_validate calls, and stores their outputs in
bench/refs/<workload>.json.  The stored files were written from the
package as first benchmarked; regenerate them only when a change to the
numerics is the point of a change, and say so with the size of the
difference.  A call that raises gets no reference (its check then
reports the missing reference, except where the workload supplies a
reference-free check).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def references(name):
    if name == "mc_validate":
        return {k: workloads.encode(v)
                for k, v in workloads.mc_references().items()}
    refs = {}
    for call in workloads.build(name, seed=0, pass_index=0):
        try:
            refs[call.label] = workloads.encode(call.fn())
        except Exception as exc:  # recorded as "no reference"
            print(f"{name}: {call.label}: {type(exc).__name__}: {exc}")
    return refs


def main(names):
    workloads.REFS.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        path = workloads.REFS / f"{name}.json"
        path.write_text(json.dumps(references(name), indent=0) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
