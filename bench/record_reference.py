"""Record the exact workload's reference values into reference.json.

    python3 bench/record_reference.py

Runs one pass of the ``exact`` workload at each size and stores, per
operation, the numbers its check compares (fitted constants, sup_err_scaled,
Kolmogorov distances).  Re-record only when a change is meant to alter them,
and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from walklab import limits  # noqa: E402
from workloads import REFERENCE_PATH, Exact  # noqa: E402

RECORDED = (limits.LimitParams, limits.LltReport, limits.CltReport)


def main() -> int:
    reference = {}
    for size in Exact.sizes:
        workload = Exact(seed=0, size=size)
        workload.setup()
        values = {}
        for op in workload.ops():
            result = op.run()
            if isinstance(result, RECORDED):
                values[op.label] = Exact.reference_values(result)
        reference[size] = values
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
