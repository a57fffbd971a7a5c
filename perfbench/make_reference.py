"""Write the reference digests of the construct workload's D-matrices.

    PYTHONPATH=src python3 perfbench/make_reference.py > perfbench/reference.json

Each digest is the SHA-256 of `json.dumps(dmatrix(...).to_json())`, the
text `slh2 dmatrix --format json` prints.  Regenerate only when the
output format is meant to change; the gate compares every run against it.
"""

import json

from slh2 import dfun

import gate
import workloads


def main():
    ref = {
        workloads.dmatrix_key(*cfg): gate.digest(json.dumps(dfun.dmatrix(*cfg).to_json()))
        for cfg in workloads.dmatrix_configs()
    }
    print(json.dumps(ref, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
