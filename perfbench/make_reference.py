"""Write certify_reference.json: the defects of the random certification rules.

    python3 perfbench/make_reference.py

The certify workload checks that verify_exactness reproduces, to a relative
1e-9, the defect of each random rule as measured here.  Run this only at a
commit whose certifier is trusted; the committed file records that commit.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    fv, _ = run.import_favest()
    defects = {}
    for sizes in (workloads.TINY, workloads.FULL):
        t = sizes.certify_t
        n = len(fv.gen_gl_tensor(t)[1])
        defects[f"t={t},n={n}"] = {
            str(k): fv.verify_exactness(workloads.random_certify_rule(fv, k, n, t), t)[0]
            for k in range(workloads.RANDOM_RULES)
        }
    record = {"commit": run.environment(0)["git_commit"], "defects": defects}
    workloads.REFERENCE_FILE.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
