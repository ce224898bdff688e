#!/usr/bin/env python3
"""Record perfbench/reference.json: for every unit of every workload at the
reference seed, its inputs, exit code, verdict values and data-file digest.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the benchmark
counts a unit as failed when its verdicts leave this reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import workloads
from run import OUT, REFERENCE, import_cli, invoke


def main() -> int:
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    units = {}
    for name in workloads.WORKLOADS:
        for unit in workloads.build(name, workloads.REFERENCE_SEED).cycle:
            key = f"{name}/{unit.name}"
            if key in units:
                continue
            out_root = Path(tempfile.mkdtemp(dir=OUT))
            try:
                _, code, error = invoke(cli, unit, out_root)
                if error is not None:
                    raise SystemExit(f"{key}: raised {error}")
                (run_dir,) = out_root.iterdir()
                units[key] = {
                    "argv": list(unit.argv),
                    "exit": code,
                    "values": check.verdict_values(run_dir),
                    "digest": check.data_digest(run_dir),
                }
            finally:
                shutil.rmtree(out_root)
            print(f"{key}: exit {code}")
    payload = {
        "seed": workloads.REFERENCE_SEED,
        "float_tolerance": {**check.FLOAT_TOL, "default": check.DEFAULT_TOL},
        "units": units,
    }
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
