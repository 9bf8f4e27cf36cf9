"""Record the golden sha256 of every workload variant's output.

Run from the repository root, on the code whose output the benchmark
should pin:

    python3 perfbench/record_golden.py

Rewrites ``perfbench/golden.json`` and prints, per variant, any workload
check the output fails; those failures are recorded, not hidden, and the
benchmark keeps reporting them.  ``known_defects.json`` is not rewritten:
its allowance holds only for the seed code's outputs, so a re-recorded
output that differs from them is held to every check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from run import GOLDEN, OUT_DIR, import_oppsim, invoke, prepare_argv
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    root = Path.cwd()
    oppsim, _ = import_oppsim(root)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    golden: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        golden[workload.name] = {}
        for variant in range(VARIANTS):
            code, seconds, output, stderr = invoke(oppsim.cli, prepare_argv(workload, variant, out))
            if code != 0:
                print(f"{workload.name} variant {variant}: exit code {code}: {stderr.strip()}")
                return 1
            digest = hashlib.sha256(output.encode()).hexdigest()
            golden[workload.name][str(variant)] = digest
            problems = workload.check(output)
            print(f"{workload.name} variant {variant}: {digest[:16]} {seconds:.2f}s"
                  + "".join(f"\n  check fails: {p}" for p in problems), flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
