"""Rewrite the expected outputs in `expected/` from the current ramval sources.

    python3 perfbench/capture.py

Use only on a commit whose outputs are known to be right: the benchmark
compares every later run against these copies.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    os.environ.pop("RAMVAL_JOBS", None)
    sys.path.insert(0, str(run.SRC))
    import ramval.cli

    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, lines in workloads.WORKLOADS.items():
        entries = []
        for line, argv in zip(lines, workloads.commands(name, seed=0)):
            rc, out, *_ = run.run_command(ramval.cli, argv)
            report = json.loads(out)
            if rc != 0 or report["ok"] is not True:
                print(f"{line}: exit {rc}, ok = {report['ok']}", file=sys.stderr)
                return 1
            entries.append({"command": line, "sections": report["sections"]})
        with open(workloads.expected_path(name), "w") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
