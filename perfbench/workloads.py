"""Workload definitions and the output check of the ramval benchmark.

Every workload is a fixed list of `ramval` CLI commands, run closed loop by a
single client in one process.  Each command gets the workload seed as
`--seed` and `--format json`; nothing else varies between runs.  Commands
never pass `--jobs` or `--prec` (planned for removal) and use `tower --q`
rather than `report --q` (which `report` ignores today), so planned
refactors do not change what a workload computes.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

WORKLOADS: dict[str, list[str]] = {
    # The valuation hot path: many value_of calls on small polynomials
    # (restriction samples at p=2, divrem_y-heavy expansions at p=5).
    "report-sampled": [
        "report --p 2 --c 1 --levels 4 --samples 1000",
        "report --p 5 --c 4 --levels 3 --length 4",
    ],
    # Few value_of calls on huge keys plus composite-transform pushforwards,
    # over prime fields.
    "tower-deep": [
        "tower --p 2 --c 1 --levels 7 --length 8",
        "tower --p 3 --c 2 --levels 7 --length 8",
    ],
    # The polynomial work of tower-deep with F_4 / F_9 tuple coefficients, so
    # the field layer dominates self time.
    "tower-fq": [
        "tower --p 2 --c 1 --q 4 --levels 7 --length 8",
        "tower --p 3 --c 2 --q 9 --levels 5 --length 6",
    ],
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass over the workload."""
    return [cmd.split() + ["--seed", str(seed), "--format", "json"] for cmd in WORKLOADS[workload]]


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> list[list[dict]]:
    """Expected `sections` of each command, in command order."""
    with open(expected_path(workload)) as fh:
        entries = json.load(fh)
    if [e["command"] for e in entries] != WORKLOADS[workload]:
        raise ValueError(f"{expected_path(workload)} does not match the workload's commands")
    return [e["sections"] for e in entries]


def prepare(workload: str, seed: int) -> tuple[list[list[str]], list[list[dict]]]:
    """Inputs of a run: argv lists and the expected output of each."""
    return commands(workload, seed), load_expected(workload)


def check_output(rc: int, stdout: str, expected_sections: list[dict]) -> str | None:
    """None when a command's JSON output is right, else the reason it is not.

    The `config` block is not compared: it echoes the seed and options that
    planned refactors remove.  Every restriction row must report zero
    mismatches, whatever the seed.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as ex:
        return f"output is not JSON ({ex})"
    if out.get("ok") is not True:
        return "report says ok = false"
    sections = out.get("sections")
    for section in sections or []:
        for row in section["rows"]:
            if row.get("check") == "restriction" and row.get("mismatch_count") != 0:
                return f"restriction mismatch_count = {row.get('mismatch_count')}"
    if sections != expected_sections:
        return "sections differ from the expected copy"
    return None
