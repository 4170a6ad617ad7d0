"""Per-layer tracing of ramval from outside the package.

`Tracer.install()` replaces each function named in `LAYERS` with a wrapper
that counts calls and measures self time: the time spent in the function
minus the time spent in other wrapped functions it called.  Module-level
functions are replaced in every ramval module that binds them by name
(`towers` imports `value_of` from `genseq`, for example), methods on their
class.  The package source is not touched.

A name that no longer exists is reported in `Tracer.missing` and its metrics
are left out, never reported as 0.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# module (relative to `ramval`) -> traced functions and methods.  Only these
# are wrapped: every extra wrapper would move time out of its caller's self
# time and add overhead.
LAYERS: dict[str, list[str]] = {
    "cli": ["main", "cmd_report", "cmd_tower"],
    "towers": [
        "build_tower",
        "Tower.certificates",
        "verify_restriction",
        "verify_parameter_links",
        "verify_deviation_identity",
        "verify_value_comparison",
    ],
    "transforms": [
        "composite_transform",
        "ChartChain.extend",
        "ChartChain.push_exact",
        "validate_chart_seq",
        "run_tower_ladder",
    ],
    "genseq": [
        "expand",
        "StandardExpansion.minimal_term",
        "value_of",
        "GenSeq.indices",
        "validate",
        "build_tower_seq",
    ],
    "algebra.local": ["LocalElem.compose", "LocalElem.__pow__"],
    "algebra.poly": [
        "Poly2.__mul__",
        "Poly2.divrem_y",
        "Poly2.compose",
        "Poly2.__pow__",
        "Poly2.__add__",
        "Poly2.deg_y",
    ],
    "algebra.field": ["Fq.mul", "Fq.add", "Fq.inv"],
    "values": ["group_join", "order_in_quotient"],
}

# Reported statistics per traced function: calls, self_s (self time per
# pass), total_s (inclusive time per pass), or a derived ratio.
METRICS: list[tuple[str, str]] = [
    ("cli.main", "calls"),
    ("cli.main", "self_s"),
    ("cli.cmd_report", "self_s"),
    ("cli.cmd_tower", "self_s"),
    ("towers.build_tower", "calls"),
    ("towers.build_tower", "self_s"),
    ("towers.build_tower", "per_cmd"),
    ("towers.Tower.certificates", "calls"),
    ("towers.Tower.certificates", "self_s"),
    ("towers.Tower.certificates", "total_s"),
    ("towers.verify_restriction", "self_s"),
    ("towers.verify_parameter_links", "self_s"),
    ("towers.verify_deviation_identity", "self_s"),
    ("towers.verify_value_comparison", "self_s"),
    ("transforms.composite_transform", "calls"),
    ("transforms.composite_transform", "self_s"),
    ("transforms.composite_transform", "total_s"),
    ("transforms.composite_transform", "ok_ratio"),
    ("transforms.ChartChain.extend", "calls"),
    ("transforms.ChartChain.extend", "self_s"),
    ("transforms.ChartChain.push_exact", "calls"),
    ("transforms.ChartChain.push_exact", "self_s"),
    ("transforms.validate_chart_seq", "self_s"),
    ("transforms.run_tower_ladder", "self_s"),
    ("genseq.expand", "calls"),
    ("genseq.expand", "self_s"),
    ("genseq.expand", "total_s"),
    ("genseq.StandardExpansion.minimal_term", "calls"),
    ("genseq.StandardExpansion.minimal_term", "self_s"),
    ("genseq.value_of", "calls"),
    ("genseq.value_of", "total_s"),
    ("genseq.GenSeq.indices", "calls"),
    ("genseq.GenSeq.indices", "self_s"),
    ("genseq.GenSeq.indices", "per_expand"),
    ("genseq.validate", "calls"),
    ("genseq.build_tower_seq", "self_s"),
    ("algebra.local.LocalElem.compose", "calls"),
    ("algebra.local.LocalElem.compose", "self_s"),
    ("algebra.local.LocalElem.__pow__", "self_s"),
    ("algebra.poly.Poly2.__mul__", "calls"),
    ("algebra.poly.Poly2.__mul__", "self_s"),
    ("algebra.poly.Poly2.__mul__", "term_pairs"),
    ("algebra.poly.Poly2.divrem_y", "calls"),
    ("algebra.poly.Poly2.divrem_y", "self_s"),
    ("algebra.poly.Poly2.compose", "calls"),
    ("algebra.poly.Poly2.compose", "self_s"),
    ("algebra.poly.Poly2.__pow__", "calls"),
    ("algebra.poly.Poly2.__pow__", "self_s"),
    ("algebra.poly.Poly2.__add__", "calls"),
    ("algebra.poly.Poly2.__add__", "self_s"),
    ("algebra.poly.Poly2.deg_y", "calls"),
    ("algebra.field.Fq.mul", "calls"),
    ("algebra.field.Fq.mul", "self_s"),
    ("algebra.field.Fq.add", "calls"),
    ("algebra.field.Fq.add", "self_s"),
    ("algebra.field.Fq.inv", "calls"),
    ("values.group_join", "calls"),
    ("values.order_in_quotient", "calls"),
]

# Traced functions that run on only some workloads.  Every other one must
# record calls on every workload; a zero means a binding was missed, and the
# run fails its self-check.
ONLY_ON: dict[str, tuple[str, ...]] = {
    "cli.cmd_report": ("report-sampled",),
    "cli.cmd_tower": ("tower-deep", "tower-fq"),
    "towers.verify_restriction": ("report-sampled",),
    "towers.verify_parameter_links": ("report-sampled",),
    "towers.verify_deviation_identity": ("report-sampled",),
    "towers.verify_value_comparison": ("report-sampled",),
    "transforms.ChartChain.push_exact": ("report-sampled",),
    "algebra.poly.Poly2.compose": ("report-sampled",),
}


def unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("calls", "term_pairs"):
        return "count"
    if stat.endswith("_s"):
        return "s"
    return "ratio"


@dataclass
class Stat:
    calls: int = 0
    raised: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    term_pairs: int = 0


class Tracer:
    """Wraps the functions in `LAYERS`; `stats` maps `<module>.<qualname>`
    to its `Stat`."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[float] = []  # child time of each open wrapped call

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ramval" or name.startswith("ramval.")}
        for modname, qualnames in LAYERS.items():
            mod = mods.get(f"ramval.{modname}")
            for qual in qualnames:
                key = f"{modname}.{qual}"
                owner, attr = _resolve(mod, qual)
                if owner is None:
                    self.missing.append(key)
                    continue
                orig = owner.__dict__[attr]
                wrapper = self._wrap(orig, key, attr == "__mul__")
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    # every module that imported the function by name
                    for m in mods.values():
                        for name, val in list(vars(m).items()):
                            if val is orig:
                                self._patch(m, name, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, fn, key: str, count_pairs: bool):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if count_pairs:  # Poly2.__mul__: |a| * |b| term products
                stat.term_pairs += len(args[0].terms) * len(args[1].terms)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = clock() - t0
                stat.self_s += dt - stack.pop()
                stat.total_s += dt
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def counts(self) -> dict[str, tuple[int, int, int]]:
        """Exact counters, for checking that passes repeat."""
        return {k: (s.calls, s.raised, s.term_pairs) for k, s in self.stats.items()}

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of every metric in `METRICS` whose function exists.
        Ratios divide by counts that the self-check has found non-zero."""
        st = self.stats
        out: dict[str, float] = {}
        for fn, stat in METRICS:
            if fn not in st:
                continue
            s = st[fn]
            if stat in ("calls", "term_pairs"):
                out[f"{fn}.{stat}"] = getattr(s, stat) // passes
            elif stat in ("self_s", "total_s"):
                out[f"{fn}.{stat}"] = getattr(s, stat) / passes
            elif stat == "ok_ratio":
                out[f"{fn}.{stat}"] = (s.calls - s.raised) / s.calls
            elif stat == "per_cmd" and "cli.main" in st:
                out[f"{fn}.{stat}"] = s.calls / st["cli.main"].calls
            elif stat == "per_expand" and "genseq.expand" in st:
                out[f"{fn}.{stat}"] = s.calls / st["genseq.expand"].calls
        return out

    def self_check(self, workload: str) -> list[str]:
        """Traced functions that should have run on this workload but did not."""
        return [fn for fn, s in self.stats.items()
                if s.calls == 0 and workload in ONLY_ON.get(fn, (workload,))]


def _resolve(mod, qual: str):
    """(owner, attribute) of a dotted name in a module, or (None, None)."""
    if mod is None:
        return None, None
    *path, attr = qual.split(".")
    owner = mod
    for part in path:
        owner = vars(owner).get(part)
        if not isinstance(owner, type):
            return None, None
    if attr not in vars(owner):
        return None, None
    return owner, attr
