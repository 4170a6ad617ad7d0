"""Command-line frontend: scenario execution and reproducible reports.

Exit codes: 0 = success / verified, 1 = verification failure (``Inconsistent``
and its subclasses, an invalid sequence among them, with the failing
witness), 2 = usage or domain error.  All numeric output is exact fractions.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import towers, transforms
from .algebra import Fq, ParseError, parse_poly
from .genseq import BadParams, Inconsistent, build_tower_seq, expand, semigroup, validate
from .reporting import Report, render_table, to_json
from .values import fmt_value, p_adic_split

class UsageError(ValueError):
    pass


def _at_least(parse, low, what: str):
    """argparse type of a numeric option: ``parse(text)``, at least
    ``low``, checked before anything is built."""

    def check(text: str):
        try:
            n = parse(text)
        except (ValueError, ZeroDivisionError):
            n = None
        if n is None or n < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return n

    return check


_count = _at_least(int, 1, "an integer >= 1")
_bound = _at_least(Fraction, 0, "a fraction >= 0")


def _check_levels(args, spare: int = 1) -> None:
    """``--levels k`` needs ``--length >= k + spare``: a usage error, checked
    before anything is built or printed.  A ladder to level k reads keys up
    to k + 1 (spare 1); a chart chain over --length L has L + 1 levels
    (spare -1)."""
    need = args.levels + spare
    if args.length < need:
        raise UsageError(f"--levels {args.levels} needs --length >= {need}, "
                         f"got --length {args.length}")


def _cost_warning(args) -> str:
    """The stderr line that warns of a slow tower, report or transform, or "".
    Each bound is the last input value whose measured runs took about a second
    or less (fresh processes); each line names the range measured past it."""
    if args.command == "transform" and args.length > 9:
        past = "past length 9, transforms took 0.1-16 s at lengths 10-11, more when longer"
    elif args.command == "tower" and args.length > 13:
        past = "past length 13, towers took 0.1-5.9 s at length 14 (p = 2-43), more when longer"
    elif args.command == "report" and (args.length > 13 or args.p > 13):
        past = ("past p = 13 or length 13, reports took 0.1-23 s up to p = 43 and length 14, "
                "more past them")
    else:
        return ""
    return f"warning: {args.command} with p = {args.p}, length {args.length} may be slow: {past}\n"


def _config(args, *options) -> dict:
    """The options a command parsed, in report-header order."""
    cfg = {name: getattr(args, name) for name in ("p", "c", "q") + options}
    cfg.update(fmt=args.format, seed=args.seed)
    return cfg


def _field_for(p: int, q: int | None) -> Fq:
    if q is None or q == p:
        return Fq(p)
    unit, m = p_adic_split(q, p) if q >= 1 else (q, 0)
    if unit != 1 or m < 1:
        raise UsageError(f"q = {q} is not a power of p = {p}")
    return Fq(p, m)


def _build_seq(args):
    if args.family != "U" and args.c is not None:
        raise UsageError(f"--c applies to family U only; family {args.family} takes no c")
    fld = _field_for(args.p, args.q)
    return build_tower_seq(args.family, args.p, args.c, args.length, fld)


def cmd_value(args) -> int:
    seq = _build_seq(args)
    f = parse_poly(args.poly, seq.field, seq.chart)
    exp = expand(f, seq)
    weight, exps = exp.minimal_term()
    print(f"value = {fmt_value(weight, seq.ensure_valid().denom)}")
    print(f"minimal standard term: {exp.term_str(exps)}")
    return 0


def cmd_semigroup(args) -> int:
    seq = _build_seq(args)
    denom = seq.ensure_valid().denom
    rows = [{"value": fmt_value(w, denom)} for w in semigroup(seq, args.bound)]
    print(render_table(rows, args.format, f"semigroup values <= {args.bound}"), end="")
    return 0


def cmd_validate(args) -> int:
    seq = _build_seq(args)
    report = validate(seq)
    print(render_table(report.rows, args.format, f"validity of {seq.label}"), end="")
    print(render_table(seq.describe(report), args.format, "keys"), end="")
    print("pass" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_transform(args) -> int:
    _check_levels(args, spare=-1)
    seq = _build_seq(args)
    sys.stderr.write(_cost_warning(args))
    chain = transforms.ChartChain(seq, exact=True)
    for k in range(1, args.levels + 1):
        lvl = chain.level(k)
        rows = []
        for i, value in enumerate(lvl.values):
            row = {
                "i": i,
                "value": fmt_value(value),
                "index": lvl.indices[i] if i else "",
                "degree": lvl.degrees[i] if i else "",
            }
            if lvl.keys is not None:
                row["key"] = lvl.key_str(i)
            rows.append(row)
        print(render_table(rows, args.format, f"level {k}"), end="")
        if lvl.map_from_prev is not None:
            print(f"  chart map: {lvl.map_from_prev.describe()}")
    print("pass")
    return 0


def cmd_monomialize(args) -> int:
    from . import monomial  # its only command: no other command pays for importing it

    try:
        a, b, c, d = (int(t) for t in args.matrix.split(","))
    except ValueError:
        raise UsageError("--matrix expects four comma-separated integers a,b,c,d")
    m = ((a, b), (c, d))
    e = monomial.det_index(m)  # raises Singular on det 0
    snf = monomial.smith_normal_form([[a, b], [c, d]])
    factors = [snf[i][i] for i in range(2)]
    idx = monomial.lattice_index_snf([[a, b], [c, d]])
    out = {
        "e": e,
        "snf_invariant_factors": factors,
        "snf_lattice_index": idx,
        "agree": idx == e,
    }
    if a > 0 and c > 0:
        red = monomial.euclidean_reduce((a, b), (c, d))
        out["reduction"] = {
            "s": red.s,
            "t1": red.t1,
            "t2": red.t2,
            "steps": red.steps,
            "determinant_identity": red.determinant_value == e,
        }
    pres = monomial.graded_presentation_rank2(m, f=1)
    out["presentation"] = pres.as_dict()
    print(to_json(out))
    all_ok = out["agree"] and out.get("reduction", {}).get("determinant_identity", True)
    return 0 if all_ok else 1


def _ladder_rows(ladder) -> list[dict]:
    return [r.as_dict() for r in ladder]


def cmd_tower(args) -> int:
    _check_levels(args)
    tower = towers.build_tower(args.p, args.c, args.length, _field_for(args.p, args.q))
    sys.stderr.write(_cost_warning(args))
    ladder = transforms.run_tower_ladder(tower, args.levels)
    check = towers.check_ladder_report(ladder)
    rep = Report(_config(args, "levels", "length"))
    rep.add("tower ladder (a, a_bar, alpha, b, d, beta, delta per extension)",
            _ladder_rows(ladder), True)
    rep.add("alternation / sums / defect multiplicativity",
            [check.row()], check.ok)
    print(rep.render(), end="")
    return 0 if check.ok else 1


# -- full verification report --------------------------------------------------


def _validity_rows(tower) -> list[dict]:
    """One passing row per tower sequence, each validated through its
    ``ensure_valid`` cache: InvalidSequence (exit 1) on the first that fails."""
    rows = []
    for name, seq in (("top", tower.seq_top), ("mid", tower.seq_mid), ("base", tower.seq_base)):
        seq.ensure_valid()
        rows.append({"sequence": f"{name} ({seq.label})", "ok": True})
    return rows


def cmd_report(args) -> int:
    """Build the tower once and run every check against it, in a fixed order."""
    _check_levels(args)
    tower = towers.build_tower(args.p, args.c, args.length, _field_for(args.p, args.q))
    sys.stderr.write(_cost_warning(args))
    jmax_dev = min(args.length - 1, 4 if args.p == 2 else 3)
    jmax_val = min(args.length - 2, 4)
    rep = Report(_config(args, "levels", "length", "samples"))
    rep.add("sequence validity", _validity_rows(tower))
    sections = {
        "deviation identities": [towers.verify_deviation_identity(tower, j)
                                 for j in range(1, jmax_dev + 1)],
        "value comparisons": [towers.verify_value_comparison(tower, j)
                              for j in range(1, jmax_val + 1)],
        "restriction": [towers.verify_restriction(tower, samples=args.samples, seed=args.seed)],
        "parameter links": [towers.verify_parameter_links(tower, j)
                            for j in range(1, args.levels)],
    }
    for title, reports in sections.items():
        if reports:  # a range is empty at a small --length or --levels
            rep.add(title, [r.row() for r in reports], all(r.ok for r in reports))
    ladder = transforms.run_tower_ladder(tower, args.levels)
    check = towers.check_ladder_report(ladder)
    rep.add("tower ladder", _ladder_rows(ladder) + [check.row()], check.ok)
    print(rep.render(), end="")
    return 0 if rep.ok else 1


def _add_common(sub, family=False, formats=("text", "tsv", "md")):
    sub.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    sub.add_argument("--c", type=int, default=None,
                     help="tower parameter c, a positive multiple of p-1 (default p-1)"
                     + ("; family U only" if family else ""))
    sub.add_argument("--q", type=int, default=None, help="field size (a power of p)")
    sub.add_argument("--length", type=int, default=6, help="number of keys beyond the first")
    if formats:
        sub.add_argument("--format", choices=formats, default="text")
    if family:
        sub.add_argument("--family", choices=("Q", "P", "U"), required=True,
                         help="Q: top chart, P: base chart, U: middle chart")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.
    It binds no command function: ``main`` runs ``cmd_<command>``, looked up
    when it runs."""
    ap = argparse.ArgumentParser(
        prog="ramval",
        description="Exact valuations via generating sequences: values, "
        "semigroups, transforms, tower invariants.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("value", help="valuation of a polynomial")
    _add_common(s, family=True, formats=())
    s.add_argument("poly", help="polynomial, e.g. 'y^2 + x*y + x^7'")

    s = sp.add_parser("semigroup", help="value semigroup up to a bound")
    _add_common(s, family=True)
    s.add_argument("--bound", type=_bound, default="2",
                   help="upper bound (a fraction >= 0)")

    s = sp.add_parser("validate", help="validity report of a generating sequence")
    _add_common(s, family=True)

    s = sp.add_parser("transform", help="iterated composite transforms of a sequence")
    _add_common(s, family=True)
    s.add_argument("--levels", type=_count, default=3)

    s = sp.add_parser("tower", help="per-level stable-form ladder of the tower")
    _add_common(s, formats=("text", "tsv", "json", "md"))
    s.add_argument("--levels", type=_count, default=3)
    s.add_argument("--seed", type=int, default=0, help="echoed in the header; tower samples nothing")

    s = sp.add_parser("monomialize", help="rank-2 index, SNF oracle, exponent reduction")
    s.add_argument("--matrix", required=True, help="a,b,c,d")

    s = sp.add_parser("report", help="full verification report of the tower scenario")
    _add_common(s, formats=("text", "tsv", "json", "md"))
    s.add_argument("--levels", type=_count, default=3)
    s.add_argument("--samples", type=_count, default=200)
    s.add_argument("--seed", type=int, default=0, help="seed of the restriction sampling")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # the minimal admissible tower parameter; families Q and P take no c
    if getattr(args, "c", 0) is None and getattr(args, "family", "U") == "U":
        args.c = args.p - 1
    try:
        return globals()[f"cmd_{args.command}"](args)
    except Inconsistent as ex:
        print(f"verification failed: {ex}", file=sys.stderr)
        return 1
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except (UsageError, BadParams, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ArithmeticError as ex:
        print(f"domain error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
