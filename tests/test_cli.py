import gc
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ramval
from ramval import cli, genseq, towers, transforms
from ramval.algebra import Fq, Poly2
from ramval.cli import main
from test_transforms import ORDER_CALCULUS_TAMPERS

DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_middle_family(capsys):
    code, out, _ = run(capsys, "value", "--family", "U", "--p", "2", "--c", "1",
                       "--length", "5", "v")
    assert code == 0
    assert "value = 1/2" in out


def test_value_top_family_x(capsys):
    code, out, _ = run(capsys, "value", "--family", "Q", "--p", "2", "--length", "4", "x")
    assert code == 0
    assert "value = 1" in out


def test_value_top_family_key_power(capsys):
    code, out, _ = run(capsys, "value", "--family", "Q", "--p", "2", "--length", "4", "y^4")
    assert code == 0
    assert "value = 1" in out
    assert "minimal standard term: x" in out


def test_value_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "value", "--family", "Q", "--p", "2", "y^2 + $")
    assert code == 2
    assert "parse error" in err
    # a doubled * is no power operator: it is rejected, not read as x*2
    code, out, err = run(capsys, "value", "--family", "Q", "--p", "3", "x**2")
    assert (code, out) == (2, "")
    assert err == "parse error: '*' must stand between two factors (at position 1)\n"


@pytest.mark.parametrize("family,extra,poly,names", [
    ("Q", [], "u", "x or y"),  # u is no alias of x
    ("Q", [], "x*u", "x or y"),
    ("U", ["--c", "1"], "y", "x or v"),  # the middle chart has no y
    ("P", [], "x", "u or v"),
])
def test_value_rejects_variables_outside_the_chart(capsys, family, extra, poly, names):
    code, out, err = run(capsys, "value", "--family", family, "--p", "2", *extra, poly)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: unknown variable '{poly[-1]}', expected {names} ")


def test_semigroup_command(capsys):
    code, out, _ = run(capsys, "semigroup", "--family", "Q", "--p", "2",
                       "--length", "4", "--bound", "1", "--format", "tsv")
    assert code == 0
    values = [line for line in out.splitlines() if "/" in line or line.strip().isdigit()]
    assert "1/4" in out and "3/4" in out


def test_validate_command(capsys):
    code, out, _ = run(capsys, "validate", "--family", "U", "--p", "2", "--c", "1",
                       "--length", "5")
    assert code == 0
    assert "pass" in out


def test_validate_nonpositive_value_exits_1(capsys, monkeypatch):
    # a value that is not positive leaves every index undefined: both tables
    # print with empty index cells, then FAIL, a verification failure
    real = cli.build_tower_seq

    def tampered(*args):
        seq = real(*args)
        vals = [seq.values[0], Fraction(-1, 2)] + seq.values[2:]
        return genseq.GenSeq(seq.field, seq.keys, vals, seq.chart, seq.label)

    monkeypatch.setattr(cli, "build_tower_seq", tampered)
    code, out, err = run(capsys, "validate", "--family", "U", "--p", "2", "--c", "1",
                         "--length", "3", "--format", "tsv")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "i\tindex\tgrowth\tmonic\tdegree",
        "1\tNone\t-\t-\t-",
        "2\tNone\t-\t-\t-",
        "3\tNone\t-\t-\t-",
        "i\tkey\tvalue\tindex",
        "0\tx\t1\t",
        "1\tv\t-1/2\t",
        "2\tx + v^2\t17/16\t",
        "3\tx^8 + x^8*v + v^16\t273/32\t",
        "FAIL",
    ]


@pytest.mark.parametrize("command,validations", [("report", 3), ("tower", 2)])
def test_each_sequence_validated_once(capsys, monkeypatch, command, validations):
    # report reads the tower's three sequences through their ensure_valid
    # cache, so each is validated once; tower never reads the base sequence,
    # whose chain is the top sequence's.  Each validation takes one stage
    # pass, on the integer weights it computes, and no ramval module keeps a
    # value-group type
    real_validate, real_stage_indices = genseq.validate, genseq.stage_indices
    stage_passes = []

    def counted_validate(gs):
        stage_passes.append(0)
        return real_validate(gs)

    def counted_stage_indices(weights):
        assert all(type(w) is int for w in weights)
        stage_passes[-1] += 1
        return real_stage_indices(weights)

    monkeypatch.setattr(genseq, "validate", counted_validate)
    monkeypatch.setattr(genseq, "stage_indices", counted_stage_indices)
    code, _, _ = run(capsys, command, "--p", "2", "--c", "1", "--levels", "2", "--length", "4")
    assert code == 0
    assert stage_passes == [1] * validations
    assert not hasattr(genseq.GenSeq, "groups")
    bound = [name for name, mod in sys.modules.items()
             if name.split(".")[0] == "ramval" and hasattr(mod, "ValueGroup")]
    assert bound == []


@pytest.mark.parametrize("command", ["value", "semigroup", "validate", "transform"])
@pytest.mark.parametrize("family", ["Q", "P"])
def test_c_rejected_for_families_q_and_p(capsys, command, family):
    # c is a parameter of the middle-chart family only: Q and P never read it,
    # even an inadmissible one; `value` reads the first variable of the chart
    extra = [genseq.FAMILY_CHARTS[family][0]] if command == "value" else []
    code, out, err = run(capsys, command, "--family", family, "--p", "3", "--c", "7", *extra)
    assert (code, out) == (2, "")
    assert err == f"error: --c applies to family U only; family {family} takes no c\n"
    code, out, _ = run(capsys, command, "--family", family, "--p", "3", *extra)
    assert code == 0 and out


# the printed edges of values: one polynomial's value, the semigroup (text
# and tsv) and the validity report (text and tsv) of each family at p = 2
# and 3 and over F_9, as printed before values were carried as weights
PINNED_SWEEP = {
    "sweep_Q_p2.txt": (("--family", "Q", "--p", "2"), "y^3 + x^2"),
    "sweep_Q_p3.txt": (("--family", "Q", "--p", "3"), "y^10 + x^2*y + x^5"),
    "sweep_Q_p3_q9.txt": (("--family", "Q", "--p", "3", "--q", "9"), "y^9 - x + x*y"),
    "sweep_P_p2.txt": (("--family", "P", "--p", "2"), "v^3 + u*v"),
    "sweep_P_p3.txt": (("--family", "P", "--p", "3"), "v^10 + u^2"),
    "sweep_P_p3_q9.txt": (("--family", "P", "--p", "3", "--q", "9"), "v^9 - u + u*v"),
    "sweep_U_p2_c1.txt": (("--family", "U", "--p", "2", "--c", "1"), "v^3 + x^2"),
    "sweep_U_p3_c2.txt": (("--family", "U", "--p", "3", "--c", "2"), "v^4 + x^2"),
    "sweep_U_p3_c2_q9.txt": (("--family", "U", "--p", "3", "--c", "2", "--q", "9"),
                             "v^3 - x + x^2*v"),
}


@pytest.mark.parametrize("name", PINNED_SWEEP)
def test_value_semigroup_validate_output_pinned(capsys, name):
    family, poly = PINNED_SWEEP[name]
    text = ""
    for argv in (("value", *family, poly), ("semigroup", *family),
                 ("semigroup", *family, "--bound", "5/2", "--format", "tsv"),
                 ("validate", *family), ("validate", *family, "--format", "tsv")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        text += f"$ ramval {shlex.join(argv)}\n{out}"
    assert text == (DATA / name).read_text()


# full stdout of `transform`, pinned to the output before chain levels
# carried the exact keys
PINNED_TRANSFORMS = {
    "transform_U_p2_c1.txt": ("--family", "U", "--p", "2", "--c", "1"),
    "transform_Q_p3.txt": ("--family", "Q", "--p", "3"),
    "transform_P_p2_levels6_length7.txt": ("--family", "P", "--p", "2", "--levels", "6",
                                           "--length", "7"),
    "transform_U_p2_c1_q4.txt": ("--family", "U", "--p", "2", "--c", "1", "--q", "4"),
    # chart maps into levels 2 and 3 have a one-term y-image, into level 4
    # a three-term one, so both substitution paths run over F_9
    "transform_U_p3_c2_q9_levels5_length6.txt": ("--family", "U", "--p", "3", "--c", "2", "--q", "9",
                                                 "--levels", "5", "--length", "6"),
}


def test_transform_command(capsys):
    code, out, _ = run(capsys, "transform", "--family", "U", "--p", "2", "--c", "1",
                       "--length", "5", "--levels", "3")
    assert code == 0
    assert "level 3" in out
    assert "chart map" in out
    for name, argv in PINNED_TRANSFORMS.items():
        code, out, _ = run(capsys, "transform", *argv)
        assert code == 0
        assert out == (DATA / name).read_text(), name


def test_tower_command_verified(capsys):
    code, out, _ = run(capsys, "tower", "--p", "2", "--c", "1", "--levels", "3")
    assert code == 0
    assert "verified: yes" in out


def test_tower_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "tower", "--p", "3", "--c", "1")
    assert code == 2
    assert "error" in err


def test_tower_json_format(capsys):
    code, out, _ = run(capsys, "tower", "--p", "2", "--c", "2", "--levels", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["schema"] == 1
    assert payload["ok"] is True
    ladder = next(s for s in payload["sections"] if "ladder" in s["title"])
    assert any(r["extension"] == "S/R" and r["delta"] == 2 for r in ladder["rows"])


def test_monomialize_identity(capsys):
    code, out, _ = run(capsys, "monomialize", "--matrix", "1,0,0,1")
    assert code == 0
    assert json.loads(out)["e"] == 1


def test_monomialize_example(capsys):
    code, out, _ = run(capsys, "monomialize", "--matrix", "2,1,1,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == 5
    assert payload["snf_invariant_factors"] == [1, 5]
    assert payload["reduction"]["determinant_identity"] is True


def test_monomialize_singular_exit_2(capsys):
    code, _, err = run(capsys, "monomialize", "--matrix", "2,0,0,0")
    assert code == 2


@pytest.mark.parametrize("matrix,message", [
    ("1,2,2,4", "domain error: exponent matrix is singular\n"),
    ("1,2,x,4", "error: --matrix expects four comma-separated integers a,b,c,d\n"),
])
def test_monomialize_rejects_bad_matrix_exit_2(capsys, matrix, message):
    # `monomial` is imported inside the command: its errors reach main's handlers
    assert run(capsys, "monomialize", "--matrix", matrix) == (2, "", message)


def test_cli_import_loads_no_dataclasses():
    # start-up cost: the records are plain classes, and `monomial` is imported
    # by `monomialize` alone; a fresh interpreter without site packages
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ramval.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'ramval.monomial') if m in sys.modules])")
    src = str(Path(ramval.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_report_command(capsys):
    code, out, _ = run(capsys, "report", "--p", "2", "--c", "1", "--levels", "2",
                       "--length", "5", "--samples", "20")
    assert code == 0
    assert "verified: yes" in out


def test_value_extension_field(capsys):
    code, out, _ = run(capsys, "value", "--family", "Q", "--p", "2", "--q", "4",
                       "--length", "4", "y^4")
    assert code == 0
    assert "value = 1" in out


def test_q_not_power_of_p_exit_2(capsys):
    for q in ("6", "0", "-4", "1"):
        code, _, err = run(capsys, "value", "--family", "Q", "--p", "2", "--q", q, "x")
        assert code == 2
        assert f"q = {q} is not a power of p = 2" in err
    code, _, err = run(capsys, "value", "--family", "Q", "--p", "1", "--q", "4", "x")
    assert code == 2  # no p-adic split for p = 1


def test_report_honours_q(capsys, monkeypatch):
    fields = []
    real = towers.build_tower

    def recording(p, c, length=5, field=None):
        tower = real(p, c, length, field)
        fields.append(tower.field)
        return tower

    monkeypatch.setattr(towers, "build_tower", recording)
    code, out, _ = run(capsys, "report", "--p", "2", "--c", "1", "--q", "4", "--levels", "2",
                       "--length", "5", "--samples", "10", "--format", "json")
    assert code == 0
    assert fields and set(fields) == {Fq(2, 2)}
    report = json.loads(out)
    assert report["config"]["q"] == 4
    links = [r for s in report["sections"] for r in s["rows"]
             if r.get("check", "").startswith("parameter links")]
    # tau = 1 lies in the prime subfield of F_4, so it prints as the grammar reads it
    assert links[0]["residues"]["tau"] == "1"


def test_report_json_deterministic(capsys):
    args = ("report", "--p", "2", "--c", "1", "--levels", "2", "--length", "5",
            "--samples", "15", "--seed", "7", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["config"]["seed"] == 7
    assert "jobs" not in json.loads(out1)["config"]


# each command differs from the one before in subcommand or options; the bad
# parses (exit 2) follow good calls, and good calls follow them
SEQUENCE = [
    ("report", "--p", "2", "--c", "1", "--levels", "2", "--length", "4", "--samples", "20",
     "--seed", "3", "--format", "json"),
    ("report", "--p", "3", "--c", "2", "--levels", "2", "--length", "4", "--samples", "20"),
    ("report", "--p", "2", "--samples", "0"),
    ("value", "--family", "Q", "--p", "2", "y^4 + x*y^2 + x^3"),
    ("value", "--family", "U", "--p", "3", "--q", "9", "v"),
    ("semigroup", "--family", "Q", "--p", "2", "--bound", "1"),
    ("semigroup", "--family", "Q", "--p", "2", "--bound", "abc"),
    ("semigroup", "--family", "U", "--p", "2", "--length", "3"),
    ("tower", "--p", "2", "--c", "1", "--levels", "2", "--length", "4", "--format", "tsv"),
    ("transform", "--family", "Q", "--p", "2", "--levels", "2", "--length", "3"),
    ("monomialize", "--matrix", "2,1,1,3"),
]


def test_consecutive_main_calls_match_separate_processes(capsys):
    # the parser is built once per process and shared by every main call
    in_process = []
    for argv in SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as ex:
            code = ex.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = dict(os.environ, PYTHONPATH=str(Path(ramval.__file__).resolve().parents[1]))
    separate = [
        (proc.returncode, proc.stdout, proc.stderr)
        for proc in (subprocess.run([sys.executable, "-m", "ramval.cli", *argv], env=env,
                                    capture_output=True, text=True) for argv in SEQUENCE)]
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0]
    assert cli.build_parser() is cli.build_parser()


def test_report_builds_tower_once(capsys, monkeypatch):
    calls = []
    real = towers.build_tower

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(towers, "build_tower", counting)
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "report", "--p", "2", "--c", "1", "--levels", "3",
                           "--length", "5", "--samples", "10", "--seed", seed)
        assert code == 0 and "verified: yes" in out
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [
    ("value", "--family", "Q", "--p", "2", "x"),
    ("semigroup", "--family", "Q", "--p", "2"),
    ("validate", "--family", "Q", "--p", "2"),
    ("transform", "--family", "Q", "--p", "2"),
])
def test_seed_rejected_where_unused(capsys, argv):
    # only report samples anything; the other commands would ignore a seed
    with pytest.raises(SystemExit) as ex:
        main([*argv, "--seed", "1"])
    assert ex.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("value", "--family", "Q", "--p", "2", "x"), "unrecognized arguments: --format"),
    (("semigroup", "--family", "Q", "--p", "2"), "invalid choice: 'json'"),
    (("validate", "--family", "Q", "--p", "2"), "invalid choice: 'json'"),
    (("transform", "--family", "Q", "--p", "2"), "invalid choice: 'json'"),
])
def test_format_rejected_where_it_takes_no_effect(capsys, argv, message):
    # value prints two fixed lines, and the table commands have no json
    # rendering; only tower and report write json
    with pytest.raises(SystemExit) as ex:
        main([*argv, "--format", "json"])
    assert ex.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", ["semigroup", "validate", "transform"])
def test_table_formats_take_effect(capsys, command):
    outs = set()
    for fmt in ("text", "tsv", "md"):
        code, out, _ = run(capsys, command, "--family", "Q", "--p", "2", "--length", "4",
                           "--format", fmt)
        assert code == 0
        outs.add(out)
    assert len(outs) == 3


# (command line, whether it draws the cost warning): tower and report past
# length 13 whatever p, report past p = 13, transform past length 9 at any
# --levels, and never value, semigroup or validate
COST_WARNING_BOUNDARIES = [
    *[(f"tower --p {p} --levels {k} --length {n}", n == 14)
      for p in (2, 7, 31, 97) for k in (1, 12) for n in (13, 14)],
    *[(f"report --p {p} --levels {k} --length {n}", n == 14 or p > 13)
      for p in (2, 7, 31, 97) for k in (1, 12) for n in (13, 14)],
    ("report --p 13 --levels 2 --length 3", False),
    ("report --p 13 --levels 12 --length 13 --samples 5000", False),
    ("report --p 17 --levels 2 --length 3", True),
    ("tower --p 17 --levels 2 --length 3", False),
    *[(f"transform --family {f} --p 7 --levels {k} --length {n}", n == 10)
      for f in ("Q", "P", "U") for k, n in ((8, 9), (10, 9), (9, 10), (1, 10))],
    ("value --family Q --p 31 --length 30 x", False),
    ("semigroup --family U --p 97 --length 30", False),
    ("validate --family P --p 2 --length 30", False),
]


@pytest.mark.parametrize("command_line, warns", COST_WARNING_BOUNDARIES)
def test_cost_warning_boundaries(command_line, warns):
    args = cli.build_parser().parse_args(command_line.split())
    assert (cli._cost_warning(args) != "") == warns


def test_tower_cost_warning_is_one_line(capsys):
    # each cost warning is one stderr line naming its bound and the range of
    # wall times measured past it
    code, out, err = run(capsys, "tower", "--p", "2", "--levels", "1", "--length", "14")
    assert code == 0 and out
    assert err == ("warning: tower with p = 2, length 14 may be slow: past length 13, "
                   "towers took 0.1-5.9 s at length 14 (p = 2-43), more when longer\n")
    code, out, err = run(capsys, "report", "--p", "17", "--c", "16", "--levels", "1",
                         "--length", "2", "--samples", "1")
    assert code == 0 and out
    report_warning = ("may be slow: past p = 13 or length 13, reports took 0.1-23 s up to "
                      "p = 43 and length 14, more past them\n")
    assert err == f"warning: report with p = 17, length 2 {report_warning}"
    code, out, err = run(capsys, "report", "--p", "2", "--c", "1", "--levels", "1",
                         "--length", "14", "--samples", "1")
    assert code == 0 and out
    assert err == f"warning: report with p = 2, length 14 {report_warning}"
    code, out, err = run(capsys, "transform", "--family", "Q", "--p", "2", "--levels", "1",
                         "--length", "10")
    assert code == 0 and out
    assert err == ("warning: transform with p = 2, length 10 may be slow: past length 9, "
                   "transforms took 0.1-16 s at lengths 10-11, more when longer\n")


def test_rejected_tower_prints_no_cost_warning(capsys):
    # the warning follows the accepted inputs: a rejected --c prints only its error
    code, out, err = run(capsys, "tower", "--p", "31", "--c", "7", "--levels", "1",
                         "--length", "14")
    assert (code, out) == (2, "")
    assert err == "error: c = 7 must be a positive multiple of p - 1 = 30\n"


def test_tower_at_length_10_draws_no_cost_warning(capsys):
    # the base keys are numerators over powers of w and the chain keys past
    # the spines are truncated, so length 10 at p = 2, length 12 at p = 7,
    # length 8 at p = 19 and length 2 at p = 31 take well under a second and
    # draw no warning
    for argv in (("--p", "2", "--levels", "3", "--length", "10"),
                 ("--p", "7", "--c", "6", "--levels", "1", "--length", "12"),
                 ("--p", "19", "--c", "18", "--levels", "1", "--length", "8"),
                 ("--p", "31", "--c", "30", "--levels", "1", "--length", "2")):
        code, out, err = run(capsys, "tower", *argv)
        assert (code, err) == (0, "") and out


def test_tower_over_f4_leaves_no_cyclic_garbage(capsys):
    # with the collector off, a second text-format `tower --q 4` frees
    # everything it made by reference counting, its F_4 and the field's
    # memos included: nothing is left for the cyclic collector
    argv = ("tower", "--p", "2", "--c", "1", "--q", "4", "--levels", "3", "--length", "5")
    assert run(capsys, *argv)[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_json_output_leaves_no_cyclic_garbage(capsys):
    # after a warm-up, a second JSON `tower` and a second JSON `report` leave
    # nothing for the cyclic collector: the indented JSON is written without
    # the pure-Python encoder and its self-referring closures
    commands = [("tower", "--p", "2", "--c", "1", "--q", "4", "--levels", "3", "--length", "5",
                 "--format", "json"),
                ("report", "--p", "2", "--c", "1", "--levels", "3", "--samples", "20",
                 "--format", "json")]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in commands:
            assert run(capsys, *argv)[0] == 0
            gc.collect()
            assert gc.garbage == [], argv
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_report_jobs_rejected(capsys):
    for flag in ("--jobs", "--prec"):
        with pytest.raises(SystemExit) as ex:
            main(["report", "--p", "2", "--c", "1", "--levels", "2", flag, "2"])
        assert ex.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["7", "6", "5"])
def test_report_levels_beyond_length_exit_2(capsys, monkeypatch, levels):
    def no_build(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(towers, "build_tower", no_build)
    code, out, err = run(capsys, "report", "--p", "2", "--c", "1", "--levels", levels,
                         "--length", "5", "--samples", "5")
    assert code == 2
    assert out == ""
    assert f"--levels {levels}" in err and "--length 5" in err


@pytest.mark.parametrize("command", ["tower", "report"])
def test_levels_beyond_length_exit_2_before_build(capsys, monkeypatch, command):
    # both commands reject the ladder depth as bad input before a tower is
    # built, so no cost warning or domain error precedes the usage error
    def no_build(*args, **kwargs):
        raise AssertionError("a tower was built")

    monkeypatch.setattr(towers, "build_tower", no_build)
    code, out, err = run(capsys, command, "--p", "3", "--c", "2", "--levels", "9",
                         "--length", "9")
    assert (code, out) == (2, "")
    assert err == "error: --levels 9 needs --length >= 10, got --length 9\n"


@pytest.mark.parametrize("levels, code", [("5", 0), ("6", 2)])
def test_transform_levels_past_the_chain(capsys, levels, code):
    # a chain over --length 4 has 5 levels; asking for a sixth is bad input,
    # rejected before the first level table is printed
    got, out, err = run(capsys, "transform", "--family", "P", "--p", "5", "--levels", levels,
                        "--length", "4")
    assert got == code
    if code:
        assert out == ""
        assert err == "error: --levels 6 needs --length >= 5, got --length 4\n"
    else:
        assert "level 5" in out and out.endswith("pass\n")


@pytest.mark.parametrize("bound", ["1/0", "abc", "-1"])
def test_semigroup_bound_rejected_by_argparse(capsys, monkeypatch, bound):
    # --bound is a fraction >= 0, checked before the sequence is built
    def no_build(*args, **kwargs):
        raise AssertionError("a sequence was built")

    monkeypatch.setattr(cli, "build_tower_seq", no_build)
    with pytest.raises(SystemExit) as ex:
        main(["semigroup", "--family", "Q", "--p", "2", "--bound", bound])
    assert ex.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --bound: expected a fraction >= 0, got '{bound}'" in captured.err


@pytest.mark.parametrize("argv", [
    ("tower", "--p", "2", "--levels", "0"),
    ("transform", "--family", "U", "--p", "2", "--c", "1", "--levels", "-2"),
    ("report", "--p", "2", "--samples", "-3"),
    ("report", "--p", "2", "--samples", "0"),
    ("report", "--p", "2", "--levels", "0"),
])
def test_count_below_one_exit_2(capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a tower or sequence was built")

    monkeypatch.setattr(towers, "build_tower", no_build)
    monkeypatch.setattr(cli, "build_tower_seq", no_build)
    with pytest.raises(SystemExit) as ex:
        main(list(argv))
    assert ex.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: expected an integer >= 1, got '{argv[-1]}'" in captured.err


def test_failed_cross_check_exits_1(capsys, monkeypatch):
    # a value recursion that disagrees with the keys is a verification
    # failure, not bad input
    monkeypatch.setattr(genseq, "tower_key_value", lambda j, p: 0)
    code, out, err = run(capsys, "tower", "--p", "2")
    assert code == 1
    assert out == ""
    assert "verification failed" in err and "alternating recursion" in err


@pytest.mark.parametrize("command", ["tower", "report"])
def test_invalid_tower_sequence_exits_1(capsys, monkeypatch, command):
    # a tower sequence that fails its own validity conditions is a
    # verification failure, reported with the failed validity rows
    real = towers.build_tower_seq

    def tampered(family, p, c=None, length=5, field=None):
        seq = real(family, p, c, length, field)
        if family != "Q":
            return seq
        keys = list(seq.keys)
        keys[2] = keys[2] + Poly2.monomial(seq.field, 0, keys[2].deg_y())
        # a new sequence: it carries no cached lattice, so it is validated
        return genseq.GenSeq(seq.field, keys, seq.values, seq.chart, seq.label)

    monkeypatch.setattr(towers, "build_tower_seq", tampered)
    code, out, err = run(capsys, command, "--p", "2", "--levels", "3", "--length", "5")
    assert (code, out) == (1, "")
    assert err.startswith("verification failed: sequence Q(p=2,N=5): FAIL\n")
    assert "i=2: index=4 growth=True monic=False" in err


def _foreign_key(i, make):
    """A tamper that sets middle key i, in the top chart, to make(tower)."""
    def tamper(monkeypatch):
        real = towers.build_tower

        def tampered(*args):
            tower = real(*args)
            tower.mid_keys_xy[i] = make(tower)
            return tower

        monkeypatch.setattr(towers, "build_tower", tampered)
    return tamper


def _deviations_valued_as_key_1(monkeypatch):
    """Every deviation valued 2 * value(y), the value of middle key 1, as a
    weight over the host's D."""
    monkeypatch.setattr(towers, "value_of",
                        lambda f, gs, below=None: 2 * gs.ensure_valid().weights[1])


# at p = 2, length 4, N = 35 for the top host
CERTIFICATE_TAMPERS = {
    # key 2 has y-degree 4 as top key 2 has; times y it has 5
    "not-integral": (_foreign_key(2, lambda t: t.mid_keys_xy[2] * Poly2.y(t.field)),
                     "mid-in-top key 2: deg_y 5 modulo x^35 is not a p-power times the "
                     "deg_y 4 of host key 2 (N = 35)"),
    "not-p-power": (_foreign_key(1, lambda t: t.seq_top.keys[1] ** 3),
                    "mid-in-top key 1: deg_y 3 modulo x^35 is not a p-power times the "
                    "deg_y 1 of host key 1 (N = 35)"),
    "below-1": (_foreign_key(1, lambda t: Poly2.one(t.field) + Poly2.x(t.field)),
                "mid-in-top key 1: deg_y 0 modulo x^35 is not a p-power times the "
                "deg_y 1 of host key 1 (N = 35)"),
    "key-0": (_foreign_key(0, lambda t: Poly2.x(t.field) ** 3),
              "mid-in-top key 0: x-order 3 modulo x^35 is not a p-power times the "
              "x-order 1 of host key 0 (N = 35)"),
    # key 0 (x) matches exactly, so the first deviation valued is key 1's
    # (x*y), and valued as its key it does not dominate
    "not-dominant": (_deviations_valued_as_key_1,
                     "mid-in-top key 1: deviation value does not dominate (margin 0)"),
}


@pytest.mark.parametrize("tamper,witness", CERTIFICATE_TAMPERS.values(),
                         ids=CERTIFICATE_TAMPERS.keys())
def test_failed_certificate_exits_1(capsys, monkeypatch, tamper, witness):
    # a comparison certificate that does not hold is a verification failure:
    # degrees that propose no p-power multiplier, named with both degrees,
    # or a deviation that does not dominate
    assert towers.certificate_precision(towers.build_tower(2, 1, 4).seq_top, 2) == 35
    tamper(monkeypatch)
    code, out, err = run(capsys, "tower", "--p", "2", "--levels", "2", "--length", "4")
    assert (code, out, err) == (1, "", f"verification failed: {witness}\n")


def _failed_validation(level):
    raise transforms.NonPolynomial(
        f"transformed sequence failed validation: {level.label}: key 1 tampered")


@pytest.mark.parametrize("target,patch,witness", [
    # a transformed chain level that fails validation: NonPolynomial
    ("validate_chart_seq", _failed_validation,
     "transformed sequence failed validation: Q(p=2,N=5)/T2: key 1 tampered"),
    # a first parameter that is not unit * x^a: NotMonomial
    ("ChainLevel.mu_vector", lambda self, vec, mu_of=None: (1, 1),
     "middle x-parameter is not unit * x^a"),
    # a residual order that is not a power of p: NotPPower
    ("p_adic_split", lambda n, p: (3, 0), "residual order d = "),
], ids=["NonPolynomial", "NotMonomial", "NotPPower"])
def test_ladder_failures_exit_1(capsys, monkeypatch, target, patch, witness):
    owner, _, name = target.rpartition(".")
    monkeypatch.setattr(getattr(transforms, owner) if owner else transforms, name, patch)
    code, out, err = run(capsys, "tower", "--p", "2", "--levels", "3", "--length", "5")
    assert code == 1
    assert out == ""
    assert "verification failed" in err and witness in err


@pytest.mark.parametrize("tamper,witness", ORDER_CALCULUS_TAMPERS.values(),
                         ids=ORDER_CALCULUS_TAMPERS.keys())
def test_tower_checks_values_without_exact_keys(capsys, monkeypatch, tamper, witness):
    # chain S level 5 has no exact keys: its values and degrees are checked
    # while level 6 is built, and a failure exits 1 with its witness
    real = towers.build_tower

    def tampered(*args):
        tower = real(*args)
        level5 = tower.chain("S").level(5)
        assert level5.keys is None
        tamper(level5)
        return tower

    monkeypatch.setattr(towers, "build_tower", tampered)
    code, out, err = run(capsys, "tower", "--p", "2", "--levels", "7", "--length", "8")
    assert (code, out, err) == (1, "", f"verification failed: {witness}\n")


@pytest.mark.parametrize("shift", [1, -1])
def test_report_wrong_order_prediction_exits_1(capsys, monkeypatch, shift):
    real = towers._mu_with_certificate

    def tampered(level, certs, i, host_mu=None):
        o, s = real(level, certs, i, host_mu)
        return o + shift, s

    monkeypatch.setattr(towers, "_mu_with_certificate", tampered)
    code, out, err = run(capsys, "report", "--p", "2", "--levels", "2", "--length", "5",
                         "--samples", "5")
    assert code == 1
    assert out == ""
    assert "verification failed: foreign key" in err


@pytest.mark.parametrize("p,c,residues", [
    (3, 2, {"tau": "1", "gamma": "2", "sigma": "1", "lambda": "2"}),
    (5, 4, {"tau": "1", "gamma": "4", "sigma": "1", "lambda": "4"}),
], ids=["p3", "p5"])
def test_report_residues_at_level_4(capsys, p, c, residues):
    code, out, _ = run(capsys, "report", "--p", str(p), "--c", str(c), "--levels", "4",
                       "--length", "5", "--format", "json")
    assert code == 0
    links = [r for s in json.loads(out)["sections"] for r in s["rows"]
             if r.get("check", "").startswith("parameter links")]
    assert [r["check"] for r in links] == [f"parameter links j={j}" for j in (1, 2, 3)]
    # tau = sigma = 1 and gamma = lambda = -1 at every level, j = 3 included
    assert all(r["residues"] == residues for r in links)
