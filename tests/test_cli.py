"""Command-line interface: frozen output strings, the byte-exact reflection
trace, and the verify driver's exit-code contract."""

import csv
import io
import json
import re
import subprocess
import sys
from importlib import resources

import pytest

from bwb import report
from bwb.bott import bott, grassmann_bundle, grassmann_sequence, sequence_cohomology
from bwb.catalog import load_catalog
from bwb.chase import Iv
from bwb.cli import main
from bwb.hodge import section_hodge, section_spec
from bwb.report import _CROPS, _cell, run_verify


def run_cli(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_bott_single_group(capsys):
    for argv, want in BOTT_LINES:
        rc, out = run_cli(capsys, argv)
        assert rc == 0
        assert out == want, argv


def test_bott_trace_matches_golden_file(capsys):
    rc, out = run_cli(
        capsys, ["bott", "--space", "OP2", "--form", "2", "--twist", "-9",
                 "--trace"])
    assert rc == 0
    golden = resources.files("bwb").joinpath("data/e6_walk_trace.txt").read_text()
    assert out == golden


def test_bott_trace_final_lines(capsys):
    _, out = run_cli(
        capsys, ["bott", "--space", "OP2", "--form", "2", "--twist", "-9",
                 "--trace"])
    lines = out.splitlines()
    assert lines.count("  | s4") == 4  # the pivot visited most often
    assert lines[-3] == "dominant after 14 reflections: H^14 = C"
    assert lines[-1] == "H^14, dim 1"


def test_bott_json_output(capsys):
    rc, out = run_cli(capsys, ["bott", "--space", "S10", "--form", "2",
                               "--twist", "-6", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"schema_version": 1, "space": "S10",
                       "cohomology": {"9": 10}}


def test_hodge_middle_row(capsys):
    rc, out = run_cli(capsys, ["hodge", "--space", "S10", "--cut", "2"])
    assert rc == 0
    assert out == ("S10, cut (2,): dim 9\n"
                   "middle row h^{9,0} .. h^{5,4}: 0 0 0 1 70\n")


def test_hodge_json_round_trip(capsys):
    rc, out = run_cli(capsys, ["hodge", "--space", "S12", "--linear", "6",
                               "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["dim"] == 9
    assert payload["middle"] == [0, 0, 0, 1, 90, 90, 1, 0, 0, 0]
    assert payload["schema_version"] == 1


def test_moduli_all_routes(capsys):
    rc, out = run_cli(capsys, ["moduli", "--space", "OP2", "--linear", "9",
                               "--all-routes"])
    assert rc == 0
    assert out == ("84 = 84 = 84 = 84  "
                   "(grassmannian, cohomological, closed-form, hodge-middle)\n")
    # off the series section the closed form is refused, and on an
    # even-dimensional X (here an eightfold) h^{m+1,m} is no middle cell, so
    # hodge-middle is dropped
    rc, out = run_cli(capsys, ["moduli", "--space", "OP2", "--linear", "8",
                               "--all-routes"])
    assert (rc, out) == (0, "74 = 74  (grassmannian, cohomological)\n")
    rc, out = run_cli(capsys, ["moduli", "--space", "(P1)^6", "--linear", "1",
                               "--all-routes"])
    assert (rc, out) == (
        0, "45 = 45 = 45  (grassmannian, cohomological, hodge-middle)\n")
    # the list belongs to the section, not to its spelling
    for space, s, count in (("OP2", 9, 84), ("S12", 6, 90), ("G(2,10)", 5, 101),
                            ("S14", 4, 149)):
        line = (f"{count} = {count} = {count} = {count}  "
                "(grassmannian, cohomological, closed-form, hodge-middle)\n")
        for flags in (["--linear", str(s)], ["--cut", ",".join(["1"] * s)]):
            rc, out = run_cli(capsys, ["moduli", "--space", space, *flags,
                                       "--all-routes"])
            assert (rc, out) == (0, line), (space, flags)
    # cuts of unequal degree, not all linear: no route applies, and a text
    # code to SystemExit is exit status 1
    with pytest.raises(SystemExit) as exc:
        main(["moduli", "--space", "P3xP3", "--cut", "1,2", "--all-routes"])
    assert exc.value.code == "P3xP3, cut (1, 1), cut (2, 2): no moduli route applies"
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit, match=re.escape(
            "the ambient space itself has no moduli to count")):
        main(["moduli", "--space", "S10", "--linear", "0", "--all-routes"])
    assert capsys.readouterr().out == ""


def test_moduli_all_routes_marks_the_counts_that_differ(capsys):
    rc, out = run_cli(capsys, ["moduli", "--space", "S10", "--cut", "2",
                               "--all-routes"])
    assert rc == 0
    assert out == "80 != 70  (cohomological, hodge-middle)\n"


@pytest.mark.parametrize("space, s, line", [
    pytest.param("(P1)^4", "1", "3 = 3  (grassmannian, cohomological)",
                 id="(P1)^4-1"),
    pytest.param("G(2,10)", "3", "27 = 27  (grassmannian, cohomological)",
                 id="G(2,10)-3"),
])
def test_moduli_all_routes_drops_hodge_middle_off_cy_type(capsys, space, s, line):
    """h^{m+1,m} counts moduli only where h^{m+2,m-1} = 1: the threefold
    (P1)^4 section (h^{3,0} = 0, where h^{2,1} = 1 would read 3 != 1) and
    the 13-fold G(2,10) section (h^{8,5} = 0, where h^{7,6} = 6 would read
    27 != 6) drop hodge-middle."""
    rc, out = run_cli(capsys, ["moduli", "--space", space, "--linear", s,
                               "--all-routes"])
    assert (rc, out) == (0, line + "\n")


@pytest.mark.parametrize("space, s, line", [
    pytest.param("(P1)^4", "2", "16 = 16  (grassmannian, cohomological)",
                 id="(P1)^4-2"),
    pytest.param("G(2,6)", "3", "1 = 1  (grassmannian, cohomological)",
                 id="G(2,6)-3"),
    pytest.param("LG(3,6)", "2", "3 = 3  (grassmannian, cohomological)",
                 id="LG(3,6)-2"),
])
def test_moduli_all_routes_drops_a_negative_closed_form(capsys, space, s, line):
    """C(s+c-2, c-1) - s^2 would be below 0 on these sections; the closed
    form is refused off the four series sections, and --all-routes drops it.
    The surface (P1)^4 section and the fourfold LG(3,6) section also drop
    hodge-middle, which reads h^{m+1,m} only on an odd-dimensional X, and
    the fivefold G(2,6) section drops it for h^{4,1} = 0."""
    rc, out = run_cli(capsys, ["moduli", "--space", space, "--linear", s,
                               "--all-routes"])
    assert (rc, out) == (0, line + "\n")


@pytest.mark.parametrize("argv, message", [
    (["--space", "G(2,6)", "--linear", "1", "--all-routes"],
     "G(2,6), cut (1,): the grassmannian route counts -21 moduli; "
     "a count below 0 is refused"),
    (["--space", "S10", "--linear", "1"],
     "S10, cut (1,): the grassmannian route counts -30 moduli; "
     "a count below 0 is refused"),
])
def test_moduli_refuses_negative_counts(capsys, argv, message):
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        main(["moduli", *argv])
    assert capsys.readouterr().out == ""


def test_moduli_single_route(capsys):
    rc, out = run_cli(capsys, ["moduli", "--space", "S10", "--cut", "2"])
    assert rc == 0
    assert out == "80  (cohomological)\n"


def test_jacring_at_and_row(capsys):
    rc, out = run_cli(capsys, ["jacring", "--weights", "1,1,1,1,1,1,1,1,1",
                               "--degree", "3", "--at", "3"])
    assert (rc, out) == (0, "84\n")
    rc, out = run_cli(capsys, ["jacring", "--weights", "1,1,1,1,1,1,2",
                               "--degree", "4"])
    assert rc == 0
    assert out == ("weights (1,1,1,1,1,1,2) degree 4 dim 5: "
                   "0 1 90 90 1 0  (moduli 90)\n")


def test_jacring_scan(capsys):
    rc, out = run_cli(capsys, ["jacring", "--scan", "7", "2", "4"])
    assert rc == 0
    assert out.splitlines() == [
        "weights (1,1,1,1,1,1,2) degree 4 dim 5: 0 1 90 90 1 0  (moduli 90)",
        "weights (1,1,1,1,1,1,1,1,1) degree 3 dim 7: 0 0 1 84 84 1 0 0  "
        "(moduli 84)",
        "weights (1,1,1,1,1,1,2,2,2) degree 4 dim 7: 0 0 1 90 90 1 0 0  "
        "(moduli 90)",
    ]


@pytest.mark.parametrize("fmt", [["--json"], []], ids=["json", "text"])
def test_an_empty_scan_prints_no_line(capsys, fmt):
    # no weight system fits these bounds: a JSON-lines reader that parses
    # every line must not meet a blank one, and text prints nothing either
    rc, out = run_cli(capsys, ["jacring", "--scan", "5", "1", "2", *fmt])
    assert (rc, out) == (0, "")


def test_an_empty_scan_prints_only_its_timestamp(capsys):
    rc, out = run_cli(capsys, ["jacring", "--scan", "5", "1", "2", "--json",
                               "--timestamp"])
    assert rc == 0
    assert [list(json.loads(line)) for line in out.splitlines()] == [["timestamp"]]
    assert out.endswith("}\n")


def test_jacring_rejects_bad_weights(capsys):
    with pytest.raises(SystemExit, match="regular sequence"):
        main(["jacring", "--weights", "2,2,2,2,2,2,2", "--degree", "7"])


def test_jacring_weights_need_a_degree(capsys):
    with pytest.raises(SystemExit, match="^jacring --weights needs --degree$"):
        main(["jacring", "--weights", "1,1,1,1"])
    assert capsys.readouterr().out == ""


def test_jacring_scan_refuses_at(capsys):
    with pytest.raises(SystemExit, match="--at .* not --scan$"):
        main(["jacring", "--scan", "7", "2", "4", "--at", "3"])
    assert capsys.readouterr().out == ""


def test_jacring_scan_refuses_weights_and_degree(capsys):
    for extra in (["--weights", "1,1,1"], ["--degree", "2"],
                  ["--weights", "1,1,1", "--degree", "2"]):
        with pytest.raises(SystemExit,
                           match="^jacring: --scan takes no --weights or --degree$"):
            main(["jacring", "--scan", "7", "2", "4", *extra])
    assert capsys.readouterr().out == ""


def test_jacring_needs_weights_or_scan(capsys):
    with pytest.raises(SystemExit, match="^jacring needs --weights or --scan$"):
        main(["jacring"])
    assert capsys.readouterr().out == ""


def test_closed_stdout_ends_quietly():
    with subprocess.Popen(
            [sys.executable, "-m", "bwb.cli", "jacring", "--scan", "13", "7", "14"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.readline()
        proc.stdout.close()  # like `| head -1`
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err
    assert err == ""


def test_errors_exit_cleanly(capsys):
    with pytest.raises(SystemExit, match="unknown space 'NOPE'"):
        main(["bott", "--space", "NOPE", "--form", "1"])
    with pytest.raises(SystemExit, match="not cominuscule"):
        main(["hodge", "--space", "G2ad", "--cut", "1"])
    with pytest.raises(SystemExit, match="cannot cut by -1 hyperplanes"):
        main(["hodge", "--space", "S10", "--linear", "-1"])


def test_verify_all_tables_exit_zero(capsys):
    rc, out = run_cli(capsys, ["verify"])
    assert rc == 0
    summary = out.rstrip().splitlines()[-1]
    assert "undocumented" in summary
    assert summary.endswith("4 documented discrepancies, 0 undocumented")
    assert "149 cells" in summary


def test_verify_single_table_filter(capsys):
    rc, out = run_cli(capsys, ["verify", "--table", "moduli43"])
    assert rc == 0
    assert "24 cells: 24 match" in out


def test_verify_table_filter_takes_the_printed_ids(capsys):
    for table, count in (("theta35", 6), ("lemma_van", 8)):
        rc, out = run_cli(capsys, ["verify", "--table", table])
        assert rc == 0
        assert f"{count} cells: {count} match" in out
        assert {line.split()[0] for line in out.splitlines()[1:-2]} == {table}
    with pytest.raises(SystemExit, match="unknown table nosuch; known: .*theta35") as exc:
        main(["verify", "--table", "nosuch"])
    assert exc.value.code not in (0, None)


def test_verify_table_filter_and_documented_note(capsys):
    rc, out = run_cli(capsys, ["verify", "--table", "quadric34"])
    assert rc == 0  # the one mismatch is a documented discrepancy
    assert "h54" in out and "mismatch" in out
    assert "documented discrepancy" in out


def test_verify_json_lines(capsys):
    rc, out = run_cli(capsys, ["verify", "--table", "series41", "--json"])
    assert rc == 0
    cells = [json.loads(line) for line in out.strip().splitlines()]
    assert all(c["schema_version"] == 1 for c in cells)
    assert all(c["status"] == "match" for c in cells)
    assert {c["column"] for c in cells} >= {"dim", "index", "coindex",
                                            "dual_degree"}


def test_verify_exits_one_on_undocumented_mismatch(capsys, tmp_path,
                                                   monkeypatch):
    src = resources.files("bwb").joinpath("data/catalog.json").read_text()
    raw = json.loads(src)
    for entry in raw["spaces"]:
        if entry["name"] == "OP2":
            entry["fixtures"]["moduli43"]["moduli"] = 85  # sabotage
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(raw))
    monkeypatch.setenv("BWB_CATALOG", str(broken))
    rc, out = run_cli(capsys, ["verify", "--table", "moduli43"])
    assert rc == 1
    assert "1 undocumented" not in out  # both route columns disagree
    assert "2 undocumented" in out


def test_verify_fails_when_a_documented_value_drifts(capsys, tmp_path,
                                                     monkeypatch):
    src = resources.files("bwb").joinpath("data/catalog.json").read_text()
    raw = json.loads(src)
    for d in raw["documented_discrepancies"]:
        if (d["table"], d["row"], d["column"]) == ("quadric34", "S10", "h54"):
            d["computed"] = 72  # the engine prints 70
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(raw))
    monkeypatch.setenv("BWB_CATALOG", str(drifted))
    rc, out = run_cli(capsys, ["verify", "--table", "quadric34"])
    assert rc == 1
    assert "documented discrepancy" not in out
    assert out.rstrip().endswith("0 documented discrepancies, 1 undocumented")


def test_verify_reports_a_missing_nonvanishing_group_as_mismatches(capsys,
                                                                  monkeypatch):
    # the lemma_nonvan cells read the scan's hit at (c-2, r-c+1): with no
    # hit they are mismatches, and verify exits 1 rather than raising
    monkeypatch.setattr(report, "lemma_van_scan", lambda space: [])
    rep = run_verify(load_catalog(), ("lemma_nonvan",))
    assert {(c.column, c.computed, c.status) for c in rep.cells} == {
        ("degree", None, "mismatch"), ("dim", None, "mismatch")}
    assert len(rep.cells) == len(rep.undocumented) == 8
    rc, out = run_cli(capsys, ["verify", "--table", "lemma_nonvan"])
    assert rc == 1
    assert out.rstrip().endswith("0 documented discrepancies, 8 undocumented")


def test_each_table_filter_gives_the_full_run_cells():
    cat = load_catalog()
    full = run_verify(cat).cells
    for table in _CROPS:
        want = [c for c in full if c.table == table]
        assert want and list(run_verify(cat, (table,)).cells) == want, table


def test_a_missing_fixture_block_reads_as_absent(capsys, tmp_path, monkeypatch):
    raw = json.loads(resources.files("bwb").joinpath("data/catalog.json").read_text())
    for entry in raw["spaces"]:
        if entry["name"] == "(P1)^6":
            del entry["fixtures"]["linear33"]
    trimmed = tmp_path / "trimmed.json"
    trimmed.write_text(json.dumps(raw))
    monkeypatch.setenv("BWB_CATALOG", str(trimmed))
    rc, out = run_cli(capsys, ["verify", "--table", "linear33", "--json"])
    assert rc == 0
    cells = [json.loads(line) for line in out.splitlines()]
    absent = {c["column"] for c in cells if c["row"] == "(P1)^6"
              and c["status"] == "fixture-absent"}
    assert absent == {"dim", "index", "moduli"}


def test_a_missing_table_is_named(capsys, tmp_path, monkeypatch):
    _, mukai = run_cli(capsys, ["verify", "--table", "mukai34"])
    raw = json.loads(resources.files("bwb").joinpath("data/catalog.json").read_text())
    del raw["tables"]["linear33"]
    trimmed = tmp_path / "no-linear33.json"
    trimmed.write_text(json.dumps(raw))
    monkeypatch.setenv("BWB_CATALOG", str(trimmed))
    for argv in (["verify"], ["verify", "--table", "linear33"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == f"catalog {trimmed} has no table 'linear33'"
    assert run_cli(capsys, ["verify", "--table", "mukai34"]) == (0, mukai)


@pytest.mark.parametrize("table, argv", [("moduli43", ["verify"]),
                                         ("dual44", ["verify", "--table", "series41"])])
def test_series_tables_must_share_their_rows(tmp_path, monkeypatch, table, argv):
    raw = json.loads(resources.files("bwb").joinpath("data/catalog.json").read_text())
    if table == "moduli43":
        raw["tables"]["moduli43"]["rows"] = ["OP2", "S12", "S14"]
    else:  # a missing table lists no rows
        del raw["tables"]["dual44"]
    broken = tmp_path / "rows.json"
    broken.write_text(json.dumps(raw))
    monkeypatch.setenv("BWB_CATALOG", str(broken))
    with pytest.raises(SystemExit, match=f"rows of {table} differ from series41's") as exc:
        main(argv)
    assert exc.value.code not in (0, None)


def test_timestamp_flag_controls_determinism(capsys):
    rc1, out1 = run_cli(capsys, ["jacring", "--scan", "7", "2", "4"])
    rc2, out2 = run_cli(capsys, ["jacring", "--scan", "7", "2", "4"])
    assert out1 == out2
    _, stamped = run_cli(capsys, ["jacring", "--scan", "7", "2", "4",
                                  "--timestamp"])
    assert stamped.startswith("# generated ")
    assert stamped.splitlines()[1:] == out1.splitlines()


def test_csv_and_markdown_formats(capsys):
    rc, out = run_cli(capsys, ["bott", "--space", "S10", "--form", "2",
                               "--twist", "-6", "--csv"])
    assert (rc, out) == (0, "q,dim\n9,10\n")
    rc, out = run_cli(capsys, ["moduli", "--space", "OP2", "--linear", "9",
                               "--all-routes", "--csv"])
    assert out == ("route,value\ngrassmannian,84\ncohomological,84\n"
                   "closed-form,84\nhodge-middle,84\n")
    rc, out = run_cli(capsys, ["moduli", "--space", "S10", "--cut", "2",
                               "--markdown"])
    assert out == "| route | value |\n|---|---|\n| cohomological | 80 |\n"
    rc, out = run_cli(capsys, ["jacring", "--weights", "1,1,1,1,1,1,2",
                               "--degree", "4", "--csv"])
    assert out == ('weights,degree,dim,middle,moduli\n'
                   '"1,1,1,1,1,1,2",4,5,0 1 90 90 1 0,90\n')
    rc, out = run_cli(capsys, ["hodge", "--space", "S10", "--cut", "2",
                               "--markdown"])
    assert out.splitlines()[0] == "| p | q | h |"
    assert out.splitlines()[-1] == "| 5 | 4 | 70 |"



def test_csv_quotes_interval_cells(capsys):
    rc, out = run_cli(capsys, ["hodge", "--space", "S12", "--cut", "2", "--csv"])
    assert rc == 0
    assert "8,6,\"[8547,8624]\"" in out.splitlines()
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "q", "h"]
    assert all(len(r) == 3 for r in rows)
    assert ["8", "6", "[8547,8624]"] in rows


def test_report_cell_with_a_wide_interval():
    """An interval that holds the fixture is indeterminate, as is one with
    no fixture stored, and prints as `hodge --csv` prints it."""
    for fixture in (5, None):
        cell = _cell("t", "r", "c", fixture, Iv(0, 10**6))
        assert (cell.status, cell.computed) == ("indeterminate", "[0,1000000]")
    assert _cell("t", "r", "c", 7, Iv(3, 5)).status == "mismatch"
    assert _cell("t", "r", "c", 4, Iv(3, 5)).computed == "[3,5]"
    assert _cell("t", "r", "c", 4, Iv(4, 4)).computed == 4


@pytest.mark.parametrize("flag", ["--json", "--csv", "--markdown"])
def test_trace_is_text_only(capsys, flag):
    argv = ["bott", "--space", "OP2", "--form", "2", "--twist", "-9", "--trace"]
    with pytest.raises(SystemExit, match=f"--trace prints text only, not {flag}"):
        main(argv + [flag])
    assert capsys.readouterr().out == ""


def test_format_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bott", "--space", "S10", "--form", "2", "--json", "--csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --json" in captured.err

@pytest.mark.parametrize("space, label, message", [
    ("S10", "Q*:2,1", "--schur block 'Q*' is not used on S10; accepted: E"),
    ("G(2,6)", "Q:2,1",
     "--schur block 'Q' is not used on G(2,6); accepted: Q*, E"),
    ("G(2,6)", "E:1;Q:1",
     "--schur block 'Q' is not used on G(2,6); accepted: Q*, E"),
    ("P3xP3", "E:1", "--schur labels are not defined for P3xP3"),
])
def test_schur_refuses_unknown_blocks(capsys, space, label, message):
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        main(["bott", "--space", space, "--schur", label])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("space, label, name", [
    ("S10", "E:1;E:2", "E"),
    ("G(2,6)", "Q*:1;E:1; Q*:2", "Q*"),
])
def test_schur_refuses_repeated_blocks(capsys, space, label, name):
    message = f"--schur block {name!r} is given twice"
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        main(["bott", "--space", space, "--schur", label])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("space, label, name, body", [
    ("S10", "E:2.0", "E", "2.0"),
    ("S10", "E:2,x", "E", "2,x"),
    ("S10", "E:-1", "E", "-1"),
    ("S10", "E:2_0,1", "E", "2_0,1"),
    ("S10", "E:2, 1", "E", "2, 1"),
    ("S10", "E:\u0662", "E", "\u0662"),
    ("S10", "E:\u0662,1", "E", "\u0662,1"),
    ("G(2,6)", "Q*:2.0;E:1", "Q*", "2.0"),
])
def test_schur_refuses_labels_that_are_not_integers(capsys, space, label, name, body):
    message = (f"--schur block {name!r} has label {body!r}; use digits (21) "
               "or comma-separated integers (2,1)")
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        main(["bott", "--space", space, "--schur", label])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("label, out", [
    ("E:21", "acyclic\n"), ("E:2,1", "acyclic\n"), ("E:", "H^0, dim 1\n")])
def test_schur_digit_comma_and_empty_labels(capsys, label, out):
    assert run_cli(capsys, ["bott", "--space", "S10", "--schur", label]) == (0, out)


@pytest.mark.parametrize("argv, flag, text", [
    (["hodge", "--space", "S10", "--cut", "1_0"], "--cut", "1_0"),
    (["moduli", "--space", "S10", "--cut", "2,x"], "--cut", "x"),
    (["hodge", "--space", "S10", "--cut", "1,\u0662"], "--cut", "\u0662"),
    (["hodge", "--space", "S10", "--cut", " 2"], "--cut", " 2"),
    (["hodge", "--space", "S10", "--cut", ""], "--cut", ""),
    (["jacring", "--weights", "1,1,1_0", "--degree", "3"], "--weights", "1_0"),
    (["jacring", "--weights", "1,,1", "--degree", "3"], "--weights", ""),
    (["bott", "--space", "S10", "--form", "1_0"], "--form", "1_0"),
    (["bott", "--space", "S10", "--form", "2", "--twist", " 2"], "--twist", " 2"),
    (["moduli", "--space", "S10", "--linear", "1_0"], "--linear", "1_0"),
    (["hodge", "--space", "S10", "--linear", "\u0662"], "--linear", "\u0662"),
    (["jacring", "--weights", "1,1,1", "--degree", "3.0"], "--degree", "3.0"),
    (["jacring", "--weights", "1,1,1", "--degree", "3", "--at", "0x1"], "--at", "0x1"),
    (["jacring", "--scan", "3", "7", "1_4"], "--scan", "1_4"),
])
def test_integer_lists_take_only_signed_ascii_digits(capsys, argv, flag, text):
    """Every integer flag, and each item of a comma-separated list, is an
    optional sign and ASCII digits; int() alone would read "1_0" as 10."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: expected an integer, "
                                 f"got {text!r}\n")


def test_form_and_schur_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bott", "--space", "G(2,6)", "--form", "2", "--schur", "E:1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --form" in captured.err


def test_bott_needs_form_or_schur(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bott", "--space", "S10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: one of the arguments --form --schur is required\n")


@pytest.mark.parametrize("argv, message", [
    (["moduli", "--space", "OP2", "--linear", "9", "--cut", "1"],
     "argument --cut: not allowed with argument --linear"),
    (["hodge", "--space", "S10", "--cut", "2", "--linear", "1"],
     "argument --linear: not allowed with argument --cut"),
    (["hodge", "--space", "S10"], "one of the arguments --cut --linear is required"),
    (["moduli", "--space", "S10", "--cut", "2", "--all-routes", "--route",
      "cohomological"], "argument --route: not allowed with argument --all-routes"),
], ids=["moduli-linear-cut", "hodge-cut-linear", "hodge-neither", "all-routes-route"])
def test_section_and_route_flags_are_mutually_exclusive(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_schur_grassmannian_label_equals_both_oracles(capsys):
    """The Grassmannian branch of --schur: Q* and E blocks on G(2,6) go
    through grassmann_bundle, and the printed group equals the epsilon-
    sequence rule and the generic walk."""
    space = load_catalog().space("G(2,6)")
    assert sequence_cohomology(grassmann_sequence(space, (2, 1), (3,), -3)) == (6, 35)
    assert bott(grassmann_bundle(space, (2, 1), (3,), -3)).dims() == {6: 35}
    assert run_cli(capsys, ["bott", "--space", "G(2,6)", "--schur", "Q*:21;E:3",
                            "--twist", "-3"]) == (0, "H^6, dim 35\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bwb.cli", "bott", "--space", "G(2,10)",
         "--form", "4", "--twist", "-5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "H^12, dim 1\n"


BOTT_LINES = [
    (["bott", "--space", "OP2", "--form", "2", "--twist", "-9"],
     "H^14, dim 1\n"),
    (["bott", "--space", "S12", "--form", "3", "--twist", "-6"],
     "H^12, dim 1\n"),
    (["bott", "--space", "G(2,10)", "--form", "4", "--twist", "-5"],
     "H^12, dim 1\n"),
    (["bott", "--space", "S14", "--form", "7", "--twist", "-4"],
     "H^14, dim 1\n"),
    (["bott", "--space", "S12", "--form", "3", "--twist", "-1"],
     "acyclic\n"),
    (["bott", "--space", "S10", "--schur", "E:211", "--twist", "-6"],
     "H^9, dim 10\n"),
    (["bott", "--space", "S10", "--form", "0", "--twist", "-10"],
     "H^10, dim 126\n"),
    (["bott", "--space", "S12", "--form", "5", "--twist", "-8"],
     "H^14: dim 21021\nH^15: dim 1287\n"),
    # the plain walk, as --trace prints it off E6
    (["bott", "--space", "G(2,6)", "--form", "1", "--trace"],
     "start (1, 1, 2, -1, 2)\n  s4 -> (1, 1, 1, 1, 1)\n\n"
     "dominant after 1 reflections: H^1 = C\n\nH^1, dim 1\n"),
    (["bott", "--space", "S10", "--form", "1", "--twist", "-1", "--trace"],
     "start (1, 1, 2, 1, -2)\n  s5 -> (1, 1, 0, 1, 2)\n\n"
     "stopped on a wall after 1 reflections: acyclic\n\nacyclic\n"),
]


# Every subcommand in every output format, byte for byte.  The hodge JSON
# record carries the full provenance list, so it is compared as a parsed
# object (and as its sorted-key encoding) rather than spelled out here.
S10_QUADRIC = ["--space", "S10", "--cut", "2"]
FORMAT_COMMANDS = {
    "bott": ["bott", "--space", "S10", "--form", "2", "--twist", "-6"],
    "hodge": ["hodge", *S10_QUADRIC],
    "moduli": ["moduli", *S10_QUADRIC],
    "moduli-all": ["moduli", *S10_QUADRIC, "--all-routes"],
    "jacring": ["jacring", "--weights", "1,1,1,1,1,1,2", "--degree", "4"],
    "scan": ["jacring", "--scan", "7", "2", "4"],
    "verify": ["verify", "--table", "quadric34"],
}
VERIFY_SUMMARY = ("\n5 cells: 4 match, 1 mismatch; "
                  "1 documented discrepancies, 0 undocumented\n")
FORMAT_BYTES = {
    ("bott", "text"): "H^9, dim 10\n",
    ("bott", "json"):
        '{"cohomology": {"9": 10}, "schema_version": 1, "space": "S10"}\n',
    ("bott", "csv"): "q,dim\n9,10\n",
    ("bott", "markdown"): "| q | dim |\n|---|---|\n| 9 | 10 |\n",
    ("hodge", "text"): "S10, cut (2,): dim 9\n"
                       "middle row h^{9,0} .. h^{5,4}: 0 0 0 1 70\n",
    ("hodge", "csv"): "p,q,h\n9,0,0\n8,1,0\n7,2,0\n6,3,1\n5,4,70\n",
    ("hodge", "markdown"): "| p | q | h |\n|---|---|---|\n| 9 | 0 | 0 |\n"
                           "| 8 | 1 | 0 |\n| 7 | 2 | 0 |\n| 6 | 3 | 1 |\n"
                           "| 5 | 4 | 70 |\n",
    ("moduli", "text"): "80  (cohomological)\n",
    ("moduli", "json"):
        '{"assumptions": ["assumes the ambient automorphisms inject into the '
        'section count (finite generic stabilizer)"], "inputs": {"delta": 45, '
        '"h0(cut)": 126, "s": 1}, "route": "cohomological", '
        '"schema_version": 1, "value": 80}\n',
    ("moduli", "csv"): "route,value\ncohomological,80\n",
    ("moduli", "markdown"):
        "| route | value |\n|---|---|\n| cohomological | 80 |\n",
    ("moduli-all", "text"): "80 != 70  (cohomological, hodge-middle)\n",
    ("moduli-all", "json"): '{"routes": {"cohomological": 80, '
                            '"hodge-middle": 70}, "schema_version": 1}\n',
    ("moduli-all", "csv"): "route,value\ncohomological,80\nhodge-middle,70\n",
    ("moduli-all", "markdown"): "| route | value |\n|---|---|\n"
                                "| cohomological | 80 |\n"
                                "| hodge-middle | 70 |\n",
    ("jacring", "text"):
        "weights (1,1,1,1,1,1,2) degree 4 dim 5: 0 1 90 90 1 0  (moduli 90)\n",
    ("jacring", "json"):
        '{"degree": 4, "dim": 5, "middle": [0, 1, 90, 90, 1, 0], "moduli": 90, '
        '"schema_version": 1, "weights": [1, 1, 1, 1, 1, 1, 2]}\n',
    ("jacring", "csv"): 'weights,degree,dim,middle,moduli\n'
                        '"1,1,1,1,1,1,2",4,5,0 1 90 90 1 0,90\n',
    ("jacring", "markdown"):
        "| weights | degree | dim | middle | moduli |\n|---|---|---|---|---|\n"
        "| 1,1,1,1,1,1,2 | 4 | 5 | 0 1 90 90 1 0 | 90 |\n",
    ("scan", "text"):
        "weights (1,1,1,1,1,1,2) degree 4 dim 5: 0 1 90 90 1 0  (moduli 90)\n"
        "weights (1,1,1,1,1,1,1,1,1) degree 3 dim 7: 0 0 1 84 84 1 0 0  "
        "(moduli 84)\n"
        "weights (1,1,1,1,1,1,2,2,2) degree 4 dim 7: 0 0 1 90 90 1 0 0  "
        "(moduli 90)\n",
    ("scan", "json"):
        '{"degree": 4, "dim": 5, "middle": [0, 1, 90, 90, 1, 0], "moduli": 90, '
        '"schema_version": 1, "weights": [1, 1, 1, 1, 1, 1, 2]}\n'
        '{"degree": 3, "dim": 7, "middle": [0, 0, 1, 84, 84, 1, 0, 0], '
        '"moduli": 84, "schema_version": 1, '
        '"weights": [1, 1, 1, 1, 1, 1, 1, 1, 1]}\n'
        '{"degree": 4, "dim": 7, "middle": [0, 0, 1, 90, 90, 1, 0, 0], '
        '"moduli": 90, "schema_version": 1, '
        '"weights": [1, 1, 1, 1, 1, 1, 2, 2, 2]}\n',
    ("scan", "csv"): 'weights,degree,dim,middle,moduli\n'
                     '"1,1,1,1,1,1,2",4,5,0 1 90 90 1 0,90\n'
                     '"1,1,1,1,1,1,1,1,1",3,7,0 0 1 84 84 1 0 0,84\n'
                     '"1,1,1,1,1,1,2,2,2",4,7,0 0 1 90 90 1 0 0,90\n',
    ("scan", "markdown"):
        "| weights | degree | dim | middle | moduli |\n|---|---|---|---|---|\n"
        "| 1,1,1,1,1,1,2 | 4 | 5 | 0 1 90 90 1 0 | 90 |\n"
        "| 1,1,1,1,1,1,1,1,1 | 3 | 7 | 0 0 1 84 84 1 0 0 | 84 |\n"
        "| 1,1,1,1,1,1,2,2,2 | 4 | 7 | 0 0 1 90 90 1 0 0 | 90 |\n",
    ("verify", "text"):
        "table      row  column  fixture  computed  status    note\n"
        "quadric34  S10  h54     80       70        mismatch  "
        "documented discrepancy\n"
        "quadric34  S10  h63     1        1         match\n"
        "quadric34  S10  h72     0        0         match\n"
        "quadric34  S10  h81     0        0         match\n"
        "quadric34  S10  h90     0        0         match\n" + VERIFY_SUMMARY,
    ("verify", "json"):
        '{"column": "h54", "computed": 70, "fixture": 80, '
        '"note": "documented discrepancy", "row": "S10", "schema_version": 1, '
        '"status": "mismatch", "table": "quadric34"}\n'
        + "".join('{"column": "%s", "computed": %d, "fixture": %d, "note": "", '
                  '"row": "S10", "schema_version": 1, "status": "match", '
                  '"table": "quadric34"}\n' % (c, v, v)
                  for c, v in (("h63", 1), ("h72", 0), ("h81", 0), ("h90", 0))),
    ("verify", "csv"): "table,row,column,fixture,computed,status,note\n"
                       "quadric34,S10,h54,80,70,mismatch,documented discrepancy\n"
                       "quadric34,S10,h63,1,1,match,\n"
                       "quadric34,S10,h72,0,0,match,\n"
                       "quadric34,S10,h81,0,0,match,\n"
                       "quadric34,S10,h90,0,0,match,\n",
    ("verify", "markdown"):
        "| table | row | column | fixture | computed | status | note |\n"
        "|---|---|---|---|---|---|---|\n"
        "| quadric34 | S10 | h54 | 80 | 70 | mismatch | documented discrepancy |\n"
        "| quadric34 | S10 | h63 | 1 | 1 | match |  |\n"
        "| quadric34 | S10 | h72 | 0 | 0 | match |  |\n"
        "| quadric34 | S10 | h81 | 0 | 0 | match |  |\n"
        "| quadric34 | S10 | h90 | 0 | 0 | match |  |\n" + VERIFY_SUMMARY,
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "markdown"])
@pytest.mark.parametrize("name", list(FORMAT_COMMANDS))
def test_every_format_byte_for_byte(capsys, name, fmt):
    argv = FORMAT_COMMANDS[name] + ([] if fmt == "text" else [f"--{fmt}"])
    rc, out = run_cli(capsys, argv)
    assert rc == 0
    if (name, fmt) != ("hodge", "json"):
        assert out == FORMAT_BYTES[name, fmt]
        return
    payload = json.loads(out)
    row = section_hodge(section_spec(load_catalog().space("S10"), (2,)))
    assert payload == {"schema_version": 1, **row.as_json()}
    assert payload["middle"] == [0, 0, 0, 1, 70, 70, 1, 0, 0, 0]
    assert out == json.dumps(payload, sort_keys=True) + "\n"
