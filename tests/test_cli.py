import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from jacstab import cli, verify
from jacstab.errors import PhiConstructionError


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "jacstab.cli", *args],
                          capture_output=True, text=True, **kwargs)


@pytest.fixture
def vine_files(tmp_path):
    graph = {
        "genus": 2, "n": 1,
        "vertices": [{"id": 0, "h": 0, "markings": [1]},
                     {"id": 1, "h": 1, "markings": []}],
        "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [0, 1]}],
    }
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph))
    ppath = tmp_path / "phi.json"
    ppath.write_text(json.dumps({"values": {"0": "3/10", "1": "-3/10"}}))
    return gpath, ppath


@pytest.fixture
def unsorted_files(tmp_path):
    # vertex ids 7, 2, 4 and edge ids 9, 1, 5, 3 in input order; edges 9 and
    # 3 are parallel
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({
        "genus": 3, "n": 2,
        "vertices": [{"id": 7, "h": 0, "markings": [1]},
                     {"id": 2, "h": 1, "markings": []},
                     {"id": 4, "h": 0, "markings": [2]}],
        "edges": [{"id": 9, "ends": [7, 2]}, {"id": 1, "ends": [4, 7]},
                  {"id": 5, "ends": [2, 4]}, {"id": 3, "ends": [2, 7]}]}))
    ppath = tmp_path / "phi.json"
    ppath.write_text(json.dumps(
        {"values": {"7": "1/5", "2": "-1/3", "4": "2/15"}}))
    return gpath, ppath


class TestCheck:
    def test_valid(self, vine_files):
        gpath, _ = vine_files
        proc = run_cli("check", "--graph", str(gpath))
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")

    def test_invalid_names_invariant(self, tmp_path):
        bad = {"genus": 5, "n": 1,
               "vertices": [{"id": 0, "h": 1, "markings": [1]}],
               "edges": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli("check", "--graph", str(path))
        assert proc.returncode == 1
        assert "genus formula" in proc.stdout + proc.stderr

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("check", "--graph", str(path))
        assert proc.returncode == 1
        assert "error:" in proc.stderr


class TestStable:
    def test_line_bundles(self, vine_files):
        gpath, ppath = vine_files
        proc = run_cli("stable", "--graph", str(gpath), "--phi", str(ppath),
                       "--degree", "0", "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert [(tuple(F["S"]), tuple(F["D"].values())) for F in data] == \
            [((), (0, 0)), ((), (1, -1))]

    def test_nonfree_bytes_on_unsorted_ids(self, unsorted_files):
        gpath, ppath = unsorted_files
        args = ("stable", "--graph", str(gpath), "--phi", str(ppath),
                "--include-nonfree")
        text = run_cli(*args)
        assert text.returncode == 0
        assert text.stdout == """\
SheafDatum(S=[], D=(-1, 0, 1))
SheafDatum(S=[], D=(-1, 1, 0))
SheafDatum(S=[], D=(0, 0, 0))
SheafDatum(S=[], D=(0, 1, -1))
SheafDatum(S=[], D=(1, 0, -1))
SheafDatum(S=[1], D=(-1, 0, 0))
SheafDatum(S=[1], D=(0, 0, -1))
SheafDatum(S=[1, 3], D=(-1, 0, -1))
SheafDatum(S=[1, 9], D=(-1, 0, -1))
SheafDatum(S=[3], D=(-1, 0, 0))
SheafDatum(S=[3], D=(-1, 1, -1))
SheafDatum(S=[3], D=(0, 0, -1))
SheafDatum(S=[3, 5], D=(-1, 0, -1))
SheafDatum(S=[3, 9], D=(-1, 0, -1))
SheafDatum(S=[5], D=(-1, 0, 0))
SheafDatum(S=[5], D=(0, 0, -1))
SheafDatum(S=[5, 9], D=(-1, 0, -1))
SheafDatum(S=[9], D=(-1, 0, 0))
SheafDatum(S=[9], D=(-1, 1, -1))
SheafDatum(S=[9], D=(0, 0, -1))
"""
        js = run_cli(*args, "--format", "json")
        assert js.returncode == 0
        assert js.stdout == json.dumps([
            {"S": [], "D": {"2": -1, "4": 0, "7": 1}},
            {"S": [], "D": {"2": -1, "4": 1, "7": 0}},
            {"S": [], "D": {"2": 0, "4": 0, "7": 0}},
            {"S": [], "D": {"2": 0, "4": 1, "7": -1}},
            {"S": [], "D": {"2": 1, "4": 0, "7": -1}},
            {"S": [1], "D": {"2": -1, "4": 0, "7": 0}},
            {"S": [1], "D": {"2": 0, "4": 0, "7": -1}},
            {"S": [1, 3], "D": {"2": -1, "4": 0, "7": -1}},
            {"S": [1, 9], "D": {"2": -1, "4": 0, "7": -1}},
            {"S": [3], "D": {"2": -1, "4": 0, "7": 0}},
            {"S": [3], "D": {"2": -1, "4": 1, "7": -1}},
            {"S": [3], "D": {"2": 0, "4": 0, "7": -1}},
            {"S": [3, 5], "D": {"2": -1, "4": 0, "7": -1}},
            {"S": [3, 9], "D": {"2": -1, "4": 0, "7": -1}},
            {"S": [5], "D": {"2": -1, "4": 0, "7": 0}},
            {"S": [5], "D": {"2": 0, "4": 0, "7": -1}},
            {"S": [5, 9], "D": {"2": -1, "4": 0, "7": -1}},
            {"S": [9], "D": {"2": -1, "4": 0, "7": 0}},
            {"S": [9], "D": {"2": -1, "4": 1, "7": -1}},
            {"S": [9], "D": {"2": 0, "4": 0, "7": -1}},
        ], indent=2) + "\n"

    def test_degenerate_phi_exits_1(self, vine_files, tmp_path):
        gpath, _ = vine_files
        ppath = tmp_path / "wall.json"
        ppath.write_text(json.dumps({"values": {"0": "1", "1": "-1"}}))
        proc = run_cli("stable", "--graph", str(gpath), "--phi", str(ppath))
        assert proc.returncode == 1
        assert "degenerate parameter" in proc.stderr


    @pytest.mark.parametrize("graph", [
        {},
        {"genus": 1, "n": 1, "vertices": [{"id": 0, "h": 1, "markings": [1]}],
         "edges": [{"id": 0, "ends": []}]},
        # the valid vine of vine_files, with marking 1 listed twice
        {"genus": 2, "n": 1,
         "vertices": [{"id": 0, "h": 0, "markings": [1, 1]},
                      {"id": 1, "h": 1, "markings": []}],
         "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [0, 1]}]},
    ])
    def test_malformed_graph_exits_1(self, vine_files, tmp_path, graph):
        _, ppath = vine_files
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps(graph))
        for args in (("stable", "--graph", str(gpath), "--phi", str(ppath)),
                     ("check", "--graph", str(gpath))):
            proc = run_cli(*args)
            assert proc.returncode == 1
            assert proc.stderr.startswith("error:")
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("vertex", [
        {"id": [0], "h": 1, "markings": [1]},
        {"id": 0, "h": "1", "markings": [1]},
    ], ids=["list-id", "string-h"])
    def test_non_integer_field_exits_1(self, vine_files, tmp_path, vertex):
        _, ppath = vine_files
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps({"genus": 1, "n": 1, "vertices": [vertex],
                                     "edges": []}))
        for args in (("stable", "--graph", str(gpath), "--phi", str(ppath)),
                     ("check", "--graph", str(gpath))):
            proc = run_cli(*args)
            assert proc.returncode == 1
            assert proc.stderr.startswith("error:")
            assert "must be an integer" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_check_lists_structural_faults_without_raising(self, tmp_path):
        # duplicate vertex ids and no edges: subcurve tests would refuse it
        gpath = tmp_path / "broken.json"
        gpath.write_text(json.dumps({
            "genus": 2, "n": 1,
            "vertices": [{"id": 0, "h": 1, "markings": [1]},
                         {"id": 0, "h": 1, "markings": []}],
            "edges": []}))
        proc = run_cli("check", "--graph", str(gpath))
        assert proc.returncode == 1
        assert "duplicate vertex ids" in proc.stdout
        assert "graph not connected" in proc.stdout
        assert "Traceback" not in proc.stderr


class TestClassify:
    def test_unit_difference_text(self):
        proc = run_cli("classify", "--g", "2", "--n", "2",
                       "--k", "0", "--a", "1,-1")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "extends: yes"
        assert "phi table" in proc.stdout

    def test_no_with_witness(self):
        proc = run_cli("classify", "--g", "2", "--n", "1",
                       "--k", "1", "--a", "2", "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["extends"] is False
        assert report["witness_vine"]["bidegree"] == [2, -2]
        assert report["certificate"]["chambers"]

    def test_trivial_twist_exits_1(self):
        proc = run_cli("classify", "--g", "2", "--n", "1",
                       "--k", "0", "--a", "0")
        assert proc.returncode == 1
        assert "trivial" in proc.stderr

    def test_extends_without_table_refuses_trivial_twist_as_classify(self):
        for command in ("extends", "classify"):
            result = CliRunner().invoke(cli.main, [
                command, "--g", "1", "--n", "2", "--a", "0,0"])
            assert (result.exit_code, result.stdout, result.stderr) == \
                (1, "", "error: trivial twist\n")

    def test_all_zero_twist_of_wrong_length_is_invalid_not_trivial(self):
        result = CliRunner().invoke(cli.main, [
            "classify", "--g", "2", "--n", "2", "--a", "0,0,0"])
        assert (result.exit_code, result.stdout, result.stderr) == \
            (1, "", "error: twist vector length 3 != n=2\n")

    def test_deterministic(self):
        args = ("classify", "--g", "3", "--n", "2", "--k", "0",
                "--a", "1,-1", "--format", "json", "--seed", "9")
        assert run_cli(*args).stdout == run_cli(*args).stdout


G1N2_TABLE = {"g": 1, "n": 2, "entries": [
    {"g1": 0, "g2": 1, "e": 1, "S": [1, 2], "phi": "0"},
    {"g1": 0, "g2": 0, "e": 2, "S": [1], "phi": "101/200"},
]}
NOTE = ("phi table is per-vine; whether it lifts to a global stability "
        "parameter is not decided here")


class TestExtends:
    def test_yes_json_bytes(self):
        proc = run_cli("extends", "--g", "1", "--n", "2", "--a", "1,-1",
                       "--format", "json")
        assert proc.returncode == 0
        assert proc.stdout == json.dumps({
            "extends": True,
            "witness_vine": None,
            "phi_table": G1N2_TABLE,
            "note": NOTE,
        }, indent=2) + "\n"

    def test_no_json_bytes_from_given_table(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(G1N2_TABLE))
        proc = run_cli("extends", "--g", "1", "--n", "2", "--a", "2,-2",
                       "--phi", str(path), "--format", "json")
        assert proc.returncode == 0
        assert proc.stdout == json.dumps({
            "extends": False,
            "witness_vine": {"g1": 0, "g2": 0, "e": 2, "S": [1],
                             "bidegree": [2, -2]},
            "phi_table": G1N2_TABLE,
            "note": NOTE,
        }, indent=2) + "\n"

    def test_table_off_small_perturbation_exits_1(self, tmp_path):
        # the vine's bidegree 2 plus 1/101 is no small perturbation
        table = {"g": 1, "n": 2, "entries": [
            {"g1": 0, "g2": 0, "e": 2, "S": [1], "phi": "203/101"}]}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        proc = run_cli("extends", "--g", "1", "--n", "2", "--a", "2,-2",
                       "--phi", str(path))
        assert proc.returncode == 1
        assert "vine(g1=0, g2=0, e=2, S={1})" in proc.stderr
        assert proc.stdout == ""


_NOT_CANONICAL = "malformed phi JSON: vertex id %s is not a canonical integer"


class TestMalformedPhiJson:
    """A phi or phi table file of the wrong shape is an error, not a
    traceback."""

    @pytest.mark.parametrize("phi,message", [
        ({"values": [1, 2]}, "malformed phi JSON"),
        ([1], "malformed phi JSON"),
        ({"values": {"0": True, "1": -1}}, "booleans"),
        # keys int() reads but no canonical integer; "00" repeats vertex 0
        ({"values": {"0": "1/2", "00": "3/10", "1": "-3/10"}},
         _NOT_CANONICAL % "'00'"),
        ({"values": {" 0": "3/10", "1": "-3/10"}}, _NOT_CANONICAL % "' 0'"),
        ({"values": {"+0": "3/10", "1": "-3/10"}}, _NOT_CANONICAL % "'+0'"),
        ({"values": {"0_0": "3/10", "1": "-3/10"}},
         _NOT_CANONICAL % "'0_0'"),
    ], ids=["list-values", "list", "bool-value", "repeated-vertex-key",
            "space-key", "plus-key", "underscore-key"])
    def test_stable(self, vine_files, tmp_path, phi, message):
        gpath, _ = vine_files
        ppath = tmp_path / "phi.json"
        ppath.write_text(json.dumps(phi))
        proc = run_cli("stable", "--graph", str(gpath), "--phi", str(ppath))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr

    @pytest.mark.parametrize("table", [
        {"g": 1, "n": 2, "entries": 3},
        {"g": 1, "n": 2,
         "entries": [{"g1": 0, "g2": 0, "e": 2, "S": 5, "phi": "1/2"}]},
    ], ids=["int-entries", "int-S"])
    def test_extends(self, tmp_path, table):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        proc = run_cli("extends", "--g", "1", "--n", "2", "--a", "1,-1",
                       "--phi", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "error: cannot read phi table %s: malformed phi table JSON: " % path)


class TestUnreadableInputFile:
    """A graph, phi or phi-table file that cannot be opened, decoded or
    parsed is named in its error: ``cannot read WHAT PATH: ...``."""

    @pytest.mark.parametrize("content", [b"{not json", b"[1]", b"\xff"],
                             ids=["not-json", "wrong-shape", "not-utf8"])
    @pytest.mark.parametrize("what,args", [
        ("graph", ("check", "--graph", "BAD")),
        ("graph", ("stable", "--graph", "BAD", "--phi", "PHI")),
        ("phi", ("stable", "--graph", "GRAPH", "--phi", "BAD")),
        ("phi table", ("extends", "--g", "1", "--n", "2", "--a", "1,-1",
                       "--phi", "BAD")),
    ], ids=["check-graph", "stable-graph", "stable-phi", "extends-phi-table"])
    def test_named(self, vine_files, tmp_path, content, what, args):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        paths = {"BAD": str(bad), "GRAPH": str(vine_files[0]),
                 "PHI": str(vine_files[1])}
        result = CliRunner().invoke(cli.main,
                                    [paths.get(arg, arg) for arg in args])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: cannot read %s %s: "
                                        % (what, bad))
        assert result.stderr.count("\n") == 1


class TestEmptyTextOutput:
    """A text listing with nothing to list writes no bytes at all."""

    @pytest.mark.parametrize("args", [
        ("vines", "--g", "1", "--n", "1", "--min-edges", "3"),
        ("walls", "--g", "1", "--n", "1", "--window", "-1..1"),
    ], ids=["vines", "walls"])
    def test_empty_listing(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_stable_with_no_stable_datum(self, unsorted_files):
        gpath, ppath = unsorted_files
        args = ("stable", "--graph", str(gpath), "--phi", str(ppath),
                "--include-nonfree", "--degree", "-3")
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert run_cli(*args, "--format", "json").stdout == "[]\n"

    def test_empty_listing_to_file(self, tmp_path):
        out = tmp_path / "vines.txt"
        proc = run_cli("vines", "--g", "1", "--n", "1", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == "" and out.read_bytes() == b""


class TestOutWriteFailure:
    """A failed --out write is ``error: cannot write PATH: ...``, exit 1, on
    every command that takes --out."""

    @pytest.mark.parametrize("args", [
        ("vines", "--g", "2", "--n", "1"),
        ("stable",),
        ("walls", "--g", "2", "--n", "1", "--window", "-1..1"),
        ("atlas", "--g", "2", "--n", "1", "--window", "-1..1"),
        ("extends", "--g", "1", "--n", "2", "--a", "1,-1"),
        ("classify", "--g", "2", "--n", "1", "--k", "1", "--a", "2"),
    ], ids=lambda args: args[0])
    def test_missing_directory(self, vine_files, tmp_path, args):
        if args == ("stable",):
            gpath, ppath = vine_files
            args += ("--graph", str(gpath), "--phi", str(ppath))
        out = tmp_path / "missing" / "x"
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write %s: " % out)
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestOversizedInput:
    """Inputs past a ceiling fail at once instead of running for hours."""

    @pytest.mark.parametrize("args,message", [
        (("vines", "--g", "2", "--n", "40"), "g=2, n=40"),
        (("walls", "--g", "2", "--n", "1", "--window", "-20000..20000"),
         "holds 40000 walls"),
        (("atlas", "--g", "2", "--n", "1", "--window", "-20000..20000"),
         "holds 40000 walls"),
        (("atlas", "--g", "2", "--n", "1",
          "--window", "-1000000000..1000000000"), "holds 2000000000 walls"),
    ], ids=["vines", "walls", "atlas", "atlas-1e9"])
    def test_fails_fast(self, args, message):
        proc = run_cli(*args, timeout=10)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr
        assert proc.stdout == ""


class TestUsageErrors:
    def test_decimal_rational_rejected(self):
        proc = run_cli("walls", "--g", "2", "--n", "1", "--window", "-1.5..1")
        assert proc.returncode == 2
        assert "p/q" in proc.stderr

    def test_zero_denominator_rejected(self):
        proc = run_cli("walls", "--g", "2", "--n", "1", "--window", "1/0..1")
        assert proc.returncode == 2
        assert "zero denominator" in proc.stderr

    def test_non_ascii_digit_window_rejected(self):
        # Arabic-Indic one on both ends of the window
        proc = run_cli("walls", "--g", "2", "--n", "1",
                       "--window", "-\u0661..\u0661")
        assert proc.returncode == 2
        assert "p/q" in proc.stderr

    def test_decimal_phi_file_rejected(self, vine_files, tmp_path):
        gpath, _ = vine_files
        ppath = tmp_path / "decimal_phi.json"
        ppath.write_text(json.dumps({"values": {"0": "0.3", "1": "-0.3"}}))
        proc = run_cli("stable", "--graph", str(gpath), "--phi", str(ppath))
        assert proc.returncode == 1
        assert "p/q" in proc.stderr

    @pytest.mark.parametrize("a_text", ["1,,-1", "1,", " 1_0,-1_0"])
    def test_twist_items_are_signed_ascii_digits(self, a_text):
        result = CliRunner().invoke(cli.main, ["classify", "--g", "2", "--n",
                                               "2", "--a", a_text])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "expected comma-separated integers, got %r" % a_text \
            in result.stderr

    def test_missing_required_flag(self):
        proc = run_cli("vines", "--g", "2")
        assert proc.returncode == 2


class TestAtlasCommand:
    def test_byte_identical_across_runs_and_jobs(self, tmp_path):
        outs = []
        for jobs in ("1", "1", "3"):
            out = tmp_path / ("atlas_%s_%d.json" % (jobs, len(outs)))
            proc = run_cli("atlas", "--g", "2", "--n", "1",
                           "--window", "-1..1", "--jobs", jobs,
                           "--out", str(out))
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_debug_log_goes_to_stderr(self):
        golden = Path(__file__).parent / "golden" / "atlas_g2_n1.json"
        proc = run_cli("atlas", "--g", "2", "--n", "1", "--window", "-3..3",
                       env={**os.environ, "JACSTAB_LOG": "DEBUG"})
        assert proc.returncode == 0
        assert "atlas g=2 n=1: 3 vines, 3 chamber searches" in proc.stderr
        assert proc.stdout.encode("utf-8") == golden.read_bytes()

    def test_nonfree_edge_ceiling_exits_at_once(self):
        proc = run_cli("atlas", "--g", "30", "--n", "1", "--window", "-1..1",
                       "--include-nonfree", timeout=10)
        assert proc.returncode == 1
        assert "31 edges, non-free limit is 16" in proc.stderr

    def test_csv_format(self):
        proc = run_cli("atlas", "--g", "2", "--n", "1",
                       "--window", "-1..1", "--format", "csv")
        assert proc.returncode == 0
        header = proc.stdout.splitlines()[0]
        assert header.startswith("g,n,g1,g2,e,S,")


class TestOtherCommands:
    def test_vines_json(self):
        proc = run_cli("vines", "--g", "2", "--n", "1", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert {"g1": 0, "g2": 1, "e": 2, "S": [1]} in payload

    def test_walls_text(self):
        proc = run_cli("walls", "--g", "2", "--n", "1", "--window", "-1..1")
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_extends_requires_table_for_general_twist(self):
        proc = run_cli("extends", "--g", "2", "--n", "1",
                       "--k", "1", "--a", "2")
        assert proc.returncode == 1
        assert "provide a table" in proc.stderr

    def test_walls_json_bytes(self):
        proc = run_cli("walls", "--g", "1", "--n", "2", "--window", "-1..1",
                       "--format", "json")
        assert proc.returncode == 0
        assert proc.stdout == json.dumps([
            {"vine": {"g1": 0, "g2": 1, "e": 1, "S": [1, 2]},
             "walls": ["-1/2", "1/2"]},
            {"vine": {"g1": 0, "g2": 0, "e": 2, "S": [1]},
             "walls": ["-1", "0", "1"]},
        ], indent=2) + "\n"

    def test_verify_small_suite(self):
        proc = run_cli("verify", "--suite", "tree-count",
                       "--max-vertices", "2", "--max-edges", "3",
                       "--trials", "3", "--seed", "1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("tree-count: pass")

    def test_verify_debug_log_leaves_stdout_alone(self):
        args = ("verify", "--suite", "tree-count", "--max-vertices", "2",
                "--max-edges", "3", "--trials", "3", "--seed", "1",
                "--jobs", "2")
        quiet = run_cli(*args)
        loud = run_cli(*args, env={**os.environ, "JACSTAB_LOG": "DEBUG"})
        assert quiet.returncode == loud.returncode == 0
        assert loud.stdout == quiet.stdout
        assert "tree-count: 103 corpus graphs" in loud.stderr
        assert "tree-count: pool of 2 workers" in loud.stderr
        assert quiet.stderr == ""

    @pytest.mark.parametrize("bound", [
        ("--suite", "tree-count", "--trials", "-1"),
        ("--suite", "cor25", "--max-vertices", "0"),
        ("--suite", "prop41", "--trials", "0")])
    def test_verify_refuses_vacuous_bounds(self, bound):
        result = CliRunner().invoke(cli.main, ["verify", *bound])
        assert (result.exit_code, result.stdout, result.stderr) == (
            1, "", "error: need trials >= 1, max_vertices >= 1 and "
                   "max_edges >= 0\n")

    def test_verify_refuses_negative_seed(self):
        result = CliRunner().invoke(
            cli.main, ["verify", "--suite", "tree-count", "--seed", "-1"])
        assert (result.exit_code, result.stdout, result.stderr) == (
            1, "", "error: need an int seed >= 0, got -1\n")
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)

    def test_verify_refuses_jobs_below_one(self):
        result = CliRunner().invoke(
            cli.main, ["verify", "--suite", "prop41", "--jobs", "0"])
        assert (result.exit_code, result.stdout, result.stderr) == (
            1, "", "error: need jobs >= 1, got 0\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verify_raising_case_prints_fail(self, monkeypatch, jobs):
        # an exception inside a case is a failing case, not a traceback
        true = verify.is_small_perturbation

        def check(graph, phi):
            if len(graph.vertices) == 2:
                raise RuntimeError("boom")
            return true(graph, phi)

        monkeypatch.setattr(verify, "is_small_perturbation", check)
        result = CliRunner().invoke(cli.main, [
            "verify", "--suite", "cor25", "--max-vertices", "2",
            "--max-edges", "3", "--trials", "2", "--seed", "1",
            "--jobs", jobs])
        assert (result.exit_code, result.stderr) == (1, "")
        assert result.stdout == (
            "cor25: FAIL (121 cases)\n  first counterexample: item 18 "
            "(replay seed 1000021) raised RuntimeError: boom\n")

    def test_verify_sampling_failure_exits_cleanly(self, monkeypatch):
        def fail(*args, **kwargs):
            raise PhiConstructionError("failed to sample a nondegenerate phi")

        monkeypatch.setattr(verify, "run_suite", fail)
        result = CliRunner().invoke(cli.main, ["verify", "--suite", "cor25"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == \
            "error: failed to sample a nondegenerate phi\n"

    @pytest.mark.parametrize("exc,message", [
        (OSError("disk gone"), "disk gone"),
        (ValueError("bad bound"), "bad bound"),
        (KeyError("vertex"), "'vertex'"),
    ], ids=["OSError", "ValueError", "KeyError"])
    def test_verify_other_errors_exit_cleanly(self, monkeypatch, exc,
                                              message):
        # the one error boundary covers verify as it covers every command
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(verify, "run_suite", fail)
        result = CliRunner().invoke(cli.main, ["verify", "--suite", "cor25"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: %s\n" % message


def test_cli_import_does_not_load_multiprocessing():
    # verify imports its process pool only when --jobs > 1 asks for one
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, jacstab.cli; "
         "assert 'multiprocessing' not in sys.modules, 'multiprocessing'"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_builds_no_suite_items():
    # run_suite builds a suite's corpus or twists when it runs, not at import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; built = []; "
         "sys.setprofile(lambda frame, event, arg: event == 'call' and "
         "frame.f_code.co_name in ('stable_graph_corpus', '_twists') and "
         "built.append(frame.f_code.co_name)); "
         "import jacstab.cli; sys.setprofile(None); "
         "assert built == [], built"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_PIN_FILES = {
    "g.json": {
        "genus": 2, "n": 1,
        "vertices": [{"id": 0, "h": 0, "markings": [1]},
                     {"id": 1, "h": 1, "markings": []}],
        "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [0, 1]}]},
    "phi.json": {"values": {"0": "3/10", "1": "-3/10"}},
    "u.json": {
        "genus": 3, "n": 2,
        "vertices": [{"id": 7, "h": 0, "markings": [1]},
                     {"id": 2, "h": 1, "markings": []},
                     {"id": 4, "h": 0, "markings": [2]}],
        "edges": [{"id": 9, "ends": [7, 2]}, {"id": 1, "ends": [4, 7]},
                  {"id": 5, "ends": [2, 4]}, {"id": 3, "ends": [2, 7]}]},
    "uphi.json": {"values": {"7": "1/5", "2": "-1/3", "4": "2/15"}},
    "bad_genus.json": {"genus": 5, "n": 1,
                       "vertices": [{"id": 0, "h": 1, "markings": [1]}],
                       "edges": []},
    "wall.json": {"values": {"0": "1", "1": "-1"}},
    "decimal.json": {"values": {"0": "0.3", "1": "-0.3"}},
    "list.json": [1],
    "short_phi.json": {"values": {"0": "1/3"}},
    "table.json": G1N2_TABLE,
    "off_table.json": {"g": 1, "n": 2, "entries": [
        {"g1": 0, "g2": 0, "e": 2, "S": [1], "phi": "203/101"}]},
}

# every command's text and json/csv output and its usage (exit 2) and domain
# (exit 1) errors; a failed --out write is tested on its own below
_PINNED_INVOCATIONS = [
    (), ("--help",),
    ("vines", "--help"), ("check", "--help"), ("stable", "--help"),
    ("walls", "--help"), ("atlas", "--help"), ("extends", "--help"),
    ("classify", "--help"), ("verify", "--help"),
    ("vines", "--g", "2", "--n", "1"),
    ("vines", "--g", "3", "--n", "2", "--format", "json"),
    ("vines", "--g", "3", "--n", "2", "--min-edges", "2"),
    ("vines", "--g", "1", "--n", "1", "--min-edges", "3"),
    ("vines", "--g", "0", "--n", "1"),
    ("vines", "--g", "2"),
    ("vines", "--g", "2", "--n", "1", "--format", "csv"),
    ("check", "--graph", "g.json"),
    ("check", "--graph", "bad_genus.json"),
    ("check", "--graph", "broken.json"),
    ("check", "--graph", "list.json"),
    ("check", "--graph", "missing.json"),
    ("stable", "--graph", "g.json", "--phi", "phi.json"),
    ("stable", "--graph", "g.json", "--phi", "phi.json", "--format", "json"),
    ("stable", "--graph", "u.json", "--phi", "uphi.json",
     "--include-nonfree"),
    ("stable", "--graph", "u.json", "--phi", "uphi.json",
     "--include-nonfree", "--degree", "-1", "--format", "json"),
    ("stable", "--graph", "u.json", "--phi", "uphi.json", "--degree", "-3"),
    ("stable", "--graph", "bad_genus.json", "--phi", "phi.json"),
    ("stable", "--graph", "broken.json", "--phi", "phi.json"),
    ("stable", "--graph", "g.json", "--phi", "wall.json"),
    ("stable", "--graph", "g.json", "--phi", "decimal.json"),
    ("stable", "--graph", "g.json", "--phi", "broken.json"),
    ("stable", "--graph", "g.json", "--phi", "list.json"),
    ("stable", "--graph", "g.json", "--phi", "short_phi.json"),
    ("stable", "--graph", "g.json"),
    ("walls", "--g", "2", "--n", "1", "--window", "-1..1"),
    ("walls", "--g", "1", "--n", "2", "--window", "-1..1",
     "--format", "json"),
    ("walls", "--g", "1", "--n", "1", "--window", "-1..1"),
    ("walls", "--g", "2", "--n", "1", "--window", "1..-1"),
    ("walls", "--g", "2", "--n", "1", "--window", "-1.5..1"),
    ("walls", "--g", "2", "--n", "1", "--window", "1"),
    ("walls", "--g", "0", "--n", "1", "--window", "-1..1"),
    ("atlas", "--g", "2", "--n", "1", "--window", "-3..3"),
    ("atlas", "--g", "2", "--n", "2", "--window", "-1..1",
     "--format", "csv", "--include-nonfree"),
    ("atlas", "--g", "2", "--n", "1", "--window", "-1..1", "--jobs", "3"),
    ("atlas", "--g", "30", "--n", "1", "--window", "-1..1",
     "--include-nonfree"),
    ("atlas", "--g", "2", "--n", "1", "--window", "1..-1"),
    ("atlas", "--g", "0", "--n", "1", "--window", "-1..1"),
    ("atlas", "--g", "2", "--n", "1", "--window", "x..1"),
    ("extends", "--g", "1", "--n", "2", "--a", "1,-1"),
    ("extends", "--g", "1", "--n", "2", "--a", "1,-1", "--format", "json"),
    ("extends", "--g", "1", "--n", "2", "--a", "2,-2", "--phi", "table.json"),
    ("extends", "--g", "1", "--n", "2", "--a", "2,-2", "--phi", "table.json",
     "--format", "json"),
    ("extends", "--g", "2", "--n", "1", "--k", "1", "--a", "2"),
    ("extends", "--g", "1", "--n", "2", "--a", "2,-2",
     "--phi", "off_table.json"),
    ("extends", "--g", "1", "--n", "2", "--a", "1,-1", "--phi", "list.json"),
    ("extends", "--g", "1", "--n", "2", "--a", "1,-1",
     "--phi", "broken.json"),
    ("extends", "--g", "1", "--n", "2", "--a", "1,x"),
    ("extends", "--g", "1", "--n", "2", "--a", "0,0"),
    ("classify", "--g", "2", "--n", "2", "--a", "1,-1"),
    ("classify", "--g", "2", "--n", "2", "--a", "1,-1", "--format", "json",
     "--seed", "9"),
    ("classify", "--g", "2", "--n", "1", "--k", "1", "--a", "2"),
    ("classify", "--g", "2", "--n", "1", "--k", "1", "--a", "2",
     "--format", "json"),
    ("classify", "--g", "2", "--n", "1", "--a", "0"),
    ("classify", "--g", "2", "--n", "2", "--a", "1"),
    ("classify", "--g", "2", "--n", "1", "--a", "a"),
    ("verify", "--suite", "tree-count", "--max-vertices", "2",
     "--max-edges", "3", "--trials", "3", "--seed", "1"),
    ("verify", "--suite", "nope"),
]


def test_cli_outputs_are_pinned(tmp_path, monkeypatch):
    # sha256 over (arguments, exit code, stdout, stderr) of every invocation
    # above, run in-process from a directory holding the input files so that
    # the paths in messages do not vary
    monkeypatch.chdir(tmp_path)
    for name, data in _PIN_FILES.items():
        Path(name).write_text(json.dumps(data))
    Path("broken.json").write_text("{not json")
    runner = CliRunner()
    digest = hashlib.sha256()
    for args in _PINNED_INVOCATIONS:
        result = runner.invoke(cli.main, list(args))
        assert result.exception is None or \
            isinstance(result.exception, SystemExit), (args, result.exception)
        digest.update(json.dumps([list(args), result.exit_code, result.stdout,
                                  result.stderr]).encode())
    assert digest.hexdigest() == (
        "26d3e97eca8c13ae3aea46a0c4e0cdc732171746eba8f0b7d971cb656382737e")
