import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regula import RegulaError
from regula.cli import build_parser, main
from regula.suites import SUITE_NAMES, SUITES, _registry, run_suite
from test_exprs import EXPRESSIONS


BIG_SEMIPRIME = 210000000000000000000000009007400000000000000000000014337989


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(RegulaError):
            run_suite("everything")

    def test_table_matches_registry_and_cli(self):
        # a registry suite with no table row would never run
        registry = _registry()["suites"]
        assert set(registry) <= set(SUITES)
        assert {name for name, (description, _) in SUITES.items()
                if description is None} <= set(registry)
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == SUITE_NAMES

    def test_summary_matches_statuses(self, reports):
        for rep in reports.values():
            summary = rep.summary()
            assert sum(summary.values()) == len(rep.checks)
            for status in ("pass", "fail", "out_of_scope", "flagged"):
                assert summary[status] == sum(1 for c in rep.checks if c.status == status)

    def test_theorem_b_clean(self, reports):
        rep = reports["theorem-b"]
        assert not rep.failed
        assert rep.summary()["out_of_scope"] == 1

    def test_ninomiya_clean(self, reports):
        assert not reports["ninomiya-3"].failed

    def test_five_classes_clean(self, reports):
        rep = reports["five-classes"]
        assert not rep.failed
        assert rep.summary()["out_of_scope"] == 1

    def test_families_has_the_known_discrepancies(self, reports):
        rep = reports["families"]
        flagged = {c.claim_id for c in rep.checks if c.status == "flagged"}
        assert flagged == {"flag.psl2_5.count", "flag.psl2_7.count"}
        failed = {c.claim_id for c in rep.checks if c.status == "fail"}
        # the l=2 wreath count is stated as 2^l+1 = 5 but enumerates to 6;
        # the suite reports the failure rather than adopting either value
        assert failed == {"fam.glq.l2q3.p2"}

    def test_flagged_rows_record_both_values(self, reports):
        rep = reports["families"]
        by_id = {c.claim_id: c for c in rep.checks}
        row = by_id["flag.psl2_5.count"]
        assert row.expected == 48 and row.computed == 24
        row = by_id["flag.psl2_7.count"]
        assert row.expected == 96 and row.computed == 48

    def test_bounds_all_satisfied(self, reports):
        rep = reports["bounds"]
        assert not rep.failed
        assert rep.summary()["pass"] >= 100

    def test_numtheory(self, reports):
        rep = reports["numtheory"]
        assert not rep.failed
        extras = [c for c in rep.checks if c.claim_id == "nt.psl2scan.extras"]
        assert len(extras) == 1 and extras[0].status == "flagged"

    def test_properties_no_violations(self, reports):
        rep = reports["properties"]
        assert not rep.failed
        ids = {c.claim_id for c in rep.checks}
        assert "prop.boundedness-statements" in ids

    def test_reports_deterministic(self, reports):
        for name in ("ninomiya-3", "numtheory"):
            again = run_suite(name)
            assert again.to_json() == reports[name].to_json()

    def test_json_sorted_by_claim_id(self, reports):
        doc = reports["properties"].to_json_dict()
        ids = [c["claim_id"] for c in doc["checks"]]
        assert ids == sorted(ids)

    def test_csv_line_count(self, reports):
        rep = reports["ninomiya-3"]
        lines = rep.to_csv().strip().splitlines()
        assert len(lines) == len(rep.checks) + 1

    def test_csv_parses(self, reports):
        # claim ids such as prop.classeq.GLQ(l=1, q=3) contain commas
        for name, rep in reports.items():
            rows = list(csv.reader(io.StringIO(rep.to_csv())))
            assert rows[0] == ["claim_id", "status", "expected", "computed"], name
            assert all(len(row) == 4 for row in rows), name
            ids = [c["claim_id"] for c in rep.to_json_dict()["checks"]]
            assert [row[0] for row in rows[1:]] == ids, name
        by_id = {row[0]: row for row in csv.reader(io.StringIO(reports["properties"].to_csv()))}
        assert by_id["prop.classeq.GLQ(l=1, q=3)"][1:] == ["pass", "True", "True"]
        assert by_id["prop.boundedness-statements"][2:] == ["", ""]

    def test_report_bytes_pinned(self, reports):
        # a refactor must keep every report byte for byte, as JSON and as CSV
        want = {
            "theorem-b": "c3ea1d072beb0b295dfb3d4d8101ba7c19d59a8588e434aa4f8757ccaa56583f",
            "ninomiya-3": "17a7b74fe0d23a05c1ff0cb44daee9637f666a1342792a6a6dfd886abf9f7ccd",
            "five-classes": "06d97e2c9e61d33173a1845187d91017b820aa9bf86dacd213e787db4062537e",
            "families": "bad0c58d489bdde3934faee4823e9a2228a10505a4726fded310dcbc184d322a",
            "bounds": "d1113c71969d349c7a032a347e8142a7e15d0fed87258f24b92430a0d1148153",
            "numtheory": "f59170a561bd12850413e78aa1d5904eca37332b4e25da6353f7a748e07556bb",
            "properties": "5eee13ebf27ff6fb8ffe29d5a68fe47f753def323735d6d048b4da729e41800a",
        }
        got = {name: hashlib.sha256(rep.to_json().encode("utf-8")).hexdigest()
               for name, rep in reports.items()}
        assert got == want
        want = {
            "theorem-b": "d0c8d3a9686b0679a61aa93adb057a92897a56280afe2dd99f349e320a30d4fb",
            "ninomiya-3": "80bda5c7c062cacea2d669593f6db71a9141e1c8ef58cfe4cb04167f9d885df5",
            "five-classes": "611d9ef02c045cee26a6b0185373993a7e2760d0648635f3f23289ed6711a9b9",
            "families": "4a424c03db86cfe6cc31a44d5dd78bb1444c7f1d1daea8b1bc33cdb01c99cb61",
            "bounds": "f1223c5c020d998d92887f0c7951f22413016b7eea8068b86a11ba3710cba790",
            "numtheory": "31b11a9b675e962951d028174de8e2b1203aba7c81b371b10045ed67e9e2bf8e",
            "properties": "a87d90899c9817505e5e2125b82ab0a8a858d87e740f9918d246bbef57d897f0",
        }
        got = {name: hashlib.sha256(rep.to_csv().encode("utf-8")).hexdigest()
               for name, rep in reports.items()}
        assert got == want


class TestCli:
    def child_env(self, env=None):
        import os
        import regula
        # the child imports the same regula sources as this process
        src = os.path.dirname(os.path.dirname(regula.__file__))
        full_env = dict(os.environ)
        full_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, full_env.get("PYTHONPATH"))))
        if env:
            full_env.update(env)
        return full_env

    def run(self, *args, env=None, timeout=None):
        return subprocess.run([sys.executable, "-m", "regula.cli", *args],
                              capture_output=True, text=True, env=self.child_env(env),
                              timeout=timeout)

    def test_classes_json(self):
        out = self.run("classes", "A(5)", "--p", "2", "--json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["order"] == 60
        assert doc["counts"]["k_regular"] == 4

    def test_structure(self):
        out = self.run("structure", "S(4)")
        doc = json.loads(out.stdout)
        assert doc["p_cores"]["2"] == 4

    def test_verify_exit_codes(self):
        ok = self.run("verify", "ninomiya-3")
        assert ok.returncode == 0
        bad = self.run("verify", "families")
        assert bad.returncode == 2  # the recorded wreath-count failure

    def test_verify_report_file(self, tmp_path):
        path = tmp_path / "rep.json"
        out = self.run("verify", "numtheory", "--report", str(path))
        assert out.returncode == 0
        doc = json.loads(path.read_text())
        assert doc["suite"] == "numtheory"

    def test_report_unwritable(self, tmp_path):
        for path, message in ((tmp_path / "nosuch" / "rep.json", "No such file or directory"),
                              (tmp_path, "Is a directory")):
            out = self.run("verify", "numtheory", "--report", str(path))
            assert out.returncode == 1, path
            assert out.stderr.startswith("error: cannot write report") and message in out.stderr
            assert out.stderr.count("\n") == 1, path

    def test_missing_report_folder_refused_before_the_suite(self, tmp_path, capsys):
        from regula import cli
        path = str(tmp_path / "nosuch" / "rep.json")
        with mock.patch.object(cli, "run_suite") as run:
            assert cli.main(["verify", "properties", "--report", path]) == 1
        run.assert_not_called()
        assert capsys.readouterr().err == \
            f"error: cannot write report {path!r}: No such file or directory\n"

    def test_report_under_a_file_refused_before_the_suite(self, tmp_path, capsys):
        from regula import cli
        (tmp_path / "f").write_text("")
        path = str(tmp_path / "f" / "rep.json")
        with mock.patch.object(cli, "run_suite") as run:
            assert cli.main(["verify", "numtheory", "--report", path]) == 1
        run.assert_not_called()
        assert capsys.readouterr().err == \
            f"error: cannot write report {path!r}: Not a directory\n"

    def test_report_at_a_folder_refused_before_the_suite(self, tmp_path, capsys):
        from regula import cli
        path = str(tmp_path)
        with mock.patch.object(cli, "run_suite") as run:
            assert cli.main(["verify", "properties", "--report", path]) == 1
        run.assert_not_called()
        assert capsys.readouterr().err == \
            f"error: cannot write report {path!r}: Is a directory\n"

    def test_existing_report_kept_until_the_suite_ends(self, tmp_path, capsys):
        # the early check opens nothing, so a failed suite leaves the old report
        from regula import cli
        path = tmp_path / "rep.json"
        path.write_text("old")
        with mock.patch.object(cli, "run_suite", side_effect=RegulaError("suite broke")):
            assert cli.main(["verify", "numtheory", "--report", str(path)]) == 1
        assert path.read_text() == "old"
        assert capsys.readouterr().err == "error: suite broke\n"

    def test_m10_table_pinned(self, capsys):
        # M10's generators, and with them its class representatives, are pinned
        from regula.cli import main
        assert main(["classes", "M10", "--json"]) == 0
        got = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert got == "2e1db7d367ecdf82bd5344c4b727467ec0faee0063719d631bad55d4100a162f"

    def test_counts_json_pinned(self, capsys):
        # the table and its "counts" object: p, k_total, k_regular, k_singular
        from regula.cli import main
        assert main(["classes", "A(5)", "--p", "2", "--json"]) == 0
        got = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert got == "29d6a3b39f62cbd85153e543f5b84192add90684992bf23c48857cfbb7bfece2"

    @pytest.mark.parametrize("expr, digest", [
        ("AGL1(257)", "5c500debe14600701b0587c9973e507c2c2a85c43437c9613f8f19d26b43a7e3"),
        ("M12.2", "f01286046846ddd5d66596478fb10b963dfb57f2da5d1db823fcc58aa27b3067"),
        ("L34.2^2", "353975de7855ec4eada0d7ab60f03e621e8289cd3fd1c0e2556f5fb02e021ecb"),
        ("Sz8", "dc54d616ad21e9cbc84349fd4942796ba98e3deb84268b5cd89f989e498c0900"),
    ])
    def test_heavy_table_pinned(self, capsys, expr, digest):
        # representatives of groups past the reach of the hypothesis tests
        from regula.cli import main
        assert main(["classes", expr, "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        (["AGL1(257)", "--p", "2"], "a7b59ec33910f6626842607bd8d710650a345651ec346d41b58a7b6465870b0d"),
        (["M12.2"], "b9fb87bc0f1bf4b039075693424dc5b2b996857094a366761761539671311ad3"),
        (["x(C(30), C(30))"], "a3d7067329c9d47c93c2d5ca750ff0b80fca01ed5d8cdc7c4f54d1cfd1220bfe"),
    ])
    def test_text_table_pinned(self, capsys, args, digest):
        # the plain writer: header, one line per class and the counts line
        from regula.cli import main
        assert main(["classes", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    def test_numtheory_landau(self):
        out = self.run("numtheory", "landau", "--r", "2", "--a", "24", "--p", "3")
        assert json.loads(out.stdout)["value"] == "1864135/72"

    def test_cap_env(self):
        for value, message in (("50", "exceeds the element cap 50"),
                               ("abc", "positive integer"),
                               ("-5", "positive integer"),
                               ("0", "positive integer"),
                               ("", "positive integer"),
                               ("9" * 5000, "positive integer"),
                               ("2147483648", "positive integer")):
            out = self.run("classes", "S(5)", env={"REGULA_ELEMENT_CAP": value})
            assert out.returncode == 1, value
            assert out.stderr.startswith("error: ") and message in out.stderr, value
            assert out.stderr.count("\n") == 1, value

    def test_cap_env_scoped(self, monkeypatch, capsys):
        # the override holds for one call of main, not for the process
        from regula import perm_core
        from regula.cli import main
        cap = perm_core.ELEMENT_CAP
        monkeypatch.setenv("REGULA_ELEMENT_CAP", "50")
        assert main(["classes", "C(3)"]) == 0
        assert main(["classes", "S(5)"]) == 1
        assert "exceeds the element cap 50" in capsys.readouterr().err
        monkeypatch.delenv("REGULA_ELEMENT_CAP")
        assert main(["classes", "S(5)"]) == 0
        assert perm_core.ELEMENT_CAP == cap
        assert capsys.readouterr().err == ""

    def test_classes_refuses_p_before_the_table(self, monkeypatch, capsys):
        # a --p that is not prime is refused before any class table is built
        from regula import classes, exprs

        def partition(G):
            raise RegulaError("class table built")

        monkeypatch.setattr(exprs, "_memo", {})
        monkeypatch.setattr(classes, "_partition_into_orbits", partition)
        for p in ("4", "1", "0", "-3"):
            assert main(["classes", "A(10)", "--p", p]) == 1
            assert capsys.readouterr().err == f"error: {p} is not prime\n"
        # the patch is live: a prime --p goes on to the partition
        assert main(["classes", "A(10)", "--p", "2"]) == 1
        assert capsys.readouterr().err == "error: class table built\n"

    def test_cap_env_structure_memo(self, monkeypatch, capsys):
        # cores memoised under a larger cap are refused under a smaller one,
        # as a fresh group would be
        from regula.cli import main
        monkeypatch.setenv("REGULA_ELEMENT_CAP", "1000")
        assert main(["structure", "S(5)"]) == 0
        monkeypatch.setenv("REGULA_ELEMENT_CAP", "100")
        assert main(["structure", "S(5)"]) == 1
        assert main(["structure", "S(6)"]) == 1
        err = capsys.readouterr().err
        assert "order 120 exceeds the element cap 100" in err
        assert "order 720 exceeds the element cap 100" in err

    def test_cap_env_expression_memo(self, monkeypatch, capsys):
        # a group built without the cap is not returned under it: its
        # construction is refused again, with the same line, as in a fresh process
        from regula import exprs
        from regula.cli import main
        monkeypatch.setattr(exprs, "_memo", {})
        for expr, cap, order in (("q(L34.2_1, L34)", "1000", 40320), ("M10", "500", 720)):
            monkeypatch.setenv("REGULA_ELEMENT_CAP", cap)
            assert main(["classes", expr]) == 1, expr
            refused = capsys.readouterr().err
            assert refused == f"error: order {order} exceeds the element cap {cap}\n"
            monkeypatch.delenv("REGULA_ELEMENT_CAP")
            assert main(["classes", expr]) == 0, expr
            assert capsys.readouterr().err == ""
            monkeypatch.setenv("REGULA_ELEMENT_CAP", cap)
            assert main(["classes", expr]) == 1, expr
            assert capsys.readouterr().err == refused

    def test_broken_pipe(self):
        # the reader stops after one line of a 250 kB table
        proc = subprocess.Popen([sys.executable, "-m", "regula.cli", "classes", "AGL1(257)"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.child_env())
        assert proc.stdout.readline().startswith("AGL1(257): order 65792")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err and err == ""

    def test_parse_error(self):
        for text, message in (("Zoo(3)", "got 'Zoo'"),
                              ("AGL1(6)", "prime power, got 6"),
                              ("AGL1(1)", "prime power, got 1"),
                              ("PSL2(0)", "prime power, got 0"),
                              ("PGL2(1)", "prime power, got 1"),
                              ("PGammaL2(6)", "prime power, got 6"),
                              ("GLQ(l=1, q=15)", "prime power, got 15"),
                              ("GLQ(l=2)", "missing q"),
                              ("A(n=5)", "A has no argument n="),
                              ("GLQ(l=2,q=3,z=9)", "GLQ has no argument z="),
                              ("GLQ(l=2,q=3,5)", "extra argument 5"),
                              ("GLQ(l=2,l=3,q=3)", "argument l= more than once"),
                              ("C(" + "9" * 5000 + ")", "5000 digits is too long at position 2"),
                              ("x(C(1), " * 1000 + "C(1)" + ")" * 1000,
                               "nesting deeper than 200 levels")):
            out = self.run("classes", text)
            assert out.returncode == 1, text
            assert out.stderr.startswith("error: ") and message in out.stderr, text
            assert out.stderr.count("\n") == 1, text

    def test_usage_error(self):
        # a malformed command line is exit 1 with one short error line, like any error
        for args, message in ((("numtheory", "landau", "--r", "12x", "--a", "1", "--p", "3"),
                               "invalid int value: '12x'"),
                              (("numtheory", "landau", "--r", "7" * 5000, "--a", "1", "--p", "3"),
                               "invalid int value: '777"),
                              (("verify", "nosuch"), "invalid choice: 'nosuch'"),
                              ((), "required: command")):
            out = self.run(*args)
            assert out.returncode == 1, args[:2]
            assert out.stderr.startswith("error: ") and message in out.stderr, args[:2]
            assert out.stderr.count("\n") == 1 and len(out.stderr) < 200, args[:2]
            assert "usage:" not in out.stderr and out.stdout == "", args[:2]
        out = self.run("--help")
        assert out.returncode == 0 and out.stdout.startswith("usage: regula")

    def test_numtheory_caps(self):
        for args, message in ((("landau", "--r", "2", "--a", "100000000", "--p", "3"),
                               "needs more than 4096 bits"),
                              (("primes", "--kind", "two_rn_plus1", "--bound", "1000000000"),
                               "exceeds cap 1000000")):
            out = self.run("numtheory", *args, timeout=20)
            assert out.returncode == 1, args
            assert out.stderr.startswith("error: ") and message in out.stderr, args
            assert out.stderr.count("\n") == 1, args

    # a 60-digit semiprime: factorising it takes sympy more than 30 s
    @pytest.mark.parametrize("text, message", [
        (f"PSL2({BIG_SEMIPRIME})", "exceeds the 2-dimensional cap 17"),
        (f"AGL1({BIG_SEMIPRIME})", "is beyond desk scale"),
        (f"GLQ(l=1,q={BIG_SEMIPRIME})", "exceeds the degree cap 2000"),
    ])
    def test_cap_before_factorising(self, text, message):
        out = self.run("classes", text, timeout=20)
        assert out.returncode == 1
        assert out.stderr.startswith("error: ") and message in out.stderr
        assert out.stderr.count("\n") == 1

    def test_no_sympy_import(self):
        # sympy is only for numbers beyond the exact range of numtheory;
        # the record types need neither dataclasses nor inspect, and csv is
        # only for --csv
        absent = ("sympy", "numpy", "dataclasses", "inspect", "csv")
        code = "\n".join([
            "import sys",
            "import regula.cli",
            "from regula.cli import main",
            "assert main(['verify', 'numtheory']) == 0",
            "assert main(['classes', 'PSL2(7)', '--p', '2']) == 0",
            "assert main(['classes', 'AGammaL1(16)']) == 0",
            "assert main(['classes', 'GLQ(l=1, q=5)']) == 0",
            "assert main(['structure', 'x(S(4), PSL2(7))']) == 0",
            f"print(sorted(set({absent!r}) & set(sys.modules)))",
        ])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=self.child_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"


def _token(values):
    # one value in ten is a malformed token
    junk = st.sampled_from(["x", "", "1.5", "0x10", "--"])
    return st.tuples(st.integers(0, 9), values, junk).map(
        lambda t: t[2] if t[0] == 0 else str(t[1]))


def _prime_token(hi):
    return _token(st.sampled_from([2, 3, 5, 7]) | st.integers(-2, hi))


SMALL_GROUPS = st.sampled_from(["S(4)", "A(5)", "C(1)", "D(6)", "AGL1(5)", "PSL2(7)", "M10",
                                "x(S(3), C(4))", "wr(C(2), S(3))", "S(0)", "S(", "Q(3)", "S(3) x"])

# the light suites, misspelt and unknown names; {tmp} is a fresh folder per example
VERIFY = st.tuples(
    st.sampled_from(["numtheory", "bounds", "ninomiya-3", "numtheroy", "Bounds", "ninomiya",
                     "all", ""]),
    st.sampled_from([[], ["--csv"]]),
    st.sampled_from([[], ["--report", "{tmp}/rep.out"], ["--report", "{tmp}/nosuch/rep.out"],
                     ["--report"]]),
).map(lambda t: ["verify", t[0], *t[1], *t[2]])

# small examples only: --bound <= 10^4 and --a <= 64; a token in ten is dropped
ARGV = st.tuples(
    st.one_of(
        st.tuples(_token(st.integers(-2, 10 ** 4)), _token(st.integers(-2, 64)),
                  _prime_token(100)).map(
            lambda t: ["numtheory", "landau", "--r", t[0], "--a", t[1], "--p", t[2]]),
        _token(st.integers(-10, 10 ** 4)).map(lambda b: ["numtheory", "scan-psl2", "--bound", b]),
        st.tuples(st.sampled_from(["fermat", "mersenne", "two_rn_plus1", "four_rn_plus1", "x"]),
                  _token(st.integers(-10, 10 ** 4))).map(
            lambda t: ["numtheory", "primes", "--kind", t[0], "--bound", t[1]]),
        st.tuples(SMALL_GROUPS | EXPRESSIONS, _prime_token(30)).map(
            lambda t: ["classes", t[0], "--p", t[1]]),
        (SMALL_GROUPS | EXPRESSIONS).map(lambda e: ["structure", e])),
    st.integers(0, 9), st.integers(0, 7),
).map(lambda t: t[0] if t[1] else t[0][:t[2]] + t[0][t[2] + 1:])


class TestCliFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ARGV)
    def test_output_or_one_error_line(self, argv):
        self.check(argv)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(VERIFY)
    def test_verify_output_or_one_error_line(self, argv):
        self.check(argv)

    @staticmethod
    def check(argv):
        # exit 0 with output, or exit 1 with exactly one error: line
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {"REGULA_ELEMENT_CAP": "5000"}), \
                redirect_stdout(out), redirect_stderr(err):
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        if code == 0:
            assert out.getvalue() and not err.getvalue(), argv
        else:
            assert code == 1, argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
