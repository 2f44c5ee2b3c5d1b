import os
import re
import shutil
import subprocess
import sys

import pytest

from regula import CapExceeded, GroupDataError, RegulaError, UnknownGroupName
from regula import corpus, perm_core
from regula.classes import class_counts, conjugacy_classes
from regula.constructors import ATLAS_NAMES, _data_path, from_generator_data, load_generator_file
from regula.exprs import group_from_text


class TestLoading:
    def test_all_names_load_and_certify(self):
        for name in ATLAS_NAMES:
            G = from_generator_data(name)
            assert G.order > 1

    def test_orders(self):
        want = {"M11": 7920, "M12": 95040, "M12.2": 190080,
                "L34": 20160, "L34.2_1": 40320, "L34.2_2": 40320,
                "L34.2_3": 40320, "L34.2^2": 80640,
                "U33": 6048, "U33.2": 12096, "Sz8": 29120}
        for name, order in want.items():
            assert group_from_text(name).order == order, name

    def test_unknown_name(self):
        with pytest.raises(UnknownGroupName):
            from_generator_data("Monster")

    def test_tampered_order_detected(self, tmp_path):
        src = _data_path("M11")
        dst = tmp_path / "M11.txt"
        text = open(src).read().replace("order: 7920", "order: 7921")
        dst.write_text(text)
        with pytest.raises(GroupDataError):
            load_generator_file(str(dst))

    def test_tampered_classes_detected(self, tmp_path):
        src = _data_path("M11")
        dst = tmp_path / "M11.txt"
        text = open(src).read().replace("class_sizes: 1,", "class_sizes: 2,")
        dst.write_text(text)
        with pytest.raises(GroupDataError):
            load_generator_file(str(dst))

    def test_tampered_header_not_an_integer(self, tmp_path):
        src = _data_path("M11")
        text = open(src).read()
        sizes = re.search(r"^class_sizes:.*$", text, re.M).group(0)
        for field, tampered in (("order", text.replace("order: 7920", "order: 79x20")),
                                ("class_sizes", text.replace(sizes, "class_sizes:"))):
            dst = tmp_path / "M11.txt"
            dst.write_text(tampered)
            with pytest.raises(GroupDataError, match=f"'{field}' has a non-integer"):
                load_generator_file(str(dst))

    def test_header_degree_outside_the_cap(self, tmp_path):
        # refused before any generator is parsed, so no degree-sized tuple is built
        dst = tmp_path / "C2.txt"
        for degree in (0, perm_core.DEGREE_CAP + 1, 10**12):
            dst.write_text(f"name: C2\ndegree: {degree}\norder: 2\nclass_sizes: 1,1\n(1,2)\n")
            with pytest.raises(GroupDataError, match=f"header degree {degree} outside"):
                load_generator_file(str(dst))

    def test_non_ascii_byte_detected(self, tmp_path):
        dst = tmp_path / "C2.txt"
        dst.write_bytes(b"name: C2\ndegree: 2\norder: 2\nclass_sizes: 1,1\n(1,2)\xe9\n")
        with pytest.raises(GroupDataError, match="C2.txt: non-ASCII byte at offset"):
            load_generator_file(str(dst))

    def test_wrong_name_detected(self, tmp_path):
        src = _data_path("M11")
        dst = tmp_path / "M11.txt"
        shutil.copy(src, dst)
        with pytest.raises(GroupDataError):
            load_generator_file(str(dst), expect_name="M12")

    @pytest.mark.parametrize("line, why", [
        ("(1,2", "cannot parse permutation '(1,2'"),
        ("(1,2)(2,3)", "cycles are not disjoint in '(1,2)(2,3)'"),
        ("(1,5)", "degree 3 too small for '(1,5)'"),
    ])
    def test_malformed_generator_line_names_the_file(self, tmp_path, line, why):
        dst = tmp_path / "S3.txt"
        dst.write_text(f"name: S3\ndegree: 3\norder: 6\nclass_sizes: 1,2,3\n(1,2,3)\n{line}\n")
        with pytest.raises(GroupDataError) as exc:
            load_generator_file(str(dst))
        assert str(exc.value) == f"{dst}: {why}"


class TestMathieu:
    def test_m11_class_structure(self):
        t = conjugacy_classes(group_from_text("M11"))
        assert t.element_order_multiset() == (1, 2, 3, 4, 5, 6, 8, 8, 11, 11)
        assert t.class_size_multiset() == (1, 165, 440, 720, 720, 990, 990, 990, 1320, 1584)

    def test_m11_regular_classes(self):
        assert class_counts(group_from_text("M11"), 2).k_regular == 5

    def test_m12_sharply_five_transitive(self):
        G = group_from_text("M12")
        assert G.fundamental_orbit_lengths()[:5] == (12, 11, 10, 9, 8)
        assert G.order == 12 * 11 * 10 * 9 * 8

    def test_m12_2_contains_m12_shape(self):
        G = group_from_text("M12.2")
        assert G.degree == 24
        t = conjugacy_classes(G)
        assert t.k_total == 21
        assert t.counts(2).k_regular == 5

    def test_m12_2_element_cap_example(self, monkeypatch):
        monkeypatch.setattr(perm_core, "ELEMENT_CAP", 10 ** 3)
        with pytest.raises(CapExceeded):
            list(group_from_text("M12.2").elements())

    def test_m12_2_socle_fingerprints_as_m12(self):
        G = group_from_text("M12.2")
        soc = G.commutator_subgroup()
        assert soc.order == 95040
        assert soc.is_normal_in(G)
        # abstract class data does not depend on the degree of the action
        assert conjugacy_classes(soc).class_size_multiset() == \
            conjugacy_classes(group_from_text("M12")).class_size_multiset()


class TestCorpusPairs:
    def test_derived_pairs_are_the_socles(self):
        socles = {"M12.2": "M12", "U33.2": "U33", "L34.2_1": "L34"}
        derived = [pair for spec, pair in zip(corpus.NORMAL_PAIR_SPECS, corpus.normal_pairs())
                   if spec[2] == "derived"]
        assert sorted(gexpr for gexpr, _, _, _ in derived) == sorted(socles)
        for gexpr, label, G, N in derived:
            assert label == "<<socle>>" and G.order == 2 * N.order
            assert conjugacy_classes(N).class_size_multiset() == \
                conjugacy_classes(group_from_text(socles[gexpr])).class_size_multiset()

    def test_seed_closures(self):
        orders = {(gexpr, label): N.order for gexpr, label, _, N in corpus.normal_pairs()}
        assert orders[("GLQ(l=1, q=3)", "<<translations>>")] == 9
        assert orders[("x(A(5), A(5))", "A(5) x 1")] == 60


class TestCorpusPairErrors:
    def test_errors_are_regula_errors(self, monkeypatch):
        for spec in (("A(4)", "<<(1,2)>>", "(1,2)"),        # seed outside G
                     ("S(4)", "<<(1,5)>>", "(1,5)"),        # seed beyond the degree
                     ("S(4)", "bogus", "bogus(4)")):        # no such group
            monkeypatch.setattr(corpus, "NORMAL_PAIR_SPECS", (spec,))
            with pytest.raises(RegulaError):
                corpus.normal_pairs()


class TestLinearFamily:
    def test_l34_class_structure(self):
        t = conjugacy_classes(group_from_text("L34"))
        assert t.k_total == 10
        assert t.element_order_multiset() == (1, 2, 3, 4, 4, 4, 5, 5, 7, 7)

    def test_extension_regular_counts(self):
        assert class_counts(group_from_text("L34.2_1"), 2).k_regular == 4
        assert class_counts(group_from_text("L34.2_2"), 2).k_regular == 5
        assert class_counts(group_from_text("L34.2_3"), 2).k_regular == 5
        assert class_counts(group_from_text("L34.2^2"), 2).k_regular == 4

    def test_extensions_distinct(self):
        prints = {name: conjugacy_classes(group_from_text(name)).class_size_multiset()
                  for name in ("L34.2_1", "L34.2_2", "L34.2_3")}
        assert len(set(prints.values())) == 3

    def test_socle_inside_extensions(self):
        soc = group_from_text("L34")
        for name in ("L34.2_1", "L34.2_2", "L34.2_3", "L34.2^2"):
            assert group_from_text(name).contains_subgroup(soc)


class TestUnitaryAndSuzuki:
    def test_u33(self):
        t = conjugacy_classes(group_from_text("U33"))
        assert t.k_total == 14
        assert class_counts(group_from_text("U33"), 2).k_regular == 5

    def test_u33_2(self):
        G = group_from_text("U33.2")
        assert group_from_text("U33").is_normal_in(G)
        assert class_counts(G, 2).k_regular == 4

    def test_sz8_class_structure(self):
        t = conjugacy_classes(group_from_text("Sz8"))
        assert t.element_order_multiset() == (1, 2, 4, 4, 5, 7, 7, 7, 13, 13, 13)

    def test_sz8_two_singular(self):
        assert class_counts(group_from_text("Sz8"), 2).k_singular == 3

    def test_sz8_order_coprime_to_three(self):
        assert group_from_text("Sz8").order % 3 != 0


class TestProvenance:
    def test_build_script_regenerates_the_data(self, tmp_path):
        # every bundled generator file is rebuilt byte for byte from tools/
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for sub in ("src", "tools"):
            shutil.copytree(os.path.join(root, sub), tmp_path / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        fnames = [os.path.basename(_data_path(name)) for name in ATLAS_NAMES]
        data = tmp_path / "src" / "regula" / "data"
        for fname in fnames:
            (data / fname).unlink()
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, os.path.join("tools", "build_atlas_data.py")],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert len(fnames) == 11
        for fname in fnames:
            with open(os.path.join(root, "src", "regula", "data", fname), "rb") as fh:
                assert (data / fname).read_bytes() == fh.read(), fname

    def test_build_script_refuses_optimised_python(self, tmp_path):
        # under -O the asserts that certify each group would vanish
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for sub in ("src", "tools"):
            shutil.copytree(os.path.join(root, sub), tmp_path / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        data = tmp_path / "src" / "regula" / "data"
        for fname in (os.path.basename(_data_path(name)) for name in ATLAS_NAMES):
            (data / fname).write_text("stale\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "-O", os.path.join("tools", "build_atlas_data.py")],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode != 0
        assert "without -O" in proc.stderr
        assert all((data / os.path.basename(_data_path(name))).read_text() == "stale\n"
                   for name in ATLAS_NAMES)
