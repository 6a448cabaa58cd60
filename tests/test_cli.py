import json
import time

import pytest

from gofknots import cli, verify
from gofknots.cli import run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGof:
    def test_19_3(self, capsys):
        code, doc = run_json(capsys, ["gof", "19", "3"])
        assert code == 0
        assert doc["gof_count"] == 1
        assert doc["canonical"] == [19, 3]
        assert [1, 1, 1, 1, 1, 1, 2, 2, 1, -2] in doc["witnesses"]
        assert doc["notes"] == []

    def test_4_1(self, capsys):
        code, doc = run_json(capsys, ["gof", "4", "1"])
        assert code == 0 and doc["gof_count"] == 3

    def test_17_5_notes(self, capsys):
        code, doc = run_json(capsys, ["gof", "17", "5"])
        assert code == 0 and doc["gof_count"] == 1
        assert doc["notes"] and "17,5" in doc["notes"][0]

    def test_json_fields(self, capsys):
        _, doc = run_json(capsys, ["gof", "5", "2"])
        assert list(doc) == ["alpha", "beta", "canonical", "gof_count", "witnesses", "labels", "notes"]


class TestClassify:
    def test_report_fields(self, capsys):
        code, doc = run_json(capsys, ["classify", "19", "3"])
        assert code == 0
        assert doc["count"] == 1
        assert doc["family"] == {"family": "one", "p": 6, "q": 1}

    def test_torus_fraction_has_no_family(self, capsys):
        _, doc = run_json(capsys, ["classify", "7", "1"])
        assert doc["count"] == 2 and doc["family"] is None


class TestFractionCommands:
    def test_normalize(self, capsys):
        code, doc = run_json(capsys, ["normalize", "19", "16"])
        assert code == 0 and doc["canonical"] == [19, 3]

    def test_conway(self, capsys):
        code, doc = run_json(capsys, ["conway", "1,2,1"])
        assert code == 0 and doc["raw"] == [4, 3] and doc["canonical"] == [4, 1]

    def test_conway_negative_digits(self, capsys):
        code, doc = run_json(capsys, ["conway", "1,2,-2"])
        assert code == 0 and doc["raw"] == [-5, -3] and doc["canonical"] == [5, 2]
        code, doc = run_json(capsys, ["conway", "-3,2"])
        assert code == 0 and doc["canonical"] == [5, 2]

    def test_equiv(self, capsys):
        code, doc = run_json(capsys, ["equiv", "10", "3", "10", "7", "--oriented", "--no-mirror"])
        assert code == 0 and doc["equivalent"] is True
        code, doc = run_json(capsys, ["equiv", "4", "1", "4", "3", "--oriented"])
        assert code == 0 and doc["equivalent"] is False

    def test_invalid_fraction_exit_code(self, capsys):
        assert run(["normalize", "4", "2"]) == 1
        err = capsys.readouterr().err
        assert "gcd(4, 2)" in err


class TestBraidCommands:
    def test_nf(self, capsys):
        code, doc = run_json(capsys, ["braid", "nf", "-2"])
        assert code == 0
        assert doc == {"delta_power": -1, "factors": [[2, 1]]}

    def test_exp(self, capsys):
        code, doc = run_json(capsys, ["braid", "exp", "1", "1", "1", "1", "-2"])
        assert code == 0 and doc["exponent_sum"] == 3

    def test_mirror(self, capsys):
        code, doc = run_json(capsys, ["braid", "mirror", "1", "2", "-1"])
        assert code == 0 and doc["word"] == [-1, -2, 1]

    def test_det_and_homology(self, capsys):
        code, doc = run_json(capsys, ["braid", "det", "1", "1", "1", "2"])
        assert code == 0 and doc["determinant"] == 3
        code, doc = run_json(capsys, ["braid", "homology", "1", "1", "1", "1", "2"])
        assert code == 0 and doc["invariant_factors"] == [1, 4]

    def test_conj(self, capsys):
        code, doc = run_json(capsys, ["braid", "conj", "1", "--", "2"])
        assert code == 0 and doc["conjugate"] is True
        code, doc = run_json(capsys, ["braid", "conj", "1", "1", "1", "1", "2", "--", "1", "1", "1", "1", "-2"])
        assert code == 0 and doc["conjugate"] is False

    def test_identify(self, capsys):
        code, doc = run_json(capsys, ["braid", "identify", "-1", "-1", "-1", "-1", "-1", "-2"])
        assert code == 0
        assert doc["fraction"] == [5, 1] and doc["mirrored"] is True

    def test_identify_unrecognized_exit_2(self, capsys):
        code, doc = run_json(capsys, ["braid", "identify", "1", "-1"])
        assert code == 2 and doc["unrecognized"] is True

    def test_twist_pipeline(self, capsys):
        code, doc = run_json(capsys, ["braid", "twist", "1", "1", "1", "1", "1", "1", "2"])
        assert code == 0
        tokens = [str(k) for k in doc["word"]]
        code, doc = run_json(capsys, ["braid", "identify", *tokens])
        assert code == 0
        assert doc["fraction"] == [5, 1] and doc["mirrored"] is True

    def test_huge_twist_count_rejected_at_once(self, capsys):
        start = time.perf_counter()
        assert run(["braid", "twist", "1000000000", "1"]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "'1000000000'" in captured.err

    def test_twist_letter_limit_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TWIST_LETTERS", 100)
        # 4 + 12 * 8 = 100 letters fit; 4 + 12 * 9 = 112 do not
        for n in ("8", "-8"):
            code, doc = run_json(capsys, ["braid", "twist", n, "1", "2", "1", "2"])
            assert code == 0 and len(doc["word"]) == 100
        for n in ("9", "-9"):
            assert run(["braid", "twist", n, "1", "2", "1", "2"]) == 1
            assert repr(n) in capsys.readouterr().err

    def test_parse_error_exit_1(self, capsys):
        assert run(["braid", "nf", "3"]) == 1
        assert "'3'" in capsys.readouterr().err

    def test_conj_needs_separator(self, capsys):
        assert run(["braid", "conj", "1", "2"]) == 1

    def test_unknown_op(self, capsys):
        assert run(["braid", "frobnicate", "1"]) == 1


class TestEnumerate:
    def test_tsv_shape_and_ordering(self, capsys):
        code = run(["enumerate", "--max", "6"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [line.split("\t") for line in lines]
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert keys[0] == (0, 1)
        table = {(int(r[0]), int(r[1])): int(r[2]) for r in rows}
        assert table[(4, 1)] == 3 and table[(5, 2)] == 1 and table[(6, 1)] == 2

    def test_tsv_counts_match_gof(self, capsys):
        run(["enumerate", "--max", "12"])
        rows = [line.split("\t") for line in capsys.readouterr().out.strip().split("\n")]
        for a, b, c, words in rows:
            code, doc = run_json(capsys, ["gof", a, b])
            assert code == 0 and doc["gof_count"] == int(c)
            expected = ";".join(" ".join(str(k) for k in w) for w in doc["witnesses"])
            assert words == expected

    def test_json_format(self, capsys):
        code, doc = run_json(capsys, ["enumerate", "--max", "5", "--format", "json"])
        assert code == 0
        assert doc[0] == {"alpha": 0, "beta": 1, "count": 1, "witnesses": [[2]]}


class TestVerifyCommand:
    def test_identity_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "identity", "--max", "10"])
        assert code == 0 and doc == []

    def test_nonempty_violations_exit_1(self, capsys, monkeypatch):
        fake = [verify.Violation("identity", {"p": 1}, 1, 0)]
        monkeypatch.setattr(verify, "verify_inverse_identity", lambda *a, **k: fake)
        code, doc = run_json(capsys, ["verify", "--suite", "identity"])
        assert code == 1
        assert doc == [{"suite": "identity", "params": {"p": 1}, "expected": 1, "actual": 0}]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gof", "19", "3"],
            ["classify", "17", "5"],
            ["enumerate", "--max", "10"],
            ["braid", "nf", "-1", "-2", "1"],
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_unknown_command_exits_one(self, capsys):
        assert run(["nonsense"]) == 1
