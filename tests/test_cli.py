import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofknots import cli, cover, verify
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

    @pytest.mark.parametrize("command", ["gof", "classify"])
    def test_long_witness_rejected_at_once(self, capsys, command):
        # the torus witnesses of b(10^15, 1) have 10^15 + 1 letters
        start = time.perf_counter()
        assert run([command, "1000000000000000", "1"]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "1000000000000001 letters" in captured.err

    def test_witness_letter_limit_boundary(self, capsys, monkeypatch):
        # the torus witnesses of b(5, 1) have 6 letters
        monkeypatch.setattr(cli, "MAX_WORD_LETTERS", 6)
        code, doc = run_json(capsys, ["gof", "5", "1"])
        assert code == 0 and doc["witnesses"] == [[1, 1, 1, 1, 1, 2], [1, 1, 1, 1, 1, -2]]
        monkeypatch.setattr(cli, "MAX_WORD_LETTERS", 5)
        assert run(["gof", "5", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "6 letters" in captured.err


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
        monkeypatch.setattr(cli, "MAX_WORD_LETTERS", 100)
        # 4 + 12 * 8 = 100 letters fit; 4 + 12 * 9 = 112 do not
        for n in ("8", "-8"):
            code, doc = run_json(capsys, ["braid", "twist", n, "1", "2", "1", "2"])
            assert code == 0 and len(doc["word"]) == 100
        for n in ("9", "-9"):
            assert run(["braid", "twist", n, "1", "2", "1", "2"]) == 1
            assert repr(n) in capsys.readouterr().err

    def test_identify_large_determinant_rejected_at_once(self, capsys):
        # the closure of (sigma_1 sigma_2^-1)^20 has determinant 228826125;
        # the determinant is not limited, and this miss is answered at once:
        # identification solves for the family instead of factoring
        start = time.perf_counter()
        assert run(["braid", "identify", *["1", "-2"] * 20]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"unrecognized": True, "determinant": 228826125}
        assert captured.err == ""

    def test_identify_determinant_limit_boundary(self, capsys, monkeypatch):
        # the letter limit applies to the printed witness: sigma_1^-5
        # sigma_2^-1 matches the 6-letter sigma_1^5 sigma_2
        word = ["-1", "-1", "-1", "-1", "-1", "-2"]
        monkeypatch.setattr(cli, "MAX_WORD_LETTERS", 6)
        code, doc = run_json(capsys, ["braid", "identify", *word])
        assert code == 0 and doc["fraction"] == [5, 1]
        monkeypatch.setattr(cli, "MAX_WORD_LETTERS", 5)
        assert run(["braid", "identify", *word]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "6 letters" in captured.err

    @pytest.mark.parametrize(
        "word, fraction",
        [
            (["-1", "-1", "-1", "-1", "-1", "-2"], [5, 1]),
            (["1", "1", "1", "1", "1", "1", "2", "2", "1", "-2"], [19, 3]),
            # determinant 2002000 is above MAX_WORD_LETTERS; the witness has 2003 letters
            (["1"] * 1000 + ["2", "2"] + ["1"] * 1000 + ["-2"], [2002000, 2001]),
        ],
    )
    def test_recognised_identify_computes_no_determinant(self, capsys, monkeypatch, word, fraction):
        def refuse(word):
            raise AssertionError("braid identify made a Burau pass of its own")

        monkeypatch.setattr(cover, "closure_determinant", refuse)
        code, doc = run_json(capsys, ["braid", "identify", *word])
        assert code == 0 and doc["fraction"] == fraction

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


class TestEnumerateGolden:
    # sha256 of the stdout of the version that buffered every row and
    # printed the JSON array with one json.dumps call; the streamed output
    # must stay byte for byte the same
    GOLDEN_200 = {
        "tsv": "e73674de89bf3ba93c3d23e394675fa05398795719cc2180c064515528ae810e",
        "json": "bc888cfaf5e227830c9f230bbf9029ce6e5066ae8a777861cb343ab006c4ac20",
    }

    # sha256 of the stdout of the version that gave every fraction its whole
    # orbit (census called axis_classes per row), computed before census
    # switched to the divisors of 2*alpha +- 1
    GOLDEN_1000 = {
        "tsv": "a1ce3702a8b472de5975278f87df3938a082136a3051d184e6d6019e7989ed10",
        "json": "03534bdb34a261230c193ebfe023e174671e9edb9c5dbaae1aae1cc444a33f94",
    }

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_max_200_digest(self, capsys, fmt):
        assert run(["enumerate", "--max", "200", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_200[fmt]

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_max_1000_digest(self, capsys, fmt):
        assert run(["enumerate", "--max", "1000", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_1000[fmt]

    def test_negative_max_is_empty(self, capsys):
        assert run(["enumerate", "--max", "-1", "--format", "json"]) == 0
        assert capsys.readouterr().out == "[]\n"
        assert run(["enumerate", "--max", "-1", "--format", "tsv"]) == 0
        assert capsys.readouterr().out == ""

    def test_max_zero_is_the_unlink(self, capsys):
        assert run(["enumerate", "--max", "0", "--format", "json"]) == 0
        assert capsys.readouterr().out == '[{"alpha": 0, "beta": 1, "count": 1, "witnesses": [[2]]}]\n'
        assert run(["enumerate", "--max", "0", "--format", "tsv"]) == 0
        assert capsys.readouterr().out == "0\t1\t1\t2\n"


EMPTY = hashlib.sha256(b"").hexdigest()


class TestArgvGolden:
    # sha256 of stdout and the exit code of each argv, computed with the
    # parser that dispatched `braid` by hand and inserted `--` before a
    # dash-leading Conway digit; one argparse tree must give the same.  The
    # two argv whose witnesses pass MAX_WORD_LETTERS are newer: that parser
    # printed the 10^7-letter words and ran out of memory on the 10^15 ones.
    # `braid identify` of (1 -2)x20 is newer too: it exited 1 while a
    # closure determinant above MAX_WORD_LETTERS was refused.
    # The two argv with a second `--` are newer too, and so is `verify
    # --suite conjugacy --max 3`: that suite takes no bound, and the old
    # dispatch ran it and ignored the bound
    CASES = [
        (("gof", "19", "3"), 0,
         "9138370245169e19701e5224014962c76ce10a8b50f0ffd81d603f7b7c13044f"),
        (("gof", "4", "1"), 0,
         "0da4be561ef72b425ec70d0c9cd9fb1866c3d507af4782edbff30cc53c450972"),
        (("gof", "17", "5"), 0,
         "c3d0eb48a23ab36dfe5d9436f57dd06b9c7a8be05ba9e2b37fd816819e911287"),
        (("gof", "0", "1"), 0,
         "11df1e75c54b5ae90ebb25a9571280c9f9a825baa742b35e5b36e5e11c6b56b3"),
        (("gof", "1", "1"), 0,
         "a10898d83de96084834861a966b12db0e9908370fde8dd2ab490bfd854498bc5"),
        (("gof", "4", "2"), 1, EMPTY),
        (("gof", "x", "1"), 1, EMPTY),
        (("gof", "19"), 1, EMPTY),
        (("gof", "-19", "3"), 0,
         "65f93c39249d40bc67af5d1302dc9530dd4461119e5182eb111af42aba78d55e"),
        (("gof", "", "1"), 1, EMPTY),
        (("gof", "1000000000000000", "1"), 1, EMPTY),
        (("classify", "10000019", "1"), 1, EMPTY),
        (("classify", "19", "3"), 0,
         "901a6115d2db9b922581641d2bd076b00bb785b8507098f615e0da70bc346e4d"),
        (("classify", "7", "1"), 0,
         "d807a959ee04c8ed27d8603a7a72ce273cd6f6fb86a2fecdf816cce66d5280d2"),
        (("classify", "4", "1"), 0,
         "5e1d8ffd5c9f6ea8f3339eca3f6b9316c5cdea61833a6edebcc7cb52075fdb58"),
        (("classify", "10", "3"), 0,
         "e62622b16c52a9006444c212335c7c0f1ff74a6164f53ace0439532119f56c39"),
        (("classify", "4", "2"), 1, EMPTY),
        (("equiv", "10", "3", "10", "7", "--oriented", "--no-mirror"), 0,
         "558eeaba04da036ffe04ddac619d3277e8f06f3daec505924807401e37d2443a"),
        (("equiv", "4", "1", "4", "3", "--oriented"), 0,
         "60b5e248ffdf33049572a482548e5d25dd77769359e32a0c41700abe8bc4074f"),
        (("equiv", "4", "1", "4", "3"), 0,
         "558eeaba04da036ffe04ddac619d3277e8f06f3daec505924807401e37d2443a"),
        (("equiv", "5", "2", "5", "3", "--no-mirror"), 0,
         "558eeaba04da036ffe04ddac619d3277e8f06f3daec505924807401e37d2443a"),
        (("equiv", "4", "1", "4"), 1, EMPTY),
        (("normalize", "19", "16"), 0,
         "734c14ca850d77a6e26422000baed15f2abad79c91f502521a4dd1d8048aa578"),
        (("normalize", "4", "2"), 1, EMPTY),
        (("normalize", "0", "1"), 0,
         "be09ed0515a75cb82d6f6d48cb908a3341ae74e24e0bb6bf05b83bec6031c7bd"),
        (("normalize", "-19", "3"), 0,
         "6f85267b5b0f89fffc0456df8d6c1bf9777c553d662240953f014e6050bd1f90"),
        (("conway", "1,2,1"), 0,
         "c0c199f66364936a84ee7b7e9867fcb89adbd230b87dac2dac0ea47f2d108bf1"),
        (("conway", "1,2,-2"), 0,
         "828561b1b2fe0665beaaf1800fea223709d416bf7a36cabca1018ec13435827f"),
        (("conway", "-3,2"), 0,
         "0f69b12dfcc8bf1ab1b263f0662c7da3738cad48354b0837bd03db03eb076273"),
        (("conway", "+3,2"), 0,
         "10846aefe644656a7c0fc894cb591d8ae0805a0265bfb0dc0e8703af61d2df81"),
        (("conway", "--", "1"), 0,
         "598009439f3f55f5dd75cddf2d79bd416ef8718edc3a0f6610e0ba7e227c5cac"),
        (("conway", "--", "-3,2"), 0,
         "0f69b12dfcc8bf1ab1b263f0662c7da3738cad48354b0837bd03db03eb076273"),
        (("conway", "1", "2"), 1, EMPTY),
        (("conway", "x"), 1, EMPTY),
        (("conway",), 1, EMPTY),
        (("conway", "1,,2"), 1, EMPTY),
        (("conway", ""), 1, EMPTY),
        (("enumerate", "--max", "10"), 0,
         "45461a8a181783ded229824fc3fc2d528dc962b3e807ceca3d5fca3183480f38"),
        (("enumerate", "--max", "10", "--format", "json"), 0,
         "fca89fa85a5df489630b0039368679dc7dd2421e0823fae5607d50a7ff418ab9"),
        (("enumerate", "--max", "0"), 0,
         "265dc3b7bb6f439a851cdbe796f3005f1acb7c6a18c448723fe4b6e37313cd68"),
        (("enumerate", "--max", "-1", "--format", "json"), 0,
         "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
        (("enumerate",), 1, EMPTY),
        (("enumerate", "--max", "x"), 1, EMPTY),
        (("enumerate", "--max", "5", "--format", "xml"), 1, EMPTY),
        (("verify", "--suite", "identity", "--max", "5"), 0,
         "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
        (("verify", "--suite", "counts", "--max", "20"), 0,
         "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
        (("verify", "--suite", "orientation", "--max", "10"), 0,
         "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
        (("verify", "--max", "-1"), 1, EMPTY),
        (("verify", "--max", "abc"), 1, EMPTY),
        (("verify", "--suite", "conjugacy", "--max", "3"), 1, EMPTY),
        (("verify", "--suite", "nope"), 1, EMPTY),
        ((), 1, EMPTY),
        (("nonsense",), 1, EMPTY),
        (("braid",), 1, EMPTY),
        (("braid", "frobnicate", "1"), 1, EMPTY),
        (("braid", "--", "nf", "1"), 1, EMPTY),
        (("braid", "nf", "-1", "-2", "1"), 0,
         "9d692b866e141bad3ea495300fe7a72519116ae5b90e3d61e998949c56e948a1"),
        (("braid", "nf", "-2"), 0,
         "f4aa879569c75183e0e3630cfe76eb652e05615eb6f3504f4b1fc4e98be37942"),
        (("braid", "nf", "-1,-1,2"), 0,
         "f4832d7e062fe6f43e9a806e41f998d859c4cfc4f2e15a503f7adb40e4159751"),
        (("braid", "nf", "1", "--", "2"), 1, EMPTY),
        (("braid", "nf", "-h"), 1, EMPTY),
        (("braid", "nf", "+1"), 1, EMPTY),
        (("braid", "nf", "3"), 1, EMPTY),
        (("braid", "nf"), 0,
         "330076ed9ca29d5d2f0d679243a62245c196042224d073e99cc7e6bf8d4897fa"),
        (("braid", "exp", "1", "1", "-2"), 0,
         "09dda92aec5e3bb8fa325f37a2abae3564499155408fb47763b80dcb3359e66e"),
        (("braid", "exp", "-1,2,2"), 0,
         "09dda92aec5e3bb8fa325f37a2abae3564499155408fb47763b80dcb3359e66e"),
        (("braid", "mirror", "1", "2", "-1"), 0,
         "73eca7c56aaa65231daf46e6e7b83a1bbb32452d10363e97a6bcb58ef62d84ac"),
        (("braid", "mirror", "-1", "-3"), 1, EMPTY),
        (("braid", "det", "1", "1", "1", "2"), 0,
         "544526e50467d5f56791b5558940db921a420614586698ba8debc439094240aa"),
        (("braid", "homology", "1", "1", "1", "1", "2"), 0,
         "61048bca3720c33c7a18df9c8444b92b47322e0fc742518677fdae40b7577500"),
        (("braid", "identify", "-1", "-1", "-1", "-1", "-1", "-2"), 0,
         "d388b0f30f18dcb573fea4231abff9e4200105dd3b367647e413af5b1aa0c926"),
        (("braid", "identify", "-1,-1,-1,-1,-1,-2"), 0,
         "d388b0f30f18dcb573fea4231abff9e4200105dd3b367647e413af5b1aa0c926"),
        (("braid", "identify", "1", "-1"), 2,
         "a4d3a7937b859dfe272d8cb3502eaa350a5aa0332eaf22cc640042f9f36fa992"),
        (("braid", "identify", "1", "1", "1", "1", "1", "1", "2", "2", "1", "-2"), 0,
         "1ef611df8387726a4381425f83fbeb0fb1ce8b66491366644162a7ebbaebb438"),
        (("braid", "identify", *["1", "-2"] * 20), 2,
         "5d3ce10b622c737ecf8624bef2c614da6b5e79d14c8bc2f58ddce2d9b2c2e050"),
        (("braid", "identify"), 2,
         "a4d3a7937b859dfe272d8cb3502eaa350a5aa0332eaf22cc640042f9f36fa992"),
        (("braid", "conj", "1", "--", "2"), 0,
         "6c221fc8fa5c8f1f2f3f20cbed2a2263a1c87dee38a564caff9354c76bb486f6"),
        (("braid", "conj", "-1,2", "--", "2,-1"), 0,
         "6c221fc8fa5c8f1f2f3f20cbed2a2263a1c87dee38a564caff9354c76bb486f6"),
        (("braid", "conj", "1", "1", "2", "--", "2", "1", "1"), 0,
         "6c221fc8fa5c8f1f2f3f20cbed2a2263a1c87dee38a564caff9354c76bb486f6"),
        (("braid", "conj", "1", "2"), 1, EMPTY),
        (("braid", "conj", "--"), 0,
         "6c221fc8fa5c8f1f2f3f20cbed2a2263a1c87dee38a564caff9354c76bb486f6"),
        (("braid", "conj", "1", "--", "2", "--", "1"), 1, EMPTY),
        (("braid", "twist", "1", "1", "1", "1", "1", "1", "2"), 0,
         "abe6eca3049231b33a3287ea7a65e3ef4863d26842f8de71361b1aea69ab6e8a"),
        (("braid", "twist", "-1", "1", "2"), 0,
         "50f82e5b138c720ac9ed5279c281e50ebb9d6806c42257d91f6a7a50fc9eb7ba"),
        (("braid", "twist", "+5", "1"), 0,
         "947a80347eecd14cefabf2c13fdee4eba6de3fb05f2e69686bf8328a10bbe5f8"),
        (("braid", "twist", "x"), 1, EMPTY),
        (("braid", "twist"), 1, EMPTY),
        (("braid", "twist", "--", "1"), 1, EMPTY),
        (("braid", "twist", "1", "--"), 1, EMPTY),
        (("braid", "twist", "1000000000", "1"), 1, EMPTY),
        (("braid", "twist", "0"), 0,
         "67755650abfcec18e5a060c0ae56746a3bc0b52524e485b6e4aa40020317f9ad"),
        # a second `--` where an int belongs: argparse 3.11 hands over []
        (("gof", "--", "0", "--"), 1, EMPTY),
        (("equiv", "3", "1", "3", "--", "--"), 1, EMPTY),
    ]

    @pytest.mark.parametrize("argv, code, digest", CASES, ids=[" ".join(c[0]) or "(empty)" for c in CASES])
    def test_stdout_and_exit_code(self, capsys, argv, code, digest):
        assert run(list(argv)) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # help pages depend on the terminal width and the Python version, so
    # the help argv are pinned by what they print, not by a digest
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help_lists_braid(self, capsys, flag):
        assert run([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: gofknots")
        assert re.search(r"\{[a-z,]*\bbraid\b[a-z,]*\}", out)

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_braid_help_lists_operations(self, capsys, flag):
        assert run(["braid", flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: gofknots braid")
        for op in ("nf", "exp", "mirror", "identify", "det", "homology", "conj", "twist"):
            assert op in out

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_conway_help_flag_is_a_digit_token(self, capsys, flag):
        assert run(["conway", flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: conway digits must be integers, got {flag!r}\n"


COMMANDS = ("gof", "classify", "equiv", "normalize", "conway", "enumerate", "verify", "braid")
BRAID_OPS = ("nf", "exp", "mirror", "identify", "det", "homology", "conj", "twist")
TOKENS = st.one_of(
    st.sampled_from(
        ["1", "-1", "2", "-2", "1,-2", "-1,-1,2", "-3,2", "--", "-h", "--max", "--format", "json", "x", "", "+1"]
    ),
    st.integers(-40, 40).map(str),
)


@st.composite
def argvs(draw):
    head = [draw(st.one_of(st.sampled_from(COMMANDS), TOKENS))]
    if head[0] == "braid":
        head.append(draw(st.one_of(st.sampled_from(BRAID_OPS), TOKENS)))
    elif head[0] == "verify":
        # the other suites take seconds per call
        head += ["--suite", "identity"]
    return head + draw(st.lists(TOKENS, max_size=8))


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argvs())
    def test_every_argv_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                pytest.fail(f"{argv!r} raised SystemExit({exc.code!r})")
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().strip() and "Traceback" not in err.getvalue()


class TestVerifyCommand:
    def test_identity_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--suite", "identity", "--max", "10"])
        assert code == 0 and doc == []

    @pytest.mark.parametrize("bound", ["-1", "-5000"])
    def test_negative_max_rejected(self, capsys, monkeypatch, bound):
        monkeypatch.setattr(verify, "run_suites", lambda *a, **k: pytest.fail("suites ran"))
        assert run(["verify", "--max", bound]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max" in captured.err and repr(bound) in captured.err

    def test_max_zero_reaches_the_suites(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "run_suites", lambda suite, bound: seen.append((suite, bound)) or [])
        code, doc = run_json(capsys, ["verify", "--suite", "counts", "--max", "0"])
        assert code == 0 and doc == [] and seen == [("counts", 0)]

    @pytest.mark.parametrize("suite", ["all", "counts", "orientation"])
    def test_huge_census_bound_refused_at_once(self, suite):
        # the family set of 10^8 would need tens of GiB
        argv = ["verify", "--suite", suite, "--max", "100000000"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue() == (
            f"error: the counts and orientation suites take a bound up to {verify.MAX_CENSUS_ALPHA}, "
            "got 100000000\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "gofknots", *argv], capture_output=True, text=True, env=module_env(), timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == "" and proc.stderr == err.getvalue()

    @pytest.mark.parametrize("suite", ["all", "counts", "orientation"])
    def test_census_bound_limit_boundary(self, capsys, monkeypatch, suite):
        monkeypatch.setattr(verify, "MAX_CENSUS_ALPHA", 20)
        code, doc = run_json(capsys, ["verify", "--suite", suite, "--max", "20"])
        assert code == 0 and doc == []
        assert run(["verify", "--suite", suite, "--max", "21"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the counts and orientation suites take a bound up to 20, got 21\n"

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
            ["gof", "17", "5"],
            ["classify", "4", "1"],
            ["equiv", "10", "3", "10", "7", "--oriented"],
            ["normalize", "19", "16"],
            ["conway", "1,2,-2"],
            ["enumerate", "--max", "50", "--format", "tsv"],
            ["enumerate", "--max", "50", "--format", "json"],
            ["verify", "--suite", "identity", "--max", "5"],
            ["braid", "exp", "1", "1", "-2"],
            ["braid", "mirror", "1", "2", "-1"],
            ["braid", "det", "1", "1", "1", "2"],
            ["braid", "homology", "1", "1", "1", "1", "2"],
            ["braid", "identify", "-1", "-1", "-1", "-1", "-1", "-2"],
            ["braid", "identify", "1", "-1"],
            ["braid", "conj", "1", "1", "2", "--", "2", "1", "1"],
            ["braid", "twist", "1", "1", "1", "1", "1", "1", "2"],
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        first_code = run(argv)
        first = capsys.readouterr().out
        second_code = run(argv)
        assert capsys.readouterr().out == first
        assert second_code == first_code
        assert first


def module_env() -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestModuleEntryPoint:
    def test_python_dash_m_matches_run(self, capsys):
        assert run(["gof", "19", "3"]) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "gofknots", "gof", "19", "3"],
            capture_output=True, text=True, env=module_env(), timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == expected

    def test_closed_stdout_exits_1_quietly(self):
        # as `gofknots enumerate --max 3000 | head -c 100` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "gofknots", "enumerate", "--max", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
        )
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_unknown_command_exits_one(self, capsys):
        assert run(["nonsense"]) == 1
