import dataclasses
import hashlib
import json

import pytest

from lgplucker import blocks
from lgplucker.cli import main
from lgplucker.formats import parse_alist, parse_coord, matrix_data
from conftest import bmatrix


# sha256 of the file build writes for each n and format
BUILD_SHA256 = {
    (2, "coord"): "d1db587b397cfa3db4d7ab57acc85d9d1ac75f9c395a54599ab4b618e2b24b2c",
    (2, "alist"): "1e9b8be4aadcf27dfc9d2f7624da31dc7616f6d4880be8c1b082d715b5688f3f",
    (2, "json"): "4df982d118cd166d403296ffda017daef2c79ef50a99874628836e40d3fb5617",
    (3, "coord"): "7a64eed9cf8ebd0b79a23892c3d9a7d2f59d60d6b93b3c740c9351d389f2e0ca",
    (3, "alist"): "8df1e16832e746a7c71ae083ceaf11c89ac3179c1114369512b3dde9fece8b68",
    (3, "json"): "fc08f8f0ce7479f8955b8836d727107dc225a9f641539438b752c6c05cb506b7",
    (4, "coord"): "a344fea840ff0f2fa28e15aba543536b18a5762d02bf6327a35b254e68871c7f",
    (4, "alist"): "6e6b2609439eb01a10325caf251066f2870be1b93f24f03ae258dd262a81a16e",
    (4, "json"): "2ba112855178594b72d07d2bce935f4e8ff4966dda05fdfdcaa09a3ca49af7f2",
    (5, "coord"): "d61c46a5c7a2d3d79525adb4e3df1b6930305f37166a1a8bd895d2f17b377a1f",
    (5, "alist"): "823dde6243c29828bb418f737b3f92942df67d664b6415bacbf68bfb1add3201",
    (5, "json"): "f0df83d771a58c6c5321576b937a7c9082e05b67a6d83f57d077d21d8fa08de3",
    (6, "coord"): "a05029929fffb6b6d18dfc2df0b5da8accf12a37fc30d50e548821e72cddffeb",
    (6, "alist"): "55bb1acc368654aee26a8969bcc5ee79722b8e0194469d326602ef3ed40c09c9",
    (6, "json"): "cc4529a3df4333d47f55bc8d0ccdcdb6befaa5b74875e8e59c50ddb68627ba25",
    (7, "coord"): "94bf6adf36c7f2dd2d45c770485d7c3ccf7b40758e049281c16950550499e3dd",
    (7, "alist"): "9bdc6578a49218f9b71860109d76d90dacf93494d638c9833f5eefe2199a6687",
    (7, "json"): "06ee962853659bef6ea3a41e675b113afb6baa8646740983ef220a50f4d2e338",
}

# sha256 of the report decompose prints for each n
DECOMPOSE_SHA256 = {
    2: "c4f4748d6a47a7b8f38d889b94ee05600686f9307781abc051b883db2fa53c4f",
    3: "d2d883cf0c07c9ebf2fb1ff0dbf0fed7ecb1f31ee1f0f316a50cfe31cc1ae260",
    4: "ac3271f65b8a60d8b77336c1a58e7353b926fdfaa937b8768326351a3fe16d77",
    5: "7011d1ffb4556ea83d69363c67170ea70371fb9cdc7a222bc08dbfc59be88928",
    6: "39ca332b950bbbfa93d51bdafa911627f05aa5a886426d85824b60e81bbe8f1b",
}

# sha256 of the verify report, without its timings and re-dumped with
# indent 2, for each (n, q); seed 0
VERIFY_SHA256 = {
    (2, 2): "f87f4049a4ef63f28893df88ddfc079fada80991bd769971fb463dbecab18f0a",
    (2, 3): "8b0a86c071b22c8518d34157936297ee494dab2e36c94010726888e0285995f3",
    (2, 5): "b97dd569187730f43857b1e5fde5ee098cab72688c016c2f45e8c99a7dbf4ae3",
    (2, 7): "2bc605f66e58c4da28f5940b92862bddb3feaab5860344fd2c9bf206ee4e0a68",
    (3, 2): "f0d9a29535e61091b717e9fe1fa8991248c0b76521d616513bff02b82310ff58",
    (3, 3): "771117fa9e100e5db897ffd5e54e6f6116374275913e4b444688dee4cd54e1f2",
    (4, 2): "0f5e86f03b6670921acbb3c2867ff7c238483b64fe217b025bd7add9b02a704f",
}


class TestBuild:
    @pytest.mark.parametrize("n,fmt", sorted(BUILD_SHA256))
    def test_file_bytes_pinned(self, n, fmt, tmp_path, capsys):
        out = tmp_path / f"b.{fmt}"
        assert main(["build", "--n", str(n), "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_SHA256[n, fmt]

    def test_coord_file(self, tmp_path, capsys):
        out = tmp_path / "b3.coord"
        assert main(["build", "--n", "3", "--out", str(out)]) == 0
        assert parse_coord(out.read_text()) == matrix_data(bmatrix(3))
        assert "6 x 20, nnz 12" in capsys.readouterr().out

    def test_alist_stdout(self, capsys):
        assert main(["build", "--n", "2", "--format", "alist"]) == 0
        captured = capsys.readouterr()
        assert parse_alist(captured.out) == matrix_data(bmatrix(2))

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "b4.json"
        assert main(["build", "--n", "4", "--format", "json", "--out", str(out)]) == 0
        from lgplucker.formats import parse_json

        assert parse_json(out.read_text()) == matrix_data(bmatrix(4))

    def test_cap(self, capsys):
        assert main(["build", "--n", "8"]) == 3


class TestDecompose:
    def test_n4_census_line(self, capsys):
        assert main(["decompose", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "1×L3, 24×L2, zero-cols 16" in out
        assert "all 25 blocks pass" in out

    def test_n2(self, capsys):
        assert main(["decompose", "--n", "2"]) == 0
        assert "1×L2, zero-cols 4" in capsys.readouterr().out

    def test_n5_note(self, capsys):
        assert main(["decompose", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "10×L3, 80×L2" in out
        assert "NOTE" in out

    def test_cap(self):
        assert main(["decompose", "--n", "7"]) == 3

    def test_regularity_checked_once_per_atlas_member(self, capsys, monkeypatch):
        seen = []
        check = blocks.check_regularity
        monkeypatch.setattr(blocks, "check_regularity", lambda mat: seen.append(mat.m) or check(mat))
        assert main(["decompose", "--n", "6"]) == 0
        assert sorted(seen) == [2, 4, 6]
        assert "regularity: all 301 blocks pass" in capsys.readouterr().out

    def test_irregular_member_fails_once_for_its_blocks(self, capsys, monkeypatch):
        check = blocks.check_regularity

        def fail_l4(mat):
            report = check(mat)
            return dataclasses.replace(report, failures=("forced",)) if mat.m == 4 else report

        monkeypatch.setattr(blocks, "check_regularity", fail_l4)
        assert main(["decompose", "--n", "5"]) == 2
        assert capsys.readouterr().out.splitlines()[1] == "FAIL L3 (10 blocks): forced"

    @pytest.mark.parametrize("n", sorted(DECOMPOSE_SHA256))
    def test_report_bytes_pinned(self, n, capsys):
        assert main(["decompose", "--n", str(n)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == DECOMPOSE_SHA256[n]


class TestVerify:
    def test_2_2_all_pass(self, capsys):
        assert main(["verify", "--n", "2", "--q", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["point_count"]["expected"] == 15
        assert by_name["point_count"]["observed"] == 15
        assert by_name["vanishing_dimension"]["observed"] == 1
        assert all(c["pass"] for c in doc["checks"])

    def test_2_5_formula_value(self, capsys):
        assert main(["verify", "--n", "2", "--q", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["point_count"]["expected"] == 156

    def test_n1_usage_error(self, capsys):
        assert main(["verify", "--n", "1", "--q", "2"]) == 1

    def test_failing_check_exits_2(self, capsys, monkeypatch):
        import lgplucker.cli as cli_mod

        monkeypatch.setattr(cli_mod.symplectic, "lagrangian_count", lambda n, q: 999)
        assert main(["verify", "--n", "2", "--q", "2"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["point_count"]["pass"] is False


    def test_4_2_minimality_outside_the_criterion(self, capsys):
        # GF(2) is below floor((4 + 2) / 2): B mod 2 has rank 27, and the
        # one functional vanishing on LG(4, 8) beyond its rows is the witness
        assert main(["verify", "--n", "4", "--q", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["point_count"]["observed"] == 2295
        dim = by_name["vanishing_dimension"]
        assert (dim["expected"], dim["observed"]) == (28, 28)
        assert by_name["relation_rows_vanish"]["pass"] is True
        span = by_name["vanishing_row_space"]
        assert (span["expected"], span["observed"], span["pass"]) == (False, False, True)
        assert span["witness"] == [{"(1, 2, 7, 8)": 1, "(1, 3, 6, 8)": 1, "(2, 3, 6, 7)": 1}]

    def test_timings_are_not_rounded(self, capsys):
        assert main(["verify", "--n", "2", "--q", "3"]) == 0
        timings = json.loads(capsys.readouterr().out)["timings"]
        assert set(timings) == {"enumerate_s", "plucker_relations_s", "annihilation_s", "vanishing_s", "commuting_square_s"}
        assert all(0 < v for v in timings.values())
        assert any(round(v, 3) != v for v in timings.values())

    @pytest.mark.parametrize("n,q", sorted(VERIFY_SHA256))
    def test_report_without_timings_pinned(self, n, q, capsys):
        assert main(["verify", "--n", str(n), "--q", str(q)]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["timings"]
        assert hashlib.sha256(json.dumps(doc, indent=2).encode("utf-8")).hexdigest() == VERIFY_SHA256[n, q]

    def test_failing_point_names_its_relation(self, capsys, monkeypatch):
        import lgplucker.cli as cli_mod
        from lgplucker import ExteriorVector, GF

        wedge = cli_mod.symplectic.plucker_vector
        seen = []

        def corrupted(lag):
            # the first point becomes e12 + e34, which is not decomposable
            seen.append(lag)
            if len(seen) == 1:
                return ExteriorVector(2, 2, GF(3), {(1, 2): 1, (3, 4): 1})
            return wedge(lag)

        monkeypatch.setattr(cli_mod.symplectic, "plucker_vector", corrupted)
        assert main(["verify", "--n", "2", "--q", "3"]) == 2
        by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        rel = by_name["plucker_relations"]
        assert (rel["observed"], rel["pass"]) == (1, False)
        assert rel["witness"] == {"point": [[1, 2], [3, 4]], "alpha": [1], "beta": [2, 3, 4]}


class TestRank:
    def test_char2_not_surjective(self, capsys):
        assert main(["rank", "--n", "4", "--char", "2"]) == 0
        out = capsys.readouterr().out
        assert "NOT surjective" in out
        assert "27 of 28" in out

    def test_rationals_surjective(self, capsys):
        assert main(["rank", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "28 of 28" in out and "NOT" not in out

    def test_json_flag(self, capsys):
        assert main(["rank", "--n", "3", "--char", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 6 and doc["surjective"] is True

    def test_cap(self):
        assert main(["rank", "--n", "7"]) == 3

    @pytest.mark.parametrize("char, rank", [(0, 495), (2, 430), (3, 494), (5, 495), (7, 495)])
    def test_json_n6_pinned(self, char, rank, capsys):
        assert main(["rank", "--n", "6", "--char", str(char), "--json"]) == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "n": 6,\n'
            f'  "characteristic": {char},\n'
            f'  "rank": {rank},\n'
            '  "expected": 495,\n'
            f'  "surjective": {"true" if rank == 495 else "false"},\n'
            f'  "embedding_rank": {924 - rank}\n'
            "}\n"
        )


class TestCount:
    def test_formula_and_enumeration(self, capsys):
        assert main(["count", "--n", "3", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "formula 135" in out and "enumerated 135" in out

    def test_above_cap_formula_only(self, capsys):
        assert main(["count", "--n", "6", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "formula 4922775" in out
        assert "skipped" in out

    def test_json(self, capsys):
        assert main(["count", "--n", "2", "--q", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula"] == 156 and doc["enumerated"] == 156

    @pytest.mark.parametrize("flags,digest", [
        ([], "d56422a772a593a2cb0f600eb3b8727afbc6d16e4318449f5a648f610fe88af4"),
        (["--json"], "d935b384a5fa1900fa6c9d6e00c48a87e92a276d776d3af9a3d5f0287dc301ed"),
    ])
    def test_3_5_output_pinned(self, flags, digest, capsys):
        assert main(["count", "--n", "3", "--q", "5"] + flags) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("n,q", [(3, 1000), (30, 1), (7, 4)])
    def test_invalid_q_rejected_above_cap(self, n, q, capsys):
        assert main(["count", "--n", str(n), "--q", str(q)]) == 1
        captured = capsys.readouterr()
        assert "invalid arguments" in captured.err and captured.out == ""

    @pytest.mark.parametrize("n,q,message", [
        (3, 4, "modulus 4 is not prime"),
        (3, 1, "modulus 1 is not prime"),
        (0, 2, "need n >= 1, got 0"),
        (0, 4, "need n >= 1, got 0"),
    ])
    def test_invalid_arguments_message(self, n, q, message, capsys):
        assert main(["count", "--n", str(n), "--q", str(q)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"invalid arguments: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("n,q", [(6, 2), (12, 1000003)])
    def test_above_cap_builds_no_cell(self, n, q, capsys):
        # the first cell of (12, 1000003) would hold q^78 points
        assert main(["count", "--n", str(n), "--q", str(q)]) == 0
        formula = 1
        for i in range(1, n + 1):
            formula *= 1 + q**i
        assert capsys.readouterr().out == f"formula {formula}\nenumerated (skipped: above cap)\n"

    def test_largest_prime_under_the_cap(self, capsys):
        # one cell of 999983 points and one of a single point
        assert main(["count", "--n", "1", "--q", "999983"]) == 0
        assert capsys.readouterr().out == "formula 999984\nenumerated 999984\n"


# sha256 of the alist text export-ldpc writes for each atlas member
ALIST_SHA256 = {
    2: "2dd9de0983412a14de26ae0877c259835cd9644e9c6b3df3bef08eceac760173",
    4: "8e07ca41b142dfa869cb97fb1466211a3df495305164f19a4a9ad38d6305398b",
    6: "99306a1c632b4784c734062dee88e1a37b28ca8f75a2c75874bd5c7e62d12323",
    8: "d5140812b537e3f40291f8552c2063e3252528ed24c935f80b4e05ae0ecbc04f",
    10: "c8ccf729614a89dcf4a323f141a1d7e1b22b074557730416af62ebb3c4bf1e10",
    12: "23f9f3b6fe192a0d081f8f9f74fdf2704d0055a31dbb8d559b87e458c5f5c586",
}


class TestExportLdpc:
    def test_l4_alist(self, tmp_path, capsys):
        out = tmp_path / "l4.alist"
        assert main(["export-ldpc", "--m", "6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "20 15"
        summary = capsys.readouterr().out
        assert "code length 20" in summary and "parity rows 15" in summary
        assert "row weight 4" in summary and "column weight 3" in summary

    @pytest.mark.parametrize("m", sorted(ALIST_SHA256))
    def test_alist_bytes_pinned(self, m, tmp_path, capsys):
        out = tmp_path / "l.alist"
        assert main(["export-ldpc", "--m", str(m), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == ALIST_SHA256[m]
        capsys.readouterr()
        assert main(["export-ldpc", "--m", str(m)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == ALIST_SHA256[m]

    def test_odd_m_usage(self, capsys):
        assert main(["export-ldpc", "--m", "5"]) == 1

    def test_cap(self):
        assert main(["export-ldpc", "--m", "14"]) == 3


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [["build", "--n", "3"], ["export-ldpc", "--m", "6"]])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_clean_exit(self, command, where, tmp_path, capsys):
        out = tmp_path / "missing" / "x" if where == "missing" else tmp_path
        assert main(command + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {out}: ")
        assert "Traceback" not in captured.err


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["build"]) == 1
