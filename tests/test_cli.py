import json

import pytest

from lgplucker.cli import main
from lgplucker.formats import parse_alist, parse_coord, matrix_data
from conftest import bmatrix


class TestBuild:
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

    @pytest.mark.parametrize("n,q", [(3, 1000), (30, 1), (7, 4)])
    def test_invalid_q_rejected_above_cap(self, n, q, capsys):
        assert main(["count", "--n", str(n), "--q", str(q)]) == 1
        captured = capsys.readouterr()
        assert "invalid arguments" in captured.err and captured.out == ""


class TestExportLdpc:
    def test_l4_alist(self, tmp_path, capsys):
        out = tmp_path / "l4.alist"
        assert main(["export-ldpc", "--m", "6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "20 15"
        summary = capsys.readouterr().out
        assert "code length 20" in summary and "parity rows 15" in summary
        assert "row weight 4" in summary and "column weight 3" in summary

    def test_odd_m_usage(self, capsys):
        assert main(["export-ldpc", "--m", "5"]) == 1

    def test_cap(self):
        assert main(["export-ldpc", "--m", "14"]) == 3


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["build"]) == 1
