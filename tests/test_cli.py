"""Command-line surface: shapes, determinism, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
import smith_oracle
import square_class_oracle
from witt_oracle import _hasse_product

import kmw.fields
import kmw.scissors
import kmw.witt
from kmw.cli import _is_odd_prime_power, _thread_cap, main, parse_field_spec
from kmw.errors import UnsupportedField
from kmw.fields import FiniteField, RatFunField, RationalField

PB5_JSON = (
    '{"group":{"invariant_factors":[6]},'
    '"half":{"invariant_factors":[3]},"expected":3,"pass":true}\n'
)

# sha256 of the stdout of each command, recorded when it was added
PINNED_STDOUT = {
    "pb --q-range 5:31 --json":
        "620bc9fa5e385eb1eb6d72e9d8f78204bd7d83f241be52bf3e77cb258c937663",
    "rp --q-range 5:13 --csv":
        "f30cae81c1aa4c6a532ddf4287c2951b7600cb174904949ee339cc18530ee6aa",
    "derived --q-range 5:25 --json":
        "7673b71c416ccfee95403a87dd33abf7e3a94dd25943d43e1baf0b14f3677214",
    "derived --q-range 5:13":
        "580a183951aaf262a5854edc205b63b34336b3b49c1d765d2f5dfe066aaf848b",
    "derived --q-range 5:13 --csv":
        "8808b835b8c44fc7cca41a7af4c0fbbf8a6902d7e246f99202e59a673ab65489",
    "report h3-laurent --field F13":
        "62b2d6adac8f92ed18d5f112c88f8cabd896401c7f3135fdb6edfa2b6f14c47d",
    "report h3-laurent --field F9 --json":
        "36c58e3f7aa1b09ff95443b4d97c4d2b240b2631a3eb36e881a24706738defa5",
    "verify sv --q-range 5:11 --json":
        "f9d56d46910a89b6cbd6cd89c5cfd64ba6503efdc620afb335aabb9bede1fde0",
    # every subcommand in every format, and the single-q JSON of pb, rp
    # and derived, which omits "q"
    "pb --q-range 5:13":
        "026ca6f9bbb5e0c602e12b0c8997a814d1282e569630d993f74366fbce9445b3",
    "pb --q-range 5:13 --csv":
        "7b0d69180108e9d69f2c8ca98fe42b6a29c23d26a58694b4c8c3de26c9f01b87",
    "pb --q 7 --json":
        "f0a154770eb713ca7b67047da70525d6f0a2fd8b9387f32db23d99c7cb0fa277",
    "rp --q-range 5:9":
        "8055d0ed738b77a230e51ab060d27dfca1251106984f7827b09286da9af81190",
    "rp --q-range 5:9 --json":
        "3207c9d1e043d5a927f5403c1bb8691bd3d9e217e8e2ad98d1c28e7f30666620",
    "rp --q 7 --json":
        "4aeb49da8e7c87fc975631d60b2929ed5778bae8a5e275364b7db2f838471574",
    "derived --q 7 --json":
        "f2ee6f2c47d0b5e542f0e51d4712c9f1780b3011022a2a129e075b0863644d39",
    "verify mw-relations --field F5 --samples 4":
        "fb1595f9102728ac5ff5dc81cb236719d3033c95ac27d71f697d2362be1e6eba",
    "verify mw-relations --field F5 --samples 4 --json":
        "c494b8ba19d57d8471324772f7352eeb66ad12a1cca19ff250f38e68e80382c8",
    "verify mw-relations --field F5 --samples 4 --csv":
        "436a1726e0b810ee5ab9806487fec0dc92359096f4e22c03b6e3f1221f186291",
    "verify delta-t --field F7 --samples 3":
        "2395b9e2d999a4da73afdaa8363b51b75f31d9441c612e38c95d39f9edf12900",
    "verify delta-t --field F7 --samples 3 --json":
        "469bb521dd57d6a7848bc489d765cf2e67ad1efb1e5a8701419855bc6d50ca1e",
    "verify delta-t --field F7 --samples 3 --csv":
        "088944e9f8a65d95330024b2879f6f2503b92417f9726ecfe34a7c03d72f125c",
    "verify sv --q 7 --samples 4":
        "12d883a2b835bf52eb9ab7436744e5aca876a4f97388fd7aafb56718ae703116",
    "verify sv --q 7 --samples 4 --json":
        "2ade074cfc9a2f2cb86a7db9395a54580a7343538a987a99e010198f1df37166",
    "verify sv --q 7 --samples 4 --csv":
        "53c211bbb23571553ba2c30509a5c220e49851a46a7088de0480798ee3616691",
    "verify witt --q-range 3:7 --samples 4":
        "a7eaa2b0ae60b8662f8e9e4ec1e0e93260238ea3a1ddef6c4bab76816f8558d5",
    "verify witt --q-range 3:7 --samples 4 --json":
        "e714bac6eda8627574520c57debd48b17ded902e10a8b106595438f75e5d4140",
    "verify witt --q-range 3:7 --samples 4 --csv":
        "26aa2b7ee6ac1d75f5b0eef96f3ed2a30dc4fa69fcfe1cc5a9969e64a955ad9d",
    "verify hilbert-product --samples 4":
        "13a6cdd7038a49613b195701266f2a035e66eafac35741fec7e96138f9d2ea60",
    "verify hilbert-product --samples 4 --json":
        "6e8c484fef6203a7dd8c2399994686f289cb49a3df39ae5fce731690f2918693",
    "verify hilbert-product --samples 4 --csv":
        "ae69b3f1e01a25111a8db2f3e6e57cccf6038350ddf224cd172ae897c8b21e23",
    "report h2-laurent --field Q --prime-bound 7":
        "df79800a9706e7358973d035641f457994448ce7421f09c276cb7b36877f775c",
    "report h2-laurent --field Q --prime-bound 7 --json":
        "9aa22430cbac1242d867983e2ae12f47d1c27691ec2e3cefc6dc06f148905d25",
    "report h2-laurent --field Q --prime-bound 7 --csv":
        "e0329126675695d6b86d4dc5cf2fc8c85460bfb627894cbf4d2d053332c8c5b1",
    "report h3-laurent --field Q --prime-bound 7":
        "62c6e93839df6785e2946d9ee23cece3ef23b696282d6b8c915674d5ce1b92c4",
    "report h3-laurent --field Q --prime-bound 7 --json":
        "c2f7c48edc8ee3d73f484a3d43a67fca524c6827cf349239a86e7322ff8bcddc",
    "report h3-laurent --field Q --prime-bound 7 --csv":
        "f2e6949409d8aad0f9b6093ad8f1f95a28783c35b5f23b2fafa10ceae46cc11a",
    "report stabilization --field F5 --degree 3":
        "e8702555820999bab4c88ed27709e906fb73949eba320c697727d4ec558315e3",
    "report stabilization --field F5 --degree 3 --json":
        "e7a9d9cf0b139a146a570d7850bb59d2c99072503c2c667be7019792ffb9e223",
    "report stabilization --field F5 --degree 3 --csv":
        "0d79623d2077e576dd6d599ff386e3219322d6cf20ea3cfcbd95558626b8069f",
    "snf":
        "def117c7648dfde75841460e244a15d9a5c35781dd37d286de705f623bfdff52",
    "snf --json":
        "dfecdda277dd3256acc3dcd2566e04bb6c18914d35cc5b283bebd34f36d9e425",
    "snf --csv":
        "c0404d6acc129b51a538d1bd18a69a3d998243a452ac67672a460e8dac2e152f",
}
#: the matrix the snf entries above read from stdin
PINNED_SNF_STDIN = "[[2,4,4],[-6,6,12],[10,4,16]]"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFieldSpec:
    def test_rationals(self):
        assert isinstance(parse_field_spec("Q"), RationalField)

    def test_finite(self):
        field = parse_field_spec("F49")
        assert isinstance(field, FiniteField)
        assert field.order == 49

    def test_function_field(self):
        field = parse_field_spec("F7t")
        assert isinstance(field, RatFunField)
        assert field.base.order == 7

    @pytest.mark.parametrize("spec", ["Qt", "G5", "F", "f5", "F5tt", "F4", "F15"])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(UnsupportedField):
            parse_field_spec(spec)


class TestQSelection:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 25, 27, 49, 121])
    def test_odd_prime_powers(self, n):
        assert _is_odd_prime_power(n)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 15, 21, 33, 45, 63])
    def test_non_prime_powers(self, n):
        assert not _is_odd_prime_power(n)

    def test_even_q_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["pb", "--q", "6"])
        assert code == 2
        assert not out
        assert "BadBound" in err

    def test_json_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, ["pb", "--q", "4", "--json"])
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "BadBound"

    @pytest.mark.parametrize("text", ["5-9", "a:b", "9:5", "5:7:9"])
    def test_bad_ranges(self, capsys, text):
        code, _, err = run_cli(capsys, ["pb", "--q-range", text])
        assert code == 2
        assert "BadBound" in err

    def test_range_without_admissible_q(self, capsys):
        code, _, err = run_cli(capsys, ["pb", "--q-range", "14:16"])
        assert code == 2
        assert "no admissible q" in err


class TestPb:
    def test_worked_example_bytes(self, capsys):
        code, out, err = run_cli(capsys, ["pb", "--q", "5", "--json"])
        assert code == 0
        assert out == PB5_JSON
        assert not err

    def test_sweep_rows_carry_q(self, capsys):
        code, out, _ = run_cli(capsys, ["pb", "--q-range", "5:13", "--json"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["q"] for r in rows] == [5, 7, 9, 11, 13]
        assert all(r["pass"] for r in rows)
        assert rows[2]["half"]["invariant_factors"] == [5]

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, ["pb", "--q-range", "5:9", "--csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,group,half,expected,pass"
        assert lines[1] == "5,6,3,3,true"
        assert lines[2] == "7,8,,1,true"

    def test_human_lines(self, capsys):
        code, out, _ = run_cli(capsys, ["pb", "--q", "5"])
        assert code == 0
        assert "q=5" in out and "pass" in out

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, ["pb", "--q-range", "5:13", "--json"])
        _, second, _ = run_cli(capsys, ["pb", "--q-range", "5:13", "--json"])
        assert first == second

    def test_threaded_sweep_matches_serial(self, capsys, monkeypatch):
        _, serial, _ = run_cli(capsys, ["pb", "--q-range", "5:13", "--json"])
        monkeypatch.setenv("KMW_THREADS", "3")
        _, threaded, _ = run_cli(capsys, ["pb", "--q-range", "5:13", "--json"])
        assert threaded == serial

    @pytest.mark.parametrize("value", ["lots", "0", "-2", "2.5"])
    def test_thread_env_garbage_is_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("KMW_THREADS", value)
        code, out, err = run_cli(capsys, ["pb", "--q", "5", "--json"])
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "BadBound"
        assert "KMW_THREADS" in diag["detail"]

    def test_thread_cap_is_cpu_count(self, monkeypatch):
        # the parser only: no pool of this size is ever started
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("KMW_THREADS", "100000")
        assert _thread_cap() == 2
        monkeypatch.setenv("KMW_THREADS", "1")
        assert _thread_cap() == 1
        monkeypatch.setenv("KMW_THREADS", "")
        assert _thread_cap() == 1
        monkeypatch.delenv("KMW_THREADS")
        assert _thread_cap() == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "pb.json"
        code, out, _ = run_cli(
            capsys, ["pb", "--q", "5", "--json", "--out", str(target)]
        )
        assert code == 0
        assert not out
        assert target.read_text(encoding="utf-8") == PB5_JSON


class TestRpDerived:
    def test_rp_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["rp", "--q", "5", "--json"])
        assert code == 0
        row = json.loads(out)
        assert row["generators"] == 8
        assert row["relations"] == 14
        assert row["group"] == {"free_rank": 1, "invariant_factors": [3]}

    def test_rp_builds_no_rows(self, capsys, monkeypatch):
        # with the group built, the row count comes from the row layout
        monkeypatch.delenv("KMW_THREADS", raising=False)
        ctx = kmw.scissors.scissors_context(7)
        ctx.rp_group()
        want = len(ctx.rp_rows())

        def no_rows(self):
            raise AssertionError("relation rows built")

        monkeypatch.setattr(kmw.scissors.ScissorsContext, "_rp_row_iter", no_rows)
        code, out, _ = run_cli(capsys, ["rp", "--q", "7", "--json"])
        assert code == 0
        assert json.loads(out)["relations"] == want

    def test_derived_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["derived", "--q", "5", "--json"])
        assert code == 0
        row = json.loads(out)
        assert row["rblker"]["invariant_factors"] == []
        assert row["half_RP1"]["invariant_factors"] == [3]
        assert row["k1_intersection_exponent"] == 1

    def test_derived_human_names_groups(self, capsys):
        code, out, _ = run_cli(capsys, ["derived", "--q", "5"])
        assert code == 0
        assert "half_P: Z/3" in out
        assert "RP: Z + Z/3" in out


class TestVerify:
    def test_witt_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "witt", "--q", "3", "--samples", "10",
                     "--seed", "1", "--json"]
        )
        assert code == 0
        row = json.loads(out)
        assert row["suite"] == "witt"
        assert row["pass"] is True
        assert row["checked"] > 0
        assert row["witness"] is None

    def test_hilbert_product_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "hilbert-product", "--samples", "20",
                     "--seed", "2"]
        )
        assert code == 0
        assert "ok" in out

    def test_sv_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "sv", "--q-range", "5:7", "--samples", "5",
                     "--seed", "3", "--json"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["q"] for r in rows] == [5, 7]
        assert all(r["pass"] for r in rows)

    def test_mw_relations_small(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "mw-relations", "--field", "F5t",
                     "--samples", "5", "--seed", "4", "--json"]
        )
        assert code == 0
        row = json.loads(out)
        assert row["field"] == "F5t"
        assert row["checked"] == 5

    def test_delta_t_over_tabled_f6561(self, capsys):
        # F6561 = F3[x]/(x^8 + x^2 + 2): log/Zech-tabled arithmetic, and a
        # degree-2 residue field of 6561^2 elements over it
        code, out, _ = run_cli(
            capsys, ["verify", "delta-t", "--field", "F6561", "--samples", "1",
                     "--json"]
        )
        assert code == 0
        assert out == (
            '{"suite":"delta-t","field":"F6561","samples":1,"seed":0,'
            '"checked":1,"failures":0,"pass":true,"witness":null}\n'
        )

    @pytest.mark.parametrize("spec", ["F0", "F1", "F4", "F12"])
    def test_unsupported_field_order_exits_two(self, capsys, spec):
        code, out, err = run_cli(
            capsys, ["verify", "delta-t", "--field", spec, "--samples", "1",
                     "--json"]
        )
        assert code == 2
        assert not out
        assert json.loads(err)["error"] == "UnsupportedField"

    def test_delta_t_rejects_function_field(self, capsys):
        code, _, err = run_cli(
            capsys, ["verify", "delta-t", "--field", "F5t", "--samples", "5",
                     "--seed", "1"]
        )
        assert code == 2
        assert "UnsupportedField" in err

    def test_failure_exits_one_with_witness(self, capsys, monkeypatch):
        def broken(q, samples, seed):
            return 7, ["pair (3, 5) disagrees", "longer witness string here"]

        monkeypatch.setattr("kmw.cli.run_witt", broken)
        code, out, err = run_cli(
            capsys, ["verify", "witt", "--q", "3", "--samples", "7",
                     "--seed", "1", "--json"]
        )
        assert code == 1
        row = json.loads(out)
        assert row["pass"] is False
        assert row["failures"] == 2
        assert row["witness"] == "pair (3, 5) disagrees"
        assert "verification failed" in err
        assert "pair (3, 5) disagrees" in err

    @pytest.mark.parametrize("argv", [
        ["mw-relations", "--field", "Q"],
        ["delta-t", "--field", "F5"],
        ["sv", "--q", "5"],
        ["witt", "--q", "3"],
        ["hilbert-product"],
    ], ids=lambda argv: argv[0])
    def test_negative_samples_are_invalid(self, capsys, argv):
        code, out, err = run_cli(
            capsys, ["verify", *argv, "--samples", "-3", "--json"]
        )
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "BadBound", "detail": "--samples must be >= 0, got -3",
        }

    def test_zero_samples_still_run_structural_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "witt", "--q", "9", "--samples", "0", "--json"]
        )
        assert code == 0
        row = json.loads(out)
        assert row["samples"] == 0 and row["checked"] > 0 and row["pass"]
        code, out, _ = run_cli(
            capsys, ["verify", "sv", "--q", "5", "--samples", "0", "--json"]
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_failure_witness_in_human_output(self, capsys, monkeypatch):
        monkeypatch.setattr("kmw.cli.run_hilbert", lambda s, z: (3, ["(2|3)"]))
        code, out, _ = run_cli(
            capsys, ["verify", "hilbert-product", "--samples", "3",
                     "--seed", "1"]
        )
        assert code == 1
        assert "smallest witness: (2|3)" in out


class TestReport:
    def test_h2_json_matches_library(self, capsys):
        from kmw.fields import finite_field
        from kmw.reports import h2_laurent_report

        code, out, _ = run_cli(
            capsys, ["report", "h2-laurent", "--field", "F5", "--json"]
        )
        assert code == 0
        assert json.loads(out) == h2_laurent_report(finite_field(5)).to_json()

    def test_h2_rational_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["report", "h2-laurent", "--field", "Q", "--prime-bound", "7",
             "--json"],
        )
        assert code == 0
        row = json.loads(out)
        assert row["free_rank"] == 5
        assert row["cyclic_factors"] == [2, 2, 4, 2, 6, 2]

    def test_missing_bound_is_invalid_input(self, capsys):
        code, _, err = run_cli(capsys, ["report", "h2-laurent", "--field", "Q"])
        assert code == 2
        assert "MissingBound" in err

    def test_stabilization_requires_known_degree(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["report", "stabilization", "--field", "F5", "--degree", "4"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_stabilization_human_output(self, capsys):
        code, out, _ = run_cli(
            capsys, ["report", "stabilization", "--field", "F5", "--degree", "2"]
        )
        assert code == 0
        assert "degree 2" in out

    @pytest.mark.parametrize("bound", ["0", "1"])
    def test_h3_rational_bound_below_two_is_invalid(self, capsys, bound):
        code, out, err = run_cli(
            capsys, ["report", "h3-laurent", "--field", "Q",
                     "--prime-bound", bound, "--json"]
        )
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "BadBound",
            "detail": "the prime bound must be an integer >= 2",
        }

    def test_h3_csv_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, ["report", "h3-laurent", "--field", "F5", "--csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,free_rank,cyclic_factors,symbolic,bound"
        assert len(lines) == 2


class TestSnf:
    def feed(self, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_stdin_rows(self, capsys, monkeypatch):
        self.feed(monkeypatch, "[[2,4,4],[-6,6,12],[10,4,16]]")
        code, out, _ = run_cli(capsys, ["snf", "--json"])
        assert code == 0
        row = json.loads(out)
        assert row == {"rows": 3, "cols": 3, "rank": 3,
                       "diagonal": ["2", "2", "156"]}

    def test_decimal_string_entries(self, capsys, monkeypatch):
        big = 10 ** 30
        self.feed(monkeypatch, json.dumps([[str(big), "0"], ["0", str(6)]]))
        code, out, _ = run_cli(capsys, ["snf", "--json"])
        assert code == 0
        row = json.loads(out)
        assert row["diagonal"] == ["2", str(3 * big)]

    @pytest.mark.parametrize("entry", [" 7", "7\n", "+7", "1_000", "\u0663"],
                             ids=["space", "newline", "plus", "underscore",
                                  "arabic-indic"])
    def test_rejects_loose_decimal_strings(self, capsys, monkeypatch, entry):
        self.feed(monkeypatch, json.dumps([[entry]]))
        code, out, err = run_cli(capsys, ["snf", "--json"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_negative_decimal_string(self, capsys, monkeypatch):
        self.feed(monkeypatch, json.dumps(
            {"rows": "1", "cols": "2", "entries": ["-12", "-0"]}
        ))
        code, out, _ = run_cli(capsys, ["snf", "--json"])
        assert code == 0
        assert json.loads(out)["diagonal"] == ["12"]

    def test_object_form(self, capsys, monkeypatch):
        self.feed(monkeypatch, json.dumps(
            {"rows": 2, "cols": 2, "entries": ["2", "0", "0", "4"]}
        ))
        code, out, _ = run_cli(capsys, ["snf", "--json"])
        assert code == 0
        assert json.loads(out)["diagonal"] == ["2", "4"]

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0,0],[0,7]]", encoding="utf-8")
        code, out, _ = run_cli(capsys, ["snf", str(path)])
        assert code == 0
        assert "rank 1" in out and "7" in out

    def test_empty_matrix(self, capsys, monkeypatch):
        self.feed(monkeypatch, "[]")
        code, out, _ = run_cli(capsys, ["snf", "--json"])
        assert code == 0
        assert json.loads(out) == {"rows": 0, "cols": 0, "rank": 0,
                                   "diagonal": []}

    def test_rejects_float_entries(self, capsys, monkeypatch):
        self.feed(monkeypatch, "[[1.5,2],[3,4]]")
        code, _, err = run_cli(capsys, ["snf"])
        assert code == 2
        assert "must be integers" in err

    @pytest.mark.parametrize("obj", [
        {"rows": 1, "cols": 1, "entries": [1.5]},
        {"rows": 1, "cols": 1, "entries": [True]},
        {"rows": 1.0, "cols": 1, "entries": [1]},
    ], ids=["float-entry", "bool-entry", "float-rows"])
    def test_object_form_rejects_non_integers(self, capsys, monkeypatch, obj):
        self.feed(monkeypatch, json.dumps(obj))
        code, out, err = run_cli(capsys, ["snf"])
        assert code == 2
        assert out == ""
        assert "must be integers" in err

    def test_rejects_ragged_rows(self, capsys, monkeypatch):
        self.feed(monkeypatch, "[[1,2],[3]]")
        code, _, err = run_cli(capsys, ["snf"])
        assert code == 2

    def test_rejects_non_json(self, capsys, monkeypatch):
        self.feed(monkeypatch, "not json")
        code, _, err = run_cli(capsys, ["snf"])
        assert code == 2
        assert "JSONDecodeError" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["snf", "/no/such/file.json"])
        assert code == 2
        assert "FileNotFoundError" in err


class TestHasseStepAgainstPairwiseOracle:
    """The same stdout and exit code with the local-data Hasse step of
    ``kmw.witt`` as with the pairwise Hilbert-symbol product."""

    @pytest.mark.parametrize("argv, reaches_hasse", [
        ("verify mw-relations --field F9t --samples 20 --seed 5 --json", True),
        ("verify mw-relations --field Q --json", True),
        ("verify witt --q-range 3:9 --json", True),
        ("verify hilbert-product --json", False),
    ])
    def test_stdout_is_byte_identical(self, capsys, monkeypatch, argv, reaches_hasse):
        argv = argv.split()
        new = run_cli(capsys, argv)
        calls = []

        def oracle(rep, place):
            calls.append(place)
            return _hasse_product([cls.rep() for cls in rep], place)

        monkeypatch.setattr(kmw.witt, "_local_hasse", oracle)
        old = run_cli(capsys, argv)
        assert new[:2] == old[:2]
        assert new[0] == 0
        assert bool(calls) == reaches_hasse


class TestPlaceSetKeyAgainstPolynomialKey:
    """The same stdout and exit code with F_q(t) square classes keyed by
    place sets as with the polynomial key of ``square_class_oracle``."""

    @pytest.fixture
    def polynomial_key(self, monkeypatch):
        yield lambda calls: square_class_oracle.install(monkeypatch, calls)
        # the class of -1 cached under the oracle key must not outlive it
        kmw.fields._minus_one_class.cache_clear()

    @pytest.mark.parametrize("argv, reaches_fqt", [
        ("verify mw-relations --field F9t --samples 20 --seed 5 --json", True),
        ("verify mw-relations --field F3t --samples 60 --seed 2 --json", True),
        ("verify witt --q-range 3:9 --json", True),
        ("verify delta-t --field F9 --samples 3 --json", True),
    ])
    def test_stdout_is_byte_identical(self, capsys, polynomial_key, argv, reaches_fqt):
        argv = argv.split()
        new = run_cli(capsys, argv)
        calls = []
        polynomial_key(calls)
        old = run_cli(capsys, argv)
        assert new[:2] == old[:2]
        assert new[0] == 0
        assert bool(calls) == reaches_fqt


class TestHermiteReadingAgainstSmithReading:
    """The same stdout and exit code with map checks read off the Hermite
    basis as with the all-rows map check of ``smith_oracle``."""

    @pytest.fixture
    def smith_reading(self, monkeypatch):
        monkeypatch.delenv("KMW_THREADS", raising=False)
        # cached contexts keep their maps and derived groups; rebuild them
        # under the oracle, and drop what the oracle built afterwards
        kmw.scissors.scissors_context.cache_clear()

        def install(calls):
            kmw.scissors.scissors_context.cache_clear()
            smith_oracle.install(monkeypatch, calls)

        yield install
        kmw.scissors.scissors_context.cache_clear()

    @pytest.mark.parametrize("argv, reaches_oracle", [
        ("derived --q-range 5:25 --json", True),
        ("pb --q-range 5:49 --json", False),
        ("rp --q-range 5:19 --json", False),
    ])
    def test_stdout_is_byte_identical(self, capsys, smith_reading, argv, reaches_oracle):
        argv = argv.split()
        new = run_cli(capsys, argv)
        calls = []
        smith_reading(calls)
        old = run_cli(capsys, argv)
        assert new[:2] == old[:2]
        assert new[0] == 0
        assert bool(calls) == reaches_oracle
        if reaches_oracle:
            assert set(calls) == {"AbMap"}


class TestPinnedStdout:
    """The sha256 of stdout for a fixed set of commands, so that any
    change to the bytes the CLI prints shows up here."""

    @pytest.mark.parametrize("argv", PINNED_STDOUT)
    def test_stdout_digest(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("KMW_THREADS", raising=False)
        monkeypatch.setattr("sys.stdin", io.StringIO(PINNED_SNF_STDIN))
        code, out, _ = run_cli(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


class TestEntryPoint:
    def test_console_script(self):
        result = subprocess.run(
            ["kmw", "pb", "--q", "5", "--json"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == PB5_JSON

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "kmw.cli", "snf"],
            input="[[3]]", capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "rank 1" in result.stdout
