import json

import pytest

import strata as st
from strata.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestInfo:
    def test_empty_stratum(self, capsys):
        code, doc = run(capsys, "info", "--genus", "2", "--orders", "4")
        assert code == 0 and doc["status"] == "ok"
        assert doc["payload"]["empty"] is True
        assert doc["payload"]["components"] == 0

    def test_regular_stratum(self, capsys):
        code, doc = run(capsys, "info", "--genus", "2", "--orders", "1,1,1,1")
        assert code == 0
        payload = doc["payload"]
        assert payload == {
            "genus": 2,
            "orders": [1, 1, 1, 1],
            "empty": False,
            "components": 1,
            "reason": "c1-theorem",
            "dimension": 6,
        }

    def test_empty_orders_string(self, capsys):
        code, doc = run(capsys, "info", "--genus", "1", "--orders", "")
        assert code == 0 and doc["payload"]["empty"] is True

    def test_domain_error_exit_one(self, capsys):
        code, doc = run(capsys, "info", "--genus", "2", "--orders", "5")
        assert code == 1
        assert doc["status"] == "error"
        assert doc["payload"]["code"] == "invalid-signature"

    def test_non_integer_orders(self, capsys):
        code, doc = run(capsys, "info", "--genus", "2", "--orders", "1,x")
        assert code == 1 and doc["status"] == "error"
        assert doc["payload"]["code"] == "invalid-int-list"

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--genus", "2"])
        assert exc.value.code == 2


class TestPoset:
    def test_depth_one_edges(self, capsys):
        code, doc = run(capsys, "poset", "--genus", "2", "--root", "4")
        assert code == 0
        payload = doc["payload"]
        assert payload["root"] == [4]
        assert len(payload["edges"]) == 12
        assert {"from": [4], "to": [2, 2]} in payload["edges"]

    def test_no_poles(self, capsys):
        code, doc = run(capsys, "poset", "--genus", "2", "--root", "4", "--no-poles")
        assert code == 0
        assert len(doc["payload"]["edges"]) == 3

    def test_two_component_diagnostic(self, capsys):
        code, doc = run(capsys, "poset", "--genus", "3", "--root", "6,2", "--depth", "0")
        assert code == 0
        assert any("two connected components" in note for note in doc["diagnostics"])


class TestCheckAndBounds:
    def test_main_criterion(self, capsys):
        orders = ",".join(["1"] * 12 + ["2", "2"])
        code, doc = run(capsys, "check", "--genus", "5", "--orders", orders)
        assert code == 0 and doc["payload"]["satisfied"] is True

    def test_hy2_criterion(self, capsys):
        code, doc = run(
            capsys, "check", "--genus", "2", "--orders", "1,1,1,1", "--criterion", "hy2"
        )
        assert code == 0 and doc["payload"]["satisfied"] is False
        assert doc["payload"]["clause"]

    def test_gen2_criterion(self, capsys):
        orders = ",".join(["1"] * 12 + ["2", "2"])
        code, doc = run(
            capsys, "check", "--genus", "5", "--orders", orders, "--criterion", "gen2"
        )
        assert code == 0
        assert doc["payload"]["b_list"] == [2]

    def test_dmin_payload(self, capsys):
        code, doc = run(capsys, "dmin", "--weights", "4,6", "--index", "0")
        assert code == 0
        assert doc["payload"] == {"d": 3, "coeffs": [3, -2]}

    def test_dmin_zero_weight(self, capsys):
        code, doc = run(capsys, "dmin", "--weights", "0,5", "--index", "1")
        assert code == 1 and doc["status"] == "error"
        assert doc["payload"]["code"] == "zero-weight"


class TestCover:
    def test_pole_heavy_cover(self, capsys):
        code, doc = run(
            capsys,
            "cover",
            "--base-orders",
            "2,-1,-1,-1,-1,-1,-1",
            "--ramify",
            "0,1,2,3,4,5",
            "--target-genus",
            "2",
        )
        assert code == 0
        assert doc["payload"]["stratum"] == {"genus": 2, "orders": [6, -1, -1]}
        assert doc["payload"]["maybe_abelian"] is False

    def test_bad_spec(self, capsys):
        # values starting with a dash use the --option=value form
        code, doc = run(
            capsys,
            "cover",
            "--base-orders=-1,-1,-1,-1",
            "--ramify",
            "0,1",
            "--target-genus",
            "1",
        )
        assert code == 1 and doc["payload"]["code"] == "invalid-spec"

    def test_all_poles_ramified(self, capsys):
        code, doc = run(
            capsys,
            "cover",
            "--base-orders=-1,-1,-1,-1",
            "--ramify",
            "0,1,2,3",
            "--target-genus",
            "1",
        )
        assert code == 0
        assert doc["payload"]["stratum"] == {"genus": 1, "orders": []}
        assert doc["payload"]["maybe_abelian"] is True


class TestGraphPipeline:
    def test_graph_payload(self, capsys):
        code, doc = run(
            capsys,
            "graph", "--genus", "2", "--faces", "1", "--vertices", "5", "--seed", "7",
        )
        assert code == 0
        report = doc["payload"]["report"]
        assert (report["vertices"], report["edges"], report["faces"]) == (5, 8, 1)

    def test_seed_determinism(self, capsys):
        argv = ["graph", "--genus", "2", "--faces", "1", "--vertices", "5", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_graph_to_copeland_to_aj(self, capsys, tmp_path):
        code, doc = run(
            capsys, "graph", "--genus", "2", "--faces", "1", "--vertices", "5"
        )
        assert code == 0
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps(doc["payload"]["map"]))

        code, doc = run(capsys, "copeland", "--map", str(map_file))
        assert code == 0
        generators = doc["payload"]["generators"]
        assert len(generators) == 8

        word_file = tmp_path / "word.json"
        word_file.write_text(json.dumps(generators[0]))
        code, doc = run(capsys, "aj", "--word", str(word_file))
        assert code == 0
        assert doc["payload"]["in_kernel"] is True
        assert doc["payload"]["vector"] == [0, 0, 0, 0]

    def test_missing_file(self, capsys):
        code, doc = run(capsys, "aj", "--word", "/nonexistent/word.json")
        assert code == 1 and doc["payload"]["code"] == "io"

    def test_malformed_json(self, capsys, tmp_path):
        word_file = tmp_path / "word.json"
        word_file.write_text("{bad")
        code, doc = run(capsys, "aj", "--word", str(word_file))
        assert code == 1 and doc["payload"]["code"] == "invalid-json"

    def test_letter_missing_key(self, capsys, tmp_path):
        word_file = tmp_path / "word.json"
        word_file.write_text(
            json.dumps(
                {
                    "surface": {"genus": 2, "weights": [1, 1, 1, 1]},
                    "letters": [{"kind": "rho", "i": 1}],
                }
            )
        )
        code, doc = run(capsys, "aj", "--word", str(word_file))
        assert code == 1 and doc["payload"]["code"] == "invalid-letter"


def _file_code(capsys, tmp_path, command, flag, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, doc = run(capsys, command, flag, str(path))
    assert code == 1 and doc["status"] == "error"
    return doc["payload"]["code"]


GENUS_TWO = {"genus": 2, "weights": [1, 1, 1, 1]}


class TestInputTypes:
    @pytest.mark.parametrize(
        "letters",
        [
            [{"kind": "rho", "i": "x", "r": 1}],
            [{"kind": "rho", "i": 1, "r": 1, "exp": 1.0}],
            7,
        ],
    )
    def test_bad_letter_field(self, capsys, tmp_path, letters):
        word = {"surface": GENUS_TWO, "letters": letters}
        assert _file_code(capsys, tmp_path, "aj", "--word", word) == "invalid-letter"

    @pytest.mark.parametrize(
        "field",
        [
            {"weights": ["1", "1", "1", "1"]},
            {"genus": 2.5},
            {"punctures": "2"},
            {"stratum_mode": "yes"},
        ],
    )
    def test_bad_surface_field(self, capsys, tmp_path, field):
        word = {"surface": dict(GENUS_TWO, **field), "letters": []}
        assert _file_code(capsys, tmp_path, "aj", "--word", word) == "invalid-surface"

    def test_map_missing_darts(self, capsys, tmp_path):
        data = {"alpha_convention": "pairs"}
        assert _file_code(capsys, tmp_path, "copeland", "--map", data) == "invalid-spec"

    def test_map_string_darts(self, capsys, tmp_path):
        data = {"darts": "4", "sigma": [[0, 2], [1], [3]], "alpha_convention": "pairs"}
        assert _file_code(capsys, tmp_path, "copeland", "--map", data) == "invalid-spec"

    @pytest.mark.parametrize("sigma", [None, "0,1", [0, 1], [[0], ["1"]]])
    def test_map_bad_sigma(self, capsys, tmp_path, sigma):
        data = {"darts": 2, "sigma": sigma, "alpha_convention": "pairs"}
        assert _file_code(capsys, tmp_path, "copeland", "--map", data) == "invalid-spec"


class TestFactorizeCommand:
    def test_null_rho_word(self, capsys, tmp_path):
        surf = st.MarkedSurface(5, (1,) * 12 + (2, 2), stratum_mode=True)
        z = st.BraidWord(surf, (st.rho(1, 1), st.rho(2, 1, -1)))
        word_file = tmp_path / "word.json"
        word_file.write_text(json.dumps(z.to_json_dict()))
        code, doc = run(capsys, "factorize", "--word", str(word_file))
        assert code == 0
        payload = doc["payload"]
        assert payload["counts"] == {"null_rho": 1}
        assert payload["permutation_match"] is True
        assert payload["aj_zero"] is True

    def test_word_round_trip_through_cli_json(self, capsys, tmp_path):
        surf = st.MarkedSurface(5, (1,) * 12 + (2, 2), stratum_mode=True)
        z = st.BraidWord(surf, (st.sigma(1, 2), st.sigma(1, 2)))
        word_file = tmp_path / "word.json"
        word_file.write_text(json.dumps(z.to_json_dict()))
        code, doc = run(capsys, "factorize", "--word", str(word_file))
        assert code == 0
        for factor in doc["payload"]["factors"]:
            rebuilt = st.BraidWord.from_json_dict(
                {"surface": surf.to_json_dict(), "letters": factor["letters"]}
            )
            assert len(rebuilt) == 1


class TestPretty:
    def test_pretty_is_indented(self, capsys):
        assert main(["info", "--genus", "2", "--orders", "4", "--pretty"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("{\n")
        json.loads(out)
