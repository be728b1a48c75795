import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import strata as st
from strata import cli
from strata.cli import main
from support import (
    SRC, argv_corpus, enumerate_signatures, parse_outcome, random_argv, run_python,
    version_dependent,
)


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
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: strata info ")
        assert "\nstrata info: error: the following arguments are required: --orders\n" in err

    def test_huge_genus(self, capsys):
        # classification is a rule on the orders, so the genus size is free
        g = 10**12
        cases = {
            (4 * g - 4,): (1, "one-component-default"),
            (4 * g - 10, 6): (2, "Lanneau-family-1"),
            (4 * g - 2, -1, -1): (2, "Lanneau-family-2"),
            (2 * g - 1, 2 * g - 1, -1, -1): (2, "Lanneau-family-3"),
        }
        for orders, expected in cases.items():
            code, doc = run(capsys, "info", "--genus", str(g), "--orders=" + _csv(orders))
            assert code == 0
            assert (doc["payload"]["components"], doc["payload"]["reason"]) == expected


# sha256 of what ``strata poset --genus 3 --root 8 --depth 3`` prints, taken
# while each successor was built by a split move and checked by the public
# StratumSignature constructor
POSET_OUTPUT_DIGEST = "2b4cceeecb07d3c8b2b78d2dc44eb4f1e51c5e09818d91f52836d10d51b91d71"


class TestPoset:
    def test_output_frozen(self, capsys):
        code = main(["poset", "--genus", "3", "--root", "8", "--depth", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == POSET_OUTPUT_DIGEST

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

    def test_negative_depth(self, capsys):
        code, doc = run(capsys, "poset", "--genus", "3", "--root", "8", "--depth", "-1")
        assert code == 1 and doc["status"] == "error"
        assert doc["payload"]["code"] == "out-of-range"

    def test_two_component_diagnostic(self, capsys):
        code, doc = run(capsys, "poset", "--genus", "3", "--root", "6,2", "--depth", "0")
        assert code == 0
        assert any("two connected components" in note for note in doc["diagnostics"])

    def test_builds_only_the_root(self, capsys, monkeypatch):
        # the nodes are order tuples: one signature, the root's, and no
        # ConnectivityReport, though the poset of Q(12) holds Q(6, 6)
        built = []
        derived = st.StratumSignature._derived

        def counting_derived(cls, genus, orders):
            built.append(orders)
            return derived(genus, orders)

        def no_report(s):
            raise AssertionError("classify_connectivity called on %r" % (s,))

        monkeypatch.setattr(st.StratumSignature, "_derived", classmethod(counting_derived))
        monkeypatch.setattr(st.signatures, "classify_connectivity", no_report)
        code, doc = run(capsys, "poset", "--genus", "4", "--root", "12", "--depth", "2")
        assert code == 0 and built == [(12,)]
        assert [6, 6] in doc["payload"]["nodes"]
        assert any(note.startswith("stratum [6, 6] has two") for note in doc["diagnostics"])

    def test_notes_name_exactly_the_two_component_nodes(self, capsys):
        # a node is noted when _two_component_reason answers, and the note
        # says "two connected components": (a) no empty signature has a
        # reason, so (b) the notes name exactly the nodes of count 2
        reason = st.signatures._two_component_reason
        assert not [(g, o) for g, o in st.signatures.EMPTY_SIGNATURES if reason(g, o) is not None]
        note = "stratum %s has two connected components; adjacency is stratum-level"

        def count(g, node):
            return st.classify_connectivity(st.StratumSignature(g, node)).component_count

        for g in (2, 3, 4):
            for root in enumerate_signatures(g, max_poles=2):
                for flags in ((), ("--no-poles",)):
                    argv = ["poset", "--genus", str(g), "--root=" + _csv(root.orders), "--depth", "1"]
                    code, doc = run(capsys, *argv, *flags)
                    assert code == 0
                    nodes = doc["payload"]["nodes"]
                    expected = [note % (node,) for node in nodes if count(g, node) == 2]
                    assert doc["diagnostics"] == expected, argv

    def test_two_component_diagnostic_at_huge_genus(self, capsys):
        g = 10**12
        root = _csv((2 * g - 1, 2 * g - 1, -1, -1))
        code, doc = run(capsys, "poset", "--genus", str(g), "--root=" + root, "--depth", "0")
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

    @pytest.mark.parametrize(
        "genus, orders, criterion, clause",
        [
            (5, "2,2,2" + ",1" * 10, "hy2", "even pair present"),
            (4, "2,2,2,2,2,2", "gen2", "leading class 6 vs bound 6; cascade holds"),
        ],
        ids=["hy2-g+5-simple-zeros", "gen2-leading-class-at-bound"],
    )
    def test_criterion_holds_at_its_bound(self, capsys, genus, orders, criterion, clause):
        # each bound is one the signature must reach, so meeting it exactly
        # satisfies the criterion
        code, doc = run(
            capsys, "check", "--genus", str(genus), "--orders", orders, "--criterion", criterion
        )
        assert code == 0
        assert doc["payload"]["satisfied"] is True and doc["payload"]["clause"] == clause

    @pytest.mark.parametrize("genus, orders", [(0, "1,-1,-1,-1,-1,-1"), (1, "1,-1")])
    def test_gen2_below_genus_two(self, capsys, genus, orders):
        # the bounds start at genus 2: a verdict, like the other criteria, not
        # an error from a bound the user never asked for
        code, doc = run(
            capsys, "check", "--genus", str(genus), "--orders=" + orders, "--criterion", "gen2"
        )
        assert code == 0 and doc["status"] == "ok"
        assert doc["payload"]["satisfied"] is False
        assert doc["payload"]["clause"] == "needs genus at least 2"
        assert doc["payload"]["b_list"] == [1]

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

    def test_repeated_ramify_index(self, capsys):
        # seven indices, six of them distinct: the count the target genus
        # needs is met only if the repeat goes unseen
        code, doc = run(
            capsys,
            "cover",
            "--base-orders=2,-1,-1,-1,-1,-1,-1",
            "--ramify",
            "0,0,1,2,3,4,5",
            "--target-genus",
            "2",
        )
        assert code == 1 and doc["status"] == "error"
        assert doc["payload"]["code"] == "invalid-spec"

    @pytest.mark.parametrize("ramify", ["", "0,1,2,3"])
    def test_negative_target_genus(self, capsys, ramify):
        # the genus the user gave is named, not a signature they never gave
        code, doc = run(
            capsys,
            "cover",
            "--base-orders=-1,-1,-1,-1",
            "--ramify",
            ramify,
            "--target-genus",
            "-1",
        )
        assert code == 1 and doc["payload"] == {
            "code": "invalid-spec",
            "message": "target genus must be non-negative, got -1",
        }

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

    def test_output_does_not_depend_on_seed(self, capsys):
        outputs = set()
        for seed in range(5):
            argv = ["graph", "--genus", "3", "--faces", "4", "--vertices", "7", "--seed", str(seed)]
            assert main(argv) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_no_budget_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--genus", "2", "--faces", "1", "--vertices", "5", "--budget", "9"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_copeland_cap(self, capsys, tmp_path, monkeypatch):
        # a map of V vertices and E edges prints V * E weights: exactly the cap
        # is printed, and one weight more is refused, naming the count and the cap
        path = tmp_path / "map.json"
        path.write_text(json.dumps(st.construct_graph(2, 1, 5).to_json_dict()))
        monkeypatch.setattr(cli, "_MAX_COPELAND_WEIGHTS", 5 * 8)  # 5 vertices, 8 edges
        code, doc = run(capsys, "copeland", "--map", str(path))
        assert code == 0 and len(doc["payload"]["generators"]) == 8
        monkeypatch.setattr(cli, "_MAX_COPELAND_WEIGHTS", 5 * 8 - 1)
        code, doc = run(capsys, "copeland", "--map", str(path))
        assert code == 1 and doc["payload"]["code"] == "out-of-range"
        assert "40 weights" in doc["payload"]["message"]
        assert str(5 * 8 - 1) in doc["payload"]["message"]

    @pytest.mark.parametrize(
        "command, flag", [("aj", "--word"), ("factorize", "--word"), ("copeland", "--map")]
    )
    def test_input_file_cap(self, capsys, tmp_path, command, flag):
        # a file of exactly the cap is decoded, and one byte more is refused
        # unread, naming the file and the cap
        path = tmp_path / "input.json"
        path.write_bytes(b" " * cli._MAX_INPUT_BYTES)
        code, doc = run(capsys, command, flag, str(path))
        assert code == 1 and doc["payload"]["code"] == "invalid-json"
        with path.open("ab") as fh:
            fh.write(b" ")
        code, doc = run(capsys, command, flag, str(path))
        assert code == 1 and doc["payload"]["code"] == "out-of-range"
        assert str(path) in doc["payload"]["message"]
        assert str(cli._MAX_INPUT_BYTES) in doc["payload"]["message"]

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

    @pytest.mark.parametrize(
        "command, flag", [("aj", "--word"), ("factorize", "--word"), ("copeland", "--map")]
    )
    def test_too_deeply_nested_json(self, capsys, tmp_path, command, flag):
        # deeper than the decoder's recursion limit: an envelope, not a traceback
        path = tmp_path / "input.json"
        path.write_text("[" * 3000)
        code, doc = run(capsys, command, flag, str(path))
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
            [{"kind": "kappa", "i": 3, "j": 2}],
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
            {"weights": ""},
            {"weights": {}},
            {"genus": 2.5},
            {"punctures": "2"},
            {"stratum_mode": "yes"},
        ],
    )
    def test_bad_surface_field(self, capsys, tmp_path, field):
        word = {"surface": dict(GENUS_TWO, **field), "letters": []}
        assert _file_code(capsys, tmp_path, "aj", "--word", word) == "invalid-surface"

    # 10**19 does not fit an index and 3 * 10**18 coordinates do not fit the
    # address space, so both fail at once without allocating
    @pytest.mark.parametrize("genus", [10**19, 3 * 10**18])
    def test_genus_too_large_for_a_vector(self, capsys, tmp_path, genus):
        word = {"surface": {"genus": genus, "weights": [1]}, "letters": []}
        assert _file_code(capsys, tmp_path, "aj", "--word", word) == "out-of-range"

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

    def test_map_empty_cycle(self, capsys, tmp_path):
        # an empty vertex cycle is an isolated vertex, refused by the reader
        # that build_map's cycles go through too
        data = {"darts": 4, "sigma": [[0, 2], [1], [3], []], "alpha_convention": "pairs"}
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
            assert len(rebuilt.letters) == 1


class TestPretty:
    def test_pretty_is_indented(self, capsys):
        assert main(["info", "--genus", "2", "--orders", "4", "--pretty"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("{\n")
        json.loads(out)


LIBRARY = {"adjacency", "braids", "criteria", "graphs", "signatures"}


def _footprint(*argv):
    """What a fresh interpreter holds after ``import strata.cli`` and, given an
    ``argv``, ``main(argv)``, which must return 0: the set of ``strata``
    submodules loaded, and the set of other modules that the import and
    ``main`` added to those the interpreter started with."""
    script = "\n".join(
        [
            "import sys",
            "before = set(sys.modules)",
            "from strata.cli import main",
            "assert main(%r) == 0" % list(argv) if argv else "",
            "print(' '.join(m[7:] for m in sys.modules if m.startswith('strata.')))",
            "print(' '.join(m for m in set(sys.modules) - before if not m.startswith('strata')))",
        ]
    )
    proc = run_python(script)
    proc.check_returncode()
    submodules, added = proc.stdout.splitlines()[-2:]
    return set(submodules.split()), set(added.split())


KERNEL_WORD = {
    "surface": {"genus": 5, "weights": [1] * 12 + [2, 2], "stratum_mode": True},
    "letters": [{"kind": "sigma", "i": 1, "j": 2}, {"kind": "sigma", "i": 1, "j": 2}],
}
# one successful run of each subcommand; "{file}" stands for the path of its input
SUBCOMMANDS = {
    "info": ("--genus", "2", "--orders", "4"),
    "poset": ("--genus", "3", "--root", "8"),
    "check": ("--genus", "2", "--orders", "1,1,1,1", "--criterion", "gen2"),
    "cover": ("--base-orders=2,-1,-1,-1,-1,-1,-1", "--ramify", "0,1,2,3,4,5", "--target-genus", "2"),
    "dmin": ("--weights", "4,6", "--index", "0"),
    "graph": ("--genus", "2", "--faces", "1", "--vertices", "5"),
    "copeland": ("--map", "{file}"),
    "aj": ("--word", "{file}"),
    "factorize": ("--word", "{file}"),
}


def _file_argv(command, tmp_path):
    """The arguments of ``command`` in SUBCOMMANDS, with its input written to
    a file: a map for copeland, KERNEL_WORD for the others."""
    path = tmp_path / "input.json"
    if command == "copeland":
        data = st.construct_graph(2, 1, 5).to_json_dict()
    else:
        data = KERNEL_WORD
    path.write_text(json.dumps(data))
    return [arg.replace("{file}", str(path)) for arg in SUBCOMMANDS[command]]


# runs whose bytes are pinned beside those of SUBCOMMANDS: an error envelope and a note
PINNED_RUNS = {
    "dmin-error": ("dmin", "--weights", "4", "--index", "0"),
    "poset-note": ("poset", "--genus", "3", "--root", "6,2", "--depth", "0"),
}
# the sha256 of stdout of each run, compact and with --pretty
OUTPUT_DIGESTS = {
    "aj": (
        "d2f62963f3255d3f9816ec0ff3c6b52b37828525f9cdf00c9f29a052e2eca60d",
        "ad694785d98234043f95ab2cf565c20a3b3241bd239071cf385fafb58c3107df",
    ),
    "check": (
        "a1d3708bba56660eb5c3c709d64de9e221de76a8ab9d2a14ff07a349d045f606",
        "0d6574f919687c73161f3e527b8863da18fdeeccee472d37b89871e1d134f846",
    ),
    "copeland": (
        "91177361ca500176fce4c5cd11dedd718b84764582df87e0074e092617493f5f",
        "118a29f8dcdb7195ef97cdc22b6e31ab4b912b2e09705525064844e165ed883b",
    ),
    "cover": (
        "4f5fd3e74d8c514f12095023c88a86c470253e93e5fcff12e6c15e88871862c0",
        "f0c2428cc9e9a13701f178b11329eeb6a0fa5a4095ea34cca89cd2b8d8f122c1",
    ),
    "dmin": (
        "7fe3ff844d6add7530400c22bcba2521c0ac6ed9760893a96aa1dd00268be9dc",
        "3c995b9f32c63921505294b5af221e69cd8ef0c5426b254bd1c19036076a3d85",
    ),
    "dmin-error": (
        "fe0838f9443ea3401322420a7c36f4fb92712c766e155d09b22f94e86b4ba570",
        "15f30cee3e6e2ffa6b5bc5e8aee8064927f252eb538f3a3efc32d859db5db49b",
    ),
    "factorize": (
        "1c9364de5ad557fbadd68f421f110cc5d02f1ac4ade5700c416d27280c2adf80",
        "8040a68820d26d477cdcc79c3e71fda1946229b3f9f32328df784aa6106f4fd8",
    ),
    "graph": (
        "1a4519733c75bbe6380d393771a849eb67f413ffb5aa86914213f4598dec6451",
        "b71806a2ac2edc2edb415f53564029cf0d5839f4df55076adbd5df079c668d15",
    ),
    "info": (
        "31b979eb27a6650aa2c5c6cbde73c30a81f04200a104156e223d0b737c5f5ace",
        "52606b2dc3d123ac62dd03597b032f943ad6e49a2b14ebf0238c90779f19b7f6",
    ),
    "poset": (
        "13ffca5cb1d6bf4a9dd8d098531aae2bd9e7ffecf0ab4eaf20f33c8566ed9377",
        "484221a4659bfa99967a26aed4c923a945e92473065664d6b758d9fe32d2f1a6",
    ),
    "poset-note": (
        "c857958dcf44ac28b45bb871e93a00dbc0681deef71b68c68dcbb9a72fb744a4",
        "cea6a358dc4f28c6320e6c6afc2dfd89df24e9a365665631d091963cd60749bc",
    ),
}


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_output_bytes_pinned(capsys, tmp_path, name, pretty):
    # most tests parse the JSON, which hides a change of bytes that these digests see
    argv = list(PINNED_RUNS[name]) if name in PINNED_RUNS else [name] + _file_argv(name, tmp_path)
    code = main(argv + ["--pretty"] * pretty)
    out = capsys.readouterr().out
    assert code == (name == "dmin-error")
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[name][pretty]


SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def _read_envelope(doc):
    # the envelope example is the output of this run
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["dmin", "--weights", "4,6", "--index", "0"]) == 0
    assert doc == json.loads(out.getvalue())


# the reader of the example in each schema document, which must accept it
SCHEMA_READERS = {
    "braid-word.md": st.BraidWord.from_json_dict,
    "cli-envelope.md": _read_envelope,
    "combinatorial-map.md": st.CombinatorialMap.from_json_dict,
    "signature.md": lambda doc: st.StratumSignature(doc["genus"], tuple(doc["orders"])),
}


@pytest.mark.parametrize("path", sorted(SCHEMAS.glob("*.md")), ids=lambda path: path.name)
def test_schema_examples_are_read(path):
    blocks = re.findall(r"```json\n(.*?)```", path.read_text(), re.S)
    assert blocks
    for block in blocks:
        SCHEMA_READERS[path.name](json.loads(block))


class TestImportFootprint:
    def test_import_loads_no_library_module(self):
        assert not _footprint()[0] & LIBRARY

    def test_info_loads_only_signatures(self):
        assert _footprint("info", "--genus", "2", "--orders", "4")[0] == {
            "cli", "errors", "_frozen", "signatures"
        }

    def test_dmin_skips_signatures(self):
        # exact: minimal_d lives in criteria, so dmin loads neither braids nor _frozen
        loaded, _ = _footprint("dmin", "--weights", "4,6", "--index", "0")
        assert loaded == {"cli", "errors", "criteria"}

    def test_poset_skips_braids_and_graphs(self):
        loaded, _ = _footprint("poset", "--genus", "3", "--root", "8")
        assert not loaded & {"braids", "graphs"}

    def test_graph_skips_braids(self):
        # exact: only copeland_generators needs braids, and it imports it itself
        loaded, _ = _footprint(*(("graph",) + SUBCOMMANDS["graph"]))
        assert loaded == {"cli", "errors", "_frozen", "criteria", "graphs"}

    @pytest.mark.parametrize(
        "command, modules",
        [
            ("aj", {"cli", "errors", "_frozen", "braids"}),
            ("copeland", {"cli", "errors", "_frozen", "braids", "graphs"}),
            ("factorize", {"cli", "errors", "_frozen", "braids", "criteria"}),
        ],
    )
    def test_word_and_map_commands(self, command, modules, tmp_path):
        # exact: only factorize_kernel_word and construct_graph need criteria,
        # and each imports it itself
        loaded, _ = _footprint(command, *_file_argv(command, tmp_path))
        assert loaded == modules

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_no_subcommand_loads_dataclasses(self, command, tmp_path):
        _, added = _footprint(command, *_file_argv(command, tmp_path))
        assert not added & {"dataclasses", "inspect", "argparse", "gettext", "locale"}


class TestUsage:
    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["info", "--help"], ["cover", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: strata ") and err == ""

    @pytest.mark.parametrize(
        "words, value",
        [
            (["--genus", " 3"], 3),
            (["--genus", "+3"], 3),
            (["--genus", "\u0663"], 3),  # ARABIC-INDIC DIGIT THREE: int() reads it
            (["--genus", "-3"], -3),  # a negative number is a value
            (["--gen=3"], 3),  # a unique prefix, with its value after "="
            (["--genus", "9", "--genus", "3"], 3),  # the last repeat wins
        ],
    )
    def test_integer_values(self, words, value):
        args = cli.parse_args(["info", "--orders", "4"] + words)
        assert args.genus == value

    @pytest.mark.parametrize(
        "words",
        [
            ["--orders", "-1,2"],  # a dash value needs --orders=-1,2
            ["--pretty=1"],  # a flag takes no value
            ["--bogus"],
            ["stray"],
            ["--=x"],  # a prefix of every long name
            ["--genus", "3.0"],
            ["--"],  # the forms argparse versions disagree on
            ["--orders=--"],
            ["-hX"],
            ["-hh"],
            ["-h", "--"],  # rejected even after -h
        ],
    )
    def test_usage_errors(self, capsys, words):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["info", "--genus", "3", "--orders=4"] + words)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# the sha256 of stdout of each parser's --help and of stderr of its usage
# error with no options
HELP_AND_USAGE_DIGESTS = {
    "": (
        "d6905ead5fa4d44a00b296a2b3b268ef76bcd6f88904b26e0df44d8f010bcdb1",
        "5f962f5ceeef17fc97040c2c0ef309a4d909a6d540a499a11550e6ecd9155088",
    ),
    "info": (
        "924f6bd4a2fd87f815d266f5d86bf0686d39b5848f0c2316f392c279a03bcaba",
        "77f6c4bdd3a8ecb5b8dc1335df2cab73438a6684463060f410849c8ae3a61aba",
    ),
    "poset": (
        "02102d5f8bd741ca46f04b015373366e61a449f47539da8ecacc95a5d3d9accc",
        "af5723215fc835caee11c2cc491dfc733edcdfd6cb53e1118e13eef17a90d819",
    ),
    "aj": (
        "8f79b21b21ac62b3672c80013d0225b8dec1a8a1508542faeb857b6940b78871",
        "64d1f4bff60d2e82ad93f15f2655bbe4a53813c7315731c4e084e003d14c7d50",
    ),
    "factorize": (
        "d77d3840157abefeb83a303624af24a2e8a8adbc6e6aa5afd01471eaab77e428",
        "34aec9918b30dea88aceae930baa8649e3901479a65459e3cdd6e57e3325522b",
    ),
    "graph": (
        "372b3b2654848f88a770d14fd2493a3f1425b287946420b94914cf0300b2de9a",
        "1bc99094febcf35eb61222ecf5462b46872cb1155647e315fdd8281377b4942d",
    ),
    "copeland": (
        "4bdefad452172c517c59f19d8326347e5ce77368a45c4325d360e9785c4b6d54",
        "ce049a546cceb0f20b2829f183570e741b4d7e8c5bb71406fab2cce3e60e915a",
    ),
    "check": (
        "dc10b0f10e017891b70045c53cef5b39177196b701d068b8d576739611b1e64c",
        "6761a0f28b0bc8df04799a803eca85e1a47b44de5e5c54c235e742c42bd778af",
    ),
    "cover": (
        "54083d470c95b0f79d68ef492c2bd0f7493d51bff893e9be872ba250f55197f5",
        "96997750a5110841bca270eca16b33686e8fec85b4f9aeaa931fd7296483211e",
    ),
    "dmin": (
        "6ac19efd26812ee1edea7e704a10ccb38222d2a85c3028a734b7e247e1790b69",
        "94db62e7ba6d4b1e6355e5c3a1578c6c13c9e5d983587e07a15a6d520159c0ce",
    ),
}


@pytest.mark.parametrize("command", sorted(HELP_AND_USAGE_DIGESTS), ids=lambda c: c or "strata")
def test_help_and_usage_bytes_pinned(capsys, command):
    # the same on every Python version that CI runs, whatever the terminal width
    words = [command] if command else []
    for argv, code, digest in zip(
        (words + ["--help"], words), (0, 2), HELP_AND_USAGE_DIGESTS[command]
    ):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == code and (err if code == 0 else out) == ""
        assert hashlib.sha256((out or err).encode()).hexdigest() == digest, argv


ORACLE = cli._argparsers()[None]  # the grammar that parse_args reads by, and its oracle


def _agrees_with_argparse(argv, digest=None):
    got = parse_outcome(cli.parse_args, argv, digest)
    if version_dependent(argv):
        assert got == ("exit", 2), argv
    else:
        assert got == parse_outcome(ORACLE.parse_args, argv), argv


@given(hs.randoms(use_true_random=False))
@settings(max_examples=500, deadline=None)
def test_parser_agrees_with_argparse(rng):
    _agrees_with_argparse(random_argv(rng))


@pytest.mark.parametrize("argv", [[], ["--pretty"], ["--bogus"]])
def test_no_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith("the following arguments are required: command\n")
    _agrees_with_argparse(argv)


# the sha256 of what parse_args did on each argv of argv_corpus(2000), in
# order: its exit code or its values, and what it printed to stdout and stderr
CORPUS_DIGEST = "2b4b5f4c2b7193130fd7a57ece35681146b027a3282f15954865c4ddba57ee8d"


def test_fixed_corpus_agrees_with_argparse():
    # the same argv on every Python version, so each CI interpreter's argparse
    # is checked on the same words, and must print the same bytes
    digest = hashlib.sha256()
    exact = 0
    for argv in argv_corpus(2000):
        _agrees_with_argparse(argv, digest)
        args = None if version_dependent(argv) else cli._exact(argv)
        if args is not None:  # the shortcut answers: argparse must read the same
            exact += 1
            assert vars(args) == vars(ORACLE.parse_args(argv)), argv
    assert exact >= 100
    assert digest.hexdigest() == CORPUS_DIGEST


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("name", sorted(SUBCOMMANDS) + sorted(PINNED_RUNS))
def test_pinned_runs_take_the_shortcut(name, pretty):
    # so that TestImportFootprint's runs, which load no argparse, cover them
    argv = PINNED_RUNS[name] if name in PINNED_RUNS else (name,) + SUBCOMMANDS[name]
    assert cli._exact(list(argv) + ["--pretty"] * pretty) is not None


# --- the envelope contract over generated argv --------------------------------

FILE = "{file}"  # stands for the path of the generated input file
# never an integer, so a garbled --depth or --genus cannot ask for unbounded work
GARBAGE = hs.tuples(
    hs.text(alphabet="0123456789- ", max_size=3),
    hs.sampled_from("x,."),
    hs.text(alphabet="0123456789,-x. ", max_size=3),
).map("".join)
SECOND = {"rho": "r", "sigma": "j", "kappa": "j", "kappa_puncture": "l"}
VERTEX_CAP = 10**6  # the most vertices construct_graph builds
KEYS = (
    "surface", "letters", "genus", "weights", "punctures", "stratum_mode", "kind", "i", "r",
    "j", "l", "exp", "darts", "sigma", "alpha_convention",
)
JSON_VALUES = hs.recursive(
    hs.none() | hs.booleans() | hs.integers(-3, 3) | hs.sampled_from(["", "x", "rho", "pairs"]),
    lambda inner: hs.lists(inner, max_size=3) | hs.dictionaries(hs.sampled_from(KEYS), inner),
    max_leaves=8,
)


def _csv(values):
    return ",".join(str(v) for v in values)


def _ints(lo, hi, max_size=5):
    return hs.lists(hs.integers(lo, hi), max_size=max_size)


@hs.composite
def _orders(draw, genus):
    """Orders summing to 4g - 4 (positive parts and poles), or now and then
    any short integer list."""
    if draw(hs.integers(0, 3)) == 0:
        return draw(_ints(-2, 8))
    poles = draw(hs.integers(0, 2)) + max(0, 4 - 4 * genus)
    total = 4 * genus - 4 + poles
    cuts = sorted(draw(hs.sets(hs.integers(1, max(1, total - 1)), max_size=4)))
    bounds = [0] + [c for c in cuts if c < total] + [max(total, 0)]
    return [b - a for a, b in zip(bounds, bounds[1:]) if a < b] + [-1] * poles


@hs.composite
def _word_doc(draw):
    genus = draw(hs.integers(1, 3))
    weights = draw(_orders(genus)) or [1]
    n = len(weights)
    letters = draw(
        hs.lists(
            hs.tuples(
                hs.sampled_from(sorted(SECOND)),
                hs.integers(1, n),
                hs.integers(1, n),
                hs.sampled_from([1, -1]),
            ),
            max_size=6,
        )
    )
    if draw(hs.booleans()):  # append the inverse: a word in the kernel
        letters += [(kind, i, second, -exp) for kind, i, second, exp in reversed(letters)]
    return json.dumps(
        {
            "surface": {
                "genus": genus,
                "weights": weights,
                "punctures": draw(hs.integers(0, 1)),
                "stratum_mode": draw(hs.booleans()),
            },
            "letters": [
                {"kind": kind, "i": i, SECOND[kind]: second, "exp": exp}
                for kind, i, second, exp in letters
            ],
        }
    )


@hs.composite
def _map_doc(draw):
    """A simple graph on at most five vertices with a random rotation at each."""
    n = draw(hs.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(hs.lists(hs.sampled_from(pairs), unique=True, min_size=1))
    at = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        at[u].append(2 * e)
        at[v].append(2 * e + 1)
    sigma = [draw(hs.permutations(darts)) for darts in at if darts]
    return json.dumps({"darts": 2 * len(edges), "sigma": sigma, "alpha_convention": "pairs"})


@hs.composite
def _options(draw, command):
    """Well-formed option values for ``command``, and the text of its input file
    (None: no file)."""
    genus = draw(hs.sampled_from([2, 3, 1, 4, 0, -1]))
    if command in ("info", "check"):
        options = ["--genus=%d" % genus, "--orders=" + _csv(draw(_orders(genus)))]
        if command == "check":
            options.append("--criterion=" + draw(hs.sampled_from(["main", "hy2", "null", "gen2"])))
        return options, None
    if command == "poset":
        options = ["--genus=%d" % genus, "--root=" + _csv(draw(_orders(genus)))]
        options.append("--depth=%d" % draw(hs.integers(-1, 2)))
        if draw(hs.booleans()):
            options.append("--no-poles")
        return options, None
    if command == "cover":
        base = draw(_orders(0))
        ramify = draw(hs.permutations(range(-1, len(base) + 1)))[: 2 * genus + 2]
        return [
            "--base-orders=" + _csv(base),
            "--ramify=" + _csv(sorted(ramify)),
            "--target-genus=%d" % genus,
        ], None
    if command == "dmin":
        weights = draw(_ints(-6, 12))
        index = draw(hs.integers(-1, len(weights)))
        return ["--weights=" + _csv(weights), "--index=%d" % index], None
    if command == "graph":
        # above the cap of 10**6 only: a run at the cap takes seconds and
        # hundreds of MB, where one above it is refused before allocating
        vertices = draw(hs.sampled_from([6, 7, 8, 5, 9, 0, 3, VERTEX_CAP + 1, 10**18]))
        return [
            "--genus=%d" % genus,
            "--faces=%d" % draw(hs.integers(-1, max(1, 4 * genus - 4))),
            "--vertices=%d" % vertices,
            "--seed=%d" % draw(hs.integers(0, 3)),
        ], None
    if command == "copeland":
        valid, flag = _map_doc(), "--map"
    else:
        valid, flag = _word_doc(), "--word"
    # valid-looking JSON, any small JSON value, broken text, or no file at all
    text = draw(valid | JSON_VALUES.map(json.dumps) | hs.text(max_size=12) | hs.none())
    return [flag + "=" + FILE], text


@hs.composite
def _invocation(draw):
    """One argv for a random subcommand, and the text of its input file."""
    command = draw(
        hs.sampled_from(
            ["info", "check", "cover", "dmin", "poset", "graph", "copeland", "aj", "factorize"]
        )
    )
    options, text = draw(_options(command))
    if draw(hs.booleans()):  # garble one value
        k = draw(hs.integers(0, len(options) - 1))
        options[k] = options[k].partition("=")[0] + "=" + draw(GARBAGE)
    if draw(hs.booleans()):
        options.append("--pretty")
    return [command] + options, text


@given(_invocation())
# past the vertex cap on valid genus and faces, whatever the draws reach
@example((["graph", "--genus=3", "--faces=6", "--vertices=%d" % (VERTEX_CAP + 1)], None))
@example((["graph", "--genus=5", "--faces=16", "--vertices=%d" % 10**18], None))
@settings(max_examples=300, deadline=None)
def test_every_invocation_keeps_the_envelope_contract(tmp_path_factory, invocation):
    argv, text = invocation
    path = tmp_path_factory.getbasetemp() / "cli-contract-input.json"
    path.unlink(missing_ok=True)
    if text is not None:
        path.write_text(text, encoding="utf-8")
    argv = [arg.replace(FILE, str(path)) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert out.getvalue() == "", argv
            return
    assert code in (0, 1), argv
    printed = out.getvalue()
    assert printed.endswith("\n"), argv
    doc = json.loads(printed)  # one document: trailing data would not parse
    assert set(doc) == {"status", "payload", "diagnostics"}, argv
    assert doc["status"] == ("ok" if code == 0 else "error"), argv
    if code == 1:
        assert set(doc["payload"]) == {"code", "message"}, argv
    if argv[0] == "graph":
        values = dict(arg[2:].split("=") for arg in argv[1:] if "=" in arg)
        if int(values["vertices"]) > VERTEX_CAP:
            g, f = int(values["genus"]), int(values["faces"])
            # the genus and face checks come first; then the cap refuses
            expected = "out-of-range" if g >= 2 and 1 <= f <= 4 * g - 4 else "bound-violation"
            assert doc["payload"]["code"] == expected, argv


def test_console_runs():
    # every row of the table CI runs against the installed console script,
    # here through python -m strata.cli on src/, with this interpreter's -O
    flags = ["-O"] * sys.flags.optimize
    script = Path(__file__).with_name("console_runs.py")
    proc = subprocess.run(
        [sys.executable, *flags, str(script), sys.executable, *flags, "-m", "strata.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
