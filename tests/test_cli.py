import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

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


SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = {"adjacency", "braids", "criteria", "graphs", "signatures"}


def _footprint(*argv):
    """What a fresh interpreter holds after ``import strata.cli`` and, given an
    ``argv``, ``main(argv)``, which must return 0: the set of ``strata``
    submodules loaded, and the set of other modules that ``main`` added."""
    script = "\n".join(
        [
            "import sys",
            "from strata.cli import main",
            "before = set(sys.modules)",
            "assert main(%r) == 0" % list(argv) if argv else "",
            "print(' '.join(m[7:] for m in sys.modules if m.startswith('strata.')))",
            "print(' '.join(m for m in set(sys.modules) - before if not m.startswith('strata')))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
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

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_no_subcommand_loads_dataclasses(self, command, tmp_path):
        path = tmp_path / "input.json"
        if command == "copeland":
            data = st.construct_graph(2, 1, 5).to_json_dict()
        else:
            data = KERNEL_WORD
        path.write_text(json.dumps(data))
        argv = [arg.replace("{file}", str(path)) for arg in SUBCOMMANDS[command]]
        _, added = _footprint(command, *argv)
        assert not added & {"dataclasses", "inspect"}


# --- the envelope contract over generated argv --------------------------------

FILE = "{file}"  # stands for the path of the generated input file
# never an integer, so a garbled --depth or --genus cannot ask for unbounded work
GARBAGE = hs.tuples(
    hs.text(alphabet="0123456789- ", max_size=3),
    hs.sampled_from("x,."),
    hs.text(alphabet="0123456789,-x. ", max_size=3),
).map("".join)
SECOND = {"rho": "r", "sigma": "j", "kappa": "j", "kappa_puncture": "l"}
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
        return [
            "--genus=%d" % genus,
            "--faces=%d" % draw(hs.integers(-1, max(1, 4 * genus - 4))),
            "--vertices=%d" % draw(hs.sampled_from([6, 7, 8, 5, 9, 0, 3])),
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
