"""Batch command-line front end with stable JSON output.

Every invocation prints a single JSON document shaped as
``{"status": ..., "payload": ..., "diagnostics": [...]}`` and exits with
0 on success, 1 on a domain error, 2 on a usage error.  Output is
byte-identical across runs.  Payloads hold the library's tuples as it
returns them: json writes a tuple as an array, so no handler copies one
into a list.

Start-up dominates a one-shot run, so each handler imports the library
modules it uses and a run loads only those.  ``COMMANDS`` is the one table
of subcommands and their options, and the argparse parsers that
``_argparsers`` builds from it define the grammar: unique prefixes of long
names, values that start with a dash only after ``=`` (or as a negative
number), ``int()`` for integer options, the last repeat winning, help,
usage errors and their text.  Importing argparse (with gettext and locale)
and building the parsers costs about 5 ms, some 9 % of a one-shot run, so
``_exact`` first reads an argv that spells everything in full (the
subcommand first, then each option by its whole name) without them; any
other argv goes to the parsers.

argparse versions disagree on a ``--`` separator, on ``--name=--`` and on
``-h`` with text attached, so each of those is a usage error.  The tests
check that ``parse_args``, ``_exact`` and the parsers read generated argv
alike.
"""
from __future__ import annotations

import io
import json
import sys
from collections import Counter
from functools import cache, partial
from types import SimpleNamespace

from .errors import InvalidIntList, InvalidJson, OutOfRange, StrataError


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidIntList("expected a comma-separated list of integers, got %r" % text)


def _signature(args):
    from . import signatures

    return signatures.StratumSignature(args.genus, _parse_int_list(args.orders))


# a --word or --map file above this many bytes is refused before it is
# decoded.  A 10**6-letter word is about 45 MB and the map of a 10**6-vertex
# graph 16.9 MB; read whole, a 70 MB word ends in a MemoryError, not an
# envelope, under a 600 MB address-space limit
_MAX_INPUT_BYTES = 2**26


def _load_json(path: str) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read(_MAX_INPUT_BYTES + 1)
    if len(raw) > _MAX_INPUT_BYTES:
        raise OutOfRange("%s: input file above the cap of %d bytes" % (path, _MAX_INPUT_BYTES))
    try:
        # decoded as a text-mode read of the whole file: UTF-8, universal newlines
        return json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except ValueError as err:  # malformed JSON or text that is not UTF-8
        raise InvalidJson("%s: %s" % (path, err))
    except RecursionError:  # nesting deeper than the decoder's recursion limit
        raise InvalidJson("%s: JSON nested too deeply" % path)


def cmd_info(args) -> tuple[dict, list[str]]:
    from . import signatures

    s = _signature(args)
    report = signatures.classify_connectivity(s)
    payload = s.to_json_dict()
    payload.update(empty=report.is_empty, components=report.component_count, reason=report.reason)
    if not report.is_empty:
        payload["dimension"] = signatures.dimension(s)
    return payload, []


def cmd_poset(args) -> tuple[dict, list[str]]:
    from . import adjacency, signatures

    if args.depth < 0:
        raise OutOfRange("--depth must be non-negative, got %d" % args.depth)
    root = signatures.StratumSignature(args.genus, _parse_int_list(args.root))
    edges: list[dict] = []
    nodes = {root.orders}
    frontier = [root.orders]
    for _ in range(args.depth):
        fresh: list[tuple[int, ...]] = []
        for orders in frontier:
            for succ in sorted(set(adjacency._successor_orders(orders, not args.no_poles))):
                edges.append({"from": orders, "to": succ})
                if succ not in nodes:
                    nodes.add(succ)
                    fresh.append(succ)
        frontier = fresh
    ordered = sorted(nodes)
    # no empty signature has a reason, so this is component_count == 2;
    # list() for the text alone: %s of a tuple prints parentheses
    notes = [
        "stratum %s has two connected components; adjacency is stratum-level" % (list(orders),)
        for orders in ordered
        if signatures._two_component_reason(args.genus, orders) is not None
    ]
    payload = {
        "genus": args.genus,
        "root": root.orders,
        "depth": args.depth,
        "nodes": ordered,
        "edges": edges,
    }
    return payload, notes


def cmd_aj(args) -> tuple[dict, list[str]]:
    from . import braids

    word = braids.BraidWord.from_json_dict(_load_json(args.word))
    vector = braids.abel_jacobi(word)
    return {
        "vector": vector,
        "in_kernel": not any(vector),
        "permutation": braids.permutation_image(word),
    }, []


def cmd_factorize(args) -> tuple[dict, list[str]]:
    from . import braids

    word = braids.BraidWord.from_json_dict(_load_json(args.word))
    certs = braids.factorize_kernel_word(word)
    combined = braids.concatenate_factors(word.surface, certs)
    payload = {
        "factors": [cert.to_json_dict() for cert in certs],
        "counts": Counter(cert.tag for cert in certs),
        "permutation_match": braids.permutation_image(combined)
        == braids.permutation_image(word),
        "aj_zero": braids.in_kernel(combined),
    }
    return payload, []


def cmd_graph(args) -> tuple[dict, list[str]]:
    from . import graphs

    m = graphs.construct_graph(args.genus, args.faces, args.vertices)
    return {"map": m.to_json_dict(), "report": m.report().to_json_dict()}, []


# each generator repeats the surface's V weights, so copeland prints V * E of
# them.  At this cap a --pretty run prints about 63 MB and peaks near 400 MB;
# at 2**24 it would end in a MemoryError under a 1 GiB address-space limit
_MAX_COPELAND_WEIGHTS = 2**22


def cmd_copeland(args) -> tuple[dict, list[str]]:
    from . import graphs

    doc = _load_json(args.map)
    m = graphs.CombinatorialMap.from_json_dict(doc)
    count = len(doc["sigma"]) * m.n_edges  # a valid map lists one cycle per vertex
    if count > _MAX_COPELAND_WEIGHTS:  # refused before the map is surveyed
        message = "copeland output of %d weights (vertices times edges) above the cap of %d"
        raise OutOfRange(message % (count, _MAX_COPELAND_WEIGHTS))
    words = graphs.copeland_generators(m)
    return {"generators": [w.to_json_dict() for w in words]}, []


def cmd_check(args) -> tuple[dict, list[str]]:
    from . import criteria

    s = _signature(args)
    payload = s.to_json_dict()
    payload["criterion"] = args.criterion
    if args.criterion == "gen2":
        ok, clause, payload["b_list"] = criteria._gen2_verdict(s)
    else:
        verdicts = {
            "main": criteria.main_theorem_verdict,
            "hy2": criteria.hy2_verdict,
            "null": criteria.null_prop_verdict,
        }
        ok, clause = verdicts[args.criterion](s)
    payload["satisfied"] = ok
    payload["clause"] = clause
    return payload, []


def cmd_cover(args) -> tuple[dict, list[str]]:
    from . import signatures

    base = signatures.StratumSignature(0, _parse_int_list(args.base_orders))
    cover, maybe_abelian = signatures.double_cover(
        base, _parse_int_list(args.ramify), args.target_genus
    )
    return {"stratum": cover.to_json_dict(), "maybe_abelian": maybe_abelian}, []


def cmd_dmin(args) -> tuple[dict, list[str]]:
    from . import criteria

    d, coeffs = criteria.minimal_d(_parse_int_list(args.weights), args.index)
    return {"d": d, "coeffs": coeffs}, []


DESCRIPTION = "exact combinatorics of half-translation surface strata"
REQUIRED = object()  # the default of an option that must be given

# Each option is (name, kind, default, help).  kind is int or str for an
# option that takes one value, a tuple of the values it accepts, or bool for
# a flag that takes none.  COMMON goes before every subcommand's own options.
COMMON = (("--pretty", bool, False, "indent the JSON output"),)
COMMANDS = {
    "info": ("classify one signature", cmd_info, (
        ("--genus", int, REQUIRED, None),
        ("--orders", str, REQUIRED, None),
    )),
    "poset": ("reachable splits of a signature", cmd_poset, (
        ("--genus", int, REQUIRED, None),
        ("--root", str, REQUIRED, None),
        ("--depth", int, 1, None),
        ("--no-poles", bool, False, None),
    )),
    "aj": ("homology image of a braid word", cmd_aj, (
        ("--word", str, REQUIRED, "path to a braid-word JSON file"),
    )),
    "factorize": ("certified kernel factors", cmd_factorize, (
        ("--word", str, REQUIRED, "path to a braid-word JSON file"),
    )),
    "graph": ("build an embedded graph", cmd_graph, (
        ("--genus", int, REQUIRED, None),
        ("--faces", int, REQUIRED, None),
        ("--vertices", int, REQUIRED, None),
        ("--seed", int, 0, "accepted and ignored: the output is deterministic"),
    )),
    "copeland": ("edge generators of a map", cmd_copeland, (
        ("--map", str, REQUIRED, "path to a map JSON file"),
    )),
    "check": ("hypothesis predicates", cmd_check, (
        ("--genus", int, REQUIRED, None),
        ("--orders", str, REQUIRED, None),
        ("--criterion", ("main", "hy2", "null", "gen2"), "main", None),
    )),
    "cover": ("branched double cover", cmd_cover, (
        ("--base-orders", str, REQUIRED, None),
        ("--ramify", str, REQUIRED, "comma-separated indices"),
        ("--target-genus", int, REQUIRED, None),
    )),
    "dmin": ("minimal balancing multiple", cmd_dmin, (
        ("--weights", str, REQUIRED, None),
        ("--index", int, REQUIRED, None),
    )),
}

def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


@cache
def _argparsers() -> dict:
    """The argparse parser of each subcommand, and of the top level under
    None: the one grammar of the CLI, made from ``COMMANDS``."""
    import argparse

    formatter = partial(argparse.HelpFormatter, width=sys.maxsize)  # one line per usage
    top = argparse.ArgumentParser(prog="strata", description=DESCRIPTION, formatter_class=formatter)
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {None: top}
    for command, (text, _, options) in COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, help=text, formatter_class=formatter)
        for name, kind, default, help_text in COMMON + options:
            if kind is bool:
                p.add_argument(name, action="store_true", help=help_text)
                continue
            choices = kind if type(kind) is tuple else None
            p.add_argument(name, help=help_text, required=default is REQUIRED, default=default,
                           type=int if kind is int else None, choices=choices)
    return parsers


def _unaccepted(word: str) -> bool:
    # the words argparse reads differently from one Python version to the next:
    # a "--" separator, "--" as the value after "=" of an option, and -h with
    # text attached; each is a usage error, wherever it stands
    head, _, tail = word.partition("=")
    return (
        word == "--"
        or (word.startswith("-h") and word != "-h")
        or (tail == "--" and head.startswith("--") and " " not in head)
    )


def _exact(argv: list[str]) -> SimpleNamespace | None:
    """What argparse reads from ``argv`` when it spells everything in full,
    else None: the subcommand first, then each option by its whole name as
    ``--name=value``, ``--name value`` with a value not starting with a dash,
    or a bare flag, with every value valid and every required option given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    specs = {spec[0]: spec for spec in COMMON + COMMANDS[argv[0]][2]}
    values = {_dest(name): default for name, _, default, _ in specs.values()}
    words = iter(argv[1:])
    for word in words:
        name, eq, text = word.partition("=")
        if name not in specs:
            return None
        kind = specs[name][1]
        if kind is bool:
            if eq:
                return None
            values[_dest(name)] = True
            continue
        if not eq:
            text = next(words, "-")
            if text.startswith("-"):
                return None
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                return None
        elif type(kind) is tuple and text not in kind:
            return None
        values[_dest(name)] = text
    if REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], **values)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand and option values ``argv`` gives, as the parsers of
    ``_argparsers`` read it.  A usage error writes usage and the error to
    stderr and exits 2; -h or --help writes help and exits 0."""
    for word in argv:
        if _unaccepted(word):
            message = "%r is not accepted: no '--' separator or value, no value for -h" % word
            _argparsers()[None].error(message)
    args = _exact(argv)
    if args is not None:
        return args
    parsers = _argparsers()
    namespace, stray = parsers[None].parse_known_args(argv)
    if stray:  # under the usage line of the subcommand, not of the top level
        parsers[namespace.command].error("unrecognized arguments: %s" % " ".join(stray))
    return SimpleNamespace(**vars(namespace))


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    print(text)  # the text, then the newline: no second copy of the document


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    status, exit_code = "ok", 0
    try:
        payload, diagnostics = COMMANDS[args.command][1](args)
    except (StrataError, OSError) as err:
        status, exit_code, diagnostics = "error", 1, []
        code = err.code if isinstance(err, StrataError) else "io"
        payload = {"code": code, "message": str(err)}
    _emit({"status": status, "payload": payload, "diagnostics": diagnostics}, args.pretty)
    return exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
