"""Batch command-line front end with stable JSON output.

Every invocation prints a single JSON document shaped as
``{"status": ..., "payload": ..., "diagnostics": [...]}`` and exits with
0 on success, 1 on a domain error, 2 on a usage error.  Output is
byte-identical across runs.

Start-up dominates a one-shot run, so each handler imports the library
modules it uses and a run loads only those.  For the same reason the
command line is read without argparse, whose import (with gettext and
locale) cost a one-shot run about 6 % of its wall time.  ``COMMANDS`` is
the one table of subcommands and their options, and ``parse_args`` reads
argv against it by argparse's rules:

- each word is read, in this order, as an exact option name, as
  ``--name=value`` with an exact name, as a unique prefix of a long name
  (an ambiguous prefix is an error), or as a value when it is a negative
  number (``-3``, ``-.5``) or holds a space;
- a value given as its own word may not otherwise start with a dash, so
  ``--orders -1,2`` is an error and ``--orders=-1,2`` is not;
- a value goes through ``int()`` where the option takes an integer, and
  the last of repeated options wins;
- flags take no value, and unknown options and stray words are errors;
- ``-h``/``--help`` prints help and exits 0; a usage error prints usage and
  ``strata <cmd>: error: ...`` to stderr and exits 2.

argparse versions disagree on a ``--`` separator, on ``--name=--`` and on
``-h`` with text attached, so each of those is a usage error.  The tests
build the argparse parser from the same table and check that both read
generated argv alike.
"""
from __future__ import annotations

import json
import re
import sys
from collections import Counter
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


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # malformed JSON or text that is not UTF-8
            raise InvalidJson("%s: %s" % (path, err))
        except RecursionError:  # nesting deeper than the decoder's recursion limit
            raise InvalidJson("%s: JSON nested too deeply" % path)


def cmd_info(args) -> tuple[dict, list[str]]:
    from . import signatures

    s = _signature(args)
    report = signatures.classify_connectivity(s)
    payload: dict = {
        "genus": s.genus,
        "orders": list(s.orders),
        "empty": report.is_empty,
        "components": report.component_count,
        "reason": report.reason,
    }
    if not report.is_empty:
        payload["dimension"] = signatures.dimension(s)
    return payload, []


def cmd_poset(args) -> tuple[dict, list[str]]:
    from . import adjacency, signatures

    if args.depth < 0:
        raise OutOfRange("--depth must be non-negative, got %d" % args.depth)
    root = signatures.StratumSignature(args.genus, _parse_int_list(args.root))
    include_poles = not args.no_poles
    notes: list[str] = []
    edges: list[dict] = []
    nodes = {root.orders: root}
    frontier = [root]
    for _ in range(args.depth):
        fresh: list[signatures.StratumSignature] = []
        for s in frontier:
            for succ in sorted(
                adjacency.poset_successors(s, include_poles=include_poles),
                key=lambda t: t.orders,
            ):
                edges.append({"from": list(s.orders), "to": list(succ.orders)})
                if succ.orders not in nodes:
                    nodes[succ.orders] = succ
                    fresh.append(succ)
        frontier = fresh
    for orders in sorted(nodes):
        report = signatures.classify_connectivity(nodes[orders])
        if report.component_count == 2:
            notes.append(
                "stratum %s has two connected components; adjacency is stratum-level"
                % (list(orders),)
            )
    payload = {
        "genus": args.genus,
        "root": list(root.orders),
        "depth": args.depth,
        "nodes": [list(o) for o in sorted(nodes)],
        "edges": edges,
    }
    return payload, notes


def cmd_aj(args) -> tuple[dict, list[str]]:
    from . import braids

    word = braids.BraidWord.from_json_dict(_load_json(args.word))
    vector = list(braids.abel_jacobi(word))
    return {
        "vector": vector,
        "in_kernel": not any(vector),
        "permutation": list(braids.permutation_image(word)),
    }, []


def cmd_factorize(args) -> tuple[dict, list[str]]:
    from . import braids

    word = braids.BraidWord.from_json_dict(_load_json(args.word))
    certs = braids.factorize_kernel_word(word)
    combined = braids.concatenate_factors(word.surface, certs)
    counts = Counter(cert.tag for cert in certs)
    payload = {
        "factors": [cert.to_json_dict() for cert in certs],
        "counts": dict(sorted(counts.items())),
        "permutation_match": braids.permutation_image(combined)
        == braids.permutation_image(word),
        "aj_zero": braids.in_kernel(combined),
    }
    return payload, []


def cmd_graph(args) -> tuple[dict, list[str]]:
    from . import graphs

    m = graphs.construct_graph(args.genus, args.faces, args.vertices)
    return {"map": m.to_json_dict(), "report": m.report().to_json_dict()}, []


def cmd_copeland(args) -> tuple[dict, list[str]]:
    from . import graphs

    m = graphs.CombinatorialMap.from_json_dict(_load_json(args.map))
    words = graphs.copeland_generators(m)
    return {"generators": [w.to_json_dict() for w in words]}, []


def cmd_check(args) -> tuple[dict, list[str]]:
    from . import criteria

    s = _signature(args)
    payload: dict = {
        "genus": s.genus,
        "orders": list(s.orders),
        "criterion": args.criterion,
    }
    if args.criterion == "main":
        ok, clause = criteria.main_theorem_verdict(s)
    elif args.criterion == "hy2":
        ok, clause = criteria.hy2_verdict(s)
    elif args.criterion == "null":
        ok, clause = criteria.null_prop_verdict(s)
    else:  # gen2: cascaded bounds on the secondary class sizes
        classes = sorted(Counter(s.orders).items(), key=lambda kv: (-kv[1], kv[0]))
        b_list = [count for _, count in classes[1:]]
        a = classes[0][1] if classes else 0
        bound = criteria.a_min(s.genus, sum(b_list))
        cascade = criteria.gen2_cascade_ok(s.genus, b_list)
        ok = cascade and a >= bound
        clause = (
            "leading class %d vs bound %d; cascade %s"
            % (a, bound, "holds" if cascade else "fails")
        )
        payload["b_list"] = b_list
    payload["satisfied"] = ok
    payload["clause"] = clause
    return payload, []


def cmd_cover(args) -> tuple[dict, list[str]]:
    from . import signatures

    base = signatures.StratumSignature(0, _parse_int_list(args.base_orders))
    spec = signatures.DoubleCoverSpec(base, _parse_int_list(args.ramify), args.target_genus)
    cover, maybe_abelian = signatures.double_cover(spec)
    return {"stratum": cover.to_json_dict(), "maybe_abelian": maybe_abelian}, []


def cmd_dmin(args) -> tuple[dict, list[str]]:
    from . import criteria

    d, coeffs = criteria.minimal_d(_parse_int_list(args.weights), args.index)
    return {"d": d, "coeffs": list(coeffs)}, []


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

_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"  # argparse's pattern: such a word is a value


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _invocation(name: str, kind) -> str:
    # an option as usage and help show it: its name, then a name for its value
    if kind is bool:
        return name
    value = "{%s}" % ",".join(kind) if type(kind) is tuple else _dest(name).upper()
    return "%s %s" % (name, value)


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: strata [-h] {%s} ..." % ",".join(COMMANDS)
    words = ["usage: strata %s [-h]" % command]
    for name, kind, default, _ in COMMON + COMMANDS[command][2]:
        word = _invocation(name, kind)
        words.append(word if default is REQUIRED else "[%s]" % word)
    return " ".join(words)


def _fail(command: str | None, message: str):
    prog = "strata" if command is None else "strata " + command
    sys.stderr.write("%s\n%s: error: %s\n" % (_usage(command), prog, message))
    raise SystemExit(2)


def _help(command: str | None):
    if command is None:
        commands = [(name, spec[0]) for name, spec in COMMANDS.items()]
        blocks = [(DESCRIPTION, []), ("commands:", commands)]
        options = []
    else:
        blocks = []
        options = [
            (_invocation(name, kind), text or "")
            for name, kind, _, text in COMMON + COMMANDS[command][2]
        ]
    blocks.append(("options:", [("-h, --help", "show this help message and exit")] + options))
    width = max(len(left) for _, rows in blocks for left, _ in rows)
    lines = [_usage(command)]
    for title, rows in blocks:
        lines += ["", title]
        lines += [("  %-*s  %s" % (width, left, text)).rstrip() for left, text in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _classify(word: str, names, command: str | None):
    """argparse's reading of one word against the option ``names``, in its
    order: None for a value or a stray word, else (name, the value attached
    to it or None), with name None for an unknown option."""
    if word[:1] != "-" or word == "-":
        return None
    if word in names:
        return word, None
    head, eq, tail = word.partition("=")
    if eq and head in names:
        return head, tail
    if word[1] == "-":  # a unique prefix of a long name, with any value after "="
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _fail(command, "ambiguous option: %s could match %s" % (word, ", ".join(found)))
        if found:
            return found[0], tail if eq else None
    if re.match(_NEGATIVE_NUMBER, word) or " " in word:
        return None
    return None, None


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


def _value(command: str, name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _fail(command, "argument %s: invalid int value: %r" % (name, text))
    if type(kind) is tuple and text not in kind:
        choices = ", ".join(map(repr, kind))
        _fail(command, "argument %s: invalid choice: %r (choose from %s)" % (name, text, choices))
    return text


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand and option values ``argv`` gives, read against
    ``COMMANDS`` as argparse would read it.  A usage error writes usage and
    the error to stderr and exits 2; -h or --help writes help and exits 0."""
    for word in argv:
        if _unaccepted(word):
            _fail(None, "%r is not accepted: no '--' separator or value, no value for -h" % word)
    stray: list[str] = []
    # words before the subcommand are read against -h alone
    for at, word in enumerate(argv):
        found = _classify(word, _HELP, None)
        if found is None:
            break
        if found[0] is None:
            stray.append(word)
        elif found[1] is not None:
            _fail(None, "argument -h/--help: ignored explicit argument %r" % found[1])
        else:
            _help(None)
    else:
        _fail(None, "the following arguments are required: command")
    command = argv[at]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, "argument command: invalid choice: %r (choose from %s)" % (command, choices))
    specs = COMMON + COMMANDS[command][2]
    options = dict.fromkeys(_HELP)
    options.update((spec[0], spec) for spec in specs)
    values = {_dest(name): default for name, _, default, _ in specs}
    words = argv[at + 1 :]
    # like argparse, read every word before taking any: an ambiguous one fails first
    kinds = [_classify(word, options, command) for word in words]
    at = 0
    while at < len(words):
        word, found = words[at], kinds[at]
        at += 1
        if found is None or found[0] is None:
            stray.append(word)
            continue
        name, text = found
        spec = options[name]
        if spec is None or spec[1] is bool:  # -h, --help and flags take no value
            if text is not None:
                label = "-h/--help" if spec is None else name
                _fail(command, "argument %s: ignored explicit argument %r" % (label, text))
            if spec is None:
                _help(command)
            values[_dest(name)] = True
            continue
        if text is None:
            if at == len(words) or kinds[at] is not None:
                _fail(command, "argument %s: expected one argument" % name)
            text = words[at]
            at += 1
        values[_dest(name)] = _value(command, name, spec[1], text)
    missing = [spec[0] for spec in specs if values[_dest(spec[0])] is REQUIRED]
    if missing:
        _fail(command, "the following arguments are required: %s" % ", ".join(missing))
    if stray:
        _fail(command, "unrecognized arguments: %s" % " ".join(stray))
    return SimpleNamespace(command=command, **values)


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


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
