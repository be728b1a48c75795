"""Batch command-line front end with stable JSON output.

Every invocation prints a single JSON document shaped as
``{"status": ..., "payload": ..., "diagnostics": [...]}`` and exits with
0 on success, 1 on a domain error, 2 on a usage error.  Output is
byte-identical across runs.

Start-up dominates a one-shot run, so each handler imports the library
modules it uses and a run loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

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
    payload: dict = {
        "genus": s.genus,
        "orders": list(s.orders),
        "empty": signatures.is_empty(s),
    }
    report = signatures.classify_connectivity(s)
    payload["components"] = report.component_count
    payload["reason"] = report.reason
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")

    parser = argparse.ArgumentParser(
        prog="strata",
        description="exact combinatorics of half-translation surface strata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[common], help="classify one signature")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--orders", required=True)
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("poset", parents=[common], help="reachable splits of a signature")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--no-poles", action="store_true")
    p.set_defaults(handler=cmd_poset)

    p = sub.add_parser("aj", parents=[common], help="homology image of a braid word")
    p.add_argument("--word", required=True, help="path to a braid-word JSON file")
    p.set_defaults(handler=cmd_aj)

    p = sub.add_parser("factorize", parents=[common], help="certified kernel factors")
    p.add_argument("--word", required=True, help="path to a braid-word JSON file")
    p.set_defaults(handler=cmd_factorize)

    p = sub.add_parser("graph", parents=[common], help="build an embedded graph")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument(
        "--seed", type=int, default=0, help="accepted and ignored: the output is deterministic"
    )
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("copeland", parents=[common], help="edge generators of a map")
    p.add_argument("--map", required=True, help="path to a map JSON file")
    p.set_defaults(handler=cmd_copeland)

    p = sub.add_parser("check", parents=[common], help="hypothesis predicates")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--orders", required=True)
    p.add_argument(
        "--criterion", choices=("main", "hy2", "null", "gen2"), default="main"
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("cover", parents=[common], help="branched double cover")
    p.add_argument("--base-orders", required=True)
    p.add_argument("--ramify", required=True, help="comma-separated indices")
    p.add_argument("--target-genus", type=int, required=True)
    p.set_defaults(handler=cmd_cover)

    p = sub.add_parser("dmin", parents=[common], help="minimal balancing multiple")
    p.add_argument("--weights", required=True)
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(handler=cmd_dmin)

    return parser


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status, exit_code = "ok", 0
    try:
        payload, diagnostics = args.handler(args)
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
