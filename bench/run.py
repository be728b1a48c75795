"""Benchmark of the strata package: one seeded, fixed batch of operations.

    python3 bench/run.py --workload adjacency-reach --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The workload's inputs are generated from
``--seed``.  ``--seconds`` fixes how many whole rounds of the workload run;
the batch is never cut by the clock, so every run with the same arguments
times the same operations.  Every output is checked against a computation
made apart from the package (``oracles.py``).  Times are scaled to a
reference machine speed by a probe timed between operations
(``harness.Calibration``; each workload names its ``CALIBRATION``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run also
writes its spans to ``bench/out/trace-<workload>.tsv``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from harness import Calibration, nearest_rank, rounds_for, tail_percentile
from spans import SpanRecorder
from workloads import adjacency_reach, cli_oneshot, graph_embed, kernel_factorize

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
SETUP_PROBES = 5  # probes before and after each set-up

WORKLOADS = {
    "adjacency-reach": adjacency_reach,
    "kernel-factorize": kernel_factorize,
    "graph-embed": graph_embed,
    "cli-oneshot": cli_oneshot,
}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_MS = "ms"
PER_LAYER = {
    "adjacency.is_adjacent.g3_p50_ms": _MS,
    "adjacency.is_adjacent.g4_p50_ms": _MS,
    "adjacency.is_adjacent.g5_p50_ms": _MS,
    "adjacency.is_adjacent.unreachable_ms": _MS,
    "adjacency.poset_successors.calls": "count",
    "adjacency.poset_successors.self_ms": _MS,
    "signatures.StratumSignature.calls": "count",
    "signatures.StratumSignature.self_ms": _MS,
    "braids.factorize_kernel_word.L100_p50_ms": _MS,
    "braids.factorize_kernel_word.L1000_p50_ms": _MS,
    "braids.factorize_kernel_word.L5000_p50_ms": _MS,
    "braids.concatenate_factors.L100_p50_ms": _MS,
    "braids.concatenate_factors.L1000_p50_ms": _MS,
    "braids.concatenate_factors.L5000_p50_ms": _MS,
    "braids.factors.count": "count",
    "braids.permutation_image.self_ms": _MS,
    "graphs.embed_complete.K6_p50_ms": _MS,
    "graphs.embed_complete.K7_p50_ms": _MS,
    "graphs.embed_complete.K8_p50_ms": _MS,
    "graphs.embed_complete.max_ms": _MS,
    "graphs.construct_graph.self_ms": _MS,
    "graphs.delete_edge_preserving.calls": "count",
    "graphs.copeland_generators.self_ms": _MS,
    "cli.interpreter_ms": _MS,
    "cli.import_ms": _MS,
}
PER_LAYER.update(("cli.%s_p50_ms" % sub, _MS) for sub in cli_oneshot.SUBCOMMANDS)


def import_strata():
    """Import ``strata`` from the checkout afresh, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "strata" or m.startswith("strata.")]:
        del sys.modules[name]
    lib = importlib.import_module("strata")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise ImportError("strata was imported from %s, not from %s" % (lib.__file__, SRC))
    return lib


def run_batch(ops, rec, cal):
    """Time each operation, then check its output outside the timed region.

    Calibration probes run between operations, never inside one; each time is
    returned with the segment of the run it fell in.
    """
    times, segments, failed, wrong = [], [], 0, 0
    segment = cal.burst()
    for op in ops:
        if cal.due():
            segment = cal.burst()
        if rec is not None:
            rec.tag = op.label
            span = rec.open("op")
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            elapsed = time.perf_counter() - start
            failed += 1
            print("operation %s raised:\n%s" % (op.label, traceback.format_exc()), file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
            try:
                ok = op.check(out)
            except Exception:
                print("check of %s raised:\n%s" % (op.label, traceback.format_exc()), file=sys.stderr)
                ok = False
            if not ok:
                failed += 1
                wrong += 1
                print("operation %s gave a wrong output" % op.label, file=sys.stderr)
        if rec is not None:
            rec.close(span)
        times.append(elapsed)
        segments.append(segment)
    cal.burst()
    return times, segments, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "strata" / "__init__.py").is_file():
        print("no package source at %s; run from a strata checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    rounds = rounds_for(args.seconds, wl.ROUND_SECONDS)

    setup_cal, setup_raw, setup_times = Calibration(*wl.CALIBRATION), [], []
    setup_cal.burst(SETUP_PROBES)
    for k in range(SETUP_REPEATS):
        ops = None  # so that the previous batch is freed before the next is made
        start = time.perf_counter()
        lib = import_strata() if wl.IN_PROCESS else None
        ops = wl.setup(lib, args.seed, rounds, OUT)
        setup_raw.append(time.perf_counter() - start)
        setup_cal.burst(SETUP_PROBES)
        setup_times.append(setup_raw[-1] * setup_cal.scale(k, reach=1))

    cal = Calibration(*wl.CALIBRATION)
    rec = SpanRecorder() if args.trace else None
    if rec is not None:
        wl.trace(lib, rec)
    raw, segments, failed, wrong = run_batch(ops, rec, cal)
    times = [t * cal.scale(k) for t, k in zip(raw, segments)]
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.IN_PROCESS else resource.RUSAGE_CHILDREN)

    n = len(times)
    tail_p = tail_percentile(n)
    if tail_p is None:
        print("%d operations are too few for a tail percentile" % n, file=sys.stderr)
        return 2
    ordered = sorted(times)
    print(
        "workload=%s seed=%d rounds=%d ops=%d tail=p%g raw: batch_s=%.3f setup_s=%.4f;"
        " probe median %.4f ms (reference %.4f ms), reported: batch_s=%.3f"
        % (
            args.workload, args.seed, rounds, n, tail_p, sum(raw), statistics.median(setup_raw),
            cal.ref_ms / cal.run_scale(), cal.ref_ms, sum(times),
        ),
        file=sys.stderr,
    )
    if rec is None:
        values = {
            "ops_per_s": n / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": nearest_rank(ordered, tail_p) * 1e3,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    else:
        values = dict.fromkeys(PER_LAYER, 0)
        values.update(wl.layer_metrics(rec))
        # cli.interpreter_ms is cli-oneshot's probe itself, so its layers stay raw
        if wl.IN_PROCESS:
            for k, unit in PER_LAYER.items():
                if unit == _MS:
                    values[k] *= cal.run_scale()
        rec.write(OUT / ("trace-%s.tsv" % args.workload))
        units = PER_LAYER
    result = {
        "correct": wrong == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
