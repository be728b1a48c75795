"""One row per run of the ``strata`` CLI, with the exit code and the JSON envelope
it must give; the arguments are the command that starts the CLI, for example
``strata``, or ``python3 -m strata.cli`` with ``PYTHONPATH="$PWD/src"``.  The rows
run in a temporary directory that the script makes.  Each prints its exit code and
the first line of its output, and the address-space limit of a row that has one;
the 10 000-letter factorize also prints its wall time and peak RSS, which are never
checked.  Exits 1 when any row fails.  Only the standard library is used: strata is
not imported.
"""
import json
import os
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple


class Row(NamedTuple):
    args: str  # the words after the command, split as a shell splits them
    code: int = 0
    # a dict: one envelope whose payload holds these items; a str: no envelope,
    # and stderr (for exit 2, with stdout empty) or stdout starts with it
    expect: dict | str = {}
    save: str | None = None  # the file that gets the payload's map
    limit_mb: int | None = None  # the child's address-space limit (RLIMIT_AS), in MiB


def limiter(mb):
    """A ``preexec_fn`` that limits the child's address space to ``mb`` MiB, or
    None for no limit; nothing else is changed."""
    if mb is None:
        return None

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

    return limit


def _letter(kind, i, second, exp=1):
    return {"kind": kind, "i": i, ("r" if kind == "rho" else "j"): second, "exp": exp}


# a small kernel word on g = 5 whose factorization peels a weight-2 point, so aj
# runs without criteria and factorize imports it at the call; its sigma and its
# rho 14 leave exp to the default.  The 10-letter block, repeated, holds few distinct letters
SURFACE = {"genus": 5, "weights": [1] * 12 + [2, 2], "stratum_mode": True}
SIGMA = {"kind": "sigma", "i": 1, "j": 2}
WORD = [SIGMA, {"kind": "rho", "i": 14, "r": 1}, _letter("rho", 1, 1, -1),
        _letter("rho", 2, 1, -1), SIGMA]
BLOCK = WORD + [_letter("kappa", 3, 14), _letter("rho", 13, 2, -1), _letter("rho", 5, 2),
                _letter("rho", 6, 2), _letter("kappa", 3, 14, -1)]
LONG = BLOCK * 1000
INPUTS = {"word.json": WORD, "long.json": LONG, "bad.json": LONG + [_letter("rho", 15, 1)]}
COVER = "cover --base-orders=2,-1,-1,-1,-1,-1,-1 --ramify %s --target-genus 2"
INPUT_CAP = "%s: input file above the cap of 67108864 bytes"
INFO = {"genus": 3, "orders": [4, 4], "empty": False, "components": 1,
        "reason": "one-component-default", "dimension": 6}

ROWS = [
    # first, so that the peak RSS of the children is its own; timed below
    Row("factorize --word long.json", expect={"permutation_match": True, "aj_zero": True},
        limit_mb=128),
    Row("info --genus 3 --orders 4,4", expect=INFO),
    Row("info --gen 3 --ord 4,4", expect=INFO),  # abbreviated: argparse reads it
    Row("poset --genus 3 --root 8 --depth 1"),
    Row("poset --genus 4 --root 6,6 --depth 1 --no-poles"),  # two components: a note
    Row("poset --genus 20 --root 76 --depth 1", limit_mb=96),
    Row("check --genus 5 --orders 1,1,1,1,1,1,1,1,1,1,1,1,2,2 --criterion main"),
    Row("check --genus 1 --orders=1,-1 --criterion gen2"),
    Row(COVER % "0,1,2,3,4,5"),
    Row("dmin --weights 4,6 --index 0"),
    Row("graph --genus 3 --faces 6 --vertices 8", save="map.json"),  # for copeland
    # the last embedding of the K_8 ladder, K_8 at genus 10, less one edge, plus one subdivision
    Row("graph --genus 10 --faces 1 --vertices 9"),
    Row("graph --genus 2 --faces 1 --vertices 300"),  # 295 subdivisions
    Row("graph --genus 2 --faces 1 --vertices 100000", limit_mb=192),
    # past the cap the build is refused before anything is allocated for it
    Row("graph --genus 3 --faces 6 --vertices 99999999", 1,
        {"code": "out-of-range", "message": "vertex count 99999999 above the cap of 1000000"},
        limit_mb=1024),
    # K_8 at genus 8 down to one face: five deletions, as long a chain as graph makes
    Row("graph --genus 8 --faces 1 --vertices 8", save="map8.json"),
    Row("copeland --map map8.json"),
    Row("copeland --map map.json"),
    Row("aj --word word.json", limit_mb=64),  # no buffer the size of the input cap
    Row("factorize --word word.json"),
    # long.json with one letter past the 14 points
    Row("aj --word bad.json", 1,
        {"code": "invalid-letter", "message": "point index 15 out of range 1..14"}),
    Row("poset --genus 3 --root 8 --depth 2 --pretty"),
    Row("dmin --weights 4 --index 0", 1, {"code": "no-other-weights"}),
    # a dash-leading value in its own word: argparse reads it, and cmd_poset refuses it
    Row("poset --genus 3 --root 8 --depth -1", 1, {"code": "out-of-range"}),
    # double_cover checks its indices itself: a repeated index, a wrong count, a negative genus
    Row(COVER % "0,0,1,2,3,4,5", 1, {"code": "invalid-spec"}),
    Row(COVER % "0,1,2", 1, {"code": "invalid-spec"}),
    Row("cover --base-orders=-1,-1,-1,-1 --ramify '' --target-genus -1", 1,
        {"code": "invalid-spec"}),
    # 2**26 + 1 bytes, then an endless input: each refused once the cap is passed, unread
    Row("copeland --map spaces.json", 1,
        {"code": "out-of-range", "message": INPUT_CAP % "spaces.json"}, limit_mb=1024),
    Row("aj --word /dev/zero", 1,
        {"code": "out-of-range", "message": INPUT_CAP % "/dev/zero"}, limit_mb=1024),
    # a 181 KB map whose generators would print 1.4 * 10**8 weights
    Row("graph --genus 2 --faces 1 --vertices 12000", save="big.json"),
    Row("copeland --map big.json", 1, {"code": "out-of-range", "message": "copeland output of "
        "144036000 weights (vertices times edges) above the cap of 4194304"}, limit_mb=1024),
    # V * E = 2046 * 2049 weights, just under the cap, print about 63 MB indented,
    # written in batches at a peak near 50 MB
    Row("graph --genus 2 --faces 1 --vertices 2046", save="cap.json"),
    Row("copeland --map cap.json --pretty", limit_mb=256),
    Row("info --genus 3", 2, "usage: strata info "),
    Row("--help", 0, "usage: strata "),
] + [
    Row("%s --help" % command, 0, "usage: strata %s " % command)
    for command in ("info", "poset", "aj", "factorize", "graph", "copeland", "check", "cover",
                    "dmin")
]


def check(proc, code, expect={}, pretty=False):
    """The envelope of the finished run ``proc`` (None where ``expect`` is text),
    checked for the exit ``code``, one envelope on stdout ending in a newline (on
    one line, or indented with ``pretty``), its status, an error's code and message, and the payload items
    of ``expect``.  A ValueError names the first difference."""
    if proc.returncode != code:
        raise ValueError("exit %d, expected %d; stderr: %s"
                         % (proc.returncode, code, proc.stderr[-500:]))
    if isinstance(expect, str):
        text = proc.stderr if code == 2 else proc.stdout
        if not text.startswith(expect) or (code == 2 and proc.stdout):
            raise ValueError("expected text starting %r" % expect)
        return None
    out = proc.stdout
    if not out.endswith("\n") or out.startswith("{\n") != pretty \
            or not (pretty or out.count("\n") == 1):
        raise ValueError("stdout is not one %s document ending in a newline"
                         % ("indented" if pretty else "one-line"))
    doc = json.loads(out)
    if type(doc) is not dict or set(doc) != {"status", "payload", "diagnostics"} \
            or doc["status"] != ("error" if code else "ok") or type(doc["payload"]) is not dict:
        raise ValueError("not an envelope with the status of exit %d" % code)
    if code and set(doc["payload"]) != {"code", "message"}:
        raise ValueError("error payload keys %s" % sorted(doc["payload"]))
    for key, value in expect.items():
        if doc["payload"].get(key) != value:
            raise ValueError("payload %s: %r, expected %r" % (key, doc["payload"].get(key), value))
    return doc


def main(prefix):
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, letters in INPUTS.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump({"surface": SURFACE, "letters": letters}, fh)
        with open(os.path.join(tmp, "spaces.json"), "w") as fh:
            # in pieces: a child starts from this process's RSS
            fh.writelines([" " * 2**20] * 64 + [" "])
        for row in ROWS:
            argv = shlex.split(row.args)
            start = time.perf_counter()
            proc = subprocess.run(prefix + argv, cwd=tmp, capture_output=True, text=True,
                                  preexec_fn=limiter(row.limit_mb))
            wall_ms = (time.perf_counter() - start) * 1000
            text = (proc.stdout or proc.stderr)[:300].split("\n")[0]
            limit = " (limit %d MB)" % row.limit_mb if row.limit_mb else ""
            print("strata %s%s: exit %d: %s" % (row.args, limit, proc.returncode, text))
            if row is ROWS[0]:
                peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
                print("  %d ms, %.1f MB peak RSS" % (wall_ms, peak_mb))
            try:
                doc = check(proc, row.code, row.expect, "--pretty" in argv)
            except ValueError as err:
                print("  FAILED:", err)
                failed += 1
                continue
            if row.save:
                with open(os.path.join(tmp, row.save), "w") as fh:
                    json.dump(doc["payload"]["map"], fh)
    print("%d of %d rows failed" % (failed, len(ROWS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
