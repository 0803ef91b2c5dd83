"""The cost model under a golden file: runs bench_runner's deterministic
step-count experiments and compares their JSON with a committed copy.

  python3 cost_model_golden.py GOLDEN BENCH_RUNNER [ARGS...]
  python3 cost_model_golden.py --update GOLDEN BENCH_RUNNER [ARGS...]

ARGS are extra bench_runner flags (the reduced tier-1 size passes
--procs/--ops; CI's full-size step passes none). E16c's rows are
real-thread ns/op and differ run to run, so they are dropped on both sides.
On a mismatch every differing value is printed with its section, row and
column, and the exit status is 1 (as it is when bench_runner fails, whose
stderr tail is printed). --update rewrites GOLDEN instead: a change
that moves the cost model commits the new file in the same diff.

Integers (step counts, sizes) must match exactly. Other numbers (means,
ratios, R^2 fits) may differ by a relative 1e-9, which absorbs last-digit
differences between compilers' math libraries and nothing a step moves.
"""

import json
import math
import subprocess
import sys

EXPERIMENTS = "e1,e2,e3,e5,e7,e10,e11,e12,e13a,e13b,e16,steps_bounded"
REL_TOL = 1e-9


def run(runner, args):
    """bench_runner's JSON without E16c, or None when it did not exit 0."""
    cmd = [runner, "-e", EXPERIMENTS, "--format", "json", *args]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        print(done.stderr[-2000:], end="")
        print(f"{' '.join(cmd)}: exit status {done.returncode}")
        return None
    doc = json.loads(done.stdout)
    for e in doc["experiments"]:
        e["sections"] = [s for s in e["sections"]
                         if not s["id"].startswith("E16c")]
    return doc


def dump(v, pad=""):
    """JSON with one line per table row, so a moved count is a one-line diff."""
    inner = pad + " "
    if isinstance(v, dict):
        body = ",\n".join(f"{inner}{json.dumps(k)}: {dump(x, inner)}"
                          for k, x in v.items())
        return "{\n" + body + "\n" + pad + "}" if v else "{}"
    if isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v):
        body = ",\n".join(inner + dump(x, inner) for x in v)
        return "[\n" + body + "\n" + pad + "]"
    return json.dumps(v)


def same(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def diff(want, got, where, out):
    """Appends a line per differing leaf of two JSON values."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            if k not in got:
                out.append(f"{where}.{k}: missing (golden {want[k]!r})")
            elif k not in want:
                out.append(f"{where}.{k}: new ({got[k]!r})")
            else:
                diff(want[k], got[k], f"{where}.{k}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            out.append(f"{where}: {len(want)} entries in golden, {len(got)} now")
        for i, (w, g) in enumerate(zip(want, got)):
            diff(w, g, f"{where}[{i}]", out)
    elif not same(want, got):
        out.append(f"{where}: {want!r} -> {got!r}")


def row_key(row):
    """A row's label: its leading string or integer cells (at most two)."""
    key = []
    for cell in row[:2]:
        if isinstance(cell, float):
            break
        key.append(cell)
    return key


def section_diff(want, got, out):
    """Per section: rows keyed by their leading cells, columns by name."""
    for sid in sorted(set(want) | set(got)):
        if sid not in got or sid not in want:
            out.append(f"{sid}: {'missing' if sid not in got else 'new'}")
            continue
        w, g = want[sid], got[sid]
        cols = w.get("columns", [])
        wrows, grows = w.get("rows", []), g.get("rows", [])
        if len(wrows) != len(grows):
            out.append(f"{sid}: {len(wrows)} rows in golden, {len(grows)} now")
        for wr, gr in zip(wrows, grows):
            key = row_key(wr)
            for c, (wv, gv) in enumerate(zip(wr, gr)):
                if not same(wv, gv):
                    name = cols[c] if c < len(cols) else f"col {c}"
                    out.append(f"{sid} row {key}: {name}: {wv!r} -> {gv!r}")
        rest_w = {k: v for k, v in w.items() if k != "rows"}
        rest_g = {k: v for k, v in g.items() if k != "rows"}
        diff(rest_w, rest_g, sid, out)


def sections(doc):
    return {s["id"]: s for e in doc["experiments"] for s in e["sections"]}


def main(argv):
    update = argv[:1] == ["--update"]
    if update:
        argv = argv[1:]
    if len(argv) < 2:
        print(__doc__)
        return 2
    golden, runner, args = argv[0], argv[1], argv[2:]
    got = run(runner, args)
    if got is None:
        return 1
    if update:
        with open(golden, "w") as f:
            f.write(dump(got) + "\n")
        print(f"wrote {golden}")
        return 0
    with open(golden) as f:
        want = json.load(f)
    out = []
    section_diff(sections(want), sections(got), out)
    sys.stdout.writelines(line + "\n" for line in out)
    if out:
        print(f"{len(out)} differences from {golden}; if the cost model was "
              "meant to move, rerun with --update and commit the file")
        return 1
    print(f"cost model matches {golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
