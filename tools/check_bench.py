#!/usr/bin/env python3
"""Compare a bench JSON artifact against its committed baseline.

The simulator runs on virtual time, so every number a bench emits is exactly
reproducible: the gate is an *exact* comparison, not a tolerance band. Any
drift — a primitive count up by one, a component picking up microseconds, a
histogram bucket moving — fails CI and must be either fixed or explicitly
re-baselined (tools/refresh_baselines.sh, commit the diff with the PR that
caused it).

Usage:
    tools/check_bench.py BASELINE CURRENT [--allow GLOB]... [--tolerance GLOB=REL]...
                         [--max-slowdown GLOB=X]... [--summary FILE]
    tools/check_bench.py --self-test

  BASELINE   committed baseline JSON (bench/baselines/smoke/...)
  CURRENT    freshly produced BENCH_*.json
  --allow    fnmatch pattern of value paths to exclude from comparison
             (repeatable), e.g. --allow 'rows/*/histograms/span.*'
  --tolerance  GLOB=REL: paths matching GLOB compare numerically with
             relative tolerance REL instead of exactly (repeatable), e.g.
             --tolerance 'rows/*/wall_ms=9.0'. For wall-clock metrics the
             simulator cannot pin down: generous enough to absorb machine
             variance, tight enough to catch order-of-magnitude regressions.
             Two-sided: a fall in a rate can never exceed 1x its baseline,
             so a rate tolerance of 1.0 or more cannot catch a slowdown.
  --max-slowdown  GLOB=X: paths matching GLOB fail when they are more than
             X times worse than the baseline (repeatable): a rate (a name
             containing "per_", higher is better) below base/X, a time (a
             name ending _s/_ms/_us/_ns, lower is better) above base*X. A
             speed-up never fails. Replaces the exact comparison, like
             --tolerance; a path matching both must pass both.
  --summary  append a compact markdown before/after table to FILE (use
             $GITHUB_STEP_SUMMARY in CI; silently skipped if empty).
  --self-test  run the built-in unit checks (CI runs this before trusting
             the gate) and exit.

Schema check: a value path present on one side and absent on the other is a
*structural* failure — a renamed row, a dropped field, a bench that silently
stopped emitting a metric. It fails even if an --allow or --tolerance glob
matches, so a masking pattern can never hide a disappearing metric.

The top-level "meta" object (generation provenance written by the refresh
script) is always ignored. Exit status: 0 clean, 1 on any difference.
"""

import argparse
import fnmatch
import json
import sys


def flatten(value, prefix=""):
    """Yield (path, scalar) pairs; paths use '/' so dotted names stay intact."""
    if isinstance(value, dict):
        for k in value:
            yield from flatten(value[k], f"{prefix}{k}/")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from flatten(v, f"{prefix}{i}/")
    else:
        yield prefix[:-1] if prefix.endswith("/") else prefix, value


def name_rows(doc):
    """Re-key 'rows' arrays by each row's 'name' so diffs read naturally and
    row insertion doesn't misalign every later index."""
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            if k == "rows" and isinstance(v, list) and all(
                isinstance(r, dict) and "name" in r for r in v
            ):
                out[k] = {r["name"]: name_rows(r) for r in v}
            else:
                out[k] = name_rows(v)
        return out
    if isinstance(doc, list):
        return [name_rows(v) for v in doc]
    return doc


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return flatten_doc(doc)


def flatten_doc(doc):
    if isinstance(doc, dict):
        doc = dict(doc)
        doc.pop("meta", None)
    return dict(flatten(name_rows(doc)))


TIME_SUFFIXES = ("_s", "_ms", "_us", "_ns")


def slower(path, b, c, factor):
    """Whether `c` is more than `factor` times worse than `b`, reading the
    direction from the metric's name."""
    leaf = path.rsplit("/", 1)[-1]
    if "per_" in leaf:
        return c < b / factor
    if leaf.endswith(TIME_SUFFIXES):
        return c > b * factor
    raise ValueError(f"--max-slowdown: {path!r} is neither a rate (per_) "
                     f"nor a time ({'/'.join(TIME_SUFFIXES)})")


def compare(base, cur, allow=(), tolerances=(), max_slowdowns=()):
    """Compare two flattened docs.

    Returns (schema_rows, value_rows): schema_rows are paths missing on one
    side (never maskable); value_rows are (path, baseline, current)
    mismatches after --allow/--tolerance/--max-slowdown filtering.
    """

    def allowed(path):
        return any(fnmatch.fnmatch(path, pat) for pat in allow)

    def tolerance_for(path):
        matched = [rel for glob, rel in tolerances if fnmatch.fnmatch(path, glob)]
        return max(matched) if matched else None

    def slowdown_for(path):
        matched = [x for glob, x in max_slowdowns if fnmatch.fnmatch(path, glob)]
        return min(matched) if matched else None

    def within(b, c, rel):
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
            return b == c
        return abs(c - b) <= rel * abs(b)

    schema_rows = []
    value_rows = []
    for path in sorted(base.keys() | cur.keys()):
        in_base = path in base
        in_cur = path in cur
        if not (in_base and in_cur):
            # Structural difference: unmaskable by design. A baseline key the
            # bench stopped emitting (or a new key with no baseline) must
            # surface even when a broad --allow/--tolerance glob matches it.
            schema_rows.append(
                (path, base.get(path, "<missing>"), cur.get(path, "<missing>"))
            )
            continue
        if allowed(path):
            continue
        b, c = base[path], cur[path]
        rel = tolerance_for(path)
        factor = slowdown_for(path)
        if rel is None and factor is None:
            ok = b == c
        else:
            ok = rel is None or within(b, c, rel)
            if factor is not None:
                numeric = all(isinstance(v, (int, float)) for v in (b, c))
                ok = ok and (not slower(path, b, c, factor) if numeric else b == c)
        if not ok:
            value_rows.append((path, b, c))
    return schema_rows, value_rows


def write_summary(path, baseline, current, compared, schema_rows, value_rows):
    """Append a compact markdown before/after table for $GITHUB_STEP_SUMMARY."""
    rows = schema_rows + value_rows
    with open(path, "a") as f:
        if not rows:
            f.write(f"- ✅ `{current}` matches `{baseline}` "
                    f"({compared} values)\n")
            return
        f.write(f"### ❌ `{current}` vs `{baseline}` "
                f"({len(schema_rows)} schema / {len(value_rows)} value "
                f"difference(s))\n\n")
        f.write("| path | baseline | current |\n|---|---|---|\n")
        for p, b, c in rows[:50]:
            f.write(f"| `{p}` | {b} | {c} |\n")
        if len(rows) > 50:
            f.write(f"| … {len(rows) - 50} more | | |\n")
        f.write("\n")


def self_test():
    """Unit checks for the gate itself: the comparison and schema logic."""
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    base = flatten_doc({
        "bench": "t",
        "rows": [{"name": "a", "x": 1, "wall_ms": 10.0},
                 {"name": "b", "x": 2, "wall_ms": 20.0}],
    })
    same = flatten_doc({
        "bench": "t",
        "rows": [{"name": "a", "x": 1, "wall_ms": 10.0},
                 {"name": "b", "x": 2, "wall_ms": 20.0}],
    })
    s, v = compare(base, same)
    check("identical docs compare clean", not s and not v)

    # Row re-keying by name: reordering rows is not a difference.
    reordered = flatten_doc({
        "bench": "t",
        "rows": [{"name": "b", "x": 2, "wall_ms": 20.0},
                 {"name": "a", "x": 1, "wall_ms": 10.0}],
    })
    s, v = compare(base, reordered)
    check("row order is irrelevant", not s and not v)

    # Exact comparison catches a drifted value.
    drift = flatten_doc({
        "bench": "t",
        "rows": [{"name": "a", "x": 1, "wall_ms": 10.0},
                 {"name": "b", "x": 3, "wall_ms": 20.0}],
    })
    s, v = compare(base, drift)
    check("value drift is caught", not s and v == [("rows/b/x", 2, 3)])

    # Tolerance admits noise within the band, rejects outside it.
    noisy = flatten_doc({
        "bench": "t",
        "rows": [{"name": "a", "x": 1, "wall_ms": 15.0},
                 {"name": "b", "x": 2, "wall_ms": 200.0}],
    })
    tol = [("rows/*/wall_ms", 0.9)]
    s, v = compare(base, noisy, tolerances=tol)
    check("tolerance admits in-band noise, rejects 10x",
          not s and v == [("rows/b/wall_ms", 20.0, 200.0)])

    # --allow masks a value difference...
    s, v = compare(base, drift, allow=["rows/*/x"])
    check("allow masks a value difference", not s and not v)

    # ...but can never mask a schema difference (missing key), either way.
    missing_in_cur = flatten_doc({
        "bench": "t",
        "rows": [{"name": "a", "x": 1, "wall_ms": 10.0},
                 {"name": "b", "wall_ms": 20.0}],
    })
    s, v = compare(base, missing_in_cur, allow=["*"], tolerances=[("*", 99.0)])
    check("missing current key is unmaskable",
          s == [("rows/b/x", 2, "<missing>")] and not v)
    s, v = compare(missing_in_cur, base, allow=["*"], tolerances=[("*", 99.0)])
    check("missing baseline key is unmaskable",
          s == [("rows/b/x", "<missing>", 2)] and not v)

    # A renamed row is two schema failures (old name gone, new name fresh).
    renamed = flatten_doc({
        "bench": "t",
        "rows": [{"name": "a", "x": 1, "wall_ms": 10.0},
                 {"name": "b2", "x": 2, "wall_ms": 20.0}],
    })
    s, v = compare(base, renamed, allow=["*"])
    check("renamed row surfaces as schema difference",
          any(p.startswith("rows/b/") for p, _, _ in s)
          and any(p.startswith("rows/b2/") for p, _, _ in s))

    # "meta" is provenance, not data.
    with_meta = flatten_doc({
        "bench": "t", "meta": {"commit": "deadbeef"},
        "rows": [{"name": "a", "x": 1, "wall_ms": 10.0},
                 {"name": "b", "x": 2, "wall_ms": 20.0}],
    })
    s, v = compare(base, with_meta)
    check("top-level meta is ignored", not s and not v)

    # --max-slowdown is one-sided: it fails a rate that fell or a time that
    # grew by more than X, and never a speed-up. The two-sided tolerance
    # cannot catch a fall in a rate at all once REL >= 1.
    def host(events, wall):
        return flatten_doc({"bench": "t", "rows": [
            {"name": "a", "events_per_sec": events, "wall_ms": wall}]})

    host_base = host(300.0, 10.0)
    slow = [("rows/*/events_per_sec", 2.5), ("rows/*/wall_ms", 2.5)]
    s, v = compare(host_base, host(100.0, 30.0), max_slowdowns=slow)
    check("max-slowdown fails a 3x slowdown at 2.5",
          not s and v == [("rows/a/events_per_sec", 300.0, 100.0),
                          ("rows/a/wall_ms", 10.0, 30.0)])
    s, v = compare(host_base, host(150.0, 20.0), max_slowdowns=slow)
    check("max-slowdown passes a 2x slowdown at 2.5", not s and not v)
    s, v = compare(host_base, host(3000.0, 1.0), max_slowdowns=slow)
    check("max-slowdown passes a 10x speed-up", not s and not v)
    wide = [("rows/*/events_per_sec", 9.0), ("rows/*/wall_ms", 9.0)]
    s, v = compare(host_base, host(100.0, 30.0), tolerances=wide)
    check("a 9.0 tolerance alone passes a 3x slowdown", not s and not v)
    s, v = compare(host_base, host(100.0, 30.0), tolerances=wide, max_slowdowns=slow)
    check("max-slowdown fails a 3x slowdown the 9.0 tolerance lets through",
          len(v) == 2)
    try:
        compare(flatten_doc({"x": 1}), flatten_doc({"x": 2}), max_slowdowns=[("x", 2.0)])
        check("max-slowdown rejects a metric of unknown direction", False)
    except ValueError:
        pass

    if failures:
        for name in failures:
            print(f"SELF-TEST FAIL: {name}")
        return 1
    print("self-test OK (15 checks)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--allow", action="append", default=[],
                    help="fnmatch pattern of paths to ignore (repeatable)")
    ap.add_argument("--tolerance", action="append", default=[], metavar="GLOB=REL",
                    help="paths matching GLOB compare with relative tolerance "
                         "REL instead of exactly (repeatable)")
    ap.add_argument("--max-slowdown", action="append", default=[], metavar="GLOB=X",
                    help="paths matching GLOB fail when more than X times worse "
                         "than the baseline; a speed-up never fails (repeatable)")
    ap.add_argument("--summary", default="",
                    help="append a markdown before/after table to this file")
    ap.add_argument("--self-test", action="store_true",
                    help="run the gate's own unit checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        ap.error("BASELINE and CURRENT are required (or use --self-test)")

    base = load(args.baseline)
    cur = load(args.current)

    tolerances = []
    for spec in args.tolerance:
        glob, _, rel = spec.rpartition("=")
        if not glob:
            ap.error(f"--tolerance needs GLOB=REL, got {spec!r}")
        tolerances.append((glob, float(rel)))
    max_slowdowns = []
    for spec in args.max_slowdown:
        glob, _, factor = spec.rpartition("=")
        if not glob or float(factor) < 1.0:
            ap.error(f"--max-slowdown needs GLOB=X with X >= 1, got {spec!r}")
        max_slowdowns.append((glob, float(factor)))

    try:
        schema_rows, value_rows = compare(base, cur, args.allow, tolerances, max_slowdowns)
    except ValueError as e:
        ap.error(str(e))

    if args.summary:
        write_summary(args.summary, args.baseline, args.current, len(cur),
                      schema_rows, value_rows)

    if not schema_rows and not value_rows:
        print(f"OK: {args.current} matches {args.baseline} "
              f"({len(cur)} values compared)")
        return 0

    rows = schema_rows + value_rows
    width = max(len(p) for p, _, _ in rows)
    width = min(width, 72)
    print(f"BENCH REGRESSION: {args.current} differs from {args.baseline} "
          f"in {len(rows)} value(s)"
          + (f" ({len(schema_rows)} structural — a key present on only one "
             f"side; --allow/--tolerance never mask these)"
             if schema_rows else "")
          + ":\n")
    print(f"  {'path':<{width}}  {'baseline':>14}  {'current':>14}")
    for path, b, c in rows:
        print(f"  {path:<{width}}  {b!s:>14}  {c!s:>14}")
    print(
        "\nIf this change is intentional, regenerate the baselines with\n"
        "  tools/refresh_baselines.sh\n"
        "and commit the updated bench/baselines/ alongside the change that\n"
        "caused it (the diff documents the perf impact for review)."
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
