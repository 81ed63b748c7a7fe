#!/usr/bin/env python3
"""Compare BENCH_*.json results against committed baselines.

The simulator is deterministic: for a fixed (plan, seed) the virtual run time
of every benchmark is an exact function of the code. Any drift in
`virtual_time_ns` is therefore a real modelled-cost change, not noise — this
gate fails CI when a benchmark gets slower than its committed baseline by
more than the allowed tolerance.

Wall-clock gauges (names containing ".wall.", e.g. bench_scale's
`scale.wall.events_per_sec`) measure the host, not the model: they are real
measurements with real noise, so they gate under a separate, wider band
(default 15%) with a per-metric direction — `*_per_sec` / `*throughput*`
gauges are higher-is-better, everything else (e.g. per-event cost
percentiles) lower-is-better. The `host` section of each BENCH file (cpu
count, compiler, build type) identifies the machine a baseline was taken on
and is ignored by the gate; use --no-wall-gate when comparing across
machines, or --metric to widen one gauge's band.

--exact additionally requires each current document to equal its baseline
everywhere except the `host` section and the wall-clock gauges: every
counter, histogram and virtual-derived gauge is a deterministic function of
the code, so for a change meant to move no virtual nanosecond any other
difference is a failure, and the first differing paths are printed.

Improvements beyond a band never fail the gate, but they are printed as
"ratchet candidate" notes: the committed baseline is stale, and until it is
refreshed a later change could silently give the whole win back. Pass
--refresh to rewrite exactly the stale baseline files in place from the
current results (nothing else is touched); without it, the gate prints the
exact command to run.

Usage:
    tools/bench_compare.py --baseline bench/baselines [--current .]
                           [--tolerance 2.0] [--tolerance chaos=5.0]
                           [--wall-tolerance 15.0] [--no-wall-gate]
                           [--metric scale.wall.events_per_sec=higher:75]
                           [--refresh] [--exact]
                           fig2 table1 chaos scale hotspot

Each positional argument names a benchmark: `<current>/BENCH_<name>.json` is
compared with `<baseline>/BENCH_<name>.json`. `--tolerance PCT` sets the
default allowed virtual-time regression (percent); `--tolerance NAME=PCT`
overrides it for one benchmark. `--metric NAME=DIR:PCT` (repeatable) pins a
gauge's direction (`higher`/`lower`) and band, overriding the built-in wall
rules. Virtual-time-derived gauges present in both files are reported as
deltas for context but do not gate — except `sweep.*` gauges (the saturation
curve from `bench_serve --sweep`): those are deterministic functions of the
model, so every curve point gates at the benchmark's own tolerance,
direction-aware (throughput higher-is-better, latency/rejection lower), and
--no-wall-gate does not exempt them.

Exit status: 0 if every benchmark is within tolerance, 1 on regression or a
missing/unreadable file.
"""

import argparse
import json
import os
import shutil
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def gauges(doc):
    """Flattens {"metrics": {"gauges": {name: {label: value}}}} to name/label -> value.

    Only the metrics section is read; the top-level "host" metadata section
    never reaches the gate.
    """
    out = {}
    for name, fam in doc.get("metrics", {}).get("gauges", {}).items():
        for label, value in fam.items():
            key = name if label == "total" else f"{name}/{label}"
            if isinstance(value, (int, float)):
                out[key] = float(value)
    return out


def is_wall_metric(key):
    return ".wall." in key


def is_sweep_metric(key):
    """Saturation-curve gauges (bench_serve --sweep) are virtual-time-derived:
    deterministic, so they gate even under --no-wall-gate, at the benchmark's
    own (tight) tolerance rather than the wall band."""
    return key.split("/")[0].startswith("sweep.")


def sweep_direction(key):
    """Direction for sweep-curve gauges: throughput up, latency/rejection down."""
    family = key.split("/")[0]
    if family.endswith("per_sec") or "throughput" in family:
        return "higher"
    return "lower"


def wall_direction(key):
    """Built-in direction for wall-clock gauges: rates up, costs down."""
    leaf = key.split("/")[0].rsplit(".", 1)[-1]
    if leaf.endswith("per_sec") or "throughput" in leaf or leaf.endswith("ops"):
        return "higher"
    return "lower"


def without_host_and_wall(doc):
    """The parts of a BENCH document that must reproduce exactly: all of it
    but the host section and the wall-clock gauges."""
    doc = {k: v for k, v in doc.items() if k != "host"}
    metrics = doc.get("metrics")
    if isinstance(metrics, dict) and isinstance(metrics.get("gauges"), dict):
        gauges = {k: v for k, v in metrics["gauges"].items() if not is_wall_metric(k)}
        doc["metrics"] = dict(metrics, gauges=gauges)
    return doc


def differences(base, cur, path=""):
    """Yields '<path>: <baseline> -> <current>' for every place two JSON values differ.

    Values must match in type as well (1 and 1.0 are different documents).
    """
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(base.keys() | cur.keys()):
            sub = f"{path}/{key}"
            if key not in cur:
                yield f"{sub}: missing from current"
            elif key not in base:
                yield f"{sub}: not in baseline"
            else:
                yield from differences(base[key], cur[key], sub)
    elif isinstance(base, list) and isinstance(cur, list) and len(base) == len(cur):
        for i, (b, c) in enumerate(zip(base, cur)):
            yield from differences(b, c, f"{path}[{i}]")
    elif type(base) is not type(cur) or base != cur:
        yield f"{path or '/'}: {base!r} -> {cur!r}"


def parse_metric_rules(specs):
    """--metric NAME=DIR:PCT -> {name: (direction, tolerance_pct)}"""
    rules = {}
    for spec in specs:
        try:
            name, rest = spec.split("=", 1)
            direction, pct = rest.split(":", 1)
            if direction not in ("higher", "lower"):
                raise ValueError(f"direction must be higher|lower, got {direction!r}")
            rules[name] = (direction, float(pct))
        except ValueError as err:
            raise SystemExit(f"bad --metric spec {spec!r}: {err}")
    return rules


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="directory with BENCH_<name>.json baselines")
    parser.add_argument("--current", default=".", help="directory with freshly produced BENCH_<name>.json")
    parser.add_argument(
        "--tolerance",
        action="append",
        default=[],
        help="allowed virtual-time regression in percent: PCT (default for all) or NAME=PCT",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=15.0,
        help="default band for wall-clock gauges (percent, direction-aware)",
    )
    parser.add_argument(
        "--no-wall-gate",
        action="store_true",
        help="report wall-clock gauge deltas but never fail on them (cross-machine runs)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        help="per-gauge override: NAME=DIR:PCT with DIR in {higher,lower} (repeatable)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="rewrite stale baseline files in place from the current results (ratchet candidates only)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="also fail on any difference outside the host section and the wall-clock gauges",
    )
    parser.add_argument("benches", nargs="+", help="benchmark names (fig2, table1, chaos, scale, ...)")
    args = parser.parse_args()

    default_tol = 2.0
    per_bench_tol = {}
    for spec in args.tolerance:
        if "=" in spec:
            name, pct = spec.split("=", 1)
            per_bench_tol[name] = float(pct)
        else:
            default_tol = float(spec)
    metric_rules = parse_metric_rules(args.metric)

    failures = []
    rows = []
    stale = {}  # bench name -> (baseline path, current path), for --refresh
    for name in args.benches:
        tol = per_bench_tol.get(name, default_tol)
        base_path = os.path.join(args.baseline, f"BENCH_{name}.json")
        cur_path = os.path.join(args.current, f"BENCH_{name}.json")
        try:
            base = load(base_path)
            cur = load(cur_path)
        except (OSError, ValueError) as err:
            failures.append(f"{name}: cannot load results: {err}")
            rows.append((name, "-", "-", "-", f"<= {tol:.1f}%", "ERROR"))
            continue

        base_ns = base.get("virtual_time_ns")
        cur_ns = cur.get("virtual_time_ns")
        if not isinstance(base_ns, (int, float)) or not isinstance(cur_ns, (int, float)) or base_ns <= 0:
            failures.append(f"{name}: missing or invalid virtual_time_ns")
            rows.append((name, str(base_ns), str(cur_ns), "-", f"<= {tol:.1f}%", "ERROR"))
            continue

        delta_pct = 100.0 * (cur_ns - base_ns) / base_ns
        verdict = "ok"
        if delta_pct > tol:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: virtual time {cur_ns / 1e6:.3f} ms vs baseline "
                f"{base_ns / 1e6:.3f} ms (+{delta_pct:.2f}% > {tol:.1f}%)"
            )
        elif delta_pct < -tol:
            # An improvement beyond the tolerance band is not a failure, but
            # it means the committed baseline is stale: until it is refreshed,
            # a follow-up change could give the whole win back without
            # tripping the gate. Surface it so the author ratchets.
            verdict = "ok (ratchet)"
            stale[name] = (base_path, cur_path)
            print(
                f"  ratchet candidate: {name} virtual time improved "
                f"{base_ns / 1e6:.3f} ms -> {cur_ns / 1e6:.3f} ms ({delta_pct:.2f}%); "
                f"refresh {base_path} to lock in the win"
            )
        rows.append(
            (
                name,
                f"{base_ns / 1e6:.3f} ms",
                f"{cur_ns / 1e6:.3f} ms",
                f"{delta_pct:+.2f}%",
                f"<= {tol:.1f}%",
                verdict,
            )
        )

        if args.exact:
            diffs = list(differences(without_host_and_wall(base), without_host_and_wall(cur)))
            if diffs:
                failures.append(f"{name}: {len(diffs)} difference(s) from the baseline (--exact)")
                for d in diffs[:10]:
                    print(f"  exact: {name} {d}")
                if len(diffs) > 10:
                    print(f"  exact: {name} ... and {len(diffs) - 10} more")

        base_gauges = gauges(base)
        cur_gauges = gauges(cur)
        for key in sorted(base_gauges.keys() & cur_gauges.keys()):
            b, c = base_gauges[key], cur_gauges[key]
            rule = metric_rules.get(key)
            sweep = rule is None and is_sweep_metric(key)
            gated = rule is not None or sweep or is_wall_metric(key)
            if not gated:
                if b == c:
                    continue
                rel = f" ({100.0 * (c - b) / b:+.2f}%)" if b else ""
                print(f"  note: {name} gauge {key}: {b:g} -> {c:g}{rel}")
                continue

            if rule is not None:
                direction, band = rule
            elif sweep:
                direction, band = sweep_direction(key), tol
            else:
                direction, band = wall_direction(key), args.wall_tolerance
            if sweep and b == c:
                continue  # identical curve point: the gate holds, quietly
            if b == 0:
                if sweep and direction == "lower":
                    # A lower-is-better curve point moving off zero (e.g. a rung
                    # that never rejected starts rejecting) is a real change
                    # even though no relative delta exists.
                    failures.append(f"{name}: sweep gauge {key}: {c:g} vs baseline 0")
                    print(f"  sweep: {name} {key}: 0 -> {c:g} [lower] REGRESSION")
                else:
                    print(f"  note: {name} gauge {key}: baseline is 0, skipping gate")
                continue
            # Sweep gauges derive from virtual time: deterministic, so
            # --no-wall-gate (a cross-machine concession) never exempts them.
            gate_off = args.no_wall_gate and not sweep
            kind = "sweep" if sweep else "wall"
            rel_pct = 100.0 * (c - b) / b
            worse = rel_pct < -band if direction == "higher" else rel_pct > band
            better = rel_pct > band if direction == "higher" else rel_pct < -band
            gate = "off (--no-wall-gate)" if gate_off else f"{direction} +/-{band:.1f}%"
            mark = "ok"
            if better:
                mark = "ok (ratchet)"
                stale.setdefault(name, (base_path, cur_path))
                print(
                    f"  ratchet candidate: {name} {kind} gauge {key} improved "
                    f"{b:g} -> {c:g} ({rel_pct:+.2f}%, {direction}-is-better); "
                    f"consider refreshing {base_path}"
                )
            if worse:
                mark = "WORSE" if gate_off else "REGRESSION"
                if not gate_off:
                    failures.append(
                        f"{name}: {kind} gauge {key}: {c:g} vs baseline {b:g} "
                        f"({rel_pct:+.2f}%, {direction}-is-better, band {band:.1f}%)"
                    )
            print(f"  {kind}: {name} {key}: {b:g} -> {c:g} ({rel_pct:+.2f}%) [{gate}] {mark}")

    header = ("bench", "baseline", "current", "delta", "tolerance", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())

    if stale:
        if args.refresh:
            print()
            for name in sorted(stale):
                base_path, cur_path = stale[name]
                shutil.copyfile(cur_path, base_path)
                print(f"refreshed {base_path} from {cur_path}")
        else:
            # Print the exact command so a CI log makes the ratchet a
            # copy-paste away instead of an archaeology exercise.
            hint = [f"tools/bench_compare.py --baseline {args.baseline}"]
            if args.current != ".":
                hint.append(f"--current {args.current}")
            hint.append("--refresh")
            hint.extend(sorted(stale))
            print(
                f"\n{len(stale)} stale baseline(s); to ratchet the improvement(s) "
                f"into the committed files, run:\n  {' '.join(hint)}"
            )

    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
