#!/usr/bin/env python3
"""Compare two source trees with the benchmark's pair rule.

Usage (from any directory):

    python3 tools/perf_pairs.py --parent DIR --change DIR \\
        --workload ci-stress --seed 1 [--pairs 10] [--seconds 30] \\
        [--log FILE] [--trace]
    python3 tools/perf_pairs.py --self-test

Runs `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` in each tree, alternating which side runs first (odd pairs
run the parent first), and appends every run's final JSON line, tagged
with its side and pair, to the log (JSON lines; default
perf-pairs-W-seedS.jsonl in the current directory). Each tree builds
its own .bench_build/.

Then it prints one row in README's "Performance" format: the sim_kips
medians with their quartiles, the ratio of the medians, the pairs the
change won, the gap between the medians divided by the parent's
interquartile range, and the sim_kcps medians; a second row with the
setup_s, peak_rss_mb and fig10_gain_err_pp medians and the failed
count; and whether the two sides printed identical stats-digest blocks
in every run. A gain counts under the benchmark's rule when the change
wins at least 9 of 10 pairs and the gap exceeds the parent's IQR.

Quartiles are statistics.quantiles(method="inclusive"): linear
interpolation between order statistics, the first and last sample
being the 0th and 100th percentiles (numpy's default).

With --trace the runs use `--trace 1` instead, and the tool prints
README's traced table in place of the two rows: one row per layer
metric (TRACED below), each side's per-run values in pair order. A
traced run reports the simulated cycle count per set (`core.cycles`),
which a change that keeps statistics identical cannot move, so the
tool also exits 1 when two runs' `core.cycles` differ.

Exits 1 when any run fails or the digest blocks differ, 2 on usage.
Standard library only.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST = re.compile(r"^  [0-9a-f]{16}  ")
QUARTILES = "statistics.quantiles(method='inclusive')"
# Layer metrics of the traced table, with the format of one value.
TRACED = (("core.cycles", "{:,.0f}"), ("core.construct_ms", "{:.2f}"),
          ("core.cycle_self_ns", "{:.0f}"), ("workloads.build_s", "{:.3f}"),
          ("workloads.share", "{:.3f}"), ("emulator.share", "{:.3f}"),
          ("replay.parse_s", "{:.3f}"), ("harness.share", "{:.3f}"))


def quartiles(xs):
    """(Q1, median, Q3) of xs by the documented method."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_once(tree, workload, seed, seconds, trace=False):
    """One benchmark run in tree: (final JSON dict, digest lines, ok)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        final = None
    digests = [ln for ln in lines if DIGEST.match(ln)]
    return final, digests, proc.returncode == 0 and final is not None


def metric(run, name):
    return run["metrics"][name]["value"]


def summarize(workload, seed, pairs):
    """Table rows for pairs = [(parent JSON, change JSON), ...]."""
    before = [metric(p, "sim_kips") for p, _ in pairs]
    after = [metric(c, "sim_kips") for _, c in pairs]
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    wins = sum(1 for b, a in zip(before, after) if a > b)
    iqr = b3 - b1
    gap = (am - bm) / iqr if iqr > 0 else float("inf")
    kb1, kbm, kb3 = quartiles([metric(p, "sim_kcps") for p, _ in pairs])
    ka1, kam, ka3 = quartiles([metric(c, "sim_kcps") for _, c in pairs])
    speed = ("| %s | %d | %.0f [%.0f, %.0f] | %.0f [%.0f, %.0f] | %.3fx "
             "| %d/%d | %.1f | %.0f [%.0f, %.0f] | %.0f [%.0f, %.0f] |"
             % (workload, seed, bm, b1, b3, am, a1, a3, am / bm, wins,
                len(pairs), gap, kbm, kb1, kb3, kam, ka1, ka3))

    def med(side, name):
        return statistics.median(metric(r[side], name) for r in pairs)

    def pct(b, a):
        return "%+.1f%%" % (100.0 * (a - b) / b)

    sb, sa = med(0, "setup_s") * 1e3, med(1, "setup_s") * 1e3
    rb, ra = med(0, "peak_rss_mb"), med(1, "peak_rss_mb")
    errs = sorted({round(metric(r, "fig10_gain_err_pp"), 4)
                   for pair in pairs for r in pair})
    failed = sum(r["failed"] for pair in pairs for r in pair)
    other = ("| %s | %d | %.2f ms | %.2f ms (%s) | %.1f | %.1f (%s) | %s "
             "| %d |" % (workload, seed, sb, sa, pct(sb, sa), rb, ra,
                         pct(rb, ra), " / ".join("%.4f" % e for e in errs),
                         failed))
    return speed, other, wins, gap


def traced_table(workload, pairs):
    """(table lines, cycles_agree) for traced pairs, values in pair
    order."""
    lines = ["| metric | workload | before | after |", "|---|---|---|---|"]
    for name, fmt in TRACED:
        cells = [", ".join(fmt.format(metric(pair[side], name))
                           for pair in pairs) for side in (0, 1)]
        lines.append("| `%s` | %s | %s | %s |"
                     % (name, workload, cells[0], cells[1]))
    cycles = {metric(r, "core.cycles") for pair in pairs for r in pair}
    return lines, len(cycles) == 1


def campaign(opt):
    log = Path(opt.log or "perf-pairs-%s-seed%d.jsonl" %
               (opt.workload, opt.seed))
    pairs = []
    digests = {}
    ok = True
    for k in range(opt.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            tree = opt.parent if side == "parent" else opt.change
            final, dig, good = run_once(tree, opt.workload, opt.seed,
                                        opt.seconds, opt.trace)
            ok = ok and good
            with log.open("a") as f:
                f.write(json.dumps({"workload": opt.workload,
                                    "seed": opt.seed, "trace": opt.trace,
                                    "pair": k + 1,
                                    "side": side, "ok": good,
                                    "result": final}) + "\n")
            if not good:
                print("pair %d %s: run failed" % (k + 1, side),
                      file=sys.stderr)
                return 1
            got[side] = final
            digests.setdefault(side, set()).add(tuple(dig))
            shown = "core.cycles" if opt.trace else "sim_kips"
            print("pair %d %s: %s %.0f" %
                  (k + 1, side, shown, metric(final, shown)),
                  file=sys.stderr)
        pairs.append((got["parent"], got["change"]))

    same = (len(digests["parent"]) == 1 and
            digests["parent"] == digests["change"])
    lines = len(next(iter(digests["parent"])))
    if opt.trace:
        table, cycles_agree = traced_table(opt.workload, pairs)
        print("\n".join(table))
        print("core.cycles: %s" % ("identical" if cycles_agree
                                   else "DIFFER"))
        print("digests: %s (%d lines per run)" %
              ("identical" if same else "DIFFER", lines))
        return 0 if ok and same and cycles_agree else 1

    speed, other, _, _ = summarize(opt.workload, opt.seed, pairs)
    print("quartiles: " + QUARTILES)
    print("| workload | seed | sim_kips before | sim_kips after | ratio "
          "| wins | gap / parent IQR | sim_kcps before | sim_kcps after |")
    print(speed)
    print("| workload | seed | setup_s before | setup_s after "
          "| peak_rss_mb before | peak_rss_mb after | fig10_gain_err_pp "
          "| failed |")
    print(other)
    print("digests: %s (%d lines per run)" %
          ("identical" if same else "DIFFER", lines))
    return 0 if ok and same else 1


def self_test():
    """Check the arithmetic and the row format on a canned sample."""
    def run(kips, kcps, setup, rss, failed=0):
        return {"failed": failed, "metrics": {
            "sim_kips": {"value": kips}, "sim_kcps": {"value": kcps},
            "setup_s": {"value": setup}, "peak_rss_mb": {"value": rss},
            "fig10_gain_err_pp": {"value": 10.70725}}}

    # Parent 1..5, change 4, 5, 6, 7, 0.5: the last pair is a loss.
    parent = [1, 2, 3, 4, 5]
    change = [4, 5, 6, 7, 0.5]
    pairs = [(run(p, 10 * p, 0.001, 20.0), run(c, 10 * c, 0.0011, 15.0))
             for p, c in zip(parent, change)]
    errors = []

    def check(what, got, want):
        if got != want:
            errors.append("%s: got %r, want %r" % (what, got, want))

    check("parent quartiles", quartiles(parent), (2.0, 3.0, 4.0))
    check("change quartiles", quartiles(change), (4.0, 5.0, 6.0))
    check("even-length quartiles", quartiles([1, 2, 3, 4]),
          (1.75, 2.5, 3.25))
    speed, other, wins, gap = summarize("w", 7, pairs)
    check("wins", wins, 4)
    check("gap / IQR", gap, 1.0)
    check("speed row", speed,
          "| w | 7 | 3 [2, 4] | 5 [4, 6] | 1.667x | 4/5 | 1.0 "
          "| 30 [20, 40] | 50 [40, 60] |")
    check("other row", other,
          "| w | 7 | 1.00 ms | 1.10 ms (+10.0%) | 20.0 | 15.0 (-25.0%) "
          "| 10.7073 | 0 |")

    def traced(cycles, construct, share):
        values = {"core.cycles": cycles, "core.construct_ms": construct,
                  "core.cycle_self_ns": 1116.4, "workloads.build_s": 0.0874,
                  "workloads.share": share, "emulator.share": 0.0123,
                  "replay.parse_s": 0.0, "harness.share": 0.0091}
        return {"failed": 0, "metrics": {k: {"value": v}
                                         for k, v in values.items()}}

    tpairs = [(traced(684214, 1.46, 0.08), traced(684214, 0.74, 0.019)),
              (traced(684214, 1.49, 0.0804), traced(684214, 0.835, 0.0186))]
    table, agree = traced_table("ci-stress", tpairs)
    check("traced header", table[:2],
          ["| metric | workload | before | after |", "|---|---|---|---|"])
    check("traced rows", len(table), 2 + len(TRACED))
    check("cycles row", table[2],
          "| `core.cycles` | ci-stress | 684,214, 684,214 "
          "| 684,214, 684,214 |")
    check("construct row", table[3],
          "| `core.construct_ms` | ci-stress | 1.46, 1.49 | 0.74, 0.83 |")
    check("share row", table[6],
          "| `workloads.share` | ci-stress | 0.080, 0.080 | 0.019, 0.019 |")
    check("last row", table[-1],
          "| `harness.share` | ci-stress | 0.009, 0.009 | 0.009, 0.009 |")
    check("cycles agree", agree, True)
    tpairs[1] = (tpairs[1][0], traced(684215, 0.8, 0.02))
    check("cycles differ", traced_table("ci-stress", tpairs)[1], False)
    for e in errors:
        print("perf_pairs self-test: " + e, file=sys.stderr)
    print("perf_pairs self-test: %s" % ("FAIL" if errors else "ok"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload",
                    choices=("analog-live", "ci-stress", "fig10-replay"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--log", help="JSON-lines log to append to")
    ap.add_argument("--trace", action="store_true",
                    help="run --trace 1 and print the traced table")
    ap.add_argument("--self-test", action="store_true",
                    help="check the arithmetic on a canned sample")
    opt = ap.parse_args()
    if opt.self_test:
        return self_test()
    if None in (opt.parent, opt.change, opt.workload, opt.seed):
        ap.error("--parent, --change, --workload and --seed are required")
    if opt.pairs < 2 or opt.seconds < 1:
        ap.error("--pairs must be >= 2 and --seconds >= 1")
    for tree in (opt.parent, opt.change):
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error("%s has no perfbench/run.py" % tree)
    return campaign(opt)


if __name__ == "__main__":
    sys.exit(main())
