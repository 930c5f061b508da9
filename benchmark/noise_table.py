#!/usr/bin/env python3
"""The repeatability table of benchmark/repeat.sh, from the results it kept.

usage (from the repository root):
    python3 benchmark/noise_table.py benchmark/out/repeat <runs-per-set> <seconds>
"""
import glob, json, os, platform, statistics, sys, time

out, runs, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

print("# Repeatability of `aasd-e2e` on one commit\n")
print(f"Written by `benchmark/repeat.sh {runs} {seconds}`: two sets of {runs} runs per workload,")
print(f"alternating, `--seconds {seconds} --trace 0`, every run with another seed")
print(f"(set A: 1..{runs}, set B: {runs + 1}..{2 * runs}). Machine: {platform.processor() or platform.machine()},")
print(f"{platform.system()} {platform.release()}.\n")
print("`spread` is the distance between the first and third quartile of a set as a share")
print("of its median; `gap` is how much worse set B's median is than set A's (negative:")
print("better). A pair passes when both spreads and the gap stay within the bound;")
print("`setup_s` is judged on the gap alone. A spread under a third of the bound is the")
print("target.\n")
print("| workload | metric | bound | median A | median B | spread A | spread B | gap | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
failed = 0
for w in (x["name"] for x in bench["workloads"]):
    sets = {}
    for s in "AB":
        files = sorted(glob.glob(f"{out}/{w}.{s}.*.json"))
        sets[s] = [json.loads(open(f).read()) for f in files]
        bad = [r for r in sets[s] if not r["correct"] or r["failed"]]
        if bad or len(sets[s]) < 2:
            print(f"| {w} | set {s}: {len(bad)} incorrect runs of {len(sets[s])} | | | | | | | FAIL |")
            failed += 1
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        ok = gap <= bound and (name == "setup_s" or max(sa, sb) <= bound)
        note = "PASS" if ok else "FAIL"
        if ok and name != "setup_s" and max(sa, sb) > bound / 3:
            note = "PASS (spread over a third of the bound)"
        failed += not ok
        print(f"| {w} | {name} | {bound:.2f} | {ma:.4f} | {mb:.4f} | {sa:.4f} | {sb:.4f} | {gap:+.4f} | {note} |")
print(f"\n{'All pairs pass.' if not failed else f'{failed} pairs fail.'}")

print("\n## `tok_per_s` run by run, in the order the runs were made\n")
print("A spell in which the whole machine is slow shows here as a stretch of low values")
print("across both sets; a set that straddles one fails whatever the statistics, and")
print("`repeat.sh` can make one workload's runs again (the times show when it did).\n")
for w in (x["name"] for x in bench["workloads"]):
    files = sorted(glob.glob(f"{out}/{w}.*.json"), key=os.path.getmtime)
    vals = [json.loads(open(f).read())["metrics"]["tok_per_s"]["value"] for f in files]
    made = [time.strftime("%Y-%m-%d %H:%M", time.gmtime(os.path.getmtime(f))) for f in (files[0], files[-1])]
    print(f"* `{w}` ({made[0]} to {made[1]} UTC): " + " ".join(f"{v:.0f}" for v in vals))
sys.exit(1 if failed else 0)
