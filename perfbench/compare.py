#!/usr/bin/env python3
"""Run the benchmark over many seeds, and compare two sets of results.

    python3 perfbench/compare.py sweep OUT_DIR [--workloads a,b] [--seeds 1-10]
                                       [--trace 0|1] [--seconds N]
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py compare BASE_DIR NEW_DIR

`sweep` runs the command of BENCHMARK.json once per workload and seed from
the repository root and keeps each run's stdout as
`OUT_DIR/<workload>.s<seed>.t<trace>.out`; its last line is the result and
the line before it the full record. `spread` prints, per workload and
metric, the median, the quartiles and the quartile spread as a share of the
median, against the metric's bound. `compare` prints both sides' medians and
quartiles and their ratio, and flags a metric as REGRESSED when the new
median is worse than the base median by more than its bound, or as
UNRESOLVED when either side's spread exceeds the bound. Runs whose record
says `"valid": false` (the generator fell behind its schedule) are not
counted. Only the Python standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def load(directory, keep_invalid=False):
    """{workload: {metric: [values]}} over the correct runs in `directory`
    (only the valid ones unless `keep_invalid`), plus how many were left out."""
    runs, skipped = {}, 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        if len(lines) < 2:
            skipped += 1
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        if not result["correct"] or not (keep_invalid or record.get("valid", True)):
            skipped += 1
            continue
        per = runs.setdefault(record["workload"], {})
        for metric, v in result["metrics"].items():
            per.setdefault(metric, []).append(v["value"])
    return runs, skipped


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def metric_specs():
    b = bench()
    return {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}


def cmd_sweep(a):
    b = bench()
    os.makedirs(a.out, exist_ok=True)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in b["workloads"]]
    for w in workloads:
        for s in seeds(a.seeds):
            argv = b["command"] + ["--workload", w, "--seed", str(s),
                                   "--seconds", str(a.seconds or b["run_seconds"]),
                                   "--trace", str(a.trace)]
            path = os.path.join(a.out, f"{w}.s{s}.t{a.trace}.out")
            with open(path, "w") as out:
                code = subprocess.run(argv, cwd=ROOT, stdout=out, stderr=subprocess.DEVNULL).returncode
            last = open(path).read().splitlines()[-1:] or [""]
            print(f"{w} seed {s}: exit {code} {last[0][:100]}", flush=True)
    cmd_spread(argparse.Namespace(dir=a.out))


def cmd_spread(a):
    specs = metric_specs()
    runs, skipped = load(a.dir, keep_invalid=True)
    print(f"{'workload':<18} {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w, metrics in runs.items():
        for m, values in metrics.items():
            med, q1, q3, spread = summary(values)
            bound = specs.get(m, {}).get("bound")
            flag = ""
            if bound is not None and m != "setup_s":
                flag = "  OVER BOUND" if spread > bound else ("  > bound/3" if spread > bound / 3 else "")
            print(f"{w:<18} {m:<34} {len(values):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound if bound is not None else '-':>6}{flag}")
    if skipped:
        print(f"({skipped} incorrect runs not counted; spread counts invalid runs too)")


def cmd_compare(a):
    specs = metric_specs()
    base, skipped_base = load(a.base)
    new, skipped_new = load(a.new)
    worst = 0
    print(f"{'workload':<18} {'metric':<34} {'base med':>11} {'[q1, q3]':>23} {'new med':>11} "
          f"{'[q1, q3]':>23} {'ratio':>7}  verdict")
    for w in sorted(set(base) | set(new)):
        for m in sorted(set(base.get(w, {})) | set(new.get(w, {}))):
            b, n = base.get(w, {}).get(m), new.get(w, {}).get(m)
            if not b or not n:
                print(f"{w:<18} {m:<34} missing on one side")
                continue
            bm, bq1, bq3, bs = summary(b)
            nm, nq1, nq3, ns = summary(n)
            ratio = nm / bm if bm else float("inf")
            spec = specs.get(m, {})
            verdict = ""
            if "bound" in spec:
                bound, lower = spec["bound"], spec["better"] == "lower"
                worse = (nm - bm) / abs(bm) if lower else (bm - nm) / abs(bm)
                if max(bs, ns) > bound and m != "setup_s":
                    verdict = "UNRESOLVED"
                elif worse > bound:
                    verdict = "REGRESSED"
                    worst = 1
                else:
                    verdict = "ok"
            print(f"{w:<18} {m:<34} {bm:>11.5g} [{bq1:>10.5g},{bq3:>10.5g}] {nm:>11.5g} "
                  f"[{nq1:>10.5g},{nq3:>10.5g}] {ratio:>7.3f}  {verdict}")
    for label, k in (("base", skipped_base), ("new", skipped_new)):
        if k:
            print(f"({k} invalid or incorrect {label} runs not counted)")
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("out")
    s.add_argument("--workloads", default="")
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--trace", type=int, default=0, choices=(0, 1))
    s.add_argument("--seconds", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    s = sub.add_parser("compare")
    s.add_argument("base")
    s.add_argument("new")
    a = p.parse_args()
    return {"sweep": cmd_sweep, "spread": cmd_spread, "compare": cmd_compare}[a.cmd](a) or 0


if __name__ == "__main__":
    sys.exit(main())
