#!/usr/bin/env python3
"""Schema test for the EDDIE benchmark.

    python3 perfbench/test_schema.py

Checks BENCHMARK.json, then runs every workload in smoke mode through
run.py, untraced and traced, and checks each output against it: the
result line's exact keys and metric set, every metric's unit, the
report line's direction and attempted/failed counts, the host record,
and the Chrome trace file of the traced runs. Exits 1 on any failure.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HOST_KEYS = {"nproc", "build_type", "compiler", "threads",
             "loadavg_start", "loadavg_end", "steal_s"}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
    return ok


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
           "BENCHMARK.json: wrong top-level keys")
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds out of range")
    names = [w["name"] for w in spec["workloads"]]
    expect(2 <= len(names) <= 8, "2..8 workloads")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and
               "\n" not in w["why"], "workload %s: bad entry" % w["name"])
    seen = set(names)
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            keys = {"name", "unit", "better"}
            if kind == "end_to_end":
                keys.add("bound")
                expect(0 < m["bound"] <= 0.25, "%s: bound" % m["name"])
            expect(set(m) == keys, "%s: wrong keys" % m["name"])
            expect(NAME.match(m["name"]) is not None,
                   "%s: bad name" % m["name"])
            expect(m["name"] not in seen, "%s: name reused" % m["name"])
            seen.add(m["name"])
            expect(UNIT.match(m["unit"]) is not None,
                   "%s: bad unit" % m["name"])
            expect(m["better"] in ("lower", "higher"),
                   "%s: bad direction" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower", "setup_s missing or wrong")


def check_run(spec, workload, trace):
    tag = "%s --trace %d" % (workload, trace)
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=1200)
    lines = proc.stdout.strip().splitlines()
    if not expect(proc.returncode == 0 and len(lines) >= 2,
                  "%s: exit %d\n%s" % (tag, proc.returncode,
                                       proc.stderr[-2000:])):
        return
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys" % tag)
    expect(result["correct"] is True and result["failed"] == 0,
           "%s: not correct: %s" % (tag, report.get("errors")))
    expect(isinstance(result["attempted"], int) and
           result["attempted"] >= 1, "%s: attempted" % tag)
    expect(set(report["host"]) == HOST_KEYS, "%s: host record" % tag)

    defs = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m for m in defs}
    expect(set(result["metrics"]) == set(want),
           "%s: metric set differs: %s" %
           (tag, sorted(set(result["metrics"]) ^ set(want))))
    for name, m in want.items():
        got = result["metrics"].get(name)
        full = report["metrics"].get(name)
        if not expect(got is not None and full is not None,
                      "%s: %s missing" % (tag, name)):
            continue
        expect(set(got) == {"value", "unit"}, "%s: %s keys" % (tag, name))
        value = got["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               "%s: %s not a finite number" % (tag, name))
        if not trace:
            expect(value != 0, "%s: %s is 0" % (tag, name))
        expect(got["unit"] == m["unit"] and full["unit"] == m["unit"],
               "%s: %s unit" % (tag, name))
        expect(full["better"] == m["better"],
               "%s: %s direction" % (tag, name))

    if trace:
        out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build", "out",
                           "trace-%s-seed7.json" % workload)
        with open(out) as f:
            events = json.load(f)["traceEvents"]
        expect(len(events) > 0, "%s: empty trace" % tag)
        for e in events:
            if not expect({"name", "ph", "ts", "dur", "tid"} <= set(e) and
                          "parent" in e["args"],
                          "%s: bad trace event %s" % (tag, e)):
                break


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print("checked %s --trace %d" % (w["name"], trace), flush=True)
    for f in failures:
        print("FAIL:", f)
    print("schema test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
