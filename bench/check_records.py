#!/usr/bin/env python3
"""Checks the bench records re-emitted by the CI bench-artifacts job.

Run from the directory the benches wrote into (it holds the re-emitted
BENCH_PR5.json ... BENCH_PR10.json and traces/):

    python3 bench/check_records.py [--committed DIR]

First it checks that the records parse and cover the expected figures and
legs. With --committed DIR, where DIR holds the committed BENCH_PR*.json
files, it also checks that every re-emitted record whose (figure,
workload, platform) key has a committed counterpart equals it in every
field except wall_ns and trace: virtual time is deterministic, so a
difference means the simulation changed. Re-emitted records without a
counterpart (legs added since the file was committed) are not compared.
Exits nonzero on the first failed check.
"""

import argparse
import json
import os
import sys

RECORD_FILES = ("BENCH_PR5.json", "BENCH_PR6.json", "BENCH_PR7.json",
                "BENCH_PR8.json", "BENCH_PR9.json", "BENCH_PR10.json")
HOST_FIELDS = ("wall_ns", "trace")


def check_coverage():
    figures = set()
    with open("BENCH_PR5.json") as f:
        for line in f:
            rec = json.loads(line)
            figures.add(rec["figure"])
            assert "wall_ns" in rec, rec
    assert len(figures) >= 3, figures
    json.load(open("traces/fig20_on_demand.trace.json"))
    print("figures:", sorted(figures))
    rows = [json.loads(l) for l in open("BENCH_PR6.json")]
    wk = {r["workload"] for r in rows}
    for stem in ("q6", "sssp", "wc"):
        assert {stem + "_journal_off", stem + "_journal_on"} <= wk, wk
    print("pr6 journal legs:", sorted(wk))
    rack = [json.loads(l) for l in open("BENCH_PR7.json")]
    shapes = {r["platform"] for r in rack if r["workload"] == "open_loop_4t"}
    assert {"1x1", "2x1", "2x2", "4x4"} <= shapes, shapes
    print("pr7 rack shapes:", sorted(shapes))
    oltp = [json.loads(l) for l in open("BENCH_PR8.json")]
    legs = {(r["workload"], r["platform"]) for r in oltp}
    for mix in ("ycsb_a", "ycsb_b", "ycsb_c", "ycsb_e"):
        for plat in ("local", "push"):
            assert (mix, plat) in legs, (mix, plat, legs)
            assert (mix + "/journal", plat) in legs, (mix, plat, legs)
    print("pr8 oltp legs:", len(legs))
    fabric = [json.loads(l) for l in open("BENCH_PR9.json")]
    fl = {(r["workload"], r["platform"]) for r in fabric}
    for b in ("ideal", "queued_rdma", "smartnic"):
        assert ("micro_iat32_p99", b) in fl, (b, fl)
        assert ("openloop_iat2us", b) in fl, (b, fl)
    print("pr9 fabric legs:", len(fl))
    par = [json.loads(l) for l in open("BENCH_PR10.json")]
    pl = {r["workload"] for r in par}
    assert {"suite_t1", "suite_t8", "rack2x2_t1", "rack4x4_t1"} <= pl, pl
    by = {r["workload"]: r for r in par}
    assert (by["suite_t1"]["virtual_ns"]
            == by["suite_t8"]["virtual_ns"]), by
    print("pr10 parallel legs:", sorted(pl))


def key(rec):
    return (rec["figure"], rec["workload"], rec["platform"])


def virtual_fields(rec):
    return {k: v for k, v in rec.items() if k not in HOST_FIELDS}


def check_against_committed(committed_dir):
    differ = 0
    for name in RECORD_FILES:
        with open(os.path.join(committed_dir, name)) as f:
            committed = {key(r): r for r in map(json.loads, f)}
        compared = 0
        with open(name) as f:
            for rec in map(json.loads, f):
                old = committed.get(key(rec))
                if old is None:
                    continue
                compared += 1
                if virtual_fields(rec) != virtual_fields(old):
                    differ += 1
                    print(f"{name}: {key(rec)}: re-emitted "
                          f"{virtual_fields(rec)}, committed "
                          f"{virtual_fields(old)}")
        print(f"{name}: {compared} records compared with committed ones")
    assert differ == 0, f"{differ} re-emitted records differ"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--committed",
                        help="directory holding the committed records")
    args = parser.parse_args()
    check_coverage()
    if args.committed:
        check_against_committed(args.committed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
