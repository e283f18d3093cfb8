#!/usr/bin/env python3
"""A/B check of a change against a parent revision.

Run from anywhere inside the repository:

    python3 bench/ab_compare.py --parent <rev> [--work DIR] [--pairs N]
        [--workload NAME ...] [--first-seed N]

It exports <rev> with `git archive` into WORK/parent and builds it and the
working tree (the change, uncommitted edits included) in Release, each in
its own build directory under WORK, and with --pairs also builds each
tree's perfbench, all before it runs any program. Then, in each tree:

  - it runs every bench_fig*, bench_ablation_* and bench_pr* binary with
    TELEPORT_BENCH_JSON and TELEPORT_TRACE_DIR pointing into that tree's
    own run directory (bench_pr10_parallel with TELEPORT_PAR_FLOOR=0, so
    only its determinism gates apply), and no other TELEPORT_* variable;
  - it runs diff_test and oltp_diff_test.

It fails unless the two trees agree on every virtual output: each
program's exit code and stdout, minus the host-time lines HOST_TIME_LINES
names; every bench record, minus the fields check_records.py ignores
(wall_ns and trace); and every trace file, byte for byte.

With --pairs N it then runs every perfbench workload (or only those
named with --workload, which may repeat), untraced and traced, in both
trees N times, alternating which tree goes first, with no TELEPORT_*
variable set. Every run lasts BENCHMARK.json's run_seconds; pair i (from
1) uses seed first-seed + i - 1 in both trees (--first-seed, default 1),
so held-out pairs can start past the seeds a claim was made on. Each
run's metrics go to WORK/pairs.jsonl as one line (pair, seed, side,
workload, trace, metrics) as soon as the run ends. For every workload,
trace setting and metric it prints each side's median and interquartile
range, the median of the per-pair ratios change/parent, in how many pairs
the change was better (the direction BENCHMARK.json gives), and in how
many the two values were identical.

Exits nonzero when the trees differ or a program fails to build, and
with an error when the change tree's sources (every file git tracks or
would add) differ at the end from what was built: perfbench/run.py
rebuilds before every run, so an edit made meanwhile would reach the
change side unannounced.
"""

import argparse
import difflib
import hashlib
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from check_records import virtual_fields  # noqa: E402

BENCH_PREFIXES = ("bench_fig", "bench_ablation_", "bench_pr")
DIFF_TESTS = ("diff_test", "oltp_diff_test")

# Host-time lines, dropped from stdout before comparing: (program, regex).
# Every pattern matches a line that prints host wall-clock time or a ratio
# of host times; nothing else may differ between the trees.
HOST_TIME_LINES = [
    ("bench_pr10_parallel", r"^suite \(24 legs\): t1 "),
    ("bench_pr10_parallel", r"^rack \d+x\d+: serial "),
    ("bench_pr10_parallel", r"^speedup floor: "),
    ("bench_pr10_parallel", r"^  suite speedup \(8 threads\) "),
]
# gtest's per-test and per-run durations; the rest of those lines stays.
GTEST_DURATION = re.compile(r" \(\d+ ms( total)?\)$")


def sh(cmd, **kw):
    print("+", " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, check=True, **kw)


def clean_env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TELEPORT_")}
    env.update(extra or {})
    return env


def build(src, build_dir, jobs):
    if not (build_dir / "CMakeCache.txt").exists():
        sh(["cmake", "-S", src, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=Release"], stdout=subprocess.DEVNULL)
    sh(["cmake", "--build", build_dir, "-j", str(jobs)],
       stdout=subprocess.DEVNULL)


def build_perfbench(tree):
    sh([sys.executable, "-c",
        "import sys; sys.path.insert(0, 'perfbench'); "
        "import run; run.build()"], cwd=tree, env=clean_env(),
       stderr=subprocess.DEVNULL)


def sources_digest(root, work):
    """Hashes every file of `root` that git tracks or would add, outside
    `work`."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=root, check=True,
                           stdout=subprocess.PIPE).stdout.split(b"\0")
    digest = hashlib.sha256()
    for name in sorted(n for n in names if n):
        path = root / os.fsdecode(name)
        if work not in path.parents and path.is_file():
            digest.update(name + b"\0" + path.read_bytes())
    return digest.hexdigest()


def programs(build_dir):
    benches = sorted(p for p in (build_dir / "bench").iterdir()
                     if p.name.startswith(BENCH_PREFIXES)
                     and os.access(p, os.X_OK) and p.is_file())
    return benches + [build_dir / "tests" / t for t in DIFF_TESTS]


def filtered_stdout(name, text):
    drop = [re.compile(rx) for prog, rx in HOST_TIME_LINES if prog == name]
    lines = []
    for line in text.splitlines():
        if any(rx.search(line) for rx in drop):
            continue
        lines.append(GTEST_DURATION.sub("", line))
    return lines


def run_tree(side, build_dir, run_dir):
    """Runs every program of one tree; returns {name: (exit, stdout)}."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    out = {}
    for prog in programs(build_dir):
        name = prog.name
        work = run_dir / name
        (work / "traces").mkdir(parents=True)
        extra = {"TELEPORT_BENCH_JSON": str(work / "records.json"),
                 "TELEPORT_TRACE_DIR": str(work / "traces")}
        if name == "bench_pr10_parallel":
            extra["TELEPORT_PAR_FLOOR"] = "0"
        print(f"  {side}: {name}", file=sys.stderr, flush=True)
        done = subprocess.run([str(prog)], cwd=work, env=clean_env(extra),
                              stdout=subprocess.PIPE, text=True)
        out[name] = (done.returncode, done.stdout)
    return out


def records(path):
    if not path.exists():
        return []
    return [virtual_fields(json.loads(line))
            for line in path.read_text().splitlines() if line.strip()]


def compare_trees(parent_runs, change_runs, parent_dir, change_dir):
    problems = []
    for name in sorted(set(parent_runs) | set(change_runs)):
        if name not in parent_runs or name not in change_runs:
            problems.append(f"{name}: built in one tree only")
            continue
        (pcode, pout), (ccode, cout) = parent_runs[name], change_runs[name]
        if pcode != ccode:
            problems.append(f"{name}: exit {pcode} -> {ccode}")
        a, b = filtered_stdout(name, pout), filtered_stdout(name, cout)
        if a != b:
            diff = list(difflib.unified_diff(a, b, "parent", "change",
                                             lineterm="", n=1))
            problems.append(f"{name}: stdout differs\n" +
                            "\n".join(diff[:40]))
        pw, cw = parent_dir / name, change_dir / name
        if records(pw / "records.json") != records(cw / "records.json"):
            problems.append(f"{name}: bench records differ")
        ptr = {p.name: p.read_bytes() for p in (pw / "traces").iterdir()}
        ctr = {p.name: p.read_bytes() for p in (cw / "traces").iterdir()}
        if ptr.keys() != ctr.keys():
            problems.append(f"{name}: trace files {sorted(ptr)} -> "
                            f"{sorted(ctr)}")
        for t in sorted(ptr.keys() & ctr.keys()):
            if ptr[t] != ctr[t]:
                problems.append(f"{name}: trace {t} differs")
        nrec = len(records(cw / "records.json"))
        print(f"{name}: exit {ccode}, {len(b)} stdout lines, {nrec} "
              f"records, {len(ctr)} traces")
    return problems


def perfbench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=clean_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit(f"perfbench failed in {tree}: {workload} trace={trace}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def run_pairs(trees, work, pairs, only, first_seed):
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(only or ()) - set(workloads))
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(unknown)}")
    if only:
        workloads = [w for w in workloads if w in only]
    samples = {}  # (workload, trace, metric) -> {"parent": [...], ...}
    with open(work / "pairs.jsonl", "w") as log:
        for i in range(pairs):
            order = (("parent", "change") if i % 2 == 0 else
                     ("change", "parent"))
            seed = first_seed + i
            for workload, trace, side in itertools.product(workloads, (0, 1),
                                                           order):
                m = perfbench(trees[side], workload, seed,
                              spec["run_seconds"], trace)
                log.write(json.dumps({"pair": i + 1, "seed": seed,
                                      "side": side, "workload": workload,
                                      "trace": trace, "metrics": m}) + "\n")
                log.flush()
                for name, value in m.items():
                    samples.setdefault((workload, trace, name), {
                        "parent": [], "change": []})[side].append(value)
            print(f"pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)
    print(f"\n{'workload':<15} trace {'metric':<28} {'parent med':>12} "
          f"{'IQR':>10} {'change med':>12} {'IQR':>10} {'ratio':>7} "
          f"wins same")
    for (workload, trace, name), s in sorted(samples.items()):
        p, c = s["parent"], s["change"]
        ratios = [b / a for a, b in zip(p, c) if a != 0]
        if better.get(name) == "higher":
            wins = sum(b > a for a, b in zip(p, c))
        else:
            wins = sum(b < a for a, b in zip(p, c))
        same = sum(b == a for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        ratio = f"{statistics.median(ratios):7.4f}" if ratios else "    n/a"
        print(f"{workload:<15} {trace:>5} {name:<28} "
              f"{statistics.median(p):12.6g} "
              f"{pq[1] - pq[0]:10.4g} {statistics.median(c):12.6g} "
              f"{cq[1] - cq[0]:10.4g} {ratio} {wins}/{len(p)} "
              f"{same}/{len(p)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--work", help="work directory, kept for reuse "
                        "(default: a temporary one, removed at exit)")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--pairs", type=int, default=0,
                        help="alternating perfbench pairs to run")
    parser.add_argument("--skip-identity", action="store_true",
                        help="only run the perfbench pairs")
    parser.add_argument("--workload", action="append",
                        help="run the pairs on this workload only "
                        "(repeatable; default: every workload)")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair (default 1)")
    args = parser.parse_args()

    root = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=HERE, check=True,
        stdout=subprocess.PIPE, text=True).stdout.strip())
    if args.work:
        work = Path(args.work).resolve()
        work.mkdir(parents=True, exist_ok=True)
    else:
        tmp = tempfile.TemporaryDirectory(prefix="ab_compare.")
        work = Path(tmp.name)
    trees = {"parent": work / "parent", "change": root}
    rev = subprocess.run(["git", "rev-parse", "--verify", args.parent],
                         cwd=root, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    marker = work / "parent.rev"
    if not marker.exists() or marker.read_text() != rev:
        for stale in ("parent", "parent-build", "parent-run"):
            shutil.rmtree(work / stale, ignore_errors=True)
        trees["parent"].mkdir()
        archive = subprocess.Popen(["git", "archive", rev], cwd=root,
                                   stdout=subprocess.PIPE)
        sh(["tar", "-x", "-C", trees["parent"]], stdin=archive.stdout)
        if archive.wait() != 0:
            sys.exit(f"git archive {rev} failed")
        marker.write_text(rev)

    built = sources_digest(root, work)
    for side, src in trees.items():
        if not args.skip_identity:
            build(src, work / f"{side}-build", args.jobs)
        if args.pairs > 0:
            build_perfbench(src)
    problems = []
    if not args.skip_identity:
        runs = {side: run_tree(side, work / f"{side}-build",
                               work / f"{side}-run") for side in trees}
        problems = compare_trees(runs["parent"], runs["change"],
                                 work / "parent-run", work / "change-run")
        for p in problems:
            print("DIFFERS:", p)
        print("identical" if not problems else
              f"{len(problems)} difference(s)")
    if args.pairs > 0:
        run_pairs(trees, work, args.pairs, args.workload, args.first_seed)
    if sources_digest(root, work) != built:
        sys.exit(f"{root}: sources changed after they were built, so the "
                 "change side may have run a mix of two trees")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
