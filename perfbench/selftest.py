#!/usr/bin/env python3
"""Self-test of the benchmark's own code.

Run from the root of the repository:

    python3 perfbench/selftest.py

It builds the benchmark program, then checks that
  - each workload passes every check at a tiny size, traced and untraced;
  - the printed metrics are exactly those BENCHMARK.json lists, with the
    same units, and every end-to-end value is positive;
  - each layer a workload bypasses reports 0, and the layers it uses do not;
  - a corrupted checksum makes every workload fail with a non-zero exit;
  - a TELEPORT_* environment variable stops the run before any result;
  - at the default seed the full-size suite reproduces the recorded fig13
    virtual times.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers each workload must bypass (reported as exactly 0) and use (> 0).
BYPASSED = {
    "fig13_suite": ["sim.handoffs", "net.queued_sends", "oltp.commits",
                    "rack.context_host_ns"],
    "rack_2x2_qrdma": ["sim.handoffs", "gen.calls", "oltp.commits",
                       "db.ddc_s"],
    "ycsb_a_coop": ["teleport.calls", "net.queued_sends", "gen.db_s",
                    "rack.context_host_ns"],
}
USED = {
    "fig13_suite": ["gen.calls", "db.ddc_s", "graph.teleport_s", "mr.local_s",
                    "ddc.accesses", "teleport.calls", "net.messages"],
    "rack_2x2_qrdma": ["teleport.calls", "teleport.call_host_ns",
                       "net.queued_sends", "rack.session_host_us_p50",
                       "rack.context_host_ns", "ddc.accesses"],
    "ycsb_a_coop": ["sim.handoffs", "sim.handoff_s", "oltp.commits",
                    "oltp.session_cpu_s", "gen.oltp_s", "ddc.accesses"],
}


def drive(binary, workload, *extra, env=None, seed="1", trace="0"):
    cmd = [str(binary), "--workload", workload, "--seed", seed,
           "--seconds", "0.01", "--trace", trace, *extra]
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=run.ROOT)


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(ok, what):
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def check_metrics(res, spec, workload):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, f"{workload}: metrics {sorted(got)} != {sorted(want)}")


def main():
    binary = run.build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("TELEPORT_")}
    for w in WORKLOADS:
        done = drive(binary, w, "--tiny", env=env)
        expect(done.returncode == 0, f"{w} untraced exit {done.returncode}: "
               f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
        res = result(done)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{w} untraced result {res}")
        check_metrics(res, SPEC["end_to_end"], w)
        for name, m in res["metrics"].items():
            expect(m["value"] > 0, f"{w}: end-to-end {name} is not positive")

        done = drive(binary, w, "--tiny", env=env, trace="1")
        expect(done.returncode == 0, f"{w} traced exit {done.returncode}: "
               f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
        res = result(done)
        expect(res["correct"], f"{w} traced result not correct")
        check_metrics(res, SPEC["per_layer"], w)
        values = {k: v["value"] for k, v in res["metrics"].items()}
        for name in BYPASSED[w]:
            expect(values[name] == 0, f"{w}: bypassed {name} = {values[name]}")
        for name in USED[w]:
            expect(values[name] > 0, f"{w}: used {name} = {values[name]}")

        done = drive(binary, w, "--tiny", "--corrupt-checksum", env=env,
                     trace="1")
        expect(done.returncode != 0, f"{w}: a corrupted checksum passed")
        expect(not result(done)["correct"], f"{w}: corrupted run reported correct")
        print(f"selftest: {w} ok", flush=True)

    bad_env = dict(env, TELEPORT_JOURNAL="false")
    done = drive(binary, WORKLOADS[0], "--tiny", env=bad_env)
    expect(done.returncode != 0 and "TELEPORT_JOURNAL" in done.stderr
           and not done.stdout.strip(),
           "a TELEPORT_* variable did not stop the run")
    print("selftest: environment guard ok", flush=True)

    done = drive(binary, "fig13_suite", env=env, seed="0")
    expect(done.returncode == 0 and result(done)["correct"],
           f"fig13 legs differ from the recorded virtual times: "
           f"{done.stdout[-2000:]}")
    print("selftest: fig13 default-seed virtual times ok", flush=True)
    print("selftest: all passed")


if __name__ == "__main__":
    main()
