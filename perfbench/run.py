#!/usr/bin/env python3
"""The repo benchmark: builds the program from source, runs one workload
and prints its metrics, the last line a JSON verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run; --trace 1 is the per-layer run (and writes the Chrome
        trace to .bench_out/trace-NAME.json)
    python3 perfbench/run.py --all [--seed N]
        every workload once, every end-to-end metric by name and unit,
        and BENCHMARK.json rewritten from SPEC below
    python3 perfbench/run.py --steady K --workload NAME [--seed N] [--trace 0|1]
        K runs on seeds N .. N+K-1: each metric's median, quartiles and
        quartile spread relative to the median

Run it from the root of a checkout.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RRS = os.path.join(ROOT, "_build", "default", "bin", "rrs.exe")
RUN_TIMEOUT = 170

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {
            "name": "batch-zipf",
            "why": "the engine alone (heap, ranking, policy, session) at 1024 Zipf colors "
            "and 64 resources near capacity; no protocol, journal or socket",
        },
        {
            "name": "serve-pipelined",
            "why": "rrs serve over a socket, two pipelined durable sessions of 64 colors: "
            "parsing, transport, journal and checkpoints dominate, the engine is cheap",
        },
        {
            "name": "serve-interactive",
            "why": "closed loop on one durable 1024-color session with resource switches "
            "and state reads on a second connection: latency-bound reconfigure and reads",
        },
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "cmd_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "cmd_p99_us", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "restore_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "cost_per_lb", "unit": "ratio", "better": "lower", "bound": 0.1},
        {"name": "peak_mem_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": n, "unit": u, "better": b}
        for n, u, b in [
            ("session.step_us", "us", "lower"),
            ("session.feed_us", "us", "lower"),
            ("engine.drop_us", "us", "lower"),
            ("engine.arrival_us", "us", "lower"),
            ("engine.reconfigure_self_us", "us", "lower"),
            ("engine.execute_us", "us", "lower"),
            ("eligibility.begin_round_us", "us", "lower"),
            ("ranking.query_us", "us", "lower"),
            ("alloc_words_per_round", "words", "lower"),
            ("major_gcs_per_mjob", "count", "lower"),
            ("prof.overhead_ratio", "ratio", "lower"),
            ("ranking.index_build_ms", "ms", "lower"),
            ("session.reconfigure_us", "us", "lower"),
            ("snapshot.state_us", "us", "lower"),
            ("protocol.parse_ns", "ns", "lower"),
            ("server.apply_us", "us", "lower"),
            ("server.commit_us", "us", "lower"),
            ("checkpoint.commit_us", "us", "lower"),
            ("journal.bytes_per_op", "B", "lower"),
            ("journal.load_s", "s", "lower"),
            ("replay.ops_per_s", "1/s", "higher"),
            ("restore.heap_mb", "MB", "lower"),
            ("transport.us_per_cmd", "us", "lower"),
        ]
    ],
}

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the measuring program and the server from the sources."""
    if shutil.which("dune") is None:
        sys.exit("run.py: dune is not on PATH")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        sys.exit("run.py: no dune-project here; run from a checkout of the repo")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe", "./bin/rrs.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        log(proc.stdout)
        sys.exit("run.py: build failed")


def run_once(workload, seed, seconds, trace):
    """One run in a fresh work directory; returns (verdict, stdout)."""
    work = os.path.join(ROOT, ".bench_run", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    # The load generator and the servers it starts share CPU 0: on this
    # 2-vCPU guest every reply that wakes a process on the other CPU
    # waits on the host scheduler, which made both serve workloads slow
    # and swing by up to 35 % between runs.
    pin = ["taskset", "-c", "0"] if shutil.which("taskset") else []
    args = pin + [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--rrs", RRS,
        "--chrome", os.path.join(out_dir, "trace-%s.json" % workload),
    ]
    proc = subprocess.Popen(
        args, cwd=work, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT))
    finally:
        # the measuring program kills its servers itself; this catches
        # any it could not
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.exit("run.py: %s exited with %d" % (workload, proc.returncode))
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def write_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(SPEC, f, indent=2)
        f.write("\n")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(workload, k, seed, seconds, trace):
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    series = {m["name"]: [] for m in names}
    shares = set()
    for i in range(k):
        verdict, _ = run_once(workload, seed + i, seconds, trace)
        if not verdict["correct"]:
            sys.exit("run.py: seed %d: outputs are not correct" % (seed + i))
        shares.add((verdict["failed"], verdict["attempted"]))
        for name, m in verdict["metrics"].items():
            series[name].append(m["value"])
        log("seed %d: %s" % (seed + i, json.dumps(verdict["metrics"])))
    print("%s, %d runs, seeds %d..%d, failed/attempted %s"
          % (workload, k, seed, seed + k - 1, sorted(shares)))
    print("%-28s %14s %14s %14s %8s %6s  %s"
          % ("metric", "q1", "median", "q3", "spread", "bound", "values"))
    for m in names:
        values = series[m["name"]]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-28s %14.4f %14.4f %14.4f %8.4f %6s  %s"
              % (m["name"], q1, med, q3, spread, m.get("bound", ""),
                 " ".join("%.4g" % v for v in values)))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steady", type=int, metavar="K")
    a = p.parse_args()
    if not a.all and a.workload is None:
        p.error("give --workload or --all")
    build()
    if a.all:
        for w in WORKLOADS:
            verdict, text = run_once(w, a.seed, a.seconds, a.trace)
            print("== %s (seed %d): correct=%s attempted=%d failed=%d"
                  % (w, a.seed, verdict["correct"], verdict["attempted"], verdict["failed"]))
            print(text)
        write_spec()
        print("wrote BENCHMARK.json")
    elif a.steady:
        steady(a.workload, a.steady, a.seed, a.seconds, a.trace)
    else:
        verdict, text = run_once(a.workload, a.seed, a.seconds, a.trace)
        print(text)
        print(json.dumps(verdict))


if __name__ == "__main__":
    main()
