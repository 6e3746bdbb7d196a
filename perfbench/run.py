#!/usr/bin/env python3
"""Repository benchmark: one command, four named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
`dmis` binary and the benchmark harness (Release) under .bench_build/; later
runs reuse that build. Every run writes its scratch files under .bench_work/
and removes them before it exits.

Workloads and metrics are listed in BENCHMARK.json; perfbench/README.md says
what each measures and which end-to-end metric each per-layer metric should
move. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
holding every end-to-end metric with --trace 0 and every per-layer metric
with --trace 1. Lines before it print each metric with its sample count, and
the run's provenance.
"""

import argparse
import ctypes
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
DMIS = os.path.join(BUILD_DIR, "dmis", "tools", "dmis")

SETUP_REPEATS = 3
SERVE_WORKERS = 2
# serve-mix graphs: (role, family, n, param). Light jobs run on the n=2048
# graphs in a few ms; clique on the 16-regular n=4096 graph takes ~0.5 s.
# Light graphs come from --seed; the heavy graph, like the clique jobs' own
# seeds (perfbench/harness/serve.cc), is fixed.
SERVE_GRAPHS = (
    ("light", "gnp", 2048, 8),
    ("light", "regular", 2048, 16),
    ("heavy", "regular", 4096, 16),
)
HEAVY_GRAPH_SEED = 1
HARNESS_TIMEOUT_S = 170
PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Child pre-exec hook: SIGTERM the child if this script dies first."""
    ctypes.CDLL("libc.so.6", use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                   signal.SIGTERM)


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the sources the benchmark builds (git may be absent)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no dmis sources next to perfbench/ (src/ missing)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "dmis_cli",
                    "perfbench_harness", "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_harness(args):
    proc = subprocess.run([HARNESS] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=HARNESS_TIMEOUT_S,
                          preexec_fn=die_with_parent)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"harness exited with {proc.returncode}")
    return json.loads(lines[-1])


class Server:
    """One `dmis serve` process, up to its port announce."""

    def __init__(self, args, log_path):
        with open(log_path, "w") as log_file:
            self.proc = subprocess.Popen([DMIS, "serve"] + args,
                                         stdout=subprocess.PIPE,
                                         stderr=log_file, text=True,
                                         preexec_fn=die_with_parent)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise BenchError(f"dmis serve {' '.join(args)} did not announce")
        self.addr = json.loads(line)["listening"]

    def peak_rss_bytes(self):
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM (graceful drain), then SIGKILL; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def serve_setup(workdir, seed, index):
    """Graphs ingested and put by digest, two workers and a router spawned."""
    base = os.path.join(workdir, f"deploy{index}")
    graphs_dir = os.path.join(base, "graphs")
    os.makedirs(graphs_dir)
    digests = {"light": [], "heavy": []}
    files = []
    for k, (role, family, n, param) in enumerate(SERVE_GRAPHS):
        path = os.path.join(base, f"g{k}.dmg")
        graph_seed = HEAVY_GRAPH_SEED if role == "heavy" else seed * 10 + k
        subprocess.run([DMIS, "ingest", "--out", path, family, str(n),
                        str(param), str(graph_seed)], check=True,
                       stdout=subprocess.DEVNULL, stderr=sys.stderr)
        files.append((role, path))
    out = subprocess.run([DMIS, "graphs", "put", "--graphs-dir", graphs_dir] +
                         [p for _, p in files], check=True, text=True,
                         stdout=subprocess.PIPE, stderr=sys.stderr).stdout
    for (role, _), line in zip(files, out.splitlines()):
        digests[role].append(line.split()[0])
    servers = []
    try:
        for w in range(SERVE_WORKERS):
            servers.append(Server(
                ["--tcp", "127.0.0.1:0", "--threads", "1",
                 "--store-dir", os.path.join(base, f"store{w}"),
                 "--graphs-dir", graphs_dir],
                os.path.join(base, f"worker{w}.log")))
        router_args = ["--router", "--tcp", "127.0.0.1:0",
                       "--graphs-dir", graphs_dir]
        for s in servers:
            router_args += ["--worker-addr", s.addr]
        servers.insert(0, Server(router_args,
                                 os.path.join(base, "router.log")))
    except BaseException:
        for s in servers:
            s.stop()
        raise
    return servers, graphs_dir, digests


def run_serve_mix(args, workdir):
    setup_s = []
    servers = []
    try:
        for i in range(SETUP_REPEATS):
            for s in servers:
                s.stop()
            t = time.perf_counter()
            servers, graphs_dir, digests = serve_setup(workdir, args.seed, i)
            setup_s.append(time.perf_counter() - t)
        router, workers = servers[0], servers[1:]
        cmd = ["serve-client", "--workload", "serve-mix",
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir,
               "--router", router.addr, "--graphs-dir", graphs_dir,
               "--heavy", digests["heavy"][0]]
        for w in workers:
            cmd += ["--worker", w.addr]
        for d in digests["light"]:
            cmd += ["--light", d]
        result = run_harness(cmd)
        peaks = [s.peak_rss_bytes() for s in servers]
        log("VmHWM router, workers (MB): " +
            " ".join(f"{p / 1e6:.1f}" for p in peaks))
        peak = max(peaks)
    finally:
        codes = [s.stop() for s in servers]
    for s, code in zip(servers, codes):
        if code != 0:
            result["failed"] += 1
            result.setdefault("errors", []).append(
                f"server {s.addr} exited with {code} on drain")
    metrics = result["metrics"]
    if not args.trace:
        setup_s.sort()
        metrics["setup_s"] = {"value": setup_s[len(setup_s) // 2],
                              "unit": "s", "samples": len(setup_s)}
        metrics["peak_rss_mb"] = {"value": peak / 1e6, "unit": "MB",
                                  "samples": len(servers)}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-"
                                      f"{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "serve-mix":
            result = run_serve_mix(args, workdir)
        else:
            result = run_harness(["batch", "--workload", args.workload,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace),
                                 "--workdir", workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    extra = sorted(set(metrics) - set(names) - {"error_rate"})
    if extra:
        raise BenchError(f"metrics missing from BENCHMARK.json: {extra}")
    if args.trace:
        metrics["error_rate"] = {
            "value": result["failed"] / max(1, result["attempted"]),
            "unit": "fraction", "samples": result["attempted"]}
        for m in wanted:  # layers this workload does not exercise read 0
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"],
                                           "samples": 0})
    else:
        missing = [n for n in names if n not in metrics]
        if missing:
            raise BenchError(f"end-to-end metrics not measured: {missing}")

    provenance = dict(result.get("provenance", {}))
    provenance["source_sha256"] = source_digest()
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for err in result.get("errors", []):
        print("error: " + err)
    for m in wanted:
        v = metrics[m["name"]]
        if v["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {v['unit']} != {m['unit']}")
        print(f"{m['name']:32s} {v['value']:>16.6g} {m['unit']:9s} "
              f"n={v['samples']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so the servers are stopped and the
    # scratch directory removed; the children also get SIGTERM if this
    # process dies without unwinding (die_with_parent).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        main()
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
