#!/usr/bin/env python3
"""RaDaR benchmark: one command, the workloads of BENCHMARK.json, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
package in perfbench/ (the repository's src/ libraries, the two daemons
and the benchmark drivers) into .bench_build/, or into $CARGO_TARGET_DIR
when that is set. Workloads are listed in BENCHMARK.json; the simulator
workloads run in perfbench_sim, loopback-daemons boots radar-redirectd
and radar-hostd on 127.0.0.1 and drives them with perfbench_loadgen.

With --trace 0 the last line of standard output is the result with every
end-to-end metric of BENCHMARK.json; with --trace 1 it carries every
per-layer metric. Lines before it are informational JSON (provenance,
correctness checks, sample counts). The exit code is 0 only when the
workload ran and every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DAEMON_WORKLOAD = "loopback-daemons"
DAEMON_OBJECTS = 10_000
DAEMON_BOOTS = 5  # set-ups per run; setup_s is their median
# Accepted |1 - trace.layer_sum_share| of the daemon run: CPU the three
# processes do not own (interrupts, kernel threads, a descheduled vCPU).
DAEMON_LAYER_SUM_ERROR = 0.1
CHILD_TIMEOUT_S = 150
# Every daemon and the client share one CPU. Spread over one CPU each,
# the request pipeline stalls whenever the hypervisor deschedules any of
# the busy vCPUs, and throughput then swings by 2x between runs; on one
# CPU preemption slows the run in proportion, and req_per_s measures the
# CPU cost of a request across client, wire, transport and both daemons.
DAEMON_CPU = max(os.sched_getaffinity(0))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# Build and provenance


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_group(cmd, timeout=None, cpu=None, capture=False):
    """Runs cmd in its own process group and returns (returncode, stdout).
    On any exit path — error, timeout, SIGTERM — the whole group is
    killed and reaped, so no compiler or daemon outlives the run."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                         stderr=sys.stderr, text=True, start_new_session=True,
                         preexec_fn=pin)
    try:
        out, _ = p.communicate(timeout=timeout)
    except BaseException:
        # SIGTERM first: make deletes a half-linked target on SIGTERM, and
        # a later build would otherwise take the broken file as current.
        os.killpg(p.pid, signal.SIGTERM)
        try:
            p.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:  # until the whole group is gone
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        p.wait()
        raise
    return p.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no RaDaR sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    # Compilers and every other child keep their temporary files inside
    # the checkout too.
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if run_group(cmd)[0]:
            fail("cmake configure failed")
    if run_group(["cmake", "--build", out, "-j", str(nproc())])[0]:
        fail("build failed")
    return out


def cache_value(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_fingerprint():
    """SHA-256 over the sources the benchmark builds (checkouts carry no
    git metadata, so this identifies the code when no commit is known)."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    files += [os.path.join(ROOT, "tools", n) for n in ("radar_hostd.cpp", "radar_redirectd.cpp")]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(out):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value(out, "CMAKE_CXX_COMPILER") or "c++"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # not a parent repository's
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
            if r.returncode == 0:
                commit = r.stdout.strip()
        except OSError:
            pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_sha256": source_fingerprint(),
    }


# --------------------------------------------------------------------------
# Child processes


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON document in output")


def run_child(cmd, cpu=None):
    code, out = run_group(cmd, timeout=CHILD_TIMEOUT_S, cpu=cpu, capture=True)
    if code not in (0, 1):
        fail(f"{os.path.basename(cmd[0])} exited with {code}")
    return last_json_line(out)


# --------------------------------------------------------------------------
# Simulator workloads


def run_sim(out, args):
    cmd = [os.path.join(out, "perfbench_sim"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return run_child(cmd)


# --------------------------------------------------------------------------
# loopback-daemons


def tcp_sockets():
    """(local port, state) of every TCP socket, from /proc/net/tcp{,6}."""
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as f:
                next(f)
                for line in f:
                    fields = line.split()
                    yield int(fields[1].rsplit(":", 1)[1], 16), fields[3]
        except OSError:
            pass


def fresh_ports(count, taken):
    """Loopback ports no socket uses now and no earlier boot of this run
    used: fixed ports trip over the previous run's TIME-WAIT tuples."""
    rng = random.SystemRandom()
    used = {port for port, _ in tcp_sockets()} | taken
    ports = []
    while len(ports) < count:
        p = rng.randrange(10_000, 30_000)  # below the ephemeral range
        if p not in used:
            used.add(p)
            ports.append(p)
    taken.update(ports)
    return ports


def listening(port):
    return any(p == port and state == "0A" for p, state in tcp_sockets())


class Platform:
    """One boot of the daemons: a redirector, `hosts` hosts, a client
    slot in the node config. Every process it starts is reaped by
    stop(), on every exit path."""

    def __init__(self, out, work, hosts, taken_ports):
        self.out = out
        self.work = work
        self.hosts = hosts
        self.procs = []
        os.makedirs(os.path.join(work, "state"))
        os.makedirs(os.path.join(work, "spool"))
        ports = fresh_ports(hosts + 1, taken_ports)
        self.conf = os.path.join(work, "nodes.conf")
        with open(self.conf, "w") as f:
            f.write(f"0 redirector 127.0.0.1 {ports[0]}\n")
            for i in range(1, hosts + 1):
                f.write(f"{i} host 127.0.0.1 {ports[i]}\n")
            f.write(f"{hosts + 1} client 127.0.0.1 0\n")
        self.client_id = hosts + 1
        self.ports = ports  # redirector first, then the hosts

    def path(self, name):
        return os.path.join(self.work, name)

    def spawn(self, cmd, log_name):
        with open(self.path(log_name), "w") as logf:
            self.procs.append(subprocess.Popen(
                cmd, stdout=logf, stderr=subprocess.STDOUT,
                preexec_fn=lambda: os.sched_setaffinity(0, {DAEMON_CPU})))

    def wait_listening(self, ports):
        deadline = time.monotonic() + 10
        while not all(listening(p) for p in ports):
            if time.monotonic() > deadline or any(p.poll() is not None for p in self.procs):
                raise RuntimeError(f"daemons never listened on {ports}")
            time.sleep(0.0005)

    def start(self):
        t_spawn = time.monotonic()
        self.spawn([os.path.join(self.out, "radar-redirectd"), "--config", self.conf,
                    "--num-objects", str(DAEMON_OBJECTS), "--spool-dir", self.path("spool"),
                    "--capture", self.path("capture.binlog"),
                    "--summary", self.path("redirectd.json")], "redirectd.log")
        # Every dial into a port that is not listening yet is refused and
        # buys reconnect backoff (50 ms and up): hosts start once the
        # redirector listens, the client once every host does.
        self.wait_listening(self.ports[:1])
        for i in range(1, self.hosts + 1):
            self.spawn([os.path.join(self.out, "radar-hostd"), "--config", self.conf,
                        "--id", str(i), "--num-objects", str(DAEMON_OBJECTS),
                        "--state-dir", self.path("state"), "--spool-dir", self.path("spool"),
                        "--summary", self.path(f"hostd-{i}.json")], f"hostd-{i}.log")
        self.wait_listening(self.ports[1:])
        return t_spawn

    def loadgen(self, args, setup_only):
        cmd = [os.path.join(self.out, "perfbench_loadgen"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--config", self.conf,
               "--id", str(self.client_id), "--state-dir", self.path("state"),
               "--pids", ",".join(str(p.pid) for p in self.procs),
               "--window", str(nproc()), "--objects", str(DAEMON_OBJECTS),
               "--setup-only", "1" if setup_only else "0"]
        return run_child(cmd, cpu=DAEMON_CPU)

    def wait_exit(self, timeout):
        deadline = time.monotonic() + timeout
        for p in self.procs:
            try:
                p.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
        return all(p.returncode == 0 for p in self.procs)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGKILL)
        for p in self.procs:
            p.wait()


def read_json(path):
    with open(path) as f:
        return json.loads(f.read())


def run_daemons(out, args, work):
    hosts = max(1, nproc() - 2)  # + redirectd + generator = nproc processes
    log(f"perfbench: loopback-daemons: 1 radar-redirectd, {hosts} radar-hostd, "
        f"{nproc()} requests in flight (nproc {nproc()}), all on CPU {DAEMON_CPU}")
    taken = set()
    setups = []
    for boot in range(DAEMON_BOOTS):
        platform = Platform(out, os.path.join(work, f"boot{boot}"), hosts, taken)
        try:
            t_spawn = platform.start()
            last = boot == DAEMON_BOOTS - 1
            doc = platform.loadgen(args, setup_only=not last)
            setups.append(doc["ready_at_s"] - t_spawn)
            if last:
                clean_exit = platform.wait_exit(10)
        finally:
            platform.stop()
    gen = doc
    realmode = read_json(platform.path("redirectd.json"))
    hostd = [read_json(platform.path(f"hostd-{i}.json")) for i in range(1, hosts + 1)]

    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    check("daemons exited cleanly after shutdown", clean_exit, "")
    check("objects_lost == 0", realmode["objects_lost"] == 0,
          f"objects_lost={realmode['objects_lost']}")
    check("replicas_total == objects", realmode["replicas_total"] == realmode["objects"],
          f"replicas_total={realmode['replicas_total']} objects={realmode['objects']}")
    check("decode_errors == 0", gen["decode_errors"] == 0,
          f"decode_errors={gen['decode_errors']}")
    check("ok + failed == attempted", gen["ok"] + gen["failed"] == gen["attempted"],
          f"ok={gen['ok']} failed={gen['failed']} attempted={gen['attempted']}")
    check("no unexpected frames", gen["unexpected_frames"] == 0,
          f"unexpected_frames={gen['unexpected_frames']}")
    serviced = sum(h["requests_serviced"] for h in hostd)
    check("hosts serviced every acked fetch", serviced == gen["ok"],
          f"requests_serviced={serviced} ok={gen['ok']}")
    check("redirector answered every request", realmode["redirects"] == gen["attempted"],
          f"redirects={realmode['redirects']} attempted={gen['attempted']}")

    # The whole timed phase: acked fetches per wall and per daemon CPU
    # second, percentiles and mean over every request's round trip.
    acked = gen["timed_ok"]
    rt = gen["round_trip"]
    metrics = {
        "req_per_s": (acked / gen["timed_wall_s"], "1/s"),
        "req_per_cpu_s": (acked / gen["daemon_cpu_s"], "1/s"),
        "latency_p50_us": (rt["p50_us"], "us"),
        "latency_p99_us": (rt["p99_us"], "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (gen["daemon_peak_rss_mb"], "MB"),
        "mean_latency_ms": (rt["mean_us"] / 1e3, "ms"),
        "kbhops_per_req": (gen["client_wire_bytes"] / 1024 / max(1, gen["ok"]), "KB.hop"),
    }
    info = {
        "hostd": hosts,
        "in_flight": nproc(),
        "latency_samples": rt["count"],
        "latency_sample": "redirect + fetch round trip of one request",
        "setup_samples": setups,
        "radar.realmode/1": realmode,
        "radar.hostd/1": hostd,
        "timed_wall_s": gen["timed_wall_s"],
        "generator": {k: gen[k] for k in ("frames_sent", "frames_received", "connects",
                                          "disconnects", "frames_spooled", "client_cpu_s",
                                          "daemon_cpu_s_by_pid", "daemon_peak_rss_mb_by_pid")},
    }
    if args.trace:
        layers, trace_info = daemon_layers(out, args, platform, gen, realmode, hostd, check)
        metrics.update(layers)
        info["trace"] = trace_info
    return {
        "correct": all(c["ok"] for c in checks),
        "attempted": gen["attempted"],
        "failed": gen["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": checks,
        "info": info,
    }


def daemon_layers(out, args, platform, gen, realmode, hostd, check):
    """Per-layer metrics of the daemon run: client spans, per-process CPU
    and frame counts, and the capture replayed through codec, binlog writer
    and a bench-owned Redirector. Adds the trace's own checks."""
    replay = run_child([os.path.join(out, "perfbench_loadgen"), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", "1", "--config", platform.conf,
                        "--objects", str(DAEMON_OBJECTS),
                        "--replay-capture", platform.path("capture.binlog"),
                        "--copy-to", platform.path("replay.binlog")])
    acked = gen["timed_ok"]
    cpu = gen["daemon_cpu_s_by_pid"]
    frames = (gen["frames_sent"] + realmode["frames_sent"]
              + sum(h["frames_sent"] for h in hostd))
    frames_per_req = frames / max(1, gen["ok"])
    wall = gen["timed_wall_s"]
    # Every daemon and the client run on one CPU that the closed loop keeps
    # busy, so the three processes' CPU seconds must add up to the timed
    # phase's wall seconds: the layer sum reconciles with the real run.
    layer_sum_share = (gen["client_cpu_s"] + gen["daemon_cpu_s"]) / wall
    check("capture replay is clean", replay["capture_clean"] and replay["decode_errors"] == 0,
          f"capture_clean={replay['capture_clean']} decode_errors={replay['decode_errors']}")
    check("replayed requests == requests the client attempted",
          replay["requests_replayed"] == gen["attempted"],
          f"requests_replayed={replay['requests_replayed']} attempted={gen['attempted']}")
    check("trace.layer_sum_share within the stated reconciliation error",
          abs(layer_sum_share - 1.0) <= DAEMON_LAYER_SUM_ERROR,
          f"layer_sum_share={layer_sum_share:.4f} error={DAEMON_LAYER_SUM_ERROR}")
    # The user-space protocol work a request needs — every frame encoded
    # and decoded once, the redirector's capture record and its choice —
    # replayed alone, is a part of the CPU the processes spent on it.
    replayed_ns = (frames_per_req * (replay["encode_ns"] + replay["decode_ns"])
                   + replay["records"] / max(1, replay["requests_replayed"]) * replay["append_ns"]
                   + replay["choose_ns"])
    cpu_ns = (gen["client_cpu_s"] + gen["daemon_cpu_s"]) * 1e9 / acked
    check("replayed protocol layers fit inside the CPU per request", 0 < replayed_ns < cpu_ns,
          f"replayed_ns={replayed_ns:.1f} cpu_ns_per_req={cpu_ns:.1f}")
    read_ns = gen["empty_span_ns"] / 2  # an empty span is two clock reads
    layers = {
        "transport.redirect_rtt_us": (gen["redirect"]["mean_us"], "us"),
        "transport.fetch_rtt_us": (gen["fetch"]["mean_us"], "us"),
        "transport.redirectd_cpu_us": (cpu[0] * 1e6 / acked, "us"),
        "transport.hostd_cpu_us": (sum(cpu[1:]) * 1e6 / acked, "us"),
        "transport.frames_per_req": (frames_per_req, "count"),
        "transport.reconnects": (gen["disconnects"], "count"),
        "transport.decode_errors": (gen["decode_errors"] + replay["decode_errors"], "count"),
        "wire.encode_ns": (replay["encode_ns"], "ns"),
        "wire.decode_ns": (replay["decode_ns"], "ns"),
        "binlog.append_ns": (replay["append_ns"], "ns"),
        "binlog.bytes_per_req": (replay["capture_bytes"] / max(1, gen["ok"]), "B"),
        "core.redirector.choose_ns": (replay["choose_ns"], "ns"),
        "trace.span_ns": (gen["empty_span_ns"], "ns"),
        "trace.layer_sum_share": (layer_sum_share, "ratio"),
        # An estimate: the client's clock reads, counted, times the
        # measured cost of one read, over the timed wall seconds.
        "trace.overhead_share": (gen["clock_reads"] * read_ns * 1e-9 / wall, "ratio"),
    }
    info = {
        "layer_sum": "(client CPU + daemon CPU) / timed wall, all on one CPU",
        "layer_sum_error": DAEMON_LAYER_SUM_ERROR,
        "client_cpu_us_per_req": gen["client_cpu_s"] * 1e6 / acked,
        "replayed_protocol_ns_per_req": replayed_ns,
        "replayed_protocol_share_of_cpu": replayed_ns / cpu_ns,
        "overhead_share": "estimate: clock reads counted x measured cost per read / wall",
        "clock_reads": gen["clock_reads"],
        "replay": replay,
    }
    return layers, info


# --------------------------------------------------------------------------


def main():
    # A SIGTERM (say, a caller's timeout) unwinds like an error, so the daemon
    # platform's finally-blocks still kill and reap every child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    out = build()
    prov = provenance(out)
    print(json.dumps({"provenance": prov}), flush=True)

    if args.workload == DAEMON_WORKLOAD:
        work = tempfile.mkdtemp(prefix="daemons-", dir=out)
        try:
            doc = run_daemons(out, args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        doc = run_sim(out, args)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "checks": doc["checks"], "info": doc["info"]}), flush=True)
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None:
            # A layer the workload does not exercise reports zero work.
            if args.trace:
                got = {"value": 0.0, "unit": m["unit"]}
            else:
                fail(f"workload produced no {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(doc["correct"])
    for c in doc["checks"]:
        if not c["ok"]:
            log(f"perfbench: CHECK FAILED: {c['name']}: {c['detail']}")
    print(json.dumps({"correct": correct, "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]), "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
