#!/usr/bin/env python3
"""The llhd simulation benchmark: time to result, steady-state simulation
and fleet throughput, with a traced run that times every layer.

    python3 perfbench/run.py --workload cold_suite --seed 1 --seconds 55 --trace 0

Run from the root of the source tree. The first run builds the library,
llhd-sim and perfbench-runner (Release) under $CARGO_TARGET_DIR
(default .bench_build). Every run prints its metrics, one per line, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a traced run. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Per workload: rounds per window, and which passes of a round run the
# two expensive kinds, a cold Blaze compile (every cold_every-th pass) and
# a fleet (every fleet_every-th). A round is one in-process runner (one
# setup_s sample) and as many passes over the designs as fit its share of
# the window; a pass runs every kind of sample for one design before it
# moves to the next (Bench.round).
WORKLOADS = {
    "cold_suite": {"rounds": 6, "cold_every": 2, "fleet_every": 2},
    "long_sim": {"rounds": 3, "cold_every": 2, "fleet_every": 4},
}

END_TO_END = {
    "ttr_interp_s": "s",
    "ttr_blaze_cold_s": "s",
    "ttr_blaze_warm_s": "s",
    "sim_interp_ns_per_cycle": "ns",
    "sim_blaze_ns_per_cycle": "ns",
    "fleet_cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STD_PASSES = ("cf", "is", "cse", "dce")

PROCESS_TIMEOUT_S = 150

STATS_RE = re.compile(
    r"^(interp|blaze): \d+ signals, \d+ instances, end time \S+, (\d+) slots, "
    r"(\d+) process runs, (\d+) entity evals, \d+ changes, digest ([0-9a-f]{16})"
    r"(, finished)?", re.M)
JIT_RE = re.compile(r"^blaze jit: (\d+) native unit", re.M)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


#===------------------------------------------------------------------------===#
# Processes
#===------------------------------------------------------------------------===#

class Proc:
    """One finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, rc, out, err, start_ns, end_ns, maxrss_kb):
        self.rc, self.out, self.err = rc, out, err
        self.start_ns, self.end_ns = start_ns, end_ns
        self.wall_s = (end_ns - start_ns) * 1e-9
        self.maxrss_mb = maxrss_kb / 1024.0


def spawn(cmd, env, scratch):
    """Runs cmd to completion, output into files under scratch (so the
    child can be reaped with wait4 for its own rusage). Kills it after
    PROCESS_TIMEOUT_S; always waits for it."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        start = time.monotonic_ns()
        p = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            os.waitpid(p.pid, 0)
            raise
        finally:
            killer.cancel()
        end = time.monotonic_ns()
        p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"), start, end, ru.ru_maxrss)


class Runner:
    """A `perfbench-runner inproc` process: it sets the designs up when it
    starts, then answers one request per line (see runner.cpp). Killed
    after PROCESS_TIMEOUT_S; closing it always waits for it."""

    def __init__(self, cmd, env, scratch):
        self.err_path = scratch / "runner-stderr"
        self.err = open(self.err_path, "wb")
        self.p = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=self.err, env=env, cwd=ROOT, text=True)
        self.killer = threading.Timer(PROCESS_TIMEOUT_S, self.p.kill)
        self.killer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.killer.cancel()
        if self.p.poll() is None:
            self.p.kill()
        self.p.wait()
        for f in (self.p.stdin, self.p.stdout, self.err):
            try:
                f.close()
            except OSError:
                pass  # Unflushed input to a runner that has died.

    def reply(self):
        line = self.p.stdout.readline()
        if not line:
            self.p.wait()
            raise BenchError("in-process runner exit %s: %s" % (
                self.p.returncode, self.err_path.read_text(errors="replace")[-300:]))
        return json.loads(line)

    def ask(self, request):
        try:
            self.p.stdin.write(request + "\n")
            self.p.stdin.flush()
        except OSError:
            pass  # It died; reply() reports why.
        return self.reply()


def build():
    """Configures and builds the package; returns (runner, llhd-sim)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no llhd source tree at %s (CMakeLists.txt, src/)" % ROOT)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "perfbench-cmake"
    bdir.mkdir(parents=True, exist_ok=True)
    logf = bdir / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(logf, "wb") as lf:
        if not (bdir / "CMakeCache.txt").exists():
            cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            if subprocess.call(cfg, stdout=lf, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError("cmake configure failed, see %s" % logf)
        rc = subprocess.call(["cmake", "--build", str(bdir), "-j", jobs,
                              "--target", "perfbench-runner", "llhd-sim"],
                             stdout=lf, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError("build failed, see %s" % logf)
    return target, bdir / "perfbench-runner", bdir / "llhd" / "llhd-sim"


#===------------------------------------------------------------------------===#
# Statistics
#===------------------------------------------------------------------------===#

def summary(values, higher_better=False):
    """Median, the worst-side percentile with at least ten samples beyond
    it (None below eleven samples), and the sample count."""
    vals = sorted(values, reverse=higher_better)
    n = len(vals)
    s = {"median": statistics.median(vals), "n": n, "tail_pct": None,
         "tail": None}
    if n >= 11:
        worst = math.floor(100.0 * (n - 10) / n)
        s["tail_pct"] = 100 - worst if higher_better else worst
        s["tail"] = vals[n - 11]
    return s


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


class Samples:
    """Raw samples by design. The lists of one design hold one entry per
    pass, in pass order, so a pass is the same index in every list."""

    def __init__(self):
        self.ttr = {"interp": {}, "cold": {}, "warm": {}}  # kind -> key -> [s]
        self.sim = {"interp": {}, "blaze": {}}  # engine -> key -> [ns/cycle]
        self.fleet = {}  # key -> [(cycles, run s)]
        self.setup, self.rss = [], []

    def merge(self, o):
        for mine, theirs in ((self.ttr, o.ttr), (self.sim, o.sim)):
            for k, by_key in theirs.items():
                for key, vs in by_key.items():
                    mine[k].setdefault(key, []).extend(vs)
        for key, vs in o.fleet.items():
            self.fleet.setdefault(key, []).extend(vs)
        self.setup += o.setup
        self.rss += o.rss

    def metrics(self):
        """The reported values, combined over designs from each design's
        median sample in the window; setup and memory are medians over
        runners (README.md, "Noise")."""
        m = {}
        for kind, name in (("interp", "ttr_interp_s"), ("cold", "ttr_blaze_cold_s"),
                           ("warm", "ttr_blaze_warm_s")):
            m[name] = sum(statistics.median(v) for v in self.ttr[kind].values())
        for e in ("interp", "blaze"):
            m["sim_%s_ns_per_cycle" % e] = geomean([statistics.median(v)
                                                    for v in self.sim[e].values()])
        m["fleet_cycles_per_s"] = (
            sum(v[0][0] for v in self.fleet.values()) /
            sum(statistics.median(r for _, r in v) for v in self.fleet.values()))
        m["setup_s"] = statistics.median(self.setup)
        m["peak_rss_mb"] = statistics.median(self.rss)
        return m

    def per_pass(self):
        """Each metric's value per pass (per runner for setup and memory):
        the samples behind the median and tail in the report."""
        def passes(by_key):
            return range(min(len(v) for v in by_key.values()))
        m = {}
        for kind, name in (("interp", "ttr_interp_s"), ("cold", "ttr_blaze_cold_s"),
                           ("warm", "ttr_blaze_warm_s")):
            t = self.ttr[kind]
            m[name] = [sum(v[p] for v in t.values()) for p in passes(t)]
        for e in ("interp", "blaze"):
            t = self.sim[e]
            m["sim_%s_ns_per_cycle" % e] = [geomean([v[p] for v in t.values()])
                                            for p in passes(t)]
        f = self.fleet
        m["fleet_cycles_per_s"] = [sum(v[p][0] for v in f.values()) /
                                   sum(v[p][1] for v in f.values()) for p in passes(f)]
        m["setup_s"], m["peak_rss_mb"] = self.setup, self.rss
        return m


def self_times(spans):
    """Self time (ns) per span: its duration minus its children's."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


#===------------------------------------------------------------------------===#
# The benchmark
#===------------------------------------------------------------------------===#

class Bench:
    def __init__(self, args, target, runner, llhd_sim):
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.runner, self.llhd_sim = str(runner), str(llhd_sim)
        self.rng = random.Random(args.seed)
        self.jobs = min(os.cpu_count() or 1, 4)
        self.work = target / "perfbench-work" / ("%s-%d" % (args.workload, os.getpid()))
        self.results = target / "perfbench-results"
        # The warm JIT cache persists across runs: it is content-addressed,
        # and each run tops it up with one untimed Blaze run per design.
        self.warm = target / "perfbench-jit-warm"
        self.attempted = self.failed = 0
        self.errors = []
        self.refs = {}  # (design, engine) -> outcome of its first run
        self.samples = Samples()
        self.llhd_sim_rss = []
        self.cold_dirs = 0
        self.pass_s = {}  # (cold, fleet) -> duration of the last such pass

    # -- checks ---------------------------------------------------------------

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 30:
                self.errors.append(what)

    def check_outcome(self, key, engine, o):
        """A run's digest and counts must equal the first run of the same
        design and engine; Blaze's digest must equal Interp's."""
        ref = self.refs.setdefault((key, engine), o)
        ok = all(o[k] == ref[k] for k in ("digest", "steps", "process_runs",
                                           "entity_evals"))
        interp = self.refs.get((key, "interp"))
        if engine == "blaze" and interp:
            ok = ok and o["digest"] == interp["digest"]
        return ok

    # -- setup ------------------------------------------------------------------

    def env(self, cache=None):
        e = dict(os.environ)
        e.pop("LLHD_JIT_CACHE", None)
        e.pop("LLHD_JIT_KEEP", None)
        e.pop("LLHD_JIT_TMPDIR", None)
        e["TMPDIR"] = str(self.work / "tmp")
        if cache is not None:
            e["LLHD_JIT_CACHE"] = str(cache)
        return e

    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        for d in ("tmp", "designs", "io", "proc", "cold"):
            (self.work / d).mkdir(parents=True)
        self.warm.mkdir(parents=True, exist_ok=True)
        p = self.run([self.runner, "context"], self.env())
        self.context = json.loads(p.out)
        self.context.update(nproc=os.cpu_count(), jobs=self.jobs,
                            fleet_n=8 * self.jobs, seed=self.args.seed,
                            workload=self.args.workload)
        p = self.run([self.runner, "designs", "--workload=" + self.args.workload,
                      "--seed=%d" % self.args.seed,
                      "--out=" + str(self.work / "designs")], self.env())
        if p.rc != 0:
            raise BenchError("design generation failed: " + p.err)
        self.designs = []
        for line in p.out.splitlines():
            key, top, path, cycles = line.split()
            self.designs.append({"key": key, "top": top, "path": path,
                                 "cycles": int(cycles)})
        self.context["cycles"] = {d["key"]: d["cycles"] for d in self.designs}
        # Fill the warm JIT cache once, untimed.
        for d in self.designs:
            p = self.run(self.sim_cmd(d, "blaze"), self.env(self.warm))
            if p.rc != 0:
                raise BenchError("warm-up run of %s failed: %s" % (d["key"], p.err))

    def run(self, cmd, env):
        return spawn(cmd, env, self.work / "proc")

    def sim_cmd(self, d, engine):
        return [self.llhd_sim, d["path"], "--top=" + d["top"],
                "--engine=" + engine, "--stats"]

    def order(self):
        ds = list(self.designs)
        self.rng.shuffle(ds)
        return ds

    def fresh_cold_dir(self):
        self.cold_dirs += 1
        d = self.work / "cold" / str(self.cold_dirs)
        d.mkdir()
        return d

    @staticmethod
    def jit_objects(d):
        return sum(1 for f in os.listdir(d) if f.startswith("llhd-jit-"))

    # -- time to result -----------------------------------------------------

    def ttr_one(self, d, kind, traced, samples, spans):
        """One time-to-result sample: design d as a fresh process on Interp,
        on Blaze with a new empty JIT cache directory (cold), or on Blaze
        with the filled one (warm). Untraced the process is llhd-sim;
        traced it is the runner's one-shot with spans around each layer
        call."""
        engine = "interp" if kind == "interp" else "blaze"
        cache = None
        if kind == "cold":
            cache = self.fresh_cold_dir()
        elif kind == "warm":
            cache = self.warm
        before = self.jit_objects(cache) if cache else 0
        trace_file = self.work / "proc" / "spans.json"
        if traced:
            cmd = [self.runner, "oneshot", "--engine=" + engine,
                   "--sv=" + d["path"], "--top=" + d["top"],
                   "--key=" + d["key"], "--trace=" + str(trace_file)]
        else:
            cmd = self.sim_cmd(d, engine)
        p = self.run(cmd, self.env(cache))
        self.llhd_sim_rss.append(p.maxrss_mb)
        samples.ttr[kind].setdefault(d["key"], []).append(p.wall_s)
        if traced:
            ok = self.parse_oneshot(p, d["key"], engine)
            native = 0
            if ok:
                proc = self.oneshot_spans(p, trace_file)
                spans[kind].append(proc)
                native = sum(c["value"] for c in proc["counts"]
                             if c["name"] == "jit.native_units")
        else:
            ok, native = self.parse_llhd_sim(p, d["key"], engine)
        if cache is not None:
            after = self.jit_objects(cache)
            if kind == "cold":
                # Cold means cold: an empty directory before, and
                # exactly the one freshly compiled object after.
                ok = ok and before == 0 and after == (1 if native else 0)
                shutil.rmtree(cache, ignore_errors=True)
            else:
                ok = ok and after == before  # a hit publishes nothing
        self.check(ok, "%s %s: exit %d, bad outcome or JIT cache miss/hit "
                   "mismatch: %s" % (d["key"], kind, p.rc, p.err.strip()[-300:]))

    def parse_llhd_sim(self, p, key, engine):
        m = STATS_RE.search(p.err)
        jm = JIT_RE.search(p.err)
        if p.rc != 0 or not m or not m.group(6):
            return False, 0
        o = {"digest": m.group(5), "steps": int(m.group(2)),
             "process_runs": int(m.group(3)), "entity_evals": int(m.group(4))}
        native = int(jm.group(1)) if jm else 0
        return self.check_outcome(key, engine, o), native

    def parse_oneshot(self, p, key, engine):
        if p.rc != 0:
            return False
        r = json.loads(p.out)
        return r["finished"] and self.check_outcome(key, engine, r["outcome"])

    @staticmethod
    def oneshot_spans(p, trace_file):
        """The process as a root span around the runner's own spans."""
        t = json.loads(trace_file.read_text())
        spans = [{"name": "process", "start": p.start_ns, "end": p.end_ns,
                  "parent": -1}]
        for s in t["spans"]:
            spans.append({"name": s["name"], "start": s["start"], "end": s["end"],
                          "parent": s["parent"] + 1})
        return {"spans": spans, "counts": t["counts"]}

    # -- rounds -----------------------------------------------------------------

    def start_runner(self, traced):
        lst = self.work / "designs.list"
        lst.write_text("".join("%s %s %s %d\n" % (d["key"], d["top"], d["path"],
                                                   d["cycles"])
                               for d in self.designs))
        cmd = [self.runner, "inproc", "--list=" + str(lst),
               "--jobs=%d" % self.jobs, "--seed=%d" % self.args.seed]
        if traced:
            cmd += ["--trace=" + str(self.work / "proc" / "inproc-spans.json"),
                    "--out=" + str(self.work / "io")]
        return Runner(cmd, self.env(), self.work / "proc")

    def pass_fits(self, p, deadline):
        """True while pass p, as long as the last pass of its kind (or the
        longest so far), would end no more than half a pass past the
        deadline."""
        est = self.pass_s.get(self.pass_kind(p), max(self.pass_s.values()))
        return time.monotonic() + est / 2 <= deadline

    def pass_kind(self, p):
        return (p % self.wl["cold_every"] == 0, p % self.wl["fleet_every"] == 0)

    def round(self, deadline, traced=False):
        """One in-process runner, which sets every design up (one setup_s
        sample), then passes over the designs until the deadline (at least
        one; traced rounds run exactly one). A pass takes the designs in
        a seeded order and runs every kind of sample for one design before
        it moves on: its time-to-result processes (Interp, warm Blaze and,
        on cold passes, cold Blaze), then one simulation pass in the
        runner. The host's speed swings within seconds (README.md,
        "Noise"), so this spreads these metrics' samples over the same
        moments. Fleet passes end with one fleet per design, back to
        back: a fleet wakes all the CPUs, and right after single-threaded
        work that wake-up would dominate a short fleet."""
        samples = Samples()
        spans = {"interp": [], "cold": [], "warm": []}
        with self.start_runner(traced) as runner:
            samples.setup.append(runner.reply()["setup_s"])
            p = 0
            while p == 0 or (not traced and self.pass_fits(p, deadline)):
                cold, fleet = self.pass_kind(p)
                t = time.monotonic()
                order = self.order()
                for d in order:
                    key = d["key"]
                    for kind in ("interp", "cold", "warm") if cold else ("interp", "warm"):
                        self.ttr_one(d, kind, traced, samples, spans)
                    r = runner.ask("sim " + key)
                    for e in ("interp", "blaze") if "skipped" not in r else ():
                        samples.sim[e].setdefault(key, []).append(r[e] * 1e9 / d["cycles"])
                for d in order if fleet else ():
                    f = runner.ask("fleet " + d["key"])
                    if "skipped" not in f:
                        samples.fleet.setdefault(d["key"], []).append((f["cycles"], f["run_s"]))
                self.pass_s[(cold, fleet)] = time.monotonic() - t
                p += 1
            final = runner.ask("end")
            if runner.p.wait() != 0:
                raise BenchError("in-process runner exit %d: %s" % (
                    runner.p.returncode,
                    runner.err_path.read_text(errors="replace")[-300:]))
        samples.rss.append(final["peak_rss_mb"])
        c = final["checks"]
        self.attempted += c["attempted"]
        self.failed += c["failed"]
        self.errors += c["errors"][:max(0, 30 - len(self.errors))]
        for key, o in final["outcomes"].items():
            for engine in ("interp", "blaze"):
                self.check(self.check_outcome(key, engine, o[engine]),
                           "%s %s: in-process outcome differs from llhd-sim's" %
                           (key, engine))
        tr = None
        if traced:
            tr = json.loads((self.work / "proc" / "inproc-spans.json").read_text())
        return samples, spans, tr

    def time_left(self, t0, rounds):
        """True while one more round, as long as the average one so far,
        would end no more than half a round past --seconds."""
        spent = time.monotonic() - t0
        return spent + spent / max(rounds, 1) / 2 <= self.args.seconds

    def measure(self):
        """--trace 0: the window split into equal rounds, then every
        end-to-end metric over all of them."""
        t0 = time.monotonic()
        rounds = self.wl["rounds"]
        for r in range(rounds):
            samples, _, _ = self.round(t0 + self.args.seconds * (r + 1) / rounds)
            self.samples.merge(samples)
        values, per_pass = self.samples.metrics(), self.samples.per_pass()
        metrics, detail = {}, {}
        for m, unit in END_TO_END.items():
            metrics[m] = {"value": values[m], "unit": unit}
            detail[m] = dict(summary(per_pass[m], m == "fleet_cycles_per_s"), unit=unit,
                             per_pass=per_pass[m])
        detail["raw"] = {"ttr": self.samples.ttr, "sim": self.samples.sim,
                         "fleet": self.samples.fleet}
        detail["llhd_sim_peak_rss_mb"] = max(self.llhd_sim_rss)
        return metrics, detail, rounds

    def measure_traced(self):
        """--trace 1: untraced and traced rounds of one pass each
        alternate until --seconds are used up. Per-layer metrics are
        medians over the traced rounds; the tracing overhead compares all
        traced rounds with all untraced ones."""
        t0 = time.monotonic()
        plain, traced, per_round = Samples(), Samples(), []
        while not per_round or self.time_left(t0, len(per_round)):
            plain.merge(self.round(0)[0])
            samples, spans, tr = self.round(0, traced=True)
            if not all(spans.values()):
                raise BenchError("traced round failed: %s" % self.errors[-3:])
            traced.merge(samples)
            per_round.append(self.layers(spans, tr))
        metrics = {n: {"value": statistics.median(p[n]["value"] for p in per_round),
                       "unit": u["unit"]} for n, u in per_round[0].items()}
        ref, t = plain.metrics(), traced.metrics()
        for m in ("ttr_interp_s", "ttr_blaze_cold_s", "ttr_blaze_warm_s", "setup_s",
                  "sim_interp_ns_per_cycle", "sim_blaze_ns_per_cycle",
                  "fleet_cycles_per_s"):
            metrics["trace.overhead." + m] = {"value": t[m] / ref[m], "unit": "ratio"}
        return metrics, {"rounds": per_round, "untraced": ref, "traced": t}, len(per_round)

    def layers(self, spans, tr):
        """Per-layer metrics of one traced round, summed over designs."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def span_totals(procs):
            tot = {}
            for proc in procs:
                for s, st in zip(proc["spans"], self_times(proc["spans"])):
                    tot[s["name"]] = tot.get(s["name"], 0) + st * 1e-9
            return tot

        def counts(procs, name):
            return sum(c["value"] for proc in procs for c in proc["counts"]
                       if c["name"] == name)

        cold, warm = spans["cold"], spans["warm"]
        ct = span_totals(cold)
        for layer in ("moore.compile", "asm.clone", "passes.std",
                      "design.elaborate", "lir.lower", "jit.emit",
                      "jit.host_compile", "jit.link"):
            put(layer + "_s", ct.get(layer, 0.0), "s")
        put("jit.cache_load_s", span_totals(warm).get("jit.cache_load", 0.0), "s")
        for c in ("ir.insts_before", "ir.insts_after", "lir.ops",
                  "jit.native_units", "jit.deopt_units"):
            put(c, counts(cold, c), "count")
        put("jit.source_bytes", counts(cold, "jit.source_bytes"), "bytes")
        for p in STD_PASSES:
            put("passes.%s.runs" % p, counts(cold, "passes.%s.runs" % p), "count")
            put("passes.%s.changed" % p, counts(cold, "passes.%s.changed" % p), "count")
        cold_total = sum(p["spans"][0]["end"] - p["spans"][0]["start"]
                         for p in cold) * 1e-9
        put("jit.host_compile_share", ct.get("jit.host_compile", 0.0) / cold_total,
            "ratio")
        # The share of each end-to-end metric no span covers.
        for kind, metric in (("interp", "ttr_interp_s"), ("cold", "ttr_blaze_cold_s"),
                             ("warm", "ttr_blaze_warm_s")):
            tot = span_totals(spans[kind])
            put("uncovered." + metric, tot["process"] / sum(tot.values()), "ratio")
        itot = {}
        isp = tr["spans"]
        for s, st in zip(isp, self_times(isp)):
            itot.setdefault(s["name"], []).append((s, st * 1e-9))
        setup = itot["setup"]
        setup_dur = sum((s["end"] - s["start"]) * 1e-9 for s, _ in setup)
        put("uncovered.setup_s", sum(st for _, st in setup) / setup_dur, "ratio")

        def icount(name, run_prefix=""):
            return sum(c["value"] for c in tr["counts"]
                       if c["name"] == name and c["run"].startswith(run_prefix))

        def itime(name, run_prefix=""):
            return sum(st for s, st in itot.get(name, [])
                       if s["run"].startswith(run_prefix))

        # A traced round runs one simulation pass per design.
        put("engine.bind_s", itime("engine.bind", "setup"), "s")
        put("engine.run_s", itime("engine.run", "sim/"), "s")
        acts = {}
        for e in ("interp", "blaze"):
            run_s = icount("engine.%s.run_s" % e)
            acts[e] = (icount("sim.%s.process_runs" % e) +
                       icount("sim.%s.entity_evals" % e))
            put("engine.%s.ns_per_activation" % e, run_s * 1e9 / acts[e], "ns")
        put("engine.ns_per_activation",
            itime("engine.run", "sim/") * 1e9 / (acts["interp"] + acts["blaze"]), "ns")
        for c in ("steps", "process_runs", "entity_evals"):
            put("sim." + c, icount("sim.blaze." + c), "count")
        put("jit.native_speedup", icount("jit.off_run_s") / icount("jit.on_run_s"),
            "ratio")
        put("wave.overhead_ratio", icount("wave.run_s") / icount("wave.base_run_s"),
            "ratio")
        put("wave.bytes", icount("wave.bytes"), "bytes")
        put("checkpoint.save_s", itime("checkpoint.save"), "s")
        put("checkpoint.restore_s", itime("checkpoint.restore"), "s")
        put("checkpoint.bytes", icount("checkpoint.bytes"), "bytes")
        put("batch.build_s", icount("batch.build_s", "fleet/0/"), "s")
        put("batch.scaling", icount("batch.jobs1_run_s") / icount("batch.jobsJ_run_s"),
            "ratio")
        put("batch.instance_slowdown",
            icount("batch.concurrent_run_s") / icount("batch.alone_run_s"), "ratio")
        self.breakdowns = {kind: span_totals(spans[kind]) for kind in spans}
        self.breakdowns["setup"] = {n: itime(n, "setup") for n in itot}
        return out


#===------------------------------------------------------------------------===#
# Main
#===------------------------------------------------------------------------===#

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        target, runner, llhd_sim = build()
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    b = Bench(args, target, runner, llhd_sim)
    try:
        b.prepare()
        if args.trace:
            metrics, detail, rounds = b.measure_traced()
        else:
            metrics, detail, rounds = b.measure()
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(b.work, ignore_errors=True)

    ctx = b.context
    log("context: workload=%s seed=%d nproc=%s jobs=%d fleet_n=%d host_compiler=%s "
        "ndebug=%s rounds=%d" % (ctx["workload"], ctx["seed"], ctx["nproc"],
                                 ctx["jobs"], ctx["fleet_n"], ctx["host_compiler"],
                                 ctx["ndebug"], rounds))
    log("cycles per design: " + " ".join("%s=%d" % kv for kv in ctx["cycles"].items()))
    for name, m in metrics.items():
        d = detail.get(name)
        extra = ""
        if isinstance(d, dict) and "n" in d:
            extra = "  (per pass: median %.6g of n=%d, %s)" % (
                d["median"], d["n"],
                "p%d %.6g" % (d["tail_pct"], d["tail"]) if d["tail"]
                else "no tail below 11 samples")
        log("%-40s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    if args.trace:
        for kind, tot in sorted(b.breakdowns.items()):
            whole = sum(tot.values())
            log("self time, %s: " % kind + ", ".join(
                "%s %.1f%%" % (n, 100 * v / whole)
                for n, v in sorted(tot.items(), key=lambda kv: -kv[1]) if v > 0))
    log("fail_ratio %d/%d = %.4g" % (b.failed, b.attempted,
                                     b.failed / max(b.attempted, 1)))
    for e in b.errors[:10]:
        log("failure: " + e)
    b.results.mkdir(parents=True, exist_ok=True)
    out = b.results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps({"context": ctx, "metrics": metrics, "detail": detail,
                               "failed": b.failed, "attempted": b.attempted,
                               "errors": b.errors}, indent=1))
    log("details: " + str(out.relative_to(ROOT) if out.is_relative_to(ROOT) else out))
    print(json.dumps({"correct": b.failed == 0, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
