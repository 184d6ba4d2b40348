#!/usr/bin/env python3
"""heliobench benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/ and
nothing is installed. Each workload is a closed loop with one client in this
process (cli-demo starts one CLI subprocess at a time):

  cli-demo       one op = one seeded rotation of `python -m heliobench`
                 validate, bench, map and hist on data/demo_corpus.csv
  all-refs-demo  one op = run_benchmark on all three indicators, top_k and
                 a rendered map per indicator, for one reference of the demo
                 corpus; references follow seeded permutations of all
                 categories
  ladder-1000    one op = load_corpus + the all-refs-demo op on a generated
                 1000-category corpus (make_synthetic_corpus, seed = --seed)

Every op's outputs are checked (bench/checks.py); an op with a failed check
counts as failed. With --trace 0 the end-to-end metrics of BENCHMARK.json
are measured for --seconds. With --trace 1 a fixed block of ops runs
alternately untraced and traced (bench/tracing.py) for --seconds, and the
per-layer metrics of BENCHMARK.json are reported per op. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print the same and more for people.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMO = Path("data") / "demo_corpus.csv"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

K = 30               # top-k size of every ranking and map, the CLI default
BINS = 20            # the CLI's default bin count, checked in hist output
LADDER_CATEGORIES = 1000
LADDER_REFERENCES = 4  # ladder ops cycle over this many seeded references
SETUP_REPEATS = 5    # setup_s is the median of this many fresh set-ups
CHILD_TIMEOUT = 120  # seconds before a child process is killed
MAX_REPORTED = 5     # failure messages printed to stderr

# Host speed correction. On a shared 2-vCPU virtual machine (Xeon, Python
# 3.11), the speed of fixed work drifted by up to 35% within minutes, and CPU
# time tracked wall time, so the drift came from the host, not from scheduling.
# Each run therefore times a fixed calibration of the benchmark's own code
# where its ops run: a kernel (CSV parsing and grouping, like the program's
# parse) in this process before every in-process op, or a child process that
# runs the kernel before every CLI command and every set-up probe. Each op's
# or probe's time is scaled by the reference time over the mean of the
# calibration samples taken for it, so it reads as seconds on a host on which
# the calibration takes the reference time; the speed changed within seconds,
# and a run-wide median of the samples did not follow it. Raw times are
# printed too. The ladder's ops work on a 100k-row corpus, whose
# time also moved with memory contention that a 3000-line kernel did not see,
# so it calibrates with the same kind of kernel on its own corpus file.
CAL_REF_S = 0.005       # the kernel, in this process
CAL_CHILD_REF_S = 0.1   # a child process running the kernel 3 times
CAL_LADDER_REF_S = 0.2  # the kernel on the ladder corpus, in this process
CAL_TEXT = "".join(
    f"jnl-{i:05d},Category {i % 97:03d},{i * 7919 % 10007 / 1000:.3f},"
    f"{i * 104729 % 99991 / 1e7:.5f},{i * 31 % 1009 / 1000:.3f}\n" for i in range(3000))


def calibration_kernel() -> None:
    """Parse CAL_TEXT, group its rows by category and sort each group."""
    groups: dict[str, list] = {}
    for row in csv.reader(io.StringIO(CAL_TEXT)):
        groups.setdefault(row[1], []).append(tuple(float(x) for x in row[2:]))
    for values in groups.values():
        values.sort()


def log(*parts) -> None:
    print(*parts, flush=True)


def child_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run_child(argv: list, stdout_path: Path, stderr_path: Path) -> tuple[int, float, int]:
    """Run argv from the checkout root; returns (exit code, seconds, peak RSS in KiB).

    os.wait4 reaps the child and yields its own rusage; an alarm kills a
    child that runs longer than CHILD_TIMEOUT.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


class HostSpeed:
    """Calibration samples over one run, and the corrections they give."""

    def __init__(self, reference_s: float, kernel=calibration_kernel):
        self.reference_s = reference_s
        self.kernel = kernel
        self.samples: list[float] = []

    def sample(self, times: int) -> None:
        """Time the kernel in this process, `times` times."""
        for _ in range(times):
            start = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - start)

    def sample_child(self, workdir: Path) -> None:
        """Time a child process that runs the kernel, from start to exit."""
        code, seconds, _ = run_child(
            [sys.executable, str(ROOT / "bench" / "child.py"), "calibrate"],
            workdir / "calibrate.out", workdir / "calibrate.err")
        if code != 0:
            raise RuntimeError("calibration child failed: "
                               + (workdir / "calibrate.err").read_text()[-2000:])
        self.samples.append(seconds)

    def correct(self, raw_s: float, samples: list) -> float:
        """raw_s in seconds on a host on which the calibration takes the
        reference time, by the samples taken alongside it."""
        return raw_s * self.reference_s / statistics.fmean(samples)


def read_files(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class Workload:
    """One workload: set-up, a seeded stream of ops, a timed op and its checks."""

    name = ""
    block = 1  # ops in the traced block and in the order digest
    calibrations = 1  # in-process kernel samples before each op
    calibration_ref_s = CAL_REF_S
    calibration_kernel = staticmethod(calibration_kernel)

    def __init__(self, seed: int, workdir: Path, hb):
        self.seed = seed
        self.workdir = workdir
        self.hb = hb
        self.determinism = checks.Determinism()
        self.host: HostSpeed | None = None  # set while end-to-end metrics are measured

    def corpus_path(self) -> Path:
        return DEMO

    def prepare(self) -> None:
        """Create the input files; not timed."""

    def setup(self, tracer: tracing.Tracer | None) -> None:
        """Load what the ops and checks need. The load runs traced as op -1
        when a tracer is given."""
        self.oracle = checks.Oracle(ROOT / self.corpus_path())
        if tracer is not None:
            tracer.install()
            tracer.op = -1
        try:
            self.corpus = self.hb.load_corpus(ROOT / self.corpus_path())
        finally:
            if tracer is not None:
                tracer.op = None
                tracer.uninstall()
        self.oracle.attach_histograms(self.hb, self.corpus)

    def ops(self):
        raise NotImplementedError

    def run(self, op, in_process: bool):
        """Returns (seconds, output); only the op's own work is timed."""
        raise NotImplementedError

    def check(self, op, output) -> list:
        raise NotImplementedError

    def orders(self, op, output) -> list:
        """(indicator code, category order) of every ranking the op produced."""
        raise NotImplementedError

    def cli_output(self, output) -> tuple[int, int]:
        """(files written, bytes written to files and stdout) by the CLI."""
        return 0, 0


class InProcessWorkload(Workload):
    """Ops that call the library: rankings on all indicators, top_k, maps."""

    def benchmark_reference(self, corpus, reference: str):
        benchmark = sys.modules["heliobench.benchmark"]
        heliomap = sys.modules["heliobench.heliomap"]
        results = benchmark.run_benchmark(corpus, self.hb.BenchmarkRequest(reference=reference))
        tops = [benchmark.top_k(result, K) for result in results]
        svgs = [heliomap.render_svg(heliomap.layout_map(top)) for top in tops]
        return results, tops, svgs

    def check_results(self, reference, results, tops, svgs) -> list:
        problems = checks.check_inprocess(self.oracle, reference, K, results, tops, svgs)
        data = repr([r.ranking for r in results]).encode() + "".join(svgs).encode()
        return problems + self.determinism.check(reference, data)

    def orders(self, op, output):
        results = output[-3]
        return [(r.indicator.code, [name for name, _ in r.ranking]) for r in results]


class AllRefsDemo(InProcessWorkload):
    name = "all-refs-demo"
    block = 20

    def ops(self):
        rng = random.Random(self.seed)
        names = sorted(self.oracle.per_category)
        while True:
            rng.shuffle(names)
            yield from list(names)

    def run(self, op, in_process):
        start = time.perf_counter()
        output = self.benchmark_reference(self.corpus, op)
        return time.perf_counter() - start, output

    def check(self, op, output):
        return self.check_results(op, *output)


class Ladder1000(InProcessWorkload):
    name = "ladder-1000"
    block = 2
    calibration_ref_s = CAL_LADDER_REF_S

    def corpus_path(self):
        return self.workdir.relative_to(ROOT) / "ladder.csv"

    def calibration_kernel(self):
        """calibration_kernel on the ladder corpus file, missing cells read as 0."""
        groups: dict[str, list] = {}
        with open(ROOT / self.corpus_path(), encoding="utf-8", newline="") as fh:
            next(fh)
            for row in csv.reader(fh):
                groups.setdefault(row[1], []).append(tuple(float(x) if x else 0.0 for x in row[2:]))
        for values in groups.values():
            values.sort()

    def prepare(self):
        code, _, _ = run_child(
            [sys.executable, str(ROOT / "bench" / "child.py"), "generate",
             str(LADDER_CATEGORIES), str(self.seed), str(ROOT / self.corpus_path())],
            self.workdir / "generate.out", self.workdir / "generate.err")
        if code != 0:
            raise RuntimeError("generating the ladder corpus failed: "
                               + (self.workdir / "generate.err").read_text()[-2000:])

    def setup(self, tracer):
        super().setup(tracer)
        del self.corpus  # each op loads its own; keep peak RSS to one corpus

    def ops(self):
        rng = random.Random(self.seed)
        others = sorted(set(self.oracle.per_category) - {checks.CLONE_REFERENCE})
        references = [checks.CLONE_REFERENCE] + rng.sample(others, LADDER_REFERENCES - 1)
        return itertools.cycle(references)

    def run(self, op, in_process):
        corpus_module = sys.modules["heliobench.corpus"]
        start = time.perf_counter()
        corpus = corpus_module.load_corpus(ROOT / self.corpus_path())
        output = self.benchmark_reference(corpus, op)
        seconds = time.perf_counter() - start
        return seconds, (len(corpus),) + output

    def check(self, op, output):
        rows, *results = output
        problems = [] if rows == self.oracle.rows else [
            f"[load] {rows} records loaded, expected {self.oracle.rows}"]
        return problems + self.check_results(op, *results)


@dataclass
class Command:
    kind: str
    argv: list
    reference: str | None = None
    codes: tuple = ()
    fmt: str = "json"


@dataclass
class CommandOutput:
    code: int
    stdout: str
    files: dict  # name -> bytes written to the --out directory
    seconds: float
    rss_kib: int


class CliDemo(Workload):
    name = "cli-demo"
    block = 2
    # The commands run in child processes, and so does their calibration: a
    # kernel in this process did not track them.
    calibrations = 0
    calibration_ref_s = CAL_CHILD_REF_S
    INDICATORS = ("if", "es", "ii", "all")

    def ops(self):
        rng = random.Random(self.seed)
        names = sorted(self.oracle.per_category)
        bench_refs = self._references(rng, names, first=checks.CLONE_REFERENCE)
        map_refs = self._references(rng, names, first=None)
        out = str((self.workdir / "out").relative_to(ROOT))
        for cycle in itertools.count():
            kinds = ["validate", "bench", "map", "hist"]
            rng.shuffle(kinds)
            commands = []
            for kind in kinds:
                if kind == "validate":
                    commands.append(Command(kind, ["validate", "--input", str(DEMO)]))
                elif kind == "hist":
                    commands.append(Command(kind, ["hist", "--input", str(DEMO), "--out", out]))
                elif kind == "bench":
                    # The first bench ranks Category 000 on IF, so the clone check runs.
                    indicator = rng.choice(self.INDICATORS if cycle else ("if", "all"))
                    fmt = rng.choice(("json", "csv"))
                    reference = next(bench_refs)
                    commands.append(Command(
                        kind, ["bench", "--input", str(DEMO), "--reference", reference,
                               "--indicator", indicator, "--format", fmt],
                        reference, self._codes(indicator), fmt))
                else:
                    indicator = rng.choice(self.INDICATORS)
                    reference = next(map_refs)
                    commands.append(Command(
                        kind, ["map", "--input", str(DEMO), "--reference", reference,
                               "--indicator", indicator, "--out", out],
                        reference, self._codes(indicator)))
            yield commands

    @staticmethod
    def _references(rng, names, first):
        order = list(names)
        while True:
            rng.shuffle(order)
            if first is not None:
                order.remove(first)
                order.insert(0, first)
                first = None
            yield from list(order)

    @staticmethod
    def _codes(indicator):
        return checks.ALL_CODES if indicator == "all" else (indicator,)

    def run(self, op, in_process):
        outputs = [self._run_command(cmd, in_process) for cmd in op]
        return sum(o.seconds for o in outputs), outputs

    def _run_command(self, cmd: Command, in_process: bool) -> CommandOutput:
        out_dir = self.workdir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        if in_process:
            cli = sys.modules["heliobench.cli"]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                start = time.perf_counter()
                code = cli.main(list(cmd.argv))
                seconds = time.perf_counter() - start
            text, rss = stdout.getvalue(), 0
        else:
            if self.host is not None:
                self.host.sample_child(self.workdir)
            stdout_path = self.workdir / "cli.out"
            code, seconds, rss = run_child([sys.executable, "-m", "heliobench", *cmd.argv],
                                           stdout_path, self.workdir / "cli.err")
            text = stdout_path.read_text(encoding="utf-8")
        files = read_files(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return CommandOutput(code, text, files, seconds, rss)

    def check(self, op, output):
        problems = []
        for cmd, out in zip(op, output):
            if out.code != 0:
                problems.append(f"[exit] {cmd.kind} exited with {out.code}")
                continue
            if cmd.kind == "validate":
                problems += checks.check_validate_output(self.oracle, out.stdout)
            elif cmd.kind == "bench":
                problems += checks.check_bench_output(
                    self.oracle, cmd.reference, cmd.codes, cmd.fmt, K, out.stdout)
            elif cmd.kind == "map":
                problems += checks.check_map_output(
                    self.oracle, cmd.reference, cmd.codes, K, out.files)
            else:
                problems += checks.check_hist_output(self.oracle, BINS, out.files)
            data = out.stdout.encode() + b"".join(
                name.encode() + b"\0" + body for name, body in out.files.items())
            problems += self.determinism.check(tuple(cmd.argv), data)
        return problems

    def orders(self, op, output):
        orders = []
        for cmd, out in zip(op, output):
            if cmd.kind == "bench":
                for code, ranking in checks.parse_bench_output(cmd.fmt, cmd.codes, out.stdout):
                    orders.append((code, [name for name, _ in ranking]))
        return orders

    def cli_output(self, output):
        files = sum(len(o.files) for o in output)
        size = sum(len(o.stdout.encode()) + sum(map(len, o.files.values())) for o in output)
        return files, size


WORKLOADS = {w.name: w for w in (CliDemo, AllRefsDemo, Ladder1000)}


class Tally:
    """Attempted and failed ops, and the order digest of the first ops."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reported = 0
        self.digest = hashlib.sha256()
        self.digested = 0

    def attempt(self, op, in_process: bool):
        """Run and check one op; returns (seconds, output), or None if it failed."""
        self.attempted += 1
        try:
            seconds, output = self.workload.run(op, in_process)
            problems = self.workload.check(op, output)
            if not problems and self.digested < self.workload.block:
                self.digested += 1
                for code, names in self.workload.orders(op, output):
                    self.digest.update(f"{code}:{','.join(names)}\n".encode())
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            problems = [f"[error] {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for message in problems[:MAX_REPORTED - self.reported]:
                print(f"check failed: {message}", file=sys.stderr)
            self.reported = min(MAX_REPORTED, self.reported + len(problems))
            return None
        return seconds, output

    def report(self) -> None:
        rate = self.failed / self.attempted if self.attempted else float("nan")
        log(f"ops attempted {self.attempted}, failed {self.failed}, error_rate {rate:.4g}")
        log(f"order digest ({self.workload.name}, seed {self.workload.seed}, "
            f"first {self.digested} ops): {self.digest.hexdigest()[:32]}")


def setup_probes(workload: Workload, host: HostSpeed | None = None) -> list:
    """import heliobench + load_corpus timed in fresh interpreters, SETUP_REPEATS
    times, each after a calibration child when a host is given."""
    probes = []
    for _ in range(SETUP_REPEATS):
        if host is not None:
            host.sample_child(workload.workdir)
        out = workload.workdir / "setup.out"
        code, _, _ = run_child([sys.executable, str(ROOT / "bench" / "child.py"), "setup",
                                str(ROOT / workload.corpus_path())],
                               out, workload.workdir / "setup.err")
        if code != 0:
            raise RuntimeError("set-up probe failed: "
                               + (workload.workdir / "setup.err").read_text()[-2000:])
        probe = json.loads(out.read_text())
        if Path(probe["module"]).resolve().parent != SRC / "heliobench":
            raise RuntimeError(f"set-up probe imported {probe['module']}, not {SRC}")
        if probe["rows"] != workload.oracle.rows:
            raise RuntimeError(f"set-up probe loaded {probe['rows']} records, "
                               f"expected {workload.oracle.rows}")
        probes.append(probe)
    return probes


def measure(workload: Workload, seconds: float) -> tuple[dict, Tally]:
    """The end-to-end metrics: ops run until `seconds` have passed."""
    setup_host = HostSpeed(CAL_CHILD_REF_S)
    raw_setup = [p["import_s"] + p["load_s"] for p in setup_probes(workload, setup_host)]
    setup = [setup_host.correct(s, [cal]) for s, cal in zip(raw_setup, setup_host.samples)]
    host = workload.host = HostSpeed(workload.calibration_ref_s, workload.calibration_kernel)
    tally = Tally(workload)
    raw, times = [], []  # per op that passed: raw and corrected seconds
    per_command: dict[str, list] = {}
    peak_kib = 0
    cli = isinstance(workload, CliDemo)
    gc.collect()
    deadline = time.perf_counter() + seconds
    for op in workload.ops():
        if tally.attempted >= workload.block and time.perf_counter() >= deadline:
            break
        first = len(host.samples)  # the op's samples: before it, and before each CLI command
        host.sample(workload.calibrations)
        done = tally.attempt(op, in_process=not cli)
        if done is None:
            continue
        raw.append(done[0])
        times.append(host.correct(done[0], host.samples[first:]))
        if cli:
            for cmd, out in zip(op, done[1]):
                per_command.setdefault(cmd.kind, []).append(out.seconds)
                peak_kib = max(peak_kib, out.rss_kib)
    if not cli:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tally.report()
    log(f"host speed: calibration median {statistics.median(host.samples) * 1e3:.3f} ms, "
        f"mean {statistics.fmean(host.samples) * 1e3:.3f} ms (n={len(host.samples)}, "
        f"reference {host.reference_s * 1e3:g} ms)")
    for kind, samples in sorted(per_command.items()):
        log(f"  {kind:<9} p50 {statistics.median(samples):.4f} s raw (n={len(samples)})")
    for label, values in (("raw", raw), ("corrected", times)):
        if values:
            log(f"op latency {label}: p50 {statistics.median(values):.4f} s (n={len(values)}), "
                f"{len(values) / sum(values):.4f} ops/s")
        if len(values) >= 100:
            log(f"op latency {label}: p90 {statistics.quantiles(values, n=10)[-1]:.4f} s "
                f"(n={len(values)})")
    log(f"set-up samples: raw {', '.join(f'{s:.4f}' for s in raw_setup)} s; calibration "
        f"children {', '.join(f'{s:.4f}' for s in setup_host.samples)} s; corrected "
        f"{', '.join(f'{s:.4f}' for s in setup)} s")
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_kib / 1024}
    if times:
        metrics["op_p50_s"] = statistics.median(times)
        metrics["ops_per_s"] = len(times) / sum(times)
    return metrics, tally


def run_block(workload: Workload, block: list, tally: Tally, tracer=None):
    """Run the block's ops in-process; returns (seconds per op, outputs, spans)."""
    if tracer is not None:
        tracer.install()
    seconds, outputs = [], []
    try:
        for i, op in enumerate(block):
            if tracer is not None:
                tracer.op = i
            try:
                done = tally.attempt(op, in_process=True)
            finally:
                if tracer is not None:
                    tracer.op = None
            if done is not None:
                seconds.append(done[0])
                outputs.append(done[1])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, outputs, tracer.take() if tracer is not None else []


def layer_metrics(n_ops, op_seconds, spans, setup_stats, present, import_s):
    """Per-op layer metrics of one traced block of n_ops ops."""
    stats = tracing.summarize(spans)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "distinct": (), "info_sum": 0}
    m = {"cli.import_s": import_s}

    def get(name):
        return stats.get(name, empty)

    def per_op(metric, name, field, extra=()):
        if name in present:
            m[metric] = (get(name)[field] + sum(get(e)[field] for e in extra)) / n_ops

    def useful(metric, name):
        if name in present and get(name)["calls"]:
            m[metric] = len(get(name)["distinct"]) / get(name)["calls"]

    per_op("cli.main_s", "cli.main", "total")
    per_op("cli.self_s", "cli.main", "self")
    per_op("corpus.load_s", "corpus.load", "total")
    loads = [s for s in (setup_stats.get("corpus.load"), stats.get("corpus.load")) if s]
    if sum(s["total"] for s in loads):
        m["corpus.rows_per_s"] = sum(s["info_sum"] for s in loads) / sum(s["total"] for s in loads)
    per_op("corpus.validate_s", "corpus.validate", "total")
    per_op("corpus.category_values_calls", "corpus.category_values", "calls")
    per_op("corpus.category_values_s", "corpus.category_values", "total")
    per_op("histogram.bin_spec_calls", "histogram.bin_spec", "calls")
    per_op("histogram.bin_spec_self_s", "histogram.bin_spec", "self")
    useful("histogram.bin_spec_useful_ratio", "histogram.bin_spec")
    per_op("histogram.build_calls", "histogram.build", "calls")
    per_op("histogram.build_s", "histogram.build", "total")
    useful("histogram.build_useful_ratio", "histogram.build")
    per_op("infogain.pairs", "infogain.pair", "calls")
    per_op("infogain.gains_s", "infogain.gains", "total")
    if {"infogain.pair", "infogain.gains"} <= present and get("infogain.gains")["total"]:
        m["infogain.pairs_per_s"] = get("infogain.pair")["calls"] / get("infogain.gains")["total"]
    per_op("benchmark.run_calls", "benchmark.run", "calls")
    per_op("benchmark.run_s", "benchmark.run", "total")
    if "benchmark.run" in present:
        per_op("benchmark.self_s", "benchmark.run", "self", extra=["benchmark.top_k"])
    per_op("heliomap.layout_s", "heliomap.layout", "total")
    per_op("heliomap.render_s", "heliomap.render", "total")
    per_op("heliomap.svg_bytes", "heliomap.render", "info_sum")
    m["trace.unattributed_s"] = (sum(op_seconds) - tracing.root_seconds(spans)) / n_ops
    return m, {layer: v / n_ops for layer, v in tracing.layer_self_seconds(stats).items()}


def trace(workload: Workload, seconds: float) -> tuple[dict, Tally]:
    """Per-layer metrics: a fixed block of ops, untraced then traced, repeated."""
    tracer = tracing.Tracer()
    workload.setup(tracer)
    # Each CLI invocation imports the package once, in a fresh interpreter.
    import_s = statistics.median(p["import_s"] for p in setup_probes(workload))
    setup_stats = tracing.summarize(tracer.take())
    tally = Tally(workload)
    block = list(itertools.islice(workload.ops(), workload.block))
    samples, overheads, first_spans = [], [], None
    gc.collect()
    deadline = time.perf_counter() + seconds
    for rounds in itertools.count(1):
        if time.perf_counter() >= deadline and (samples or rounds > 3):
            break
        plain, _, _ = run_block(workload, block, tally)
        traced, outputs, spans = run_block(workload, block, tally, tracer)
        if len(plain) != len(block) or len(traced) != len(block):
            continue  # a failed op is counted by the tally; its block is not measured
        metrics, layers = layer_metrics(len(block), traced, spans, setup_stats,
                                        tracer.present, import_s)
        files, size = map(sum, zip(*(workload.cli_output(o) for o in outputs)))
        metrics["cli.files_written"] = files / len(block)
        metrics["cli.bytes_out"] = size / len(block)
        metrics["trace.overhead_s"] = (sum(traced) - sum(plain)) / len(block)
        samples.append((metrics, layers, sum(plain) / len(block), sum(traced) / len(block)))
        if first_spans is None:
            first_spans = spans
    if not samples:
        return {}, tally

    median = statistics.median
    metrics = {key: median(s[0][key] for s in samples) for key in samples[0][0]}
    layers = {key: median(s[1][key] for s in samples) for key in samples[0][1]}
    plain_op = median(s[2] for s in samples)
    traced_op = median(s[3] for s in samples)
    tally.report()
    log(f"traced blocks: {len(samples)} x {len(block)} ops; per op: untraced {plain_op:.6f} s, "
        f"traced {traced_op:.6f} s, overhead {metrics['trace.overhead_s']:.6f} s")
    self_sum = sum(layers.values())
    log("layer self seconds per op: " + ", ".join(f"{k} {v:.6f}" for k, v in layers.items())
        + f"; sum {self_sum:.6f}, unattributed {metrics['trace.unattributed_s']:.6f}")
    log(f"accounting: untraced op {plain_op:.6f} s vs layer self sum minus overhead "
        f"{self_sum - metrics['trace.overhead_s']:.6f} s")
    write_spans(workload, first_spans)
    return metrics, tally


def write_spans(workload: Workload, spans: list) -> None:
    """The first traced block's spans, times relative to its first span."""
    if not spans:
        return
    directory = WORK / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    origin = spans[0][tracing.START]
    rows = [[s[tracing.NAME], s[tracing.START] - origin, s[tracing.END] - origin,
             s[tracing.PARENT], s[tracing.OP]] for s in spans]
    path = directory / f"{workload.name}-seed{workload.seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": workload.seed,
                                "fields": ["name", "start_s", "end_s", "parent", "op"],
                                "spans": rows}))
    log(f"spans written to {path.relative_to(ROOT)} ({len(rows)} spans)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "heliobench" / "__init__.py", ROOT / DEMO, SPEC):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    import heliobench
    import heliobench.cli  # noqa: F401  (the CLI module is traced too)
    if Path(heliobench.__file__).resolve().parent != SRC / "heliobench":
        print(f"error: imported {heliobench.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, heliobench)
        log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
            f"python {sys.version.split()[0]}, numpy {sys.modules['numpy'].__version__}, "
            f"{os.cpu_count()} cpus")
        workload.prepare()
        if args.trace:
            metrics, tally = trace(workload, args.seconds)
        else:
            workload.setup(None)
            metrics, tally = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reported = {}
    for entry in wanted:
        if entry["name"] in metrics:
            reported[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
            log(f"{entry['name']:<34} {metrics[entry['name']]:.6g} {entry['unit']}")
        else:
            log(f"{entry['name']:<34} absent")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
