#!/usr/bin/env python3
"""The regula benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload verify-cli --seed 1 --seconds 15 --trace 0

Workloads (see README.md in this directory for why each was chosen):

    verify-cli       six claim suites, each a fresh ``python -m regula.cli
                     verify <suite>`` process, in seeded order
    classes-heavy    class tables of AGL1(257), M12.2, L34.2^2 and Sz8 and the
                     fused counts of M12.2 over its socle, on fresh groups
    structure-mixed  ``structure_summary`` of six direct products
    all              the three above, one after another

The program measured is the working tree: every child runs with this
checkout's ``src`` as PYTHONPATH.  This process never imports regula and
starts at most one child at a time, in a closed loop.  Each child's peak
RSS comes from ``os.wait4``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it has the per-layer metrics
of a traced run.  The lines before it describe the environment and list
every metric with its unit.  Outputs are checked against ``expected.json``
(values recorded at commit c157af2); a mismatch counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")

sys.path.insert(0, HERE)
import tracing  # noqa: E402

WORKLOADS = ("verify-cli", "classes-heavy", "structure-mixed")

# suite -> the end-to-end metric its wall time counts in; theorem-b is
# left out to keep the benchmark's total run time inside its budget
VERIFY_SUITES = {"properties": "verify_corpus_s", "families": "verify_registry_s",
                 "five-classes": "verify_registry_s", "ninomiya-3": "verify_light_s",
                 "bounds": "verify_light_s", "numtheory": "verify_light_s"}
# the one suite a traced verify-cli run does not also run untraced, so
# that the run stays inside its time limit
CORPUS_SUITE = "properties"

# set-up samples taken before and after an in-process worker, which
# takes one more itself; verify-cli takes one before each suite.  They
# are spread over the run because the host's speed drifts within it.
SETUP_SAMPLES_AROUND = 2
RUN_LIMIT_S = 175.0      # every child is killed once a run gets this old

# per-layer metrics that are ratios, so not divided by the number of passes
RATIOS = {"classes.table_hit_ratio", "exprs.memo_hit_ratio", "classes.elements_per_s"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


class Child:
    def __init__(self, out, code, wall_s, rss_mb, err):
        self.out, self.code, self.wall_s, self.rss_mb, self.err = out, code, wall_s, rss_mb, err

    def last_json(self):
        lines = self.out.decode("utf-8", "replace").strip().splitlines()
        if self.code != 0 or not lines:
            fail(f"child failed with exit code {self.code}:\n{self.err}")
        return json.loads(lines[-1])


def run_child(argv, env, deadline, err_path):
    """Run one child to completion; its stdout, exit code, wall time and
    peak RSS.  A child still running at ``deadline`` is killed."""
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
    chunks, fd = [], proc.stdout.fileno()
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            proc.kill()
            break
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err_text = fh.read()
    return Child(b"".join(chunks), proc.returncode, wall_s, usage.ru_maxrss / 1024, err_text)


def child_env():
    """The environment of every child: this tree's sources, no regula
    settings, and one fixed hash seed so set order is the same in every run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REGULA_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def environment():
    sha, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True).stdout.strip()
        sha = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"git_sha": sha, "dirty": dirty, "python": platform.python_version(),
            "nproc": os.cpu_count()}


class Run:
    """One run of one workload: its children, output checks and metrics.
    ``extra`` holds the end-to-end figures reported on this workload only,
    which are printed but are not in BENCHMARK.json."""

    def __init__(self, workload, args, tmp):
        self.workload, self.args, self.tmp = workload, args, tmp
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.children = 0
        with open(EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)[workload]
        self.attempted = self.failed = 0
        self.mismatches = []
        self.extra = {}

    def child(self, argv):
        self.children += 1
        err = os.path.join(self.tmp, f"stderr.{self.children}")
        return run_child([sys.executable, *argv], self.env, self.deadline, err)

    def check(self, key, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(key)

    def check_expected(self, key, got):
        self.check(key, got == self.expected.get(key))

    def setup_samples(self, count):
        """Set-up times of ``count`` fresh processes, each importing regula
        and building the workload's inputs; checks the tree measured."""
        out = []
        for _ in range(count):
            info = self.child([WORKER, "setup", self.workload, str(self.args.seed)]).last_json()
            self.check_tree(info)
            out.append(info["setup_s"])
        return out

    def check_tree(self, info):
        if not info["regula_file"].startswith(os.path.join(SRC, "regula") + os.sep):
            fail(f"measured {info['regula_file']}, not the working tree under {SRC}")

    # -- verify-cli ------------------------------------------------------

    def verify_suite(self, suite, spans_path=None):
        """One fresh CLI process for ``suite``, traced when ``spans_path`` is
        given; its report and exit code are checked against the recording."""
        if spans_path:
            child = self.child([WORKER, "cli", spans_path, "verify", suite])
        else:
            child = self.child(["-m", "regula.cli", "verify", suite])
        report = {"sha256": hashlib.sha256(child.out).hexdigest(), "exit": child.code}
        self.check_expected(suite, report)
        return child

    def verify_cli(self):
        suites = list(VERIFY_SUITES)
        random.Random(self.args.seed).shuffle(suites)
        if self.args.trace:
            return self.verify_cli_traced(suites)
        setup, plain = [], {}
        for suite in suites:
            setup += self.setup_samples(1)
            plain[suite] = self.verify_suite(suite)
        walls = dict.fromkeys(VERIFY_SUITES.values(), 0.0)
        for suite, child in plain.items():
            walls[VERIFY_SUITES[suite]] += child.wall_s
        self.extra.update((metric, (wall, "s")) for metric, wall in walls.items())
        return {"wall_s": sum(c.wall_s for c in plain.values()),
                "peak_rss_mb": max(c.rss_mb for c in plain.values()),
                "setup_s": statistics.median(setup)}

    def verify_cli_traced(self, suites):
        """Every suite traced; every suite but the corpus also untraced, for
        the tracing overhead and a byte-for-byte comparison of the reports."""
        layers = {"suites.checks": 0}
        spans, counters, import_s, overhead_s = [], {}, [], 0.0
        for suite in suites:
            plain = None if suite == CORPUS_SUITE else self.verify_suite(suite)
            spans_path = os.path.join(self.tmp, f"spans.{suite}.json")
            traced = self.verify_suite(suite, spans_path)
            if plain is not None:
                self.check(f"{suite} (traced report differs)", traced.out == plain.out)
                overhead_s += traced.wall_s - plain.wall_s
            dump = tracing.load(spans_path)
            import_s.append(dump["import_s"])
            layers[f"suites.run_suite_s.{suite}"] = _span_total(dump["spans"], "suites.run_suite")
            layers["suites.checks"] += len(json.loads(traced.out)["checks"])
            offset = len(spans)
            spans.extend([n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in dump["spans"])
            for name, count in dump["counters"].items():
                counters[name] = counters.get(name, 0) + count
        layers.update(tracing.layer_metrics(spans, counters))
        layers["cli.import_s"] = statistics.median(import_s)
        layers["trace.overhead_s"] = overhead_s
        return layers

    # -- in-process workloads -------------------------------------------------

    def in_process(self):
        around = 0 if self.args.trace else SETUP_SAMPLES_AROUND
        setup = self.setup_samples(around)
        spans_path = os.path.join(self.tmp, "spans.json")
        child = self.child([WORKER, "run", self.workload, str(self.args.seed),
                            str(self.args.seconds), str(self.args.trace), spans_path])
        info = child.last_json()
        self.check_tree(info)
        setup += self.setup_samples(around) + [info["setup_s"]]
        for output in info["outputs"]:
            for key, got in output.items():
                self.check_expected(key, got)
        wall_s = statistics.median(info["walls"])
        if self.workload == "classes-heavy":
            # every class table and fused count enumerates its group once
            elements = sum(v["order"] for v in info["outputs"][0].values())
            self.extra["elements_per_s"] = (elements / wall_s, "1/s")
        if not self.args.trace:
            return {"wall_s": wall_s, "peak_rss_mb": child.rss_mb,
                    "setup_s": statistics.median(setup)}
        dump = tracing.load(spans_path)
        passes = len(info["traced_walls"])
        layers = {name: value if name in RATIOS else value / passes
                  for name, value in tracing.layer_metrics(dump["spans"], dump["counters"]).items()}
        for name in {span[0] for span in dump["spans"]}:
            if name.startswith(("bench.table.", "bench.fused.")):
                kind, key = name[len("bench."):].split(".", 1)
                layers[f"classes.{kind}_s.{key}"] = _span_total(dump["spans"], name) / passes
        layers["cli.import_s"] = info["import_s"]
        layers["trace.overhead_s"] = statistics.median(info["traced_walls"]) - wall_s
        return layers

    def measure(self):
        return self.verify_cli() if self.workload == "verify-cli" else self.in_process()


def _span_total(spans, name):
    return sum(end - start for n, start, end, _ in spans if n == name)


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, args):
    """Measure one workload and print its report; the last line is the
    JSON result."""
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        run = Run(workload, args, tmp)
        metrics = run.measure()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    env = environment()
    env.update(workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    if run.mismatches:
        print("mismatched outputs: " + ", ".join(sorted(set(run.mismatches))))
    print(f"failed_share {run.failed / max(run.attempted, 1)} ratio "
          f"({run.failed} of {run.attempted} outputs)")
    for name, (value, unit) in run.extra.items():
        print(f"{name} {value} {unit}")
    result = {}
    for name, unit in declared_metrics(args.trace):
        # a layer this workload never enters reads 0
        value = metrics.get(name, 0)
        print(f"{name} {value} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed, "metrics": result}),
          flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regula", "__init__.py")):
        fail(f"no regula sources under {SRC}")
    if not os.path.isfile(EXPECTED):
        fail(f"missing {EXPECTED}")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args)


if __name__ == "__main__":
    main()
