#!/usr/bin/env python3
"""Record the outputs the benchmark's gate expects, from the current tree.

    PYTHONPATH=src python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``: the sha256 and exit code of each
verify suite's report, and the relabelling-invariant results of one pass
of each in-process workload.  Run it only on a commit whose outputs are
known to be right; a later commit is judged against what it records.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402


def main():
    env = run.child_env()
    expected = {"verify-cli": {}}
    for suite in run.VERIFY_SUITES:
        proc = subprocess.run([sys.executable, "-m", "regula.cli", "verify", suite],
                              cwd=run.ROOT, env=env, capture_output=True, check=False)
        expected["verify-cli"][suite] = {"sha256": hashlib.sha256(proc.stdout).hexdigest(),
                                         "exit": proc.returncode}
    for workload, run_pass in worker.PASSES.items():
        inputs = worker.build_inputs(workload, 0)
        expected[workload] = json.loads(json.dumps(run_pass(inputs, worker.nullcontext)))
    # independent check: each atlas table matches its data file's certificate
    for key, _, fname in worker.HEAVY_TABLES:
        if fname is None:
            continue
        path = os.path.join(run.SRC, "regula", "data", fname)
        with open(path, encoding="ascii") as fh:
            header = dict(line.split(":", 1) for line in fh
                          if line.startswith(("order:", "class_sizes:")))
        got = expected["classes-heavy"][key]
        if (got["order"] != int(header["order"])
                or got["class_sizes"] != [int(s) for s in header["class_sizes"].split(",")]):
            raise SystemExit(f"{key}: order or class sizes disagree with {fname}")
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
