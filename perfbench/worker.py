"""Child process of the benchmark; ``run.py`` starts it, one at a time.

    worker.py setup <workload> <seed>
        import regula and build the workload's inputs, print the set-up time
    worker.py run <workload> <seed> <seconds> <trace> <spans-file>
        set up, then time passes for about <seconds> seconds; with <trace>
        1, time untraced passes and then as many traced passes
    worker.py cli <spans-file> <regula arguments...>
        run the regula CLI with every layer traced, writing its spans

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

T0 = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# (key, expression, bundled data file or None)
HEAVY_TABLES = (
    ("agl1_257", "AGL1(257)", None),
    ("m12_2", "M12.2", "M12_2.txt"),
    ("l34_2c2", "L34.2^2", "L34_2c2.txt"),
    ("sz8", "Sz8", "Sz8.txt"),
)
FUSED_OVER_SOCLE = "m12_2"

STRUCTURE_GROUPS = ("x(C(12), S(5))", "x(D(6), S(5))", "x(S(4), S(5))",
                    "x(x(S(3), S(3)), S(5))", "x(S(4), PSL2(7))", "x(S(5), AGL1(5))")


def _relabel(degree, gens, rng):
    """Conjugate every generator by one random point relabelling and
    shuffle their order; every invariant the benchmark checks is kept."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for g in gens:
        img = [0] * degree
        for x in range(degree):
            img[sigma[x]] = sigma[g[x]]
        out.append(tuple(img))
    rng.shuffle(out)
    return out


def _data_generators(fname):
    """Degree and generator images of a bundled data file, read without
    certification (the output gate checks the class table)."""
    from regula.perm_core import Permutation
    import regula

    path = os.path.join(os.path.dirname(regula.__file__), "data", fname)
    header, gens = {}, []
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("("):
                gens.append(line)
            elif ":" in line and not line.startswith("#"):
                key, _, value = line.partition(":")
                header[key] = value.strip()
    degree = int(header["degree"])
    return degree, [Permutation.parse(g, degree).images for g in gens]


def build_inputs(workload, seed):
    """Seeded generator lists for one workload; no group used by a timed
    pass is built here, so every pass starts without cached tables."""
    from regula.exprs import group_from_text
    from regula.perm_core import PermGroup, Permutation

    rng = random.Random(seed)
    if workload == "classes-heavy":
        inputs = []
        for key, expr, fname in HEAVY_TABLES:
            if fname is None:
                G = group_from_text(expr)
                degree, gens = G.degree, [g.images for g in G.generators]
            else:
                degree, gens = _data_generators(fname)
            gens = _relabel(degree, gens, rng)
            socle = None
            if key == FUSED_OVER_SOCLE:
                G = PermGroup([Permutation(g) for g in gens], degree=degree)
                socle = [g.images for g in G.commutator_subgroup().generators]
            inputs.append((key, degree, gens, socle))
        return inputs
    if workload == "structure-mixed":
        inputs = []
        for expr in STRUCTURE_GROUPS:
            G = group_from_text(expr)
            inputs.append((expr, G.degree, _relabel(G.degree, [g.images for g in G.generators], rng)))
        return inputs
    if workload == "verify-cli":
        return None
    raise SystemExit(f"unknown workload {workload!r}")


def classes_pass(inputs, span):
    from regula.classes import conjugacy_classes, fused_counts
    from regula.perm_core import PermGroup, Permutation

    results = {}
    for key, degree, gens, socle in inputs:
        G = PermGroup([Permutation(g) for g in gens], degree=degree)
        with span(f"bench.table.{key}"):
            table = conjugacy_classes(G)
        results[key] = {"order": G.order, "k": table.k_total,
                        "class_sizes": list(table.class_size_multiset())}
        if socle is not None:
            N = PermGroup([Permutation(g) for g in socle], degree=degree)
            with span(f"bench.fused.{key}"):
                fc = fused_counts(G, N, 2)
            results[f"fused.{key}"] = {"order": N.order, "k": fc.k_total,
                                       "k_regular": fc.k_regular, "k_singular": fc.k_singular}
    return results


def structure_pass(inputs, span):
    from regula.perm_core import PermGroup, Permutation
    from regula.radicals import structure_summary

    results = {}
    for expr, degree, gens in inputs:
        G = PermGroup([Permutation(g) for g in gens], degree=degree)
        with span(f"bench.structure.{expr}"):
            results[expr] = structure_summary(G)
    return results


PASSES = {"classes-heavy": classes_pass, "structure-mixed": structure_pass}


def _setup(workload, seed):
    import regula.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import regula

    import_s = perf_counter() - T0
    inputs = build_inputs(workload, seed)
    return inputs, {"setup_s": perf_counter() - T0, "import_s": import_s,
                    "regula_file": os.path.abspath(regula.__file__)}


def _timed_passes(run_pass, inputs, span, seconds, count=None):
    """Run passes until about ``seconds`` have passed (at least one), or
    exactly ``count`` passes; return their wall times and outputs."""
    walls, outputs = [], []
    t_end = perf_counter() + seconds
    while True:
        t = perf_counter()
        outputs.append(run_pass(inputs, span))
        walls.append(perf_counter() - t)
        if count is not None:
            if len(walls) == count:
                break
        elif perf_counter() + statistics.median(walls) > t_end:
            break
    return walls, outputs


def main_setup(workload, seed):
    _, info = _setup(workload, int(seed))
    print(json.dumps(info))


def main_run(workload, seed, seconds, trace, spans_path):
    inputs, info = _setup(workload, int(seed))
    run_pass = PASSES[workload]
    seconds, trace = float(seconds), trace == "1"
    walls, outputs = _timed_passes(run_pass, inputs, nullcontext,
                                   seconds / 2 if trace else seconds)
    info.update(walls=walls, outputs=outputs, traced_walls=[])
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_walls, traced_outputs = _timed_passes(
                run_pass, inputs, tracer.span, seconds, count=len(walls))
        finally:
            tracer.uninstall()
        tracer.dump(spans_path)
        info.update(traced_walls=traced_walls, outputs=outputs + traced_outputs)
    sys.stdout.write("\n" + json.dumps(info) + "\n")


def main_cli(spans_path, *argv):
    import regula.cli

    import_s = perf_counter() - T0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = regula.cli.main(list(argv))
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path, import_s=import_s)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        main_setup(*rest)
    elif mode == "run":
        main_run(*rest)
    elif mode == "cli":
        raise SystemExit(main_cli(*rest))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
