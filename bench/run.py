"""Benchmark of `matchbound` user operations, run in-process.

    python3 bench/run.py --workload {regular,campaign,audit} --seed N \
        --seconds S --trace {0,1}

Each operation is one `matchbound` subcommand run through
`matchbound.cli.cli_dispatch`, one after another in a single thread (a closed
loop with one client). The workload's fixed list of operations is run in
whole passes that fit into S seconds, and at least twice. Every output
is checked against the benchmark's own references after the timed part.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 passes alternate between untraced and
traced, and the object holds the per-layer metrics from the traced passes.
Details go to bench/out/. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import sys

# Modules loaded by the interpreter itself; set-up re-imports everything else.
_STARTUP_MODULES = frozenset(sys.modules)

import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
MIN_PASSES = 2
TAIL_BEYOND = 10
USAGE = ("usage: run.py --workload {%s} --seed N --seconds S --trace {0,1}"
         % ",".join(workloads.WORKLOADS))


def parse_args(argv):
    """--workload, --seed, --seconds and --trace, all required. Kept free of
    argparse so that set-up pays for importing it, as the CLI does."""
    if len(argv) != 8 or argv[0::2] != ["--workload", "--seed", "--seconds", "--trace"]:
        raise ValueError(USAGE)
    workload, seed, seconds, traced = argv[1::2]
    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}\n{USAGE}")
    if traced not in ("0", "1"):
        raise ValueError(f"--trace must be 0 or 1\n{USAGE}")
    if float(seconds) <= 0:
        raise ValueError("--seconds must be positive")
    return workload, int(seed), float(seconds), traced == "1"


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def set_up(w: workloads.Workload):
    """Import matchbound afresh and parse every input into graph objects;
    returns the median time over SETUP_REPEATS and the last package."""
    parsers = {"g6": "parse_graph6", "bipartite": "parse_bipartite", "edges": "parse_edge_list"}
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m not in _STARTUP_MODULES]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        package = importlib.import_module("matchbound")
        importlib.import_module("matchbound.cli")
        graphs = [getattr(package.graphs, parsers[inp.fmt])(inp.text) for inp in w.inputs]
        times.append(time.perf_counter() - start)
        del graphs
    return median(times), times, package


def normalise(op: workloads.Op, text: str) -> str:
    """Campaign reports differ between passes only in runtimeSeconds."""
    return refs.strip_runtime(text) if op.samples else text


def measure(w, package, seconds: float, tracer):
    """Run whole passes while the next one is expected to end within
    `seconds` (and MIN_PASSES at least), so that a run does not overshoot
    its budget by most of a pass. With a tracer, odd passes are traced."""
    cli = package.cli
    slots = len(w.ops)
    latencies = [[] for _ in range(slots)]
    first: list = [None] * slots
    state = {"attempted": 0, "failures": [], "problems": [], "pass_times": [],
             "traced_passes": [], "campaign_engine_runs": 0, "campaign_samples": 0}
    clock = time.perf_counter
    gc.collect()
    start = clock()
    p = 0
    while p < MIN_PASSES or clock() - start + median(state["pass_times"]) <= seconds:
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.install()
        t_pass = clock()
        for i, op in enumerate(w.ops):
            out, err = io.StringIO(), io.StringIO()
            state["attempted"] += 1
            engines_before = tracer.engine_runs if traced else 0
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = clock()
                    if traced:
                        rc = tracer.call(i, cli.cli_dispatch, op.argv)
                    else:
                        rc = cli.cli_dispatch(op.argv)
                    dt = clock() - t0
            except Exception:
                rc, dt = None, None
                err.write(traceback.format_exc())
            if rc != 0:
                state["failures"].append(f"{' '.join(op.argv)}: exit {rc}: {err.getvalue()}")
                continue
            latencies[i].append(dt)
            text = out.getvalue()
            if first[i] is None:
                first[i] = text
            elif normalise(op, text) != normalise(op, first[i]):
                state["problems"].append(f"{' '.join(op.argv)}: output differs between passes")
            if traced and op.samples:
                state["campaign_engine_runs"] += tracer.engine_runs - engines_before
                state["campaign_samples"] += op.samples
        state["pass_times"].append(clock() - t_pass)
        state["traced_passes"].append(traced)
        if traced:
            tracer.uninstall()
        p += 1
    return latencies, first, state


def check_outputs(w, package, first) -> list[str]:
    """Reference checks, outside the timed part."""
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = package.cli.cli_dispatch(argv)
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {rc}")
        return out.getvalue()

    problems = []
    for op, text in zip(w.ops, first):
        if text is None:
            continue
        try:
            found = op.check(text, run)
        except Exception:
            found = [traceback.format_exc()]
        problems.extend(f"{' '.join(op.argv)}: {msg}" for msg in found)
    return problems


def end_to_end(latencies, setup_s, peak_rss_mib) -> dict:
    """Each operation's latency is its median over the passes, which keeps a
    pass slowed by the host from moving the figures. ops_per_s is the
    operations of one pass over the sum of their latencies; op_p50_s and
    op_tail_s are taken over the operations of one pass."""
    per_op = sorted(median(lat) for lat in latencies if lat)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_s": (median(per_op), "s"),
        "op_tail_s": (per_op[-(TAIL_BEYOND + 1)], "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(w, tracer, state, first) -> dict:
    traced_ops = len(w.ops) * sum(state["traced_passes"])
    self_times = tracer.self_times()
    metrics = {name: (self_times.get(span, 0.0) / traced_ops, "s")
               for name, span in spans.SELF_TIME_METRICS.items()}
    samples = state["campaign_samples"]
    cover = sum(int(json.loads(text)["totals"]["coverCount"])
                for op, text in zip(w.ops, first) if op.kind == "fibers" and text)
    metrics.update({
        "counting.engine_runs_per_op": (tracer.engine_runs / traced_ops, "count"),
        "counting.engine_runs_per_sample": (
            state["campaign_engine_runs"] / samples if samples else 0.0, "count"),
        "counting.states": (tracer.states / traced_ops, "count"),
        "counting.peak_states": (tracer.peak_states, "count"),
        "correspondence.cover_matchings": (cover / len(w.ops), "count"),
    })
    return metrics


def tracing_overhead(state) -> float:
    """Untraced ops_per_s over traced ops_per_s, minus one."""
    traced = [t for t, on in zip(state["pass_times"], state["traced_passes"]) if on]
    plain = [t for t, on in zip(state["pass_times"], state["traced_passes"]) if not on]
    return median(traced) / median(plain) - 1.0


def main(argv) -> int:
    try:
        name, seed, seconds, traced = parse_args(argv)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not (SRC / "matchbound" / "__init__.py").is_file():
        print(f"error: no matchbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    try:
        w = workloads.build(name, seed, workdir)
        setup_s, setup_times, package = set_up(w)
        tracer = spans.Tracer(package) if traced else None
        latencies, first, state = measure(w, package, seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = state["problems"] + check_outputs(w, package, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        metrics = per_layer(w, tracer, state, first)
        overhead = tracing_overhead(state)
        with open(OUT / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "overhead": overhead,
                       "selfTimes": tracer.self_times(),
                       "spanFields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
        print(f"tracing overhead: {overhead:+.1%} on pass time", file=sys.stderr)
    else:
        metrics = end_to_end(latencies, setup_s, peak_rss_mib)
    result = {
        "correct": not problems,
        "attempted": state["attempted"],
        "failed": len(state["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {"workload": name, "seed": seed, "opsPerPass": len(w.ops),
               "opMedians": [[op.kind, median(lat) if lat else None]
                             for op, lat in zip(w.ops, latencies)],
               "passTimes": state["pass_times"], "tracedPasses": state["traced_passes"],
               "setupTimes": setup_times, "failures": state["failures"],
               "problems": problems, "result": result}
    with open(OUT / f"result-{name}-{seed}-trace{int(traced)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for msg in state["failures"]:
        print(f"failed: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
