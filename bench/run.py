"""betafin benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload witness_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; betafin is imported from its
``src`` directory.  One client in one thread sends the next task only
after the previous one returns.  ``--trace 0`` measures the end-to-end
metrics with tracing off, every time scaled to a reference host speed
(hostspeed.py); ``--trace 1`` runs a fixed prefix of the same
task stream twice untraced and twice traced, and reports the per-layer
metrics.  Outputs are checked after the timed loop; the last line of
standard output is one JSON object, and a failed check exits with 1.
See bench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SPAN_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 9


def import_betafin():
    """Import betafin from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "betafin", "__init__.py")):
        sys.exit(f"bench: no betafin sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import betafin

    if os.path.dirname(os.path.dirname(os.path.abspath(betafin.__file__))) != SRC:
        sys.exit(f"bench: betafin was imported from {betafin.__file__}, not {SRC}")
    return betafin


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up ----------------------------------------------------------------


def set_up(workload_cls, seed):
    """Input generation plus make_field for every field the workload uses."""
    wl = workload_cls(seed)
    return wl, wl.build_fields()


def measure_setup(args) -> float:
    """Median over fresh interpreters of the time from interpreter start to
    the point where the first task could run: import, inputs, fields.

    Each probe is scaled to the reference host by the chunk time the
    probe measures right after it is ready (see hostspeed.py)."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit("bench: set-up probe failed")
        times.append((ready - start) * hostspeed.CHUNK_NOMINAL_S / float(rest))
    return statistics.median(times)


# -- the closed loop ---------------------------------------------------------


def attempt(wl, fields, spec):
    """One task.  An exception is returned as the result and counts as a
    failed task, so one failure does not end the run."""
    try:
        return wl.run(fields[wl.field_of(spec)], spec)
    except Exception as exc:
        traceback.print_exc()
        return exc


def failures(wl, fields, done, reference) -> int:
    """Tasks that raised plus tasks whose outputs fail the checks."""
    ok = [(spec, r) for spec, r in done if not isinstance(r, Exception)]
    return len(done) - len(ok) + wl.check(fields, ok, reference).count(False)


def timed_loop(wl, fields, seconds):
    """Run tasks in stream order until `seconds` have elapsed.

    A workload with passes (grid_survey) stops only between whole passes
    and gets fresh fields for each pass after the first; building them is
    not timed.  Each latency excludes the speed probe's own chunks and is
    scaled to the reference host (see hostspeed.py).  Returns (done,
    reference-host latencies, raw latencies, fields).
    """
    done, spans = [], []
    clock = time.perf_counter
    elapsed = 0.0
    with hostspeed.SpeedProbe() as probe:
        while elapsed < seconds:
            if done:
                fields = wl.build_fields()
            start = clock()
            for spec in wl.specs:
                t0 = clock()
                result = attempt(wl, fields, spec)
                t1 = clock()
                spans.append((t0, t1))
                done.append((spec, result))
                if not wl.whole_passes and t1 - start >= seconds:
                    break
            elapsed += clock() - start
            if not wl.whole_passes:
                break
    raw = [b - a - probe.paused(a, b) for a, b in spans]
    lat = [d * probe.scale(a, b) for d, (a, b) in zip(raw, spans)]
    return done, lat, raw, fields


def tail(lat):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    s = sorted(lat)
    n = len(s)
    k = max(n - 11, 0)
    return s[k], 100.0 * (k + 1) / n, n - k - 1


def unknown_slots(done) -> int:
    """Unknown verdicts among F, PF and F1 over the classify reports in done."""
    return sum((r.f, r.pf, r.f1).count("unknown") for _, r in done if hasattr(r, "f1"))


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def end_to_end(args, workload_cls):
    setup_s = measure_setup(args)
    wl, fields = set_up(workload_cls, args.seed)
    done, lat, raw, fields = timed_loop(wl, fields, args.seconds)
    failed = failures(wl, fields, done, load_reference())
    t_val, t_pct, t_beyond = tail(lat)
    metrics = {
        "tasks_per_s": (len(done) / sum(lat), "1/s"),
        "task_ms_p50": (1000 * statistics.median(lat), "ms"),
        "task_ms_tail": (1000 * t_val, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"fail_share": (failed / len(done), "ratio")}
    if wl.name == "grid_survey":
        extra["unknown_share"] = (unknown_slots(done) / (3 * len(done)), "ratio")
    print(f"workload {wl.name}  seed {args.seed}  tasks {len(done)}  task time {sum(raw):.3f} s"
          f" measured, {sum(lat):.3f} s at reference speed")
    for name, (value, unit) in {**metrics, **extra}.items():
        note = f"  (p{t_pct:.2f}, {t_beyond} samples beyond, n={len(lat)})" if name == "task_ms_tail" else ""
        print(f"  {name:<14} {value:.6g} {unit}{note}")
    return len(done), failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# -- the traced run ----------------------------------------------------------


def prefix_pass(workload_cls, seed, tracer=None):
    """Fresh set-up and the first trace_tasks tasks of the stream.

    With a tracer installed, field construction is traced as well.  A
    reference chunk runs before the first task and after every task,
    outside any span; each task is scaled to the reference host by the
    two chunks around it (see hostspeed.py).  Returns
    (workload, done, task seconds at reference speed, chunk seconds, fields).
    """
    wl = workload_cls(seed)
    specs = wl.specs[: wl.trace_tasks]
    fields = wl.build_fields(sorted({wl.field_of(s) for s in specs}, key=str))
    done, tasks = [], []
    c0, c1 = hostspeed.timed_chunk()
    chunks = [c1 - c0]
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.task_id = i
        start = time.perf_counter()
        done.append((spec, attempt(wl, fields, spec)))
        tasks.append(time.perf_counter() - start)
        c0, c1 = hostspeed.timed_chunk()
        chunks.append(c1 - c0)
    scaled = sum(
        t * 2 * hostspeed.CHUNK_NOMINAL_S / (before + after)
        for t, before, after in zip(tasks, chunks, chunks[1:])
    )
    return wl, done, scaled, sum(chunks), fields


def layer_metrics(tr, fields, done, traced_s):
    from tracing import TARGETS

    m = {}
    for name, *_ in TARGETS:
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.self_share"] = (tr.self_time(name) / traced_s, "ratio")

    def ratio(a, b):
        return a / b if b else 0.0

    decisions = tr.calls("field.sign") + tr.calls("field.floor")
    bits = max(q.denominator.bit_length() for f in fields.values() for q in f.interval)
    add_one = tr.calls("normalization.add_one")
    classify = tr.calls("classify.classify")
    derived = {
        "field.refine_per_decision": (ratio(tr.calls("field.refine"), decisions), "ratio"),
        "field.interval_bits_max": (bits, "bits"),
        "expansion.t_map.repeat_share": (
            ratio(tr.calls("expansion.t_map") - len(tr.t_map_args), tr.calls("expansion.t_map")), "ratio"),
        "expansion.d_beta.states": (tr.edge("expansion.d_beta", "expansion.t_map"), "count"),
        "normalization.carry_steps_per_add_one": (ratio(tr.calls("normalization.carry_step"), add_one), "ratio"),
        "normalization.admissible_accept_ratio": (
            ratio(add_one, tr.edge("normalization.add_one", "expansion.is_admissible")), "ratio"),
        "srs.q_set.nodes": (tr.q_set_nodes, "count"),
        "srs.q_set.calls_per_classify": (ratio(tr.calls("srs.q_set"), classify), "ratio"),
        "classify.unknown_share": (ratio(unknown_slots(done), 3 * classify), "ratio"),
    }
    m.update(derived)
    return m


def per_layer(args, workload_cls):
    """Untraced and traced passes alternate, U T U T, each from fresh
    set-up; the two traced passes must give identical counts."""
    from tracing import Tracer

    reference = load_reference()
    failed = 0
    plain_s = traced_s = 0.0
    traced = []
    for rep in range(2):
        wl, done, seconds, _, fields = prefix_pass(workload_cls, args.seed)
        plain_s += seconds
        failed += failures(wl, fields, done, reference)
        with Tracer() as tr:
            start = time.perf_counter()
            wl, done, seconds, chunk_s, fields = prefix_pass(workload_cls, args.seed, tr)
            pass_s = time.perf_counter() - start - chunk_s
        traced_s += seconds
        failed += failures(wl, fields, done, reference)
        traced.append(layer_metrics(tr, fields, done, pass_s))
        if rep == 0:
            os.makedirs(SPAN_DIR, exist_ok=True)
            tr.write_spans(os.path.join(SPAN_DIR, f"spans_{wl.name}_seed{args.seed}.jsonl"))
    first, second = traced
    differ = [k for k, (v, u) in first.items() if not k.endswith(".self_share") and second[k][0] != v]
    n = len(done)
    metrics = dict(first)
    metrics["trace.untraced_tasks_per_s"] = (2 * n / plain_s, "1/s")
    metrics["trace.traced_tasks_per_s"] = (2 * n / traced_s, "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    print(f"workload {wl.name}  seed {args.seed}  traced prefix of {n} tasks")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    if differ:
        print(f"  counts differ between the two traced passes: {', '.join(differ)}")
    return 4 * n, failed + len(differ), {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    import_betafin()
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        set_up(workload_cls, args.seed)
        print("ready", flush=True)
        print(hostspeed.chunk_median(), flush=True)
        return 0
    run = per_layer if args.trace else end_to_end
    attempted, failed, metrics = run(args, workload_cls)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
