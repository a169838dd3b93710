"""The repository benchmark: closed-loop YCSB workloads on two clocks.

Run from the repository root::

    python3 perfbench/run.py                                # every workload
    python3 perfbench/run.py --workload ycsb-a --seed 11 --seconds 5
    python3 perfbench/run.py --workload ycsb-c --trace 1    # per-layer run

With ``--workload`` the named workload runs in this process; without it
each workload runs in its own child process, one after another.  The
untraced run (``--trace 0``) prints every end-to-end metric; the traced
run (``--trace 1``) first repeats the untraced run, then runs again with
the layer wrappers, the sampling profiler and the invariant monitor on,
checks that the simulated results are bit-identical, and prints every
per-layer metric.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.

See ``perfbench/README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_ROOT = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(BENCH_ROOT), "src")

#: the seed of the recorded BENCH_treaty.json baseline.
DEFAULT_SEED = 11

#: minimum measured commits per run: the p99 then has ten samples
#: beyond it.
MIN_COMMITS = 1_000

#: per-layer metrics that must be exactly zero on a workload that is
#: meant to bypass the layer; a workload that starts using it fails.
BYPASS = {
    "twopc-native": ("crypto.aead_calls_per_txn",
                     "core.counter_rounds_per_txn",
                     "storage.kb_written_per_txn"),
    "ycsb-c": ("core.counter_rounds_per_txn", "net.node_frames_per_txn"),
}

#: the workloads, in the order the all-workloads mode runs them
#: (defined in workloads.WORKLOADS).
WORKLOAD_NAMES = ("ycsb-a", "ycsb-c", "twopc-native")


def _import_program():
    if not os.path.isdir(os.path.join(SRC_ROOT, "repro")):
        sys.exit("perfbench: no program source at %s" % SRC_ROOT)
    sys.path.insert(0, SRC_ROOT)


def _print_metrics(title, metrics, samples=None):
    print("== %s" % title)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "p99_ms" and samples is not None:
            note = "  (from %d samples)" % samples
        print("  %-30s %14.6g %-8s%s" % (name, value, unit, note))


def _bypass_failures(workload, metrics):
    return [
        "%s: %s = %r, but this workload bypasses that layer"
        % (workload, name, metrics[name][0])
        for name in BYPASS.get(workload, ())
        if name in metrics and metrics[name][0] != 0
    ]


def _traced_run(workload, seed, untraced):
    """The traced run of ``workload``; returns (per-layer metrics,
    failures), including any difference from the untraced run."""
    import layers
    import workloads

    trace = layers.LayerTrace(SRC_ROOT, BENCH_ROOT)
    trace.patch()
    try:
        result = workloads.run_workload(workload, seed, 0.0, trace=trace,
                                     repeat_setup=False)
    finally:
        trace.unpatch()
    failures = list(result.check_failures)
    traced_sim = result.simulated()
    for key, (value, _unit) in untraced.simulated().items():
        if traced_sim[key][0] != value:
            failures.append("traced run changed %s: %r != %r"
                            % (key, traced_sim[key][0], value))
    counts = [
        (run.committed,
         workloads.delta(run.after, run.before, "sim.entries_executed"))
        for run in (result, untraced)
    ]
    if counts[0] != counts[1]:
        failures.append("traced run changed (commits, heap entries): "
                        "%r != %r" % tuple(counts))
    metrics = layers.per_layer(result, trace, untraced)
    print("  sampled host share: %s" % ", ".join(
        "%s %.1f%%" % (layer, 100 * share) for layer, share in
        sorted(trace.host_shares().items(), key=lambda kv: -kv[1])))
    _print_metrics("per layer (%s)" % workload.name, metrics)
    return metrics, failures


def run_one(name, seed, seconds, traced):
    """Run one workload in this process; returns (correct, attempted,
    failed, metrics)."""
    _import_program()
    import workloads
    import layers

    workload = workloads.WORKLOADS[name]
    print("workload %s, seed %d: %s" % (name, seed, workload.why))
    print("  closed loop, %d clients, warm-up %.3f s + window %.3f s "
          "simulated" % (workload.clients, workload.warmup_s,
                         workload.window_s))
    untraced = workloads.run_workload(
        workload, seed, 0.0 if traced else seconds,
        repeat_setup=not traced, read_back_writes=not traced)
    failures = list(untraced.check_failures)
    if untraced.committed < MIN_COMMITS:
        failures.append("only %d measured commits (need %d)"
                        % (untraced.committed, MIN_COMMITS))
    end_to_end = untraced.end_to_end()
    print("  %d commits, %d failed, %d retries in the window; wall: "
          "set-up %s s, run %.1f s, checks %.1f s" % (
              untraced.committed, untraced.failed, untraced.retries,
              " ".join("%.3f" % s for s in untraced.setup_runs),
              untraced.run_wall_s, untraced.checks_wall_s))
    print("  host ms/txn per chunk (reference host): %s; raw window "
          "%.3f ms/txn" % (" ".join("%.2f" % c for c in
                                    untraced.host_chunks_ms),
                           untraced.raw_host_ms_per_txn))
    _print_metrics("end to end (%s)" % name, end_to_end,
                   samples=len(untraced.latencies))
    print("  %-30s %14.6g %-8s" % (
        "failed_ratio", untraced.failed / max(1, untraced.attempted), "ratio"))
    if traced:
        metrics, traced_failures = _traced_run(workload, seed, untraced)
        failures.extend(traced_failures)
        bypass = metrics
    else:
        metrics = end_to_end
        bypass = layers.counter_metrics(untraced)
    failures.extend(_bypass_failures(name, bypass))
    for failure in failures:
        print("CHECK FAILED: %s" % failure)
    attempted = untraced.attempted
    failed = untraced.failed + len(failures)
    return not failures, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None, choices=WORKLOAD_NAMES,
                        help="one workload; default: every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum host CPU seconds the untraced run "
                             "measures (past the simulated window, for the "
                             "host-cost chunks only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload is None:
        return _run_children(args)
    correct, attempted, failed, metrics = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _run_children(args):
    """Each workload in its own child process, one at a time."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            summary[name] = json.loads(lines[-1])
        if child.returncode != 0:
            status = 1
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
