#!/usr/bin/env python3
"""Gates the bench harnesses' fresh BENCH_*.json against their acceptance
checks and against the committed snapshots.

Run it from the repository root once fig4_micro, fig6_fs, fig7_server,
fig7_cluster and fig8_migrate (each with --benchmark_filter=none) have
written their output there:

    python3 scripts/bench_gate.py

Each figure's checks run first; then every field of the fresh file except
the top-level `host` block and the file's row-level host columns must
equal `git show HEAD:<file>` (a drift gate on the virtual series). Host
columns are schema-checked only: CI hosts are too noisy for a timing
threshold. Prints one line per figure and exits 1 if any figure failed.

    python3 scripts/bench_gate.py --perfbench

is the perfbench correctness smoke instead: it builds perfbench and runs
each of its four workloads for one traced second. A workload fails unless
its result line reads `"correct": true` and `"failed": 0`. The traced
JVM runs check their output and a seeded stream of full-range Long64
divisions, remainders and products against hardware int64.
"""

import json
import subprocess
import sys

PERFBENCH_WORKLOADS = ["jvm_objects", "jvm_long", "fs_javac", "serve_files"]


class GateFailure(Exception):
    pass


def check(ok, message):
    if not ok:
        raise GateFailure(message)


def require(row, keys):
    for key in keys:
        check(key in row, f"missing {key} in {row['label']}")


def fig4(doc):
    check(doc["schema"] == "doppio-bench-v1", "fig4 schema")
    ablations = ("/elision", "/placement", "/quickening")
    main = [r for r in doc["series"] if not r["label"].endswith(ablations)]
    check(len(main) == 12, f"expected 12 main rows, got {len(main)}")
    for row in main:
        require(row, ("host_factor", "ns_per_bytecode"))
        for key in ("host_factor", "ns_per_bytecode"):
            check(row[key] > 0, f"{key} <= 0 in {row['label']}")

    # The bench itself exits 1 unless placed output is bit-identical, the
    # dynamic span stays within the proven bound, and the check reduction
    # clears 5x; these pin the ablation rows the trajectory scripts read.
    rows = [r for r in doc["series"] if r["label"].endswith("/placement")]
    check(len(rows) == 2, f"expected 2 placement rows, got {len(rows)}")
    for row in rows:
        label = row["label"]
        require(row, ("checks_everywhere", "checks_placed",
                      "suspend_checks_elided", "check_reduction",
                      "output_identical", "max_span_placed",
                      "proven_bound_k", "bound_ok"))
        check(row["suspend_checks_elided"] > 0,
              f"{label}: no suspend checks elided")
        check(row["output_identical"] == 1, f"{label}: output differs")
        check(row["bound_ok"] == 1, f"{label}: bound_ok {row['bound_ok']}")
        check(row["check_reduction"] >= 5.0,
              f"{label}: check_reduction {row['check_reduction']} < 5x")
        check(row["max_span_placed"] <= row["proven_bound_k"],
              f"{label}: span {row['max_span_placed']} over the bound")
    placement = ", ".join(f"{r['label']} {r['check_reduction']:.1f}x"
                          for r in rows)

    # The bench exits 1 unless quickened output is bit-identical and
    # deltablue's virtual-cpu bill at least halves.
    rows = [r for r in doc["series"] if r["label"].endswith("/quickening")]
    check(len(rows) == 2, f"expected 2 quickening rows, got {len(rows)}")
    for row in rows:
        label = row["label"]
        require(row, ("cpu_factor_baseline", "cpu_factor_quick",
                      "cpu_ratio", "quickened_sites", "ic_hits",
                      "ic_misses", "output_identical"))
        check(row["output_identical"] == 1, f"{label}: output differs")
        check(row["quickened_sites"] > 0, f"{label}: no quickened sites")
        check(0 < row["cpu_ratio"] < 1.0,
              f"{label}: cpu_ratio {row['cpu_ratio']} outside (0, 1)")
    db = next(r for r in rows if r["label"] == "deltablue/quickening")
    # Quickening must at least halve the deltablue interpreter bill
    # (pidigits is dominated by software-long surcharges that deliberately
    # do not quicken, DESIGN.md §18).
    check(db["cpu_ratio"] <= 0.5, f"deltablue ratio {db['cpu_ratio']}")
    check(db["ic_hits"] > db["ic_misses"], "inline caches not hitting")
    quick = ", ".join(f"{r['label']} {r['cpu_ratio']:.2f}x" for r in rows)
    return f"placement {placement}; quickening {quick}"


def fig6(doc):
    # The bench itself exits 1 unless warm cached-cloud lands within 2x of
    # inmemory on chrome.
    check(doc["schema"] == "doppio-bench-v1", "fig6 schema")
    labels = [r["label"] for r in doc["series"]]
    for want in ("inmemory", "cloud", "cached-cloud", "cached-cloud+warm",
                 "journal-idb", "journal-idb+warm"):
        check(want in labels, f"missing {want} row")
    rows = {r["label"]: r for r in doc["series"]}
    inmem = rows["inmemory"]["chrome"]
    warm = rows["cached-cloud+warm"]["chrome"]
    cloud = rows["cloud"]["chrome"]
    check(inmem > 0 and warm > 0, "fig6 chrome factors must be positive")
    check(warm <= 2.0 * inmem, f"warm {warm}x vs inmemory {inmem}x")
    check(cloud > 100, f"raw cloud suspiciously fast: {cloud}x")
    check(doc["host"]["gate_ok"] == 1, "fig6 host gate_ok is not 1")
    return (f"warm cached-cloud {warm:.2f}x, inmemory {inmem:.2f}x, "
            f"raw cloud {cloud:.0f}x")


def fig7_server(doc):
    check(doc["schema"] == "doppio-bench-v1", "fig7 schema")
    check(doc["series"], "no rows emitted")
    for row in doc["series"]:
        label = row["label"]
        require(row, ("req_per_s", "p99_us", "spans_finished",
                      "span_queue_delay_us_max", "loop_events_run",
                      "processes_spawned", "pipe_bytes",
                      "pipe_writer_suspends", "zombies_after_drain",
                      "spawn_roundtrip_ok"))
        check(row["spans_finished"] > 0, f"{label}: no spans finished")
        # Process subsystem: the piped workloads ran, backpressure engaged,
        # every zombie was reaped, and the doppiod spawn handler
        # round-tripped guest output.
        check(row["processes_spawned"] > 0, f"{label}: nothing spawned")
        check(row["pipe_bytes"] > 0, f"{label}: no pipe bytes")
        check(row["zombies_after_drain"] == 0,
              f"{label}: {row['zombies_after_drain']} zombies after drain")
        check(row["spawn_roundtrip_ok"] == 1,
              f"{label}: spawn round trip failed")
    return f"{len(doc['series'])} rows"


def fig7_cluster(doc):
    # The bench itself exits 1 unless chrome hits >=3x at 4 shards and
    # every row is clean.
    check(doc["schema"] == "doppio-bench-v1", "fig7_cluster schema")
    scale = [r for r in doc["series"] if "/drain4" not in r["label"]]
    drains = [r for r in doc["series"] if "/drain4" in r["label"]]
    check(len(drains) == 6, f"expected 6 drain rows, got {len(drains)}")
    for row in scale:
        label = row["label"]
        require(row, ("shards", "req_per_s", "speedup_vs_1",
                      "route_p99_us", "rtt_p99_us", "served_total",
                      "snapshots", "workers_ok", "zombies", "row_ok"))
        check(row["row_ok"] == 1, f"{label}: row_ok {row['row_ok']}")
        check(row["zombies"] == 0, f"{label}: {row['zombies']} zombies")
        check(row["snapshots"] == row["shards"],
              f"{label}: {row['snapshots']} snapshots for "
              f"{row['shards']} shards")
    for row in drains:
        label = row["label"]
        check(row["drain_clean"] == 1,
              f"{label}: drain_clean {row['drain_clean']}")
        check(row["errors"] == 0, f"{label}: {row['errors']} errors")
        check(row["pending_work_after"] == 0,
              f"{label}: pending_work_after {row['pending_work_after']}")
    spd = doc["host"]["chrome_speedup_4sh"]
    check(spd >= 3.0, f"chrome 4-shard speedup {spd} < 3x")
    return (f"{len(scale)} scale rows, {len(drains)} clean drains, "
            f"chrome 4sh speedup {spd}x")


def fig8_migrate(doc):
    # The bench itself exits 1 unless every profile's migrated output is
    # bit-identical to the unmigrated baseline.
    check(doc["schema"] == "doppio-bench-v1", "fig8_migrate schema")
    check(len(doc["series"]) == 6, "expected 6 profile rows")
    for row in doc["series"]:
        label = row["label"]
        require(row, ("capture_us", "blob_bytes", "restore_us",
                      "downtime_us", "migrations", "baseline_bytes",
                      "output_identical", "dst_exit", "row_ok"))
        check(row["migrations"] == 1,
              f"{label}: {row['migrations']} migrations")
        check(row["output_identical"] == 1,
              f"{label}: output_identical {row['output_identical']}")
        check(row["dst_exit"] == 0, f"{label}: dst_exit {row['dst_exit']}")
        check(row["blob_bytes"] > 0, f"{label}: empty checkpoint blob")
        check(row["row_ok"] == 1, f"{label}: row_ok {row['row_ok']}")
    host = doc["host"]
    check(host["output_identical_all"] == 1,
          "fig8 host output_identical_all is not 1")
    check(host["downtime_us_max"] > 0, "fig8 host downtime_us_max is 0")
    return (f"{len(doc['series'])} profiles, "
            f"max downtime {host['downtime_us_max']}us")


def drift(tag, path, doc, host_columns):
    """Every field but `host` and the row-level host columns must equal
    the committed snapshot."""
    committed = json.loads(
        subprocess.check_output(["git", "show", f"HEAD:{path}"]))
    check(set(doc) == set(committed), f"{tag} top-level keys drifted")
    for key in sorted(set(doc) - {"host", "series"}):
        check(doc[key] == committed[key], f"{tag} {key} drifted")
    check(len(doc["series"]) == len(committed["series"]),
          f"{tag} row count drifted")

    def virtual(row):
        return {k: v for k, v in row.items() if k not in host_columns}

    for row, want in zip(doc["series"], committed["series"]):
        check(set(row) == set(want), f"{tag} {row['label']} keys drifted")
        check(virtual(row) == virtual(want), f"{tag} {row['label']} drifted")


# (tag, snapshot, acceptance checks, row-level host columns)
FIGURES = [
    ("fig4", "BENCH_fig4_micro.json", fig4,
     {"host_factor", "ns_per_bytecode", "guarded_s", "elided_s", "speedup"}),
    ("fig6", "BENCH_fig6_fs.json", fig6, set()),
    ("fig7", "BENCH_fig7_server.json", fig7_server, set()),
    ("fig7_cluster", "BENCH_fig7_cluster.json", fig7_cluster, set()),
    ("fig8_migrate", "BENCH_fig8_migrate.json", fig8_migrate, set()),
]


def perfbench_smoke():
    failed = False
    for workload in PERFBENCH_WORKLOADS:
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seconds", "1", "--trace", "1"],
            stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        try:
            check(run.returncode == 0 and lines,
                  f"exit {run.returncode}, no result line")
            result = json.loads(lines[-1])
            check(result.get("correct") is True,
                  f"correct is {result.get('correct')}")
            check(result.get("failed") == 0,
                  f"{result.get('failed')} operations failed")
            print(f"perfbench {workload} ok: "
                  f"{result['attempted']} operations")
        except (GateFailure, ValueError) as e:
            print(f"perfbench {workload} FAILED: {e}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def main():
    if sys.argv[1:] == ["--perfbench"]:
        return perfbench_smoke()
    if sys.argv[1:]:
        print("usage: bench_gate.py [--perfbench]", file=sys.stderr)
        return 2
    failed = False
    for tag, path, gate, host_columns in FIGURES:
        try:
            with open(path) as f:
                doc = json.load(f)
            summary = gate(doc)
            drift(tag, path, doc, host_columns)
            print(f"{tag} ok: {summary}")
        except GateFailure as e:
            print(f"{tag} FAILED: {e}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
