"""End-to-end throughput ledger: per-scenario wall-clock speed.

The BatchPlan threads one per-round key plan through every tier, and the
admission engine keeps cache batch ops bulk-exact under memory pressure;
this benchmark is the repo's perf trajectory anchor.  Per scenario it
asserts

* losslessness — every mode's parameters bit-identical (and, for the
  pressure scenario, simulated seconds bit-identical to the lockstep
  anchor of each parity group — ``lockstep-planned`` for the
  non-prefetch modes, ``lockstep-prefetch`` for the prefetch modes);
* the refactor pays — the planned path ≥ 1.5× rounds/s over the
  pre-plan baseline;
* no silent perf regression — fresh rounds/s within 30% of the
  committed ``BENCH_e2e.json`` baseline, compared per (scenario, mode)
  inside the non-blocking CI perf-smoke job;
* checkpointing stays cheap and lossless — the recovery scenario's
  parity flags hold on every fresh run (its byte/seconds claims are
  deterministic and pinned in tests/plan/test_bench_schema.py);
* fault recovery stays lossless and bounded — the faults scenario's
  healed runs are bit-identical to their fault-free twins on every
  fresh run, and (inside the perf-smoke job) the fresh downtime
  fraction never exceeds the committed baseline's by more than the
  regression tolerance.  Its rows are simulated-seconds based and
  wall-clock free, so the rounds/s comparison skips them like the
  recovery rows.

Set ``BENCH_WRITE=1`` to refresh ``BENCH_e2e.json`` at the repo root
(the CI perf job does, and uploads it as an artifact).
"""

import json
import os
import pathlib

from repro.bench.harness import BENCH_E2E_SCHEMA, run_e2e_throughput
from repro.bench.report import format_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_e2e.json"

#: Fail only on a >30% rounds/s drop vs the committed baseline.
REGRESSION_TOLERANCE = 0.30

#: Wall-clock ratio floor.  The documented claim (≥1.5× planned over
#: unplanned) is enforced at full strength on dedicated machines; shared
#: CI runners compress every timing ratio, so the *live* floor relaxes
#: to 1.2 there.
REQUIRED_SPEEDUP = 1.2 if os.environ.get("CI") else 1.5


def test_e2e_throughput(benchmark):
    # Snapshot the committed baseline, then (under BENCH_WRITE=1) let the
    # harness's own serializer refresh it *before* any assertion, so a
    # failing run still uploads its actual measurement and manual
    # regenerations produce byte-identical files.
    baseline_snapshot = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else None
    )
    write_path = (
        str(BASELINE_PATH) if os.environ.get("BENCH_WRITE") == "1" else None
    )
    doc = benchmark.pedantic(
        run_e2e_throughput, kwargs={"write_path": write_path}, rounds=1,
        iterations=1,
    )
    scenarios = {s["name"]: s for s in doc["scenarios"]}
    for scenario in doc["scenarios"]:
        # The recovery scenario's rows are simulated-seconds/bytes based
        # and carry no wall-clock throughput fields.
        rows = [r for r in scenario["rows"] if "rounds_per_s" in r]
        if not rows:
            continue
        print(
            "\n"
            + format_table(
                ["mode", "rounds/s", "keys/s", "examples/s", "wall (s)"],
                [
                    (
                        r["mode"],
                        r["rounds_per_s"],
                        r["keys_per_s"],
                        r["examples_per_s"],
                        r["wall_seconds"],
                    )
                    for r in rows
                ],
                title=f"End-to-end throughput: {scenario['name']} scenario",
            )
        )

    assert doc["schema"] == BENCH_E2E_SCHEMA
    default = scenarios["default"]
    pressure = scenarios["pressure"]
    recovery = scenarios["recovery"]
    faults = scenarios["faults"]
    print(
        f"planned-over-unplanned: "
        f"{default['speedup_planned_over_unplanned']:.2f}x, "
        f"pressure prefetch-over-bulk: {pressure['speedup_prefetch_over_bulk']:.2f}x, "
        f"depth2-over-depth1: "
        f"{pressure['speedup_prefetch_k2_over_k1']:.2f}x, "
        f"full-over-delta bytes: "
        f"{recovery['bytes_ratio_full_over_delta']:.2f}x"
    )

    # Losslessness: neither the plan, the admission engine, nor the
    # prefetch stage changes the math — and under pressure not even the
    # simulated clock (within each parity group).
    assert default["parameter_parity"] is True
    assert pressure["parameter_parity"] is True
    assert pressure["seconds_parity"] is True
    assert pressure["prefetch_seconds_parity"] is True
    assert recovery["snapshot_parameter_parity"] is True
    assert recovery["recovery_parameter_parity"] is True
    # The fault-tolerance invariant: every fault in the bench schedule
    # is recoverable, so the supervised runs must heal to bit-identical
    # parameters.
    assert faults["parameter_parity"] is True
    # The perf claim: the planned path beats the pre-plan baseline (fat
    # margin — safe for the blocking tier-1 job).
    assert default["speedup_planned_over_unplanned"] >= REQUIRED_SPEEDUP

    # Absolute rounds/s vs the committed ledger is machine-relative, so
    # the comparison only arms inside the CI perf-smoke job (which is
    # non-blocking); the ratio checks above run everywhere.  The gate is
    # per (scenario, mode): an aggregate comparison would let a pressure
    # regression hide behind a default-scenario win.
    if os.environ.get("BENCH_COMPARE") == "1" and baseline_snapshot:
        fresh_rows = {
            (s["name"], r["mode"]): r
            for s in doc["scenarios"]
            for r in s["rows"]
        }
        for base_scenario in baseline_snapshot.get("scenarios", []):
            for base_row in base_scenario.get("rows", []):
                fresh = fresh_rows.get(
                    (base_scenario["name"], base_row["mode"])
                )
                if fresh is None:
                    continue
                if "rounds_per_s" not in base_row:
                    # Recovery/faults rows carry no wall-clock fields;
                    # the faults rows instead gate on downtime fraction
                    # (simulated, so any drift is a semantic change,
                    # not machine noise — the tolerance only absorbs
                    # deliberate workload retuning).
                    if "downtime_fraction" in base_row:
                        ceiling = (
                            base_row["downtime_fraction"]
                            * (1.0 + REGRESSION_TOLERANCE)
                            + 1e-9
                        )
                        assert fresh["downtime_fraction"] <= ceiling, (
                            f"{base_scenario['name']}/{base_row['mode']} "
                            f"downtime regressed: "
                            f"{fresh['downtime_fraction']:.4f} > "
                            f"{ceiling:.4f} (committed "
                            f"{base_row['downtime_fraction']:.4f} "
                            f"+ tolerance)"
                        )
                    continue
                floor = base_row["rounds_per_s"] * (1.0 - REGRESSION_TOLERANCE)
                assert fresh["rounds_per_s"] >= floor, (
                    f"{base_scenario['name']}/{base_row['mode']} regressed: "
                    f"{fresh['rounds_per_s']:.2f} rounds/s < 70% of "
                    f"committed {base_row['rounds_per_s']:.2f}"
                )
