"""Schema validation of the ``BENCH_e2e.json`` perf ledger (v8)."""

import json
import pathlib

import pytest

from repro.bench.harness import BENCH_E2E_SCHEMA, run_e2e_throughput

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

ROW_FIELDS = {
    "mode": str,
    "wall_seconds": float,
    "rounds_per_s": float,
    "keys_per_s": float,
    "examples_per_s": float,
    "stage_seconds": dict,
    "collision_splits": int,
    "admission_runs": int,
}
STAGES = {"read", "prepare", "load", "train"}
DEFAULT_MODES = {"lockstep-unplanned", "lockstep-planned", "pipelined-planned"}
PREFETCH_MODES = {"lockstep-prefetch", "pipelined-prefetch"}
PRESSURE_MODES = {
    "lockstep-planned",
    "pipelined-planned",
} | PREFETCH_MODES

#: The recovery scenario's rows are simulated-seconds/bytes based and
#: deliberately carry none of the wall-clock throughput fields.
RECOVERY_ROW_FIELDS = {
    "snapshot-overhead": {
        "n_snapshots": int,
        "full_bytes": int,
        "delta_bytes_mean": float,
        "bytes_ratio_full_over_delta": float,
        "snapshot_sim_seconds": float,
        "snapshot_serialize_seconds": float,
        "snapshot_transfer_seconds": float,
        "snapshot_overlap_saving_seconds": float,
        "baseline_makespan": float,
        "snapshot_makespan": float,
        "makespan_overhead": float,
    },
    "recovery-downtime": {
        "full_restore_seconds": float,
        "full_replay_seconds": float,
        "full_recovery_seconds": float,
        "full_rounds_replayed": int,
        "partial_restore_seconds": float,
        "partial_recovery_seconds": float,
        "partial_rounds_replayed": int,
        "recovery_speedup_partial_over_full": float,
    },
}

#: The faults scenario's rows are simulated-seconds based (like the
#: recovery rows) and deliberately wall-clock free; both modes carry the
#: same field set.
FAULTS_ROW_FIELDS = {
    "faults_fired": int,
    "retries": int,
    "recoveries": int,
    "reports": int,
    "training_sim_seconds": float,
    "restore_sim_seconds": float,
    "replay_sim_seconds": float,
    "downtime_sim_seconds": float,
    "mttr_seconds": float,
    "downtime_fraction": float,
    "retry_overhead_seconds": float,
    "straggler_seconds": float,
    "bytes_reread": int,
}
FAULTS_MODES = {"faults-lockstep", "faults-pipelined"}

#: The committed lockstep-planned pressure rounds/s as of PR 5 — the
#: frozen baseline the prefetch acceptance claim is measured against.
PR5_PRESSURE_PLANNED_BASELINE = 30.36


def _validate_rows(scenario: dict, modes: set[str]) -> None:
    assert {r["mode"] for r in scenario["rows"]} == modes
    for row in scenario["rows"]:
        for field, typ in ROW_FIELDS.items():
            assert isinstance(row[field], typ), f"{row['mode']}.{field}"
        stages = STAGES | (
            {"prefetch"} if row["mode"] in PREFETCH_MODES else set()
        )
        assert set(row["stage_seconds"]) == stages, row["mode"]
        assert row["wall_seconds"] > 0
        assert row["rounds_per_s"] > 0
        assert row["keys_per_s"] > 0


def validate_bench_e2e(doc: dict) -> None:
    assert doc["schema"] == BENCH_E2E_SCHEMA
    scenarios = {s["name"]: s for s in doc["scenarios"]}
    assert set(scenarios) == {"default", "pressure", "recovery", "faults"}

    default = scenarios["default"]
    for key in (
        "model",
        "n_rounds",
        "batch_size",
        "n_nodes",
        "gpus_per_node",
        "minibatches_per_gpu",
        "seed",
    ):
        assert key in default["workload"], f"default workload missing {key}"
    assert isinstance(default["parameter_parity"], bool)
    assert isinstance(default["speedup_planned_over_unplanned"], float)
    _validate_rows(default, DEFAULT_MODES)

    pressure = scenarios["pressure"]
    for key in (
        "model",
        "n_rounds",
        "mem_capacity_params",
        "cache_lru_fraction",
        "zipf_exponent",
        "warmup_rounds",
        "batch_size",
        "seed",
    ):
        assert key in pressure["workload"], f"pressure workload missing {key}"
    assert isinstance(pressure["parameter_parity"], bool)
    assert isinstance(pressure["seconds_parity"], bool)
    assert isinstance(pressure["prefetch_seconds_parity"], bool)
    assert isinstance(pressure["speedup_prefetch_over_bulk"], float)
    _validate_rows(pressure, PRESSURE_MODES)

    recovery = scenarios["recovery"]
    for key in (
        "model",
        "n_rounds",
        "n_sparse",
        "zipf_exponent",
        "warmup_rounds",
        "batch_size",
        "checkpoint_every",
        "kill_node",
        "seed",
    ):
        assert key in recovery["workload"], f"recovery workload missing {key}"
    assert isinstance(recovery["snapshot_parameter_parity"], bool)
    assert isinstance(recovery["recovery_parameter_parity"], bool)
    assert isinstance(recovery["bytes_ratio_full_over_delta"], float)
    by_mode = {r["mode"]: r for r in recovery["rows"]}
    assert set(by_mode) == set(RECOVERY_ROW_FIELDS)
    for mode, fields in RECOVERY_ROW_FIELDS.items():
        for field, typ in fields.items():
            assert isinstance(by_mode[mode][field], typ), f"{mode}.{field}"
    # Shape facts that hold at any scale, fresh or committed: deltas
    # really are cheaper than fulls, and the splice-in partial restore
    # replays nothing while the full restore replays something.
    assert by_mode["snapshot-overhead"]["bytes_ratio_full_over_delta"] > 1.0
    # The serialize/transfer split must account for the snapshot cost:
    # the flow-shop makespan saves real seconds over the serial sum but
    # never beats the transfer component alone.
    overhead = by_mode["snapshot-overhead"]
    assert overhead["snapshot_overlap_saving_seconds"] > 0.0
    assert overhead["snapshot_sim_seconds"] == pytest.approx(
        overhead["snapshot_serialize_seconds"]
        + overhead["snapshot_transfer_seconds"]
        - overhead["snapshot_overlap_saving_seconds"]
    )
    assert (
        overhead["snapshot_sim_seconds"]
        >= overhead["snapshot_transfer_seconds"]
    )
    assert by_mode["recovery-downtime"]["partial_rounds_replayed"] == 0
    assert by_mode["recovery-downtime"]["full_rounds_replayed"] > 0

    faults = scenarios["faults"]
    for key in (
        "model",
        "n_rounds",
        "n_sparse",
        "mem_capacity_params",
        "batch_size",
        "checkpoint_every",
        "schedule_seed",
        "max_faults",
        "rates",
        "seed",
    ):
        assert key in faults["workload"], f"faults workload missing {key}"
    assert isinstance(faults["parameter_parity"], bool)
    assert isinstance(faults["fault_kinds_fired"], list)
    by_mode = {r["mode"]: r for r in faults["rows"]}
    assert set(by_mode) == FAULTS_MODES
    for mode, row in by_mode.items():
        for field, typ in FAULTS_ROW_FIELDS.items():
            assert isinstance(row[field], typ), f"{mode}.{field}"
        # Wall-clock free: perf-smoke must skip these rows.
        assert "rounds_per_s" not in row
        # The schedule must have actually fired and been absorbed: a
        # fault-free 'faults' scenario would gate nothing.
        assert row["faults_fired"] > 0, mode
        assert row["retry_overhead_seconds"] > 0.0, mode
        assert 0.0 <= row["downtime_fraction"] < 1.0, mode
    # The healed runs must be bit-identical to their fault-free twins —
    # the tentpole invariant, recorded in the committed artifact.
    assert faults["parameter_parity"] is True
    assert faults["fault_kinds_fired"]


class TestBenchSchema:
    def test_fresh_run_matches_schema_and_roundtrips(self, tmp_path):
        out = tmp_path / "BENCH_e2e.json"
        result = run_e2e_throughput(
            n_rounds=2, batch_size=128, write_path=str(out)
        )
        validate_bench_e2e(result)
        validate_bench_e2e(json.loads(out.read_text()))

    def test_committed_ledger_is_valid(self):
        path = REPO_ROOT / "BENCH_e2e.json"
        if not path.exists():
            pytest.fail("BENCH_e2e.json must be committed at the repo root")
        validate_bench_e2e(json.loads(path.read_text()))

    def test_committed_ledger_records_pressure_win(self):
        """The pressure acceptance record lives in the committed
        artifact: parameters bit-identical across every pressure mode
        and simulated seconds bit-identical within each parity group.

        This reads the committed JSON, not a fresh run, so it is
        deterministic on every machine.
        """
        doc = json.loads((REPO_ROOT / "BENCH_e2e.json").read_text())
        pressure = {s["name"]: s for s in doc["scenarios"]}["pressure"]
        assert pressure["parameter_parity"] is True
        assert pressure["seconds_parity"] is True
        assert pressure["prefetch_seconds_parity"] is True

    def test_committed_ledger_records_prefetch_win(self):
        """The prefetch acceptance claim: the committed
        ``pipelined-prefetch`` pressure row must run at ≥3× the frozen
        PR-5 ``lockstep-planned`` pressure baseline (30.36 rounds/s).

        Like the pressure win above, this reads the committed artifact
        so it stays deterministic; regenerate on a quiet machine
        (``BENCH_WRITE=1``) rather than relaxing the floor.
        """
        doc = json.loads((REPO_ROOT / "BENCH_e2e.json").read_text())
        pressure = {s["name"]: s for s in doc["scenarios"]}["pressure"]
        by_mode = {r["mode"]: r for r in pressure["rows"]}
        floor = 3.0 * PR5_PRESSURE_PLANNED_BASELINE
        assert by_mode["pipelined-prefetch"]["rounds_per_s"] >= floor

    def test_committed_ledger_records_delta_snapshot_win(self):
        """The delta-checkpoint acceptance claims, read from the
        committed artifact so they are deterministic everywhere:

        * steady-state delta snapshots are ≥10× smaller than a full
          snapshot of the same state (the PR-7 tentpole claim), and
        * partial (single-node splice-in) recovery is strictly faster
          than full-cluster restore + replay, with bit-identical
          parameters in both cases.

        Unlike the wall-clock gates above, these numbers come off the
        simulated clock and byte counts, so a regeneration that moves
        them reflects a real semantic change, not machine noise.
        """
        doc = json.loads((REPO_ROOT / "BENCH_e2e.json").read_text())
        recovery = {s["name"]: s for s in doc["scenarios"]}["recovery"]
        assert recovery["bytes_ratio_full_over_delta"] >= 10.0
        assert recovery["snapshot_parameter_parity"] is True
        assert recovery["recovery_parameter_parity"] is True
        by_mode = {r["mode"]: r for r in recovery["rows"]}
        downtime = by_mode["recovery-downtime"]
        assert (
            downtime["partial_recovery_seconds"]
            < downtime["full_recovery_seconds"]
        )
