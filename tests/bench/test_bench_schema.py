"""BENCH file schema: round-trip, version gate, pinned-matrix hash."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_ID,
    SCHEMA_VERSION,
    load_report,
    matrix_cells,
    matrix_hash,
    pair_cells,
    write_report,
)
from repro.bench.matrix import BenchCell, cluster_row_config
from repro.harness.registry import SCHEDULERS

#: The pinned matrix definition's content hashes.  These goldens change
#: whenever matrix.py changes a cell, a config, or a pair — which is
#: exactly the point: a matrix edit must be a conscious, reviewed act,
#: because it severs comparability with every committed BENCH file.
GOLDEN_FULL_HASH = (
    "1796a35d7f150df05ecc7d1d2a34f45a7bbddce09cb45f1334c3bc5deabd08b8"
)
GOLDEN_SMOKE_HASH = (
    "847b3e1fc444842981267a3346e4247db35417afe969da761599d247632ec1c1"
)


def _minimal_report() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "bench_id": BENCH_ID,
        "matrix_hash": matrix_hash(),
        "smoke": False,
        "repeats": 5,
        "cells": [],
        "pairs": [],
        "cluster": None,
    }


def test_round_trip_is_exact(tmp_path):
    report = _minimal_report()
    report["cells"] = [
        {"id": "cell/volano/reg/UP", "wall_seconds": 1.234567,
         "deterministic": True,
         "fingerprint": {"stats": {"picks": 7}, "metrics": {"t": 0.1}}}
    ]
    path = write_report(report, tmp_path / "BENCH_t.json")
    assert load_report(path) == report


def test_version_gate_rejects_other_versions(tmp_path):
    report = _minimal_report()
    report["schema_version"] = SCHEMA_VERSION + 1
    path = tmp_path / "BENCH_future.json"
    path.write_text(json.dumps(report))
    with pytest.raises(ValueError, match="schema_version"):
        load_report(path)


def test_version_gate_rejects_missing_version(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"cells": []}))
    with pytest.raises(ValueError, match="schema_version"):
        load_report(path)


@pytest.mark.parametrize("key", ["bench_id", "matrix_hash", "cells"])
def test_required_keys_are_gated(tmp_path, key):
    report = _minimal_report()
    del report[key]
    path = tmp_path / "BENCH_partial.json"
    path.write_text(json.dumps(report))
    with pytest.raises(ValueError, match=key):
        load_report(path)


# -- the pinned matrix -------------------------------------------------------


def test_matrix_hash_is_stable():
    assert matrix_hash() == GOLDEN_FULL_HASH
    assert matrix_hash(smoke=True) == GOLDEN_SMOKE_HASH


def test_matrix_hash_is_deterministic_across_calls():
    assert matrix_hash() == matrix_hash()


def test_matrix_covers_every_scheduler_both_machines():
    cells = matrix_cells()
    seen = {(c.scheduler, c.machine, c.workload) for c in cells}
    for scheduler in SCHEDULERS:
        for machine in ("UP", "4P"):
            for workload in ("volano", "kernbench", "serve"):
                assert (scheduler, machine, workload) in seen
    assert len(cells) == len(SCHEDULERS) * 2 * 3


def test_smoke_matrix_is_a_subset_with_identical_descriptors():
    full = {c.cell_id: c.descriptor() for c in matrix_cells()}
    for cell in matrix_cells(smoke=True):
        assert full[cell.cell_id] == cell.descriptor()
        assert cell.deterministic


def test_smoke_pairs_are_a_subset():
    full = {p.cell_id: p.descriptor() for p in pair_cells()}
    smoke = pair_cells(smoke=True)
    assert len(smoke) == 1
    assert full[smoke[0].cell_id] == smoke[0].descriptor()


def test_pairs_cover_all_three_hot_path_dimensions():
    dims = {p.dimension for p in pair_cells()}
    assert dims == {"runqueue", "elsc-table", "probe-batch"}


def test_matrix_hash_tracks_descriptor_changes(monkeypatch):
    """Changing any pinned config must change the hash."""
    import repro.bench.matrix as matrix_mod

    drifted = dict(matrix_mod.MATRIX_CONFIGS)
    drifted["volano"] = {**drifted["volano"], "rooms": 99}
    monkeypatch.setattr(matrix_mod, "MATRIX_CONFIGS", drifted)
    assert matrix_hash() != GOLDEN_FULL_HASH


def test_cell_ids_are_unique():
    ids = [c.cell_id for c in matrix_cells()]
    ids += [p.cell_id for p in pair_cells()]
    assert len(ids) == len(set(ids))


def test_cluster_row_config_is_json_scalar_only():
    config = cluster_row_config()
    json.dumps(config)  # must serialise
    assert config["shards"] >= 2


def test_descriptor_is_canonical_json_material():
    cell = BenchCell(
        workload="volano", scheduler="reg", machine="UP",
        config=(("rooms", 2),), deterministic=True,
    )
    descriptor = cell.descriptor()
    assert descriptor["id"] == "cell/volano/reg/UP"
    # Round-trips through canonical JSON without loss.
    canonical = json.dumps(descriptor, sort_keys=True)
    assert json.loads(canonical) == descriptor
