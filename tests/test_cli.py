import contextlib
import copy
import csv
import dataclasses
import io
import json
import os
import multiprocessing
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import beamloc.evaluation
import beamloc.fingerprint
from beamloc.cli import main
from beamloc.config import ConfigError, DatasetConfig, load_run_config
from beamloc.dtree import TreeConfig
from beamloc.fingerprint import FeatureConfig, generate_samples
from beamloc.mlp import TrainConfig
from beamloc.propagation import PropagationConfig
from beamloc.scenario import ScenarioConfig, build_scenario

TINY = os.path.join(os.path.dirname(__file__), "..", "configs", "tiny.yaml")
MATRIX = os.path.join(os.path.dirname(__file__), "..", "configs", "paper-matrix.yaml")


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def base_doc(out_dir):
    return {
        "seed": 3,
        "output_dir": out_dir,
        "scenario": {
            "site_rows": 1,
            "site_cols": 1,
            "beams_per_sector": 8,
            "elevation_steers_deg": [-6.0],
            "grid_resolution_m": 4.0,
        },
        "dataset": {"min_cell_size": 10},
        "experiments": [
            {
                "id": "tree",
                "model": "dtree",
                "features": {"n_serving_beams": 2, "n_neighbor_cells": 0},
            }
        ],
    }


def test_shipped_configs_parse():
    tiny = load_run_config(TINY)
    assert len(tiny.experiments) == 2
    matrix = load_run_config(MATRIX)
    assert len(matrix.experiments) == 9
    assert {d.topology for d in matrix.experiments} == {"network_level", "cell_specific"}


def test_config_missing_file_exits_2(capsys, tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_unknown_key_named(tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["scenario"]["n_sites"] = 4
    with pytest.raises(ConfigError, match="scenario: unknown key 'n_sites'"):
        load_run_config(write_config(tmp_path, doc))


def test_config_bad_value_names_section(tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["dataset"]["split_fraction"] = 1.5
    with pytest.raises(ConfigError, match="dataset: split_fraction"):
        load_run_config(write_config(tmp_path, doc))


def test_config_duplicate_experiment_id(tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["experiments"].append(dict(doc["experiments"][0]))
    with pytest.raises(ConfigError, match="duplicate id 'tree'"):
        load_run_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("exp_id", ["../../outside", "{tmp}/escaped", "sub/arm", "arm\0x"])
def test_config_experiment_id_that_is_not_a_file_name(capsys, tmp_path, exp_id):
    """An id names its report files, so one that would put them outside
    reports/ (or that no file name can hold) is a config error."""
    exp_id = exp_id.format(tmp=tmp_path)
    doc = base_doc(str(tmp_path / "out"))
    doc["experiments"][0]["id"] = exp_id
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=r"experiments\[0\]: id " + re.escape(repr(exp_id))):
        load_run_config(path)
    assert main(["run", "--config", path]) == 2
    assert "experiments[0]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


@pytest.mark.parametrize("command", ["dataset", "run"])
def test_a_lattice_with_no_street_location_is_a_config_error(capsys, tmp_path, command):
    # on tiny.yaml's 80 m square a 30 m lattice puts every point inside a
    # building or on a building's edge: there is no location to sample
    doc = yaml.safe_load(Path(TINY).read_text())
    doc["scenario"]["grid_resolution_m"] = 30
    path = write_config(tmp_path, doc)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: scenario: grid_resolution_m 30 puts no lattice point on a street" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["dataset", "run"])
def test_a_margin_that_makes_the_area_infinite_is_a_config_error(capsys, tmp_path, command):
    # 2 * 1e308 would overflow the area to inf; the margin's bound rejects it first
    doc = yaml.safe_load(Path(TINY).read_text())
    doc["scenario"]["margin_m"] = 1.0e308
    path = write_config(tmp_path, doc)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"^config error: scenario: margin_m must be in \[0, 10000\], got 1e\+308$", err, re.M)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["dataset", "run"])
def test_a_lattice_too_large_for_memory_is_a_config_error(capsys, tmp_path, command):
    # a 20 km square at 2 m is 1e8 points; counted, never allocated
    doc = yaml.safe_load(Path(TINY).read_text())
    doc["scenario"]["margin_m"] = 10000
    path = write_config(tmp_path, doc)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"^config error: scenario: grid_resolution_m 2.0 puts 1e\+08 lattice points on the "
                     r"20000 x 20000 m area from margin_m 10000, more than 10000000$", err, re.M)
    assert not (tmp_path / "out").exists()


def test_a_grid_of_too_many_lattice_points_times_beams_is_a_config_error(tmp_path):
    # every key in range: 5.5e6 lattice points x 393,216 beams; checked at
    # config load, before any scenario is built
    doc = yaml.safe_load(Path(TINY).read_text())
    doc["scenario"].update(site_rows=32, site_cols=32, sectors_per_site=6, beams_per_sector=64)
    with pytest.raises(ConfigError, match=re.escape(
            "scenario: grid_resolution_m 2.0 puts 5.48e+06 lattice points against 393216 beams (site_rows 32 "
            "x site_cols 32 x sectors_per_site 6 x beams_per_sector 64): 2.16e+12 RSRP grid entries, "
            "more than 1000000000")):
        load_run_config(write_config(tmp_path, doc))


OUT_OF_RANGE = [
    ("scenario", "tx_power_dbm", 1e308, r"in \[-500, 500\]"),
    ("scenario", "tx_power_dbm", -1e308, r"in \[-500, 500\]"),
    ("scenario", "element_gain_dbi", 1e308, r"in \[-500, 500\]"),
    ("scenario", "element_gain_dbi", -1e308, r"in \[-500, 500\]"),
    ("scenario", "front_to_back_db", 1e308, r"in \[-500, 500\]"),
    ("scenario", "front_to_back_db", -1e308, r"in \[-500, 500\]"),
    ("propagation", "shadow_fading_sigma", 1e308, r"in \[0, 500\]"),
    ("scenario", "site_height_m", 1e308, r"in \(0, 10000\]"),
    ("propagation", "ue_height", 1e308, r"in \(0, 10000\]"),
    ("scenario", "azimuth_beamwidth_deg", 1e-300, r"in \[1, 180\)"),
    ("scenario", "elevation_beamwidth_deg", 1e-300, r"in \[1, 180\)"),
    ("scenario", "margin_m", 1e200, r"in \[0, 10000\]"),
    # count-valued keys: rejected before anything of that size is built
    ("scenario", "site_rows", 33, r"in \[1, 32\]"),
    ("scenario", "site_cols", 10**9, r"in \[1, 32\]"),
    ("scenario", "sectors_per_site", 7, r"in \[1, 6\]"),
    ("scenario", "beams_per_sector", 10**9, r"in \[1, 64\]"),
    ("experiments[tree]", "hidden_layers", [64, 10**9], r"in \[1, 1024\]"),
]


@pytest.mark.parametrize("section, key, value, rule", OUT_OF_RANGE, ids=[f"{c[1]}={c[2]}" for c in OUT_OF_RANGE])
def test_a_value_outside_its_documented_range_is_a_config_error(capsys, tmp_path, section, key, value, rule):
    """Unbounded, each of these runs: extreme dB values write inf or nan
    statistics, extreme heights leave no sample, a 1e-300 beamwidth
    overflows the beam pattern, the margin overflows numpy's lattice, and the
    counts build structures too large for memory. Bounded, each is exit 2
    naming its key, with nothing written and no numpy warning."""
    doc = base_doc(str(tmp_path / "out"))
    if section.startswith("experiments"):
        doc["experiments"][0][key] = value
    else:
        doc.setdefault(section, {})[key] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["dataset", "--config", write_config(tmp_path, doc)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    shown = re.escape(repr(tuple(value) if isinstance(value, list) else value))
    assert re.search(rf"^config error: {re.escape(section)}: {key} must be {rule}, got {shown}$",
                     capsys.readouterr().err, re.M)
    assert not (tmp_path / "out").exists()


def test_config_train_seed_rejected(tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["experiments"][0]["train"] = {"seed": 4}
    with pytest.raises(ConfigError, match=r"experiments\[tree\].train"):
        load_run_config(write_config(tmp_path, doc))


def test_seed_override_rederives_experiment_seeds(tmp_path):
    path = write_config(tmp_path, base_doc(str(tmp_path / "out")))
    a = load_run_config(path)
    b = load_run_config(path, seed_override=99)
    assert a.experiments[0].seed != b.experiments[0].seed
    assert b.seed == 99


def test_cmd_scenario_writes_summary_and_json(capsys, tmp_path):
    path = write_config(tmp_path, base_doc(str(tmp_path / "out")))
    assert main(["scenario", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "sites: 1" in out
    doc = json.loads((tmp_path / "out" / "scenario.json").read_text())
    assert len(doc["sites"]) == 1
    assert set(doc) == {"area", "buildings", "carrier_frequency_ghz", "grid_resolution_m", "rng_seed", "sites"}
    assert set(doc["buildings"][0]) == {"min_corner", "max_corner", "height"}
    site = doc["sites"][0]
    assert set(site) == {"id", "position", "height", "sectors"}
    sector = site["sectors"][0]
    assert set(sector) == {"cell_id", "boresight_azimuth", "mechanical_downtilt", "tx_power", "beams"}
    assert set(sector["beams"][0]) == {
        "beam_id", "steer_azimuth", "steer_elevation", "azimuth_beamwidth", "elevation_beamwidth",
        "element_gain", "front_to_back", "array_gain",
    }


def test_cmd_scenario_dry_run_writes_nothing(capsys, tmp_path):
    path = write_config(tmp_path, base_doc(str(tmp_path / "out")))
    assert main(["scenario", "--config", path, "--dry-run"]) == 0
    assert "would write" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_cmd_dataset_prints_los_fraction_and_writes_csv(capsys, tmp_path):
    path = write_config(tmp_path, base_doc(str(tmp_path / "out")))
    assert main(["dataset", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "LoS fraction:" in out
    files = os.listdir(tmp_path / "out" / "datasets")
    assert "fingerprints_s2_n0_cid.csv" in files
    assert "fingerprints_s2_n0_cid.csv.meta.json" in files


def test_cmd_dataset_names_each_unbuildable_layout_and_writes_the_rest(capsys, tmp_path):
    # one site has three cells, so no row has four neighbor cells; and some
    # serving beam or cell ID is at least 1, outside a one-hot width of 1
    doc = base_doc(str(tmp_path / "out"))
    doc["experiments"] += [
        {"id": "four-neighbors", "model": "dtree", "features": {"n_serving_beams": 2, "n_neighbor_cells": 4}},
        {"id": "one-hot-width-1", "model": "dtree",
         "features": {"n_serving_beams": 2, "n_neighbor_cells": 0, "id_encoding": "one_hot",
                      "one_hot_cells": 1, "one_hot_beams": 1}},
    ]
    assert main(["dataset", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    datasets = tmp_path / "out" / "datasets"
    assert f"error: {datasets / 'fingerprints_s2_n4_cid.csv'}: need at least 10 usable samples, got 0\n" in err
    onehot = re.escape(str(datasets / "fingerprints_s2_n0_cid_onehot_c1_b1.csv"))
    assert re.search(rf"^error: {onehot}: \w+=\d+ outside one-hot cardinality 1$", err, re.MULTILINE)
    assert sorted(os.listdir(datasets)) == ["fingerprints_s2_n0_cid.csv", "fingerprints_s2_n0_cid.csv.meta.json"]


def test_cmd_dataset_writes_one_file_per_one_hot_width_and_each_file_once(capsys, tmp_path):
    # one-hot layouts that differ only in their widths get a file each; a
    # numeric layout ignores the widths, so a second one with other widths
    # names the first one's file and is not written again
    doc = base_doc(str(tmp_path / "out"))
    doc["experiments"] += [
        {"id": f"one-hot-{cells}", "model": "dtree",
         "features": {"n_serving_beams": 2, "n_neighbor_cells": 0, "id_encoding": "one_hot",
                      "one_hot_cells": cells, "one_hot_beams": 8}}
        for cells in (3, 4)
    ]
    doc["experiments"].append({"id": "numeric-widths", "model": "dtree",
                               "features": {"n_serving_beams": 2, "n_neighbor_cells": 0, "one_hot_cells": 5}})
    assert main(["dataset", "--config", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    datasets = tmp_path / "out" / "datasets"
    assert sorted(os.listdir(datasets)) == [
        f"fingerprints_s2_n0_cid{tag}.csv{meta}"
        for tag in ("", "_onehot_c3_b8", "_onehot_c4_b8") for meta in ("", ".meta.json")
    ]
    assert len(re.findall(r"^wrote ", out, re.MULTILINE)) == 3
    for tag, width in (("_onehot_c3_b8", 21), ("_onehot_c4_b8", 22)):
        header = (datasets / f"fingerprints_s2_n0_cid{tag}.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == width + 2  # features, then label_x and label_y
    meta = json.loads((datasets / "fingerprints_s2_n0_cid.csv.meta.json").read_text())
    assert meta["provenance"]["feature_config"]["one_hot_cells"] == 0


def test_cmd_run_writes_reports_under_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, base_doc(str(out_dir)))
    assert main(["run", "--config", path]) == 0
    report = json.loads((out_dir / "reports" / "tree.json").read_text())
    assert report["experiment_id"] == "tree"
    assert (out_dir / "reports" / "tree_cdf.csv").exists()
    assert (out_dir / "comparison.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failed"] == []
    assert manifest["reports"] == [os.path.join("reports", "tree.json")]


def test_cmd_run_out_flag_overrides_config(tmp_path):
    path = write_config(tmp_path, base_doc(str(tmp_path / "ignored")))
    target = tmp_path / "elsewhere"
    assert main(["run", "--config", path, "--out", str(target)]) == 0
    assert (target / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cmd_run_dry_run_lists_experiments(capsys, tmp_path):
    path = write_config(tmp_path, base_doc(str(tmp_path / "out")))
    assert main(["run", "--config", path, "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "tree" in out and "dry run" in out
    assert not (tmp_path / "out").exists()


def test_cmd_run_dry_run_names_each_layout_by_its_feature_tag(capsys, tmp_path):
    # the three layouts differ only in the cell ID field and one-hot widths
    doc = base_doc(str(tmp_path / "out"))
    one_hot = {"n_serving_beams": 2, "n_neighbor_cells": 0, "id_encoding": "one_hot", "one_hot_beams": 8}
    doc["experiments"] = [
        {"id": "tree", "model": "dtree", "features": {"n_serving_beams": 2, "n_neighbor_cells": 0,
                                                      "include_serving_cell_id": False}},
        {"id": "tree-c3", "model": "dtree", "features": {**one_hot, "one_hot_cells": 3}},
        {"id": "tree-c4", "model": "dtree", "features": {**one_hot, "one_hot_cells": 4}},
    ]
    assert main(["run", "--config", write_config(tmp_path, doc), "--dry-run"]) == 0
    layouts = [line.split()[-2] for line in capsys.readouterr().out.splitlines()]
    assert layouts == ["s2_n0_nocid", "s2_n0_cid_onehot_c3_b8", "s2_n0_cid_onehot_c4_b8"]


def _files(root):
    return {
        os.path.relpath(os.path.join(d, name), root): Path(d, name).read_bytes()
        for d, _, names in os.walk(root)
        for name in names
    }


@pytest.mark.parametrize("edits", [
    {},
    # two sites and 8 dB shadow fading: some rows are served without line of sight
    {"scenario": {"site_cols": 2, "grid_resolution_m": 4.0}, "propagation": {"shadow_fading_sigma": 8.0}},
], ids=["tiny", "tiny-nlos"])
def test_los_only_false_keeps_every_heard_row_and_reruns_byte_identically(capsys, tmp_path, edits):
    doc = yaml.safe_load(Path(TINY).read_text())
    doc["dataset"]["los_only"] = False
    for section, values in edits.items():
        doc[section].update(values)
    path = write_config(tmp_path, doc)
    config = load_run_config(path)
    heard = generate_samples(build_scenario(config.scenario), config.propagation)
    assert (heard.los.sum() < len(heard)) == bool(edits)
    for command in ("dataset", "run"):
        for rerun in ("a", "b"):
            assert main([command, "--config", path, "--out", str(tmp_path / f"{command}-{rerun}")]) == 0
        assert _files(tmp_path / f"{command}-a") == _files(tmp_path / f"{command}-b")
    out = capsys.readouterr().out
    assert out.count(f"samples: {len(heard)}  LoS fraction: {heard.los.sum() / len(heard):.4f}\n") == 4
    datasets = tmp_path / "dataset-a" / "datasets"
    rows = len((datasets / "fingerprints_s3_n1_cid.csv").read_text().splitlines()) - 1
    meta = json.loads((datasets / "fingerprints_s3_n1_cid.csv.meta.json").read_text())
    assert rows + sum(meta["provenance"]["dropped"].values()) == len(heard)
    for arm in ("mlp-tiny", "tree-tiny"):
        report = json.loads((tmp_path / "run-a" / "reports" / f"{arm}.json").read_text())
        assert report["train"]["n"] + report["test"]["n"] == rows


def test_row_blocks_leave_dataset_and_run_outputs_byte_identical(capsys, monkeypatch, tmp_path):
    doc = yaml.safe_load(Path(TINY).read_text())
    doc["scenario"].update(site_cols=2, grid_resolution_m=4.0)
    doc["propagation"]["shadow_fading_sigma"] = 8.0
    path = write_config(tmp_path, doc)
    for command in ("dataset", "run"):
        assert main([command, "--config", path, "--out", str(tmp_path / f"{command}-one-block")]) == 0
    beams = sum(len(cell.beams) for cell in build_scenario(load_run_config(path).scenario).cells)
    monkeypatch.setattr(beamloc.fingerprint, "GRID_BLOCK_BYTES", 7 * beams * 8)  # seven rows per block
    for command in ("dataset", "run"):
        assert main([command, "--config", path, "--out", str(tmp_path / f"{command}-blocks")]) == 0
        assert _files(tmp_path / f"{command}-blocks") == _files(tmp_path / f"{command}-one-block")
    out = capsys.readouterr().out
    assert "LoS fraction: 1.0000" not in out


def test_cmd_run_partial_failure_exits_0(capsys, tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["dataset"]["min_cell_size"] = 10**6
    doc["experiments"].append(
        {
            "id": "cells",
            "model": "dtree",
            "topology": "cell_specific",
            "features": {"n_serving_beams": 2, "n_neighbor_cells": 0},
        }
    )
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [f["experiment_id"] for f in manifest["failed"]] == ["cells"]


def test_cmd_run_all_failed_exits_1(capsys, tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["dataset"]["min_cell_size"] = 10**6
    doc["experiments"] = [
        {
            "id": "cells",
            "model": "dtree",
            "topology": "cell_specific",
            "features": {"n_serving_beams": 2, "n_neighbor_cells": 0},
        }
    ]
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 1
    assert "all experiments failed" in capsys.readouterr().err


def test_cmd_run_no_experiments_exits_2(capsys, tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["experiments"] = []
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    assert "experiments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(seed=True), r"top level: seed must be an int"),
        (lambda doc: doc["dataset"].update(min_cell_size=True), r"dataset: min_cell_size must be an int, got bool"),
        (lambda doc: doc["experiments"][0].update(hidden_layers=[True]),
         r"experiments\[tree\]: hidden_layers must be a list of ints"),
        (lambda doc: doc["experiments"][0].update(hidden_layers=[64, 0]),
         r"experiments\[tree\]: hidden_layers must be in \[1, 1024\], got \(64, 0\)"),
        (lambda doc: doc["experiments"][0].update(seed=True), r"experiments\[tree\]: seed must be an int"),
        (lambda doc: doc["experiments"][0].update(seed=1.7), r"experiments\[tree\]: seed must be an int"),
        (lambda doc: doc["experiments"][0]["features"].update(n_serving_beams=True),
         r"experiments\[tree\].features: n_serving_beams must be an int"),
        (lambda doc: doc["experiments"][0].update(tree={"max_depth": True}),
         r"experiments\[tree\].tree: max_depth must be an int or null, got bool"),
        (lambda doc: doc["experiments"][0].update(tree={"max_depth": 1.5}),
         r"experiments\[tree\].tree: max_depth must be an int or null, got float"),
        (lambda doc: doc.update(output_dir=5), r"top level: output_dir must be a string"),
        (lambda doc: doc["experiments"][0]["features"].update(include_serving_cell_id="false"),
         r"experiments\[tree\].features: include_serving_cell_id must be a bool, got str"),
        (lambda doc: doc["experiments"][0]["features"].update(include_serving_cell_id=0),
         r"experiments\[tree\].features: include_serving_cell_id must be a bool, got int"),
        (lambda doc: doc["scenario"].update(with_buildings=3), r"scenario: with_buildings must be a bool, got int"),
        (lambda doc: doc["scenario"].update(with_buildings=None),
         r"scenario: with_buildings must be a bool, got NoneType"),
    ],
    ids=["top-seed", "min-cell-size", "hidden-layers", "hidden-layers-zero", "experiment-seed-bool",
         "experiment-seed-float", "dataclass-int-field", "max-depth-bool", "max-depth-float", "output-dir-int",
         "cell-id-str", "cell-id-int", "with-buildings-int", "with-buildings-null"],
)
def test_config_rejects_bool_and_float_for_int(tmp_path, edit, message):
    doc = base_doc(str(tmp_path / "out"))
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        load_run_config(write_config(tmp_path, doc))


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"carrier_frequency_ghz": 0}, r"scenario: carrier_frequency_ghz must be in \(0, 300\], got 0"),
        ({"carrier_frequency_ghz": float("nan")}, r"scenario: carrier_frequency_ghz must be finite, got nan"),
        ({"sectors_per_site": 0}, r"scenario: sectors_per_site must be in \[1, 6\], got 0"),
        ({"beams_per_sector": 0}, r"scenario: beams_per_sector must be in \[1, 64\], got 0"),
        ({"elevation_steers_deg": []}, r"scenario: beams_per_sector 8 must be 1 or divisible by the 0 elevation"),
        ({"beams_per_sector": 6, "elevation_steers_deg": [-3.0, -12.0, -6.0, 0.0]},
         r"scenario: beams_per_sector 6 must be 1 or divisible by the 4 elevation"),
        ({"sectors_per_site": 2.5}, r"scenario: sectors_per_site must be an int, got float"),
        ({"beams_per_sector": "8"}, r"scenario: beams_per_sector must be an int, got str"),
        ({"site_rows": None}, r"scenario: site_rows must be an int, got NoneType"),
        ({"elevation_steers_deg": ["a"]}, r"scenario: elevation_steers_deg must be a list of numbers, got \['a'\]"),
        ({"azimuth_beamwidth_deg": 0}, r"scenario: azimuth_beamwidth_deg must be in \[1, 180\), got 0"),
        ({"elevation_beamwidth_deg": 200},
         r"scenario: elevation_beamwidth_deg must be in \[1, 180\), got 200"),
        ({"tx_power_dbm": float("nan")}, r"scenario: tx_power_dbm must be finite, got nan"),
        ({"margin_m": float("inf")}, r"scenario: margin_m must be finite, got inf"),
        ({"elevation_steers_deg": [-6.0, float("-inf")], "beams_per_sector": 2},
         r"scenario: elevation_steers_deg must be finite, got \(-6.0, -inf\)"),
        ({"margin_m": -500}, r"scenario: margin_m must be in \[0, 10000\], got -500"),
        ({"building_height_m": -1}, r"scenario: building_height_m must be in \(0, 10000\], got -1"),
        ({"site_height_m": 0}, r"scenario: site_height_m must be in \(0, 10000\], got 0"),
        ({"row_spacing_m": -50}, r"scenario: row_spacing_m must be in \(0, 10000\], got -50"),
        ({"col_spacing_m": 0}, r"scenario: col_spacing_m must be in \(0, 10000\], got 0"),
    ],
    ids=["carrier-zero", "carrier-nan", "no-sectors", "no-beams", "no-elevation-rows", "rows-do-not-divide",
         "sectors-float", "beams-str", "site-rows-null", "steer-str", "azimuth-beamwidth-zero",
         "elevation-beamwidth-200", "tx-power-nan", "margin-inf", "steer-inf", "margin-negative",
         "building-height-negative", "site-height-zero", "row-spacing-negative", "col-spacing-zero"],
)
def test_dataset_rejects_unbuildable_scenario_exits_2(capsys, tmp_path, scenario, message):
    out = tmp_path / "out"
    doc = base_doc(str(out))
    doc["scenario"].update(scenario)
    assert main(["dataset", "--config", write_config(tmp_path, doc)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_zero_margin_puts_sites_on_the_area_edge(tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["scenario"].update(margin_m=0)
    scenario = build_scenario(load_run_config(write_config(tmp_path, doc)).scenario)
    assert scenario.sites[0].position == (0.0, 0.0)


def test_single_beam_sector_needs_no_elevation_rows(tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["scenario"].update(beams_per_sector=1, elevation_steers_deg=[])
    assert load_run_config(write_config(tmp_path, doc)).scenario.beams_per_sector == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2_without_workers(capsys, tmp_path, monkeypatch, jobs):
    def no_process(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing, "Process", no_process)
    out = tmp_path / "out"
    assert main(["run", "--config", TINY, "--out", str(out), "--jobs", jobs]) == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def _file_bytes(root):
    """{path relative to root: bytes} for every file under root."""
    return {
        os.path.relpath(os.path.join(d, name), root): Path(d, name).read_bytes()
        for d, _, names in os.walk(root)
        for name in names
    }


def test_cmd_run_jobs_2_matches_jobs_1_byte_for_byte(tmp_path):
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["run", "--config", TINY, "--out", str(outs[jobs]), "--jobs", jobs]) == 0

    serial, parallel = _file_bytes(outs["1"]), _file_bytes(outs["2"])
    assert {"manifest.json", "comparison.csv"} <= set(serial)
    assert len(serial) >= 6
    assert serial == parallel


def test_arms_listed_shortest_first_start_longest_first_with_unchanged_bytes(tmp_path, monkeypatch):
    """The config lists its arms in ascending cost, so the worker start
    order reverses it; every output byte, manifest.json included, still
    equals the one-worker run's."""
    doc = yaml.safe_load(Path(TINY).read_text())
    mlp, tree = doc["experiments"]
    doc["experiments"] = [
        tree,
        {**mlp, "id": "mlp-w8", "hidden_layers": [8]},
        {**mlp, "id": "mlp-w8x8", "hidden_layers": [8, 8]},
    ]
    config = write_config(tmp_path, doc)
    started = []
    real_init = multiprocessing.Process.__init__

    def recording_init(self, *args, **kwargs):
        started.append(kwargs["args"][2].experiment_id)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.Process, "__init__", recording_init)
    monkeypatch.setattr(beamloc.evaluation.os, "cpu_count", lambda: 2)
    assert main(["run", "--config", config, "--out", str(tmp_path / "jobs1"), "--jobs", "1"]) == 0
    assert started == []
    assert main(["run", "--config", config, "--out", str(tmp_path / "jobs2"), "--jobs", "2"]) == 0
    assert started == ["mlp-w8x8", "mlp-w8", "tree-tiny"]
    serial = _file_bytes(tmp_path / "jobs1")
    assert json.loads(serial["manifest.json"])["reports"] == [
        "reports/tree-tiny.json", "reports/mlp-w8.json", "reports/mlp-w8x8.json"]
    assert serial == _file_bytes(tmp_path / "jobs2")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="a patched module attribute reaches only a forked worker"
)
def test_a_dead_worker_fails_only_its_own_arm(capsys, tmp_path, monkeypatch):
    """The mlp-tiny worker exits as a SIGKILL or OOM kill would leave it;
    tree-tiny's report is still written, byte-equal to the one-worker run's."""
    assert main(["run", "--config", TINY, "--out", str(tmp_path / "jobs1"), "--jobs", "1"]) == 0
    run_one = beamloc.evaluation._run_one

    def dies_on_mlp(samples, descriptor, *rest):
        if descriptor.experiment_id == "mlp-tiny":
            os._exit(137)
        return run_one(samples, descriptor, *rest)

    monkeypatch.setattr(beamloc.evaluation, "_run_one", dies_on_mlp)
    monkeypatch.setattr(beamloc.evaluation.os, "cpu_count", lambda: 2)
    capsys.readouterr()
    out = tmp_path / "jobs2"
    assert main(["run", "--config", TINY, "--out", str(out), "--jobs", "2"]) == 0
    assert "failed: mlp-tiny: worker process died with exit code 137" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed"] == [{"experiment_id": "mlp-tiny", "error": "worker process died with exit code 137"}]
    assert manifest["reports"] == ["reports/tree-tiny.json"]
    serial = _file_bytes(tmp_path / "jobs1")
    assert _file_bytes(out)["reports/tree-tiny.json"] == serial["reports/tree-tiny.json"]


def test_importing_the_cli_loads_no_process_machinery():
    """Only a run with two or more workers imports multiprocessing."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, beamloc.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def _mlp_arm(train):
    return {
        "id": "net",
        "model": "mlp",
        "features": {"n_serving_beams": 2, "n_neighbor_cells": 0},
        "hidden_layers": [4],
        "train": train,
    }


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["experiments"].append(_mlp_arm({"learning_rate": True})),
         r"experiments\[net\].train: learning_rate must be a number, got bool"),
        (lambda doc: doc["experiments"].append(_mlp_arm({"learning_rate": "0.01"})),
         r"experiments\[net\].train: learning_rate must be a number, got str"),
        (lambda doc: doc.update(propagation={"noise_floor": None}),
         r"propagation: noise_floor must be a number, got NoneType"),
        (lambda doc: doc["experiments"].append(_mlp_arm({"learning_rate": float("nan")})),
         r"experiments\[net\].train: learning_rate must be finite, got nan"),
        (lambda doc: doc["experiments"].append(_mlp_arm({"learning_rate": -0.01})),
         r"experiments\[net\].train: learning_rate must be >= 0, got -0.01"),
        (lambda doc: doc["experiments"].append(_mlp_arm({"beta1": 1.0})),
         r"experiments\[net\].train: beta1 must be in \[0, 1\)"),
        (lambda doc: doc["experiments"].append(_mlp_arm({"beta2": -0.1})),
         r"experiments\[net\].train: beta2 must be in \[0, 1\)"),
        (lambda doc: doc["experiments"].append(_mlp_arm({"epsilon": 0})),
         r"experiments\[net\].train: epsilon must be > 0"),
        (lambda doc: doc["experiments"].append(_mlp_arm({"min_delta": float("inf")})),
         r"experiments\[net\].train: min_delta must be finite, got inf"),
        (lambda doc: doc.update(propagation={"shadow_fading_sigma": float("nan")}),
         r"propagation: shadow_fading_sigma must be finite, got nan"),
        (lambda doc: doc.update(propagation={"ue_height": float("inf")}),
         r"propagation: ue_height must be finite, got inf"),
        (lambda doc: doc.update(propagation={"ue_height": -5}),
         r"propagation: ue_height must be in \(0, 10000\], got -5"),
        (lambda doc: doc.update(propagation={"nlos_extra_loss_exponent": -50}),
         r"propagation: nlos_extra_loss_exponent must be in \[0, 10\], got -50"),
    ],
    ids=["float-bool", "float-str", "float-none", "lr-nan", "lr-negative", "beta1", "beta2", "epsilon",
         "min-delta", "shadow-sigma-nan", "ue-height-inf", "ue-height-negative", "nlos-exponent-negative"],
)
def test_config_rejects_bad_float_fields(tmp_path, edit, message):
    doc = base_doc(str(tmp_path / "out"))
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        load_run_config(write_config(tmp_path, doc))


def test_config_accepts_yaml_int_for_float_field(tmp_path):
    doc = base_doc(str(tmp_path / "out"))
    doc["propagation"] = {"noise_floor": -105}
    doc["experiments"].append(_mlp_arm({"learning_rate": 1, "min_delta": 0}))
    config = load_run_config(write_config(tmp_path, doc))
    assert config.propagation.noise_floor == -105
    assert config.experiments[1].train_config.learning_rate == 1


def test_cmd_run_non_finite_loss_is_a_named_arm_failure(tmp_path):
    out_dir = tmp_path / "out"
    doc = base_doc(str(out_dir))
    doc["experiments"].append(_mlp_arm({"learning_rate": 1e300, "max_epochs": 3}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert [f["experiment_id"] for f in manifest["failed"]] == ["net"]
    assert "training loss is not finite at epoch 1" in manifest["failed"][0]["error"]
    for d, _, names in os.walk(out_dir):
        for name in names:
            assert "NaN" not in Path(d, name).read_text()


# tiny.yaml with 2-epoch MLP training, so that a mutated run takes milliseconds
MUTATED_DOC = yaml.safe_load(Path(TINY).read_text())
for _arm in MUTATED_DOC["experiments"]:
    _arm.get("train", {}).update(max_epochs=2, patience=2)
# every key of the file, and every key it leaves at its default, as a path into it
MUTATED_KEYS = [
    ("seed",), ("output_dir",),
    *((section, f.name) for section, cls in (("scenario", ScenarioConfig), ("propagation", PropagationConfig),
                                            ("dataset", DatasetConfig)) for f in dataclasses.fields(cls)),
    *(("experiments", arm, key) for arm in (0, 1) for key in ("id", "model", "topology", "hidden_layers", "seed")),
    *(("experiments", arm, sub, f.name) for arm in (0, 1)
      for sub, cls in (("features", FeatureConfig), ("train", TrainConfig), ("tree", TreeConfig))
      for f in dataclasses.fields(cls)),
]
MUTATED_VALUES = [True, None, 0, -1, 1.5, 1e308, -1e308, 1e-300, float("nan"), float("inf"), "a", [], {}]


def _non_finite_floats(root) -> list[str]:
    """Each file under `root` holding a nan or infinite number: in a JSON
    document, or in a CSV cell other than an experiment id."""
    found = []
    for d, _, names in os.walk(root):
        for name in names:
            path = Path(d, name)
            if name.endswith(".json"):
                numbers = re.findall(r"\b(?:NaN|-?Infinity)\b", path.read_text())
            else:
                rows = csv.DictReader(io.StringIO(path.read_text()))
                cells = [v for row in rows for k, v in row.items() if k != "experiment_id"]
                numbers = [v for v in cells if re.fullmatch(r"[-+]?(nan|inf)", v, re.I)]
            if numbers:
                found.append(f"{path}: {numbers[0]}")
    return found


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(MUTATED_KEYS), value=st.sampled_from(MUTATED_VALUES),
       command=st.sampled_from(["dataset", "run"]))
def test_one_bad_config_value_fails_at_the_boundary_or_runs_clean(path, value, command):
    """Whatever one key of a small config holds, `main` returns 0, 1 or 2
    without raising; a 2 is a config error naming the key's section and the
    key; no numpy warning is raised; and every number written is finite."""
    doc = copy.deepcopy(MUTATED_DOC)
    node = doc
    for step in path[:-1]:
        node = node.setdefault(step, {}) if isinstance(step, str) else node[step]
    node[path[-1]] = value
    section = {"seed": "top level", "output_dir": "top level", "experiments": "experiments["}.get(path[0], path[0])
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.yaml")
        Path(config).write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", config, "--out", os.path.join(tmp, "out")])
        assert code in (0, 1, 2)
        if code == 2:
            assert re.search(rf"^config error: {re.escape(section)}.*\b{path[-1]}\b", err.getvalue(), re.M), \
                err.getvalue()
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert _non_finite_floats(os.path.join(tmp, "out")) == []
