"""Seeded run configs for the benchmark workloads.

Each workload is one `beamloc` subcommand plus a YAML config built from the
workload seed, which becomes the config's global `seed`. The program only
ever sees the generated file. The three benchmark workloads use the 8-site
paper deployment (24 cells, 768 beams, shadow fading sigma 4 dB); the `tiny-*`
workloads mirror `configs/tiny.yaml` and exist for the smoke test.
"""
from __future__ import annotations

from dataclasses import dataclass

# Fixed epoch budget with patience equal to the budget, so every run does the
# same number of optimizer steps whatever the losses are.
STUDY_EPOCHS = 160


def _deployment(split_fraction: float) -> dict:
    return {
        "propagation": {"shadow_fading_sigma": 4.0, "noise_floor": -105.0},
        "dataset": {"split_fraction": split_fraction, "min_cell_size": 50, "los_only": True},
    }


# The studies run on a 4 m lattice (2319 locations) and hold out half of the
# rows, so the error metrics rest on about 1080 test rows. With the paper's
# 10% held out on a 5 m lattice (115 test rows) the tree arms' mean test error
# spread by 0.31 (quartile distance over median) across ten seeds; here 0.04.
STUDY_DEPLOYMENT = _deployment(0.5)
# The sweep's 3 m lattice (4226 locations) has about twice the studies'
# working set; it keeps the paper's split.
SWEEP_DEPLOYMENT = _deployment(0.9)

S3N2 = {"n_serving_beams": 3, "n_neighbor_cells": 2}


def _train(epochs: int) -> dict:
    return {"batch_size": 32, "max_epochs": epochs, "learning_rate": 0.01, "patience": epochs, "min_delta": 0.0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # beamloc subcommand: "run" or "dataset"
    grid_resolution_m: float
    experiments: tuple
    deployment: dict
    scenario_extra: tuple = ()

    @property
    def operations(self) -> int:
        """Arms for `run`; distinct feature layouts (one dataset each) for `dataset`."""
        if self.command == "run":
            return len(self.experiments)
        return len({tuple(sorted(e["features"].items())) for e in self.experiments})

    def config(self, seed: int, output_dir: str) -> dict:
        scenario = {"grid_resolution_m": self.grid_resolution_m, **dict(self.scenario_extra)}
        return {
            "seed": seed,
            "output_dir": output_dir,
            "scenario": scenario,
            **self.deployment,
            "experiments": [dict(e) for e in self.experiments],
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp-study",
            command="run",
            grid_resolution_m=4.0,
            deployment=STUDY_DEPLOYMENT,
            experiments=(
                {"id": "nn-s3n2-w64", "model": "mlp", "features": S3N2,
                 "hidden_layers": [64], "train": _train(STUDY_EPOCHS)},
                {"id": "nn-s3n2-cells-w64x2", "model": "mlp", "topology": "cell_specific", "features": S3N2,
                 "hidden_layers": [64, 64], "train": _train(STUDY_EPOCHS)},
            ),
        ),
        Workload(
            name="tree-study",
            command="run",
            grid_resolution_m=4.0,
            deployment=STUDY_DEPLOYMENT,
            experiments=(
                {"id": "tree-s3n2", "model": "dtree", "features": S3N2},
                {"id": "tree-s3n2-cells", "model": "dtree", "topology": "cell_specific", "features": S3N2},
            ),
        ),
        Workload(
            name="dataset-sweep",
            command="dataset",
            grid_resolution_m=3.0,
            deployment=SWEEP_DEPLOYMENT,
            # the paper matrix's four network-level feature layouts
            experiments=tuple(
                {"id": f"layout-s{s}n{n}", "model": "mlp", "features": {"n_serving_beams": s, "n_neighbor_cells": n}}
                for s, n in ((4, 0), (3, 0), (3, 1), (3, 2))
            ),
        ),
        Workload(
            name="tiny-run",
            command="run",
            grid_resolution_m=2.0,
            scenario_extra=(("site_rows", 1), ("site_cols", 1), ("beams_per_sector", 8),
                            ("elevation_steers_deg", [-6.0])),
            deployment={"propagation": {"model": "free_space"},
                        "dataset": {"split_fraction": 0.9, "min_cell_size": 20, "los_only": True}},
            experiments=(
                {"id": "mlp-tiny", "model": "mlp", "features": {"n_serving_beams": 3, "n_neighbor_cells": 1},
                 "hidden_layers": [16], "train": _train(5)},
                {"id": "tree-tiny", "model": "dtree", "topology": "cell_specific",
                 "features": {"n_serving_beams": 3, "n_neighbor_cells": 1}},
            ),
        ),
        Workload(
            name="tiny-dataset",
            command="dataset",
            grid_resolution_m=2.0,
            scenario_extra=(("site_rows", 1), ("site_cols", 1), ("beams_per_sector", 8),
                            ("elevation_steers_deg", [-6.0])),
            deployment={"propagation": {"model": "free_space"},
                        "dataset": {"split_fraction": 0.9, "min_cell_size": 20, "los_only": True}},
            experiments=(
                {"id": "s3n0", "features": {"n_serving_beams": 3, "n_neighbor_cells": 0}},
                {"id": "s3n1", "features": {"n_serving_beams": 3, "n_neighbor_cells": 1}},
            ),
        ),
    )
}
