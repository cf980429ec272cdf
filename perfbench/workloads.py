"""Sweep workloads of the losslab benchmark.

Each workload is the bundled quickstart sweep config with the changes
listed in ``WORKLOADS``.  The quickstart config is copied here rather
than read from the package, so the benchmark's inputs stay fixed when
the program's bundled example changes.  The workload seed is written
into ``grid.base_seed`` and ``data.seed``; the program only ever sees
the generated config file.

Epochs and replicates are trimmed from the quickstart values so that
one run (several sweeps plus a serial sweep) fits in about 40 s on two
cores.  The property each workload exists for is stated in ``why`` and
holds at the trimmed size.
"""

from __future__ import annotations

import copy

QUICKSTART = {
    "schema": 1,
    "model": {"input_dim": 8, "hidden_widths": [16], "num_classes": 4},
    "data": {
        "kind": "blobs",
        "n_train": 1000,
        "n_test": 200,
        "num_classes": 4,
        "dim": 8,
        "spread": 0.15,
        "seed": 1,
    },
    "train": {
        "batch_size": 128,
        "lr": 0.05,
        "weight_decay": 5e-4,
        "max_epochs": 60,
        "plateau_eps": 1e-4,
        "plateau_epochs": 5,
        "seed": 0,
    },
    "curve": {"epochs": 50, "lr": 0.01, "batch_size": 128, "k": 2},
    "metrics": {
        "max_iter": 100,
        "rtol": 1e-3,
        "metric_batch": 200,
        "probes": {"source": "mixup", "m": 640, "alpha": 16.0},
    },
    "grid": {
        "load": {"kind": "width", "values": [2, 4, 8, 16]},
        "temp": {"kind": "batch_size", "values": [4, 16, 64, 256]},
        "replicates": 4,
        "base_seed": 7,
    },
    "phase": {"eps_mc": 2.0, "sharp_quantile": 0.5, "tau_cka": 0.9, "loss_converged": 10.0},
}

# ``changes`` maps a dotted config path to its new value.  ``workers`` is
# the ``losslab sweep --workers`` value of the CLI runs.
WORKLOADS = {
    "small_batch": {
        "why": "batch 4 and 16: hundreds of tiny loss_grad calls per epoch, so per-call "
               "Python bookkeeping in model/train/curves dominates; uneven parallel cells",
        "workers": 2,
        "changes": {
            "grid.load": {"kind": "width", "values": [2, 16]},
            "grid.temp": {"kind": "batch_size", "values": [4, 16]},
            "train.max_epochs": 5,
            "curve.epochs": 4,
        },
    },
    "large_batch_noisy": {
        "why": "batch 64 and 256 on label noise 0-0.4: loss_grad is the largest share (42%), "
               "then per-epoch permutation and full-data evaluate (24%, 31% at batch 256) and "
               "curvature (18%)",
        "workers": 2,
        "changes": {
            "grid.load": {"kind": "noise_frac", "values": [0.0, 0.1, 0.2, 0.4]},
            "grid.temp": {"kind": "batch_size", "values": [64, 256]},
            "train.max_epochs": 15,
            "curve.epochs": 12,
        },
    },
    "curvature_heavy": {
        "why": "two hidden layers of width 16-32 at metric batch 1000: most time is hvp inside "
               "power iteration and Hutchinson, reached without loss_grad",
        # At --workers 2 each worker's OpenBLAS starts 2 threads on 2 cores;
        # that oversubscription makes the sweep no faster than one worker and
        # up to twice as slow, so this workload runs one worker (see NOTES.md).
        "workers": 1,
        "changes": {
            "model.hidden_widths": [16, 16],
            "grid.load": {"kind": "width", "values": [16, 24, 32]},
            "grid.temp": {"kind": "weight_decay", "values": [5e-4, 5e-3]},
            "grid.replicates": 2,
            "train.max_epochs": 10,
            "curve.epochs": 5,
            "metrics.metric_batch": 1000,
            # both estimators run max_iter hvps, so the work does not depend
            # on where the relative-change rule happens to stop for a seed
            "metrics.rtol": 1e-12,
            "metrics.max_iter": 50,
            "metrics.probes.m": 4000,
        },
    },
}


def make_config(name: str, seed: int) -> dict:
    """The sweep config of workload ``name`` with inputs drawn from ``seed``."""
    cfg = copy.deepcopy(QUICKSTART)
    changes = dict(WORKLOADS[name]["changes"])
    changes["grid.base_seed"] = seed
    changes["data.seed"] = seed
    for path, value in changes.items():
        *parents, key = path.split(".")
        section = cfg
        for part in parents:
            section = section[part]
        section[key] = copy.deepcopy(value)
    return cfg


def cell_count(cfg: dict) -> int:
    return len(cfg["grid"]["load"]["values"]) * len(cfg["grid"]["temp"]["values"])
