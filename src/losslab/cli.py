"""Command-line surface: train, per-metric measurement, sweeps, phases, plots.

Everything that can change a result comes from the JSON config; flags
only choose files, workers, and output locations.  Every command drops
one manifest next to its outputs recording the command line, the full
config, the seeds involved, and wall-clock time.

Exit codes: 0 success, 2 usage or config problem, 3 numeric divergence,
4 I/O or file-format failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .cka import cka_between_models
from .config import (
    load_config,
    parse_curve,
    parse_data,
    parse_grid,
    parse_metrics,
    parse_model,
    parse_phase,
    parse_train,
)
from .curvature import draw_metric_batch, top_eigenvalue, trace_hutchinson
from .curves import CurveProfile, curve_profile, init_curve, mode_connectivity, train_curve
from .errors import (
    ConfigError,
    DegenerateOutputError,
    DimensionError,
    DivergenceError,
    FormatError,
    LosslabError,
    NumericError,
    ParameterError,
)
from .model import exact_hessian
from .phases import PhaseThresholds, emit_heatmap, label_rows, render_curve_profile
from .sweep import (
    CSV_COLUMNS,
    datasets_from_recipe,
    l2_distance,
    read_results_csv,
    rows_to_csv,
    run_sweep,
    write_manifest,
    write_results_csv,
)
from .train import evaluate, load_checkpoint, save_checkpoint, sgd_train

import numpy as np


def _manifest(args, config: dict | None, seeds: dict, outputs: list, t0: float) -> dict:
    return {
        "command_line": sys.argv,
        "command": args.command,
        "config": config,
        "seeds": seeds,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "wall_clock_s": time.time() - t0,
    }


def _load_pair(path_a, path_b):
    theta_a, spec_a, _ = load_checkpoint(path_a)
    theta_b, spec_b, _ = load_checkpoint(path_b)
    if spec_a != spec_b:
        raise DimensionError(f"checkpoints disagree on the model spec: {spec_a} vs {spec_b}")
    return spec_a, theta_a, theta_b


def _write_record(record: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record, sort_keys=True))


def _weight_decay(cfg: dict) -> float:
    train = cfg.get("train")
    if isinstance(train, dict) and "weight_decay" in train:
        return float(train["weight_decay"])
    return 0.0


def cmd_train(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    spec = parse_model(cfg)
    recipe = parse_data(cfg)
    tcfg = parse_train(cfg)
    train_ds, test_ds = datasets_from_recipe(recipe)
    theta, history = sgd_train(spec, train_ds, test_ds, tcfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "model.ckpt"
    save_checkpoint(theta, spec, {"seed": tcfg.seed, "dataset": train_ds.name}, ckpt)
    hist_path = out_dir / "history.csv"
    with open(hist_path, "w", newline="") as fh:
        fh.write("epoch,train_loss,train_acc,test_loss,test_acc,lr\n")
        for r in history.records:
            fh.write(
                "%d,%.10g,%.10g,%.10g,%.10g,%.10g\n"
                % (r.epoch, r.train_loss, r.train_acc, r.test_loss, r.test_acc, r.lr_used)
            )
    manifest = _manifest(args, cfg, {"train": tcfg.seed, "data": recipe.seed},
                         [ckpt, hist_path], t0)
    manifest["best_train_loss_epoch"] = history.best_train_loss_epoch
    manifest["best_test_acc_epoch"] = history.best_test_acc_epoch
    manifest["stopped_by_plateau"] = history.stopped_by_plateau
    write_manifest(manifest, out_dir / "train.manifest.json")
    print(f"checkpoint written to {ckpt}")
    return 0


def cmd_hessian(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    recipe = parse_data(cfg)
    curvature, _ = parse_metrics(cfg)
    wd = _weight_decay(cfg)
    theta, spec, _ = load_checkpoint(args.checkpoint)
    train_ds, _ = datasets_from_recipe(recipe)
    batch = draw_metric_batch(train_ds, curvature)
    eig = top_eigenvalue(spec, theta, batch, wd, curvature)
    tr = trace_hutchinson(spec, theta, batch, wd, curvature)
    record = {
        "metric": "hessian",
        "lambda_max": eig.value,
        "power_iterations": eig.iterations,
        "degenerate": eig.degenerate,
        "hessian_trace": tr.value,
        "trace_probes": tr.probes,
        "weight_decay": wd,
    }
    if args.exact:
        dense = exact_hessian(spec, theta, batch, wd)
        vals = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        exact_lam = float(vals[np.argmax(np.abs(vals))])
        rel = abs(eig.value - exact_lam) / max(abs(exact_lam), 1e-300)
        record["exact_lambda_max"] = exact_lam
        record["exact_rel_err"] = rel
        record["exact_trace"] = float(np.trace(dense))
        if rel >= 1e-3:
            _write_record(record, args.out)
            raise NumericError(
                f"power iteration off by {rel:.2e} relative to the dense eigensolver"
            )
    out = Path(args.out)
    _write_record(record, out)
    write_manifest(
        _manifest(args, cfg, {"metrics": curvature.seed}, [out], t0),
        out.with_suffix(out.suffix + ".manifest.json"),
    )
    return 0


def cmd_cka(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    recipe = parse_data(cfg)
    _, probes_cfg = parse_metrics(cfg)
    spec, theta_a, theta_b = _load_pair(args.checkpoint_a, args.checkpoint_b)
    train_ds, _ = datasets_from_recipe(recipe)
    from .rng import derive_seed
    from .sweep import _build_probes

    probes = _build_probes(train_ds, probes_cfg, derive_seed(recipe.seed, "cli_probes"))
    value = cka_between_models(spec, theta_a, theta_b, probes)
    record = {"metric": "cka", "cka": value, "probes": probes.m, "source": probes.source}
    out = Path(args.out)
    _write_record(record, out)
    write_manifest(
        _manifest(args, cfg, {"data": recipe.seed}, [out], t0),
        out.with_suffix(out.suffix + ".manifest.json"),
    )
    return 0


def cmd_modeconn(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    recipe = parse_data(cfg)
    ccfg = parse_curve(cfg)
    wd = _weight_decay(cfg)
    spec, theta_a, theta_b = _load_pair(args.checkpoint_a, args.checkpoint_b)
    train_ds, _ = datasets_from_recipe(recipe)
    curve = train_curve(spec, init_curve(theta_a, theta_b, ccfg.k), train_ds, ccfg,
                        weight_decay=wd)
    profile = curve_profile(spec, curve, train_ds, ccfg.t_grid)
    record = {
        "metric": "modeconn",
        "mc": mode_connectivity(profile),
        "mc_cross_entropy": mode_connectivity(profile, use="cross_entropy"),
        "profile": profile.to_dict(),
    }
    out = Path(args.out)
    profile_path = out.with_suffix(".profile.json")
    with open(profile_path, "w") as fh:
        json.dump(profile.to_dict(), fh, indent=2)
        fh.write("\n")
    _write_record(record, out)
    write_manifest(
        _manifest(args, cfg, {"curve": ccfg.seed}, [out, profile_path], t0),
        out.with_suffix(out.suffix + ".manifest.json"),
    )
    return 0


def cmd_l2(args) -> int:
    t0 = time.time()
    spec, theta_a, theta_b = _load_pair(args.checkpoint_a, args.checkpoint_b)
    record = {"metric": "l2", "l2": l2_distance(theta_a, theta_b)}
    out = Path(args.out)
    _write_record(record, out)
    write_manifest(
        _manifest(args, None, {}, [out], t0),
        out.with_suffix(out.suffix + ".manifest.json"),
    )
    return 0


def _worker_count(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("LLAB_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("LLAB_WORKERS", f"not an integer: {env!r}") from None
    return os.cpu_count() or 1


def cmd_sweep(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    grid = parse_grid(cfg)
    workers = _worker_count(args)
    cells, manifest = run_sweep(grid, workers=workers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    write_results_csv(cells, csv_path)
    manifest.update(_manifest(args, cfg, {"base_seed": grid.base_seed}, [csv_path], t0))
    write_manifest(manifest, out_dir / "sweep.manifest.json")
    n_cells = len(cells)
    n_nc = sum(not c.converged for c in cells)
    print(f"{n_cells} cells written to {csv_path}" + (f" ({n_nc} NC)" if n_nc else ""))
    return 0


def cmd_phase(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config) if args.config else None
    thresholds = parse_phase(cfg)
    if args.eps_mc is not None:
        thresholds = replace(thresholds, eps_mc=args.eps_mc)
    rows = read_results_csv(args.csv)
    labels = label_rows(rows, thresholds)
    for row, label in zip(rows, labels):
        row["phase_label"] = label
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))
    write_manifest(
        _manifest(args, cfg, {}, [out], t0) | {"thresholds": str(thresholds)},
        out.with_suffix(out.suffix + ".manifest.json"),
    )
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    print(json.dumps({"labels": counts}, sort_keys=True))
    return 0


def cmd_plot(args) -> int:
    t0 = time.time()
    rows = read_results_csv(args.csv)
    if args.metric not in CSV_COLUMNS:
        raise ConfigError("metric", f"unknown metric {args.metric!r}")
    out = Path(args.out)
    emit_heatmap(rows, args.metric, out, orientation=args.orientation)
    write_manifest(
        _manifest(args, None, {}, [out], t0),
        out.with_suffix(out.suffix + ".manifest.json"),
    )
    print(f"heatmap written to {out}")
    return 0


def cmd_profile_plot(args) -> int:
    t0 = time.time()
    with open(args.profile) as fh:
        profile = CurveProfile.from_dict(json.load(fh))
    out = Path(args.out)
    render_curve_profile(profile, out)
    write_manifest(
        _manifest(args, None, {}, [out], t0),
        out.with_suffix(out.suffix + ".manifest.json"),
    )
    print(f"profile plot written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losslab",
        description="Loss-landscape measurement lab for small MLP classifiers",
    )
    parser.add_argument("--version", action="version", version=f"losslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("hessian", help="curvature metrics of one checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--exact", action="store_true",
                   help="cross-check against the dense Hessian (small nets only)")
    p.set_defaults(func=cmd_hessian)

    p = sub.add_parser("cka", help="output similarity of two checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint-a", required=True)
    p.add_argument("--checkpoint-b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cka)

    p = sub.add_parser("modeconn", help="train a connecting curve and report mc")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint-a", required=True)
    p.add_argument("--checkpoint-b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_modeconn)

    p = sub.add_parser("l2", help="parameter-space distance of two checkpoints")
    p.add_argument("--checkpoint-a", required=True)
    p.add_argument("--checkpoint-b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_l2)

    p = sub.add_parser("sweep", help="run the full load-temperature grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel cells (default: LLAB_WORKERS or all cores)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("phase", help="classify sweep cells into phases")
    p.add_argument("--csv", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--eps-mc", type=float, default=None,
                   help="override the well-connected band half-width ('inf' allowed)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("plot", help="render a metric heatmap as SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--orientation", choices=("auto", "flip"), default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("profile-plot", help="render a curve profile as SVG")
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, NumericError, DegenerateOutputError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
