"""Command-line surface: train, per-metric measurement, sweeps, phases, plots.

Everything that can change a result comes from the JSON config; flags
only choose files, workers, and output locations, and each setting has
exactly one of the two as its source.  Every command drops one manifest,
``<first output>.manifest.json`` (``train.manifest.json`` and
``sweep.manifest.json`` in the output directory), recording the command
line, the full config, the seeds involved, and wall-clock time.

Exit codes: 0 success, 2 usage or config problem, 3 numeric divergence,
4 I/O failure or a malformed input file.

Only ``config``, ``errors`` and ``phases`` are imported here, and none of
them loads numpy.  Each command that trains or measures imports what it
needs in its own body, so ``phase``, ``plot`` and ``profile-plot``, which
only read and render files, start without numpy or the training stack,
whose imports cost several times the work these commands do.  Every
other command loads numpy.

BLAS runs one thread.  Before it dispatches, ``main`` sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to
``1``; the BLAS library reads them when numpy first loads it, and the
workers of ``sweep --workers N`` inherit them.  The package's arrays (at
most ``metric_batch`` rows by a hidden width) are too small for helper
threads to help: the threads spin on the cores the cells need, and in
about one process in eight a Hessian product ran many times slower for
the whole life of the process.  To choose another thread count, set any
of the three variables: ``main`` then leaves all three as they are.  It
also leaves them alone when numpy is already imported, as in a program
that calls ``main`` in-process, since the setting could no longer apply.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from . import __version__
from .config import (
    load_config,
    parse_curve,
    parse_data,
    parse_grid,
    parse_metrics,
    parse_model,
    parse_phase,
    parse_train,
    parse_weight_decay,
)
from .errors import (
    ConfigError,
    DegenerateOutputError,
    DimensionError,
    DivergenceError,
    FormatError,
    NumericError,
    ParameterError,
)
from .phases import (
    CSV_COLUMNS,
    CurveProfile,
    emit_heatmap,
    label_rows,
    read_results_csv,
    render_curve_profile,
    rows_to_csv,
    write_json,
)


def _finish(args, outputs: list, config: dict | None = None, seeds: dict | None = None,
            path=None, **extra) -> int:
    """Write the command's manifest, by default next to its first output, and return 0."""
    manifest = extra | {
        "command_line": sys.argv,
        "command": args.command,
        "config": config,
        "seeds": seeds or {},
        "version": __version__,
        "outputs": [str(Path(p)) for p in outputs],
        "wall_clock_s": time.time() - args.t0,
    }
    write_json(manifest, path or f"{outputs[0]}.manifest.json")
    return 0


def _load_pair(path_a, path_b):
    from .train import load_checkpoint

    theta_a, spec_a, _ = load_checkpoint(path_a)
    theta_b, spec_b, _ = load_checkpoint(path_b)
    if spec_a != spec_b:
        raise DimensionError(f"checkpoints disagree on the model spec: {spec_a} vs {spec_b}")
    return spec_a, theta_a, theta_b


def _write_record(record: dict, path) -> None:
    write_json(record, path)
    print(json.dumps(record, sort_keys=True))


def cmd_train(args) -> int:
    """train one model from a JSON config"""
    from .sweep import datasets_from_recipe
    from .train import save_checkpoint, sgd_train

    cfg = load_config(args.config)
    spec = parse_model(cfg)
    recipe = parse_data(cfg)
    tcfg = parse_train(cfg)
    train_ds, test_ds = datasets_from_recipe(recipe)
    [theta], [history] = sgd_train(spec, train_ds, test_ds, tcfg, [tcfg.seed])
    if isinstance(theta, DivergenceError):
        raise theta

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
    print(f"checkpoint written to {ckpt}")
    return _finish(args, [ckpt, hist_path], cfg, {"train": tcfg.seed, "data": recipe.seed},
                   path=out_dir / "train.manifest.json",
                   best_train_loss_epoch=history.best_train_loss_epoch,
                   best_test_acc_epoch=history.best_test_acc_epoch,
                   stopped_by_plateau=history.stopped_by_plateau)


def cmd_hessian(args) -> int:
    """curvature metrics of one checkpoint"""
    import numpy as np

    from .model import exact_hessian
    from .sweep import datasets_from_recipe, measure_curvature
    from .train import load_checkpoint

    cfg = load_config(args.config)
    recipe = parse_data(cfg)
    curvature, _ = parse_metrics(cfg)
    wd = parse_weight_decay(cfg)
    theta, spec, _ = load_checkpoint(args.checkpoint)
    train_ds, _ = datasets_from_recipe(recipe)
    eig, tr, batch = measure_curvature(spec, theta, train_ds, wd, curvature)
    record = {
        "metric": "hessian",
        "lambda_max": eig.value,
        "lanczos_steps": eig.iterations,
        "lambda_residual": eig.residual,
        "degenerate": eig.degenerate,
        "hessian_trace": tr.value,
        "weight_decay": wd,
    }
    if args.exact:
        dense = exact_hessian(spec, theta, batch, wd)
        vals = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        exact_lam = float(vals[np.argmax(np.abs(vals))])
        rel = abs(eig.value - exact_lam) / max(abs(exact_lam), 1e-300)
        record.update(exact_lambda_max=exact_lam, exact_rel_err=rel,
                      exact_trace=float(np.trace(dense)))
    _write_record(record, args.out)
    if record.get("exact_rel_err", 0.0) >= 1e-3:
        raise NumericError(f"Lanczos off by {rel:.2e} relative to the dense eigensolver")
    return _finish(args, [args.out], cfg, {"metrics": curvature.seed})


def cmd_cka(args) -> int:
    """output similarity of two checkpoints"""
    from .cka import cka_between_models
    from .rng import derive_seed
    from .sweep import build_probes, datasets_from_recipe

    cfg = load_config(args.config)
    recipe = parse_data(cfg)
    _, probes_cfg = parse_metrics(cfg)
    spec, theta_a, theta_b = _load_pair(args.checkpoint_a, args.checkpoint_b)
    train_ds, _ = datasets_from_recipe(recipe)
    probes = build_probes(train_ds, probes_cfg, derive_seed(recipe.seed, "cli_probes"))
    value = cka_between_models(spec, theta_a, theta_b, probes)
    _write_record({"metric": "cka", "cka": value, "probes": probes.m, "source": probes.source},
                  args.out)
    return _finish(args, [args.out], cfg, {"data": recipe.seed})


def cmd_modeconn(args) -> int:
    """train a connecting curve and report mc"""
    from .curves import mode_connectivity
    from .sweep import connect, datasets_from_recipe

    cfg = load_config(args.config)
    recipe = parse_data(cfg)
    ccfg = parse_curve(cfg)
    wd = parse_weight_decay(cfg)
    spec, theta_a, theta_b = _load_pair(args.checkpoint_a, args.checkpoint_b)
    train_ds, _ = datasets_from_recipe(recipe)
    [profile] = connect(spec, [(theta_a, theta_b)], train_ds, ccfg, [ccfg.seed], wd)
    if isinstance(profile, DivergenceError):
        raise profile
    record = {
        "metric": "modeconn",
        "mc": mode_connectivity(profile),
        "mc_cross_entropy": mode_connectivity(profile, use="cross_entropy"),
        "profile": profile.to_dict(),
    }
    profile_path = Path(args.out).with_suffix(".profile.json")
    write_json(profile.to_dict(), profile_path)
    _write_record(record, args.out)
    return _finish(args, [args.out, profile_path], cfg, {"curve": ccfg.seed})


def cmd_l2(args) -> int:
    """parameter-space distance of two checkpoints"""
    from .sweep import l2_distance

    _, theta_a, theta_b = _load_pair(args.checkpoint_a, args.checkpoint_b)
    _write_record({"metric": "l2", "l2": l2_distance(theta_a, theta_b)}, args.out)
    return _finish(args, [args.out])


def cmd_sweep(args) -> int:
    """run the full load-temperature grid"""
    from .sweep import results_to_csv, run_sweep

    cfg = load_config(args.config)
    grid = parse_grid(cfg)
    cells, manifest = run_sweep(grid, workers=max(1, args.workers))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    csv_path.write_text(results_to_csv(cells), newline="")
    n_nc = sum(not c.converged for c in cells)
    print(f"{len(cells)} cells written to {csv_path}" + (f" ({n_nc} NC)" if n_nc else ""))
    return _finish(args, [csv_path], cfg, {"base_seed": grid.base_seed},
                   path=out_dir / "sweep.manifest.json", **manifest)


def cmd_phase(args) -> int:
    """classify sweep cells into phases"""
    cfg = load_config(args.config) if args.config else None
    thresholds = parse_phase(cfg)
    rows = read_results_csv(args.csv)
    labels = label_rows(rows, thresholds)
    for row, label in zip(rows, labels):
        row["phase_label"] = label
    Path(args.out).write_text(rows_to_csv(rows), newline="")
    print(json.dumps({"labels": Counter(labels)}, sort_keys=True))
    return _finish(args, [args.out], cfg, thresholds=str(thresholds))


def cmd_plot(args) -> int:
    """render a metric heatmap as SVG"""
    rows = read_results_csv(args.csv)
    # the axis kinds are text; phase_label is the one text column with a heatmap
    if args.metric not in CSV_COLUMNS or args.metric in ("load_kind", "temp_kind"):
        raise ConfigError("metric", f"not a plottable metric {args.metric!r}")
    emit_heatmap(rows, args.metric, args.out, orientation=args.orientation)
    print(f"heatmap written to {args.out}")
    return _finish(args, [args.out])


def cmd_profile_plot(args) -> int:
    """render a curve profile as SVG"""
    try:
        with open(args.profile) as fh:
            profile = CurveProfile.from_dict(json.load(fh))
    except (ValueError, RecursionError, KeyError, TypeError, ParameterError) as exc:
        raise FormatError(f"{args.profile}: not a curve profile: {exc!r}") from None
    render_curve_profile(profile, args.out)
    print(f"profile plot written to {args.out}")
    return _finish(args, [args.out])


def _command(sub, func, *required: str) -> argparse.ArgumentParser:
    """The subcommand running ``func``, named after it, with its required path flags."""
    p = sub.add_parser(func.__name__[4:].replace("_", "-"), help=func.__doc__)
    for flag in required:
        p.add_argument(flag, required=True)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losslab",
        description="Loss-landscape measurement lab for small MLP classifiers",
    )
    parser.add_argument("--version", action="version", version=f"losslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    pair = ("--checkpoint-a", "--checkpoint-b", "--out")
    _command(sub, cmd_train, "--config", "--out-dir")
    _command(sub, cmd_hessian, "--config", "--checkpoint", "--out").add_argument(
        "--exact", action="store_true",
        help="cross-check against the dense Hessian (small nets only)")
    _command(sub, cmd_cka, "--config", *pair)
    _command(sub, cmd_modeconn, "--config", *pair)
    _command(sub, cmd_l2, *pair)
    _command(sub, cmd_sweep, "--config", "--out-dir").add_argument(
        "--workers", type=int, default=os.cpu_count() or 1,
        help="parallel cells (default: all cores)")
    _command(sub, cmd_phase, "--csv", "--out").add_argument("--config", default=None)
    _command(sub, cmd_plot, "--csv", "--metric", "--out").add_argument(
        "--orientation", choices=("auto", "flip"), default="auto")
    _command(sub, cmd_profile_plot, "--profile", "--out")
    return parser


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARIABLES):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    args.t0 = time.time()
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
