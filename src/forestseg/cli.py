"""Command-line entry points: synth, pipeline, select-queries, evaluate,
gradcheck.

Exit codes: 0 success, 2 input error, 3 config error, 4 internal invariant
violation. Every command is deterministic given its --seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Iterator

import click

from . import io
from .core import voxelize, voxel_labels_from_points
from .errors import ConfigError, ForestSegError, MissingLabels, ParseError
from .isa_select import DELTA_D, oracle_embeddings, select_queries_fps_euclidean, select_queries_isa, selection_stats
from .losses import run_gradient_checks
from .merging import BlockPrediction
from .metrics import evaluate_labels
from .pipeline import PipelineConfig, effective_threads, run_pipeline, run_pipeline_from_blocks
from .synthgen import CorruptionParams, ForestParams, generate_forest

def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ForestSegError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


def _emit_json(payload: dict, out: str | None) -> None:
    if out:
        io.write_json(out, payload)
    else:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))


@click.group()
def main() -> None:
    """Forest point-cloud segmentation pipeline tools."""


def _parse_forest_params(path: str, seed_override: int | None) -> ForestParams:
    # One key per ForestParams field; an ``X_range`` field is set as X_min / X_max.
    keys: dict = {}
    for f in dataclasses.fields(ForestParams):
        if f.name.endswith("_range"):
            for index, bound in enumerate(("min", "max")):
                keys[f.name.removesuffix("range") + bound] = (f.name, index, type(f.default[index]))
        else:
            keys[f.name] = (f.name, None, type(f.default))
    kwargs: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise ParseError(f"{path}: line {lineno}: unknown parameter {key!r}")
        name, index, kind = keys[key]
        try:
            parsed = kind(value)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad value {value!r} for {key}") from None
        if index is None:
            kwargs[name] = parsed
        else:
            bounds = list(kwargs.get(name, getattr(ForestParams, name)))
            bounds[index] = parsed
            kwargs[name] = tuple(bounds)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return ForestParams(**kwargs)


def _field_options(*dataclass_types):
    """One ``--kebab-case`` option per dataclass field, typed and defaulted from the field."""
    fields = [f for t in dataclass_types for f in dataclasses.fields(t)]

    def decorate(fn):
        for f in reversed(fields):
            fn = click.option(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default,
                              show_default=True)(fn)
        return fn

    return decorate


def _from_options(dataclass_type, options: dict):
    return dataclass_type(**{f.name: options[f.name] for f in dataclasses.fields(dataclass_type)})


@main.command()
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Flat key=value parameter file.")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output cloud (.ply or .tsv).")
@click.option("--seed", type=int, default=None, help="Override the seed from the params file.")
@_handle_errors
def synth(params_path: str, out: str, seed: int | None) -> None:
    """Generate a deterministic synthetic forest plot with GT labels."""
    params = _parse_forest_params(params_path, seed)
    cloud = generate_forest(params)
    io.write_cloud(out, cloud)
    click.echo(f"wrote {cloud.n} points ({params.n_trees} trees) to {out}")


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--predictor", default="oracle", show_default=True,
              help="'oracle' or a directory of per-block mask JSON files.")
@click.option("--out-labels", type=click.Path(dir_okay=False), default=None)
@click.option("--out-report", type=click.Path(dir_okay=False), default=None)
@click.option("--dump-blocks", type=click.Path(file_okay=False), default=None,
              help="Also write each block's predictions as JSON into this directory.")
@click.option("--threads", type=int, default=1, show_default=True)
@_field_options(CorruptionParams, PipelineConfig)
@_handle_errors
def pipeline(input_path, predictor, out_labels, out_report, dump_blocks, threads, **options) -> None:
    """Run the full segmentation pipeline over a point cloud."""
    config = _from_options(PipelineConfig, options)
    effective_threads(threads)
    corruption = _from_options(CorruptionParams, options)
    if predictor != "oracle" and (corruption != CorruptionParams() or dump_blocks):
        flags = ", ".join(f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(CorruptionParams))
        raise ConfigError(f"{flags} and --dump-blocks apply only to the oracle predictor")
    cloud = io.read_cloud(input_path)
    if predictor == "oracle":
        result = run_pipeline(cloud, config, corruption=corruption, threads=threads)
        if dump_blocks:
            from .pipeline import make_oracle_predictor
            from .tiling import tile_cloud

            out_dir = Path(dump_blocks)
            out_dir.mkdir(parents=True, exist_ok=True)
            predict = make_oracle_predictor(cloud, corruption, config.seed)
            for block in tile_cloud(cloud, config.radius, config.stride):
                io.write_block_file(out_dir / f"block_{block.block_id:05d}.json", predict(block))
    else:
        block_dir = Path(predictor)
        if not block_dir.is_dir():
            raise ParseError(f"predictor must be 'oracle' or a directory, got {predictor!r}")
        result = run_pipeline_from_blocks(_load_block_dir(block_dir), cloud, config)

    if out_labels:
        io.write_labels_tsv(out_labels, result.merge.instance, result.merge.semantic)
    _emit_json(result.report, out_report)


def _load_block_dir(block_dir: Path) -> Iterator[BlockPrediction]:
    """The directory's block files in sorted order, each read only when the merge pulls it."""
    files = sorted(block_dir.glob("*.json"))
    if not files:
        raise ParseError(f"{block_dir}: no block JSON files found")
    return map(io.read_block_file, files)


@main.command("select-queries")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Labeled cloud used to build the oracle embedding field.")
@click.option("--method", type=click.Choice(["isa", "fps"]), default="isa", show_default=True)
@click.option("--k", type=int, default=300, show_default=True)
@click.option("--threshold", type=float, default=0.5, show_default=True)
@click.option("--resolution", type=float, default=0.2, show_default=True)
@click.option("--noise-sigma", type=float, default=0.05, show_default=True)
@click.option("--separation", type=float, default=2 * DELTA_D, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_handle_errors
def select_queries(input_path, method, k, threshold, resolution, noise_sigma, separation, seed, out) -> None:
    """Select query voxels and report coverage statistics as JSON."""
    cloud = io.read_cloud(input_path)
    if not cloud.has_labels:
        raise MissingLabels(f"{input_path}: query selection statistics need GT labels")
    vox = voxelize(cloud, resolution)
    gt = voxel_labels_from_points(vox, cloud)
    field = oracle_embeddings(vox, gt, noise_sigma=noise_sigma, separation=separation, seed=seed)
    if method == "isa":
        selection = select_queries_isa(field, k, threshold=threshold)
    else:
        selection = select_queries_fps_euclidean(vox, k)
    stats = selection_stats(selection, gt)
    _emit_json(
        {
            "method": selection.method,
            "k_requested": selection.k_requested,
            "k_selected": selection.k,
            "voxel_indices": [int(v) for v in selection.voxel_indices],
            "coverage_rate": stats.coverage_rate,
            "tree_voxel_ratio": stats.tree_voxel_ratio,
        },
        out,
    )


@main.command()
@click.option("--pred", "pred_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--gt", "gt_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--iou", type=float, default=0.5, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_handle_errors
def evaluate(pred_path, gt_path, iou, out) -> None:
    """Evaluate predicted labels against ground truth; JSON report."""
    pred_inst, pred_sem = io.read_labels_tsv(pred_path)
    gt_inst, gt_sem = io.read_labels_tsv(gt_path)
    report = evaluate_labels(pred_inst, gt_inst, pred_sem, gt_sem, iou_threshold=iou)
    _emit_json({"iou_threshold": iou, **report.to_dict()}, out)


@main.command()
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_handle_errors
def gradcheck(trials, seed, out) -> None:
    """Verify every analytic loss gradient against finite differences."""
    report = run_gradient_checks(trials=trials, seed=seed)
    _emit_json(report, out)
    if not report["all_pass"]:
        sys.exit(4)


if __name__ == "__main__":
    main()
