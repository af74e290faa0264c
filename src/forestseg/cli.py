"""Command-line entry points: synth, pipeline, select-queries, evaluate,
gradcheck.

Exit codes: 0 success, 2 input error, 3 config error, 4 internal invariant
violation. Every command is deterministic given its --seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import click

from . import core, io
from .errors import ConfigError, ForestSegError, InputDataError, MissingLabels, ParseError
from .isa_select import (_resolution, oracle_embeddings, select_queries_fps_euclidean, select_queries_isa,
                         selection_stats, voxel_labels_from_points, voxelize)
from .losses import run_gradient_checks
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


def _fail_if_refused(path_type: click.Path, value, param, ctx) -> None:
    """A usage error if the OS refuses to look ``value`` up, as it does a name too long; a path not made yet passes."""
    try:
        os.stat(value)
    except FileNotFoundError:
        pass
    except OSError as exc:
        path_type.fail(f"{click.format_filename(value)!r}: {exc.strerror}.", param, ctx)


class _OutputFile(click.Path):
    """A file path to write inside a directory that exists, so a bad path is a usage error (exit 2) before any work."""

    def convert(self, value, param, ctx):
        parent = Path(super().convert(value, param, ctx)).parent
        if not os.path.isdir(parent):  # False, not an OSError, for a path the OS refuses, such as a name too long
            self.fail(f"{click.format_filename(parent)!r} is not an existing directory.", param, ctx)
        _fail_if_refused(self, value, param, ctx)
        return value


class _OutputDir(click.Path):
    """A directory to create or fill, whose nearest existing ancestor is a
    directory, so a path through a file is a usage error (exit 2) before any work."""

    def convert(self, value, param, ctx):
        path = Path(super().convert(value, param, ctx))
        ancestor = next(p for p in (path, *path.parents) if os.path.exists(p))  # as isdir, False on an OSError
        if not ancestor.is_dir():
            self.fail(f"{click.format_filename(ancestor)!r} is not a directory.", param, ctx)
        _fail_if_refused(self, value, param, ctx)
        return value


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
    key_lines: dict[str, int] = {}
    with io._open_text(Path(path)) as text:
        for lineno, raw in enumerate((line.removesuffix("\n") for line in text), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in keys:
                raise ParseError(f"{path}: line {lineno}: unknown parameter {key!r}")
            if key in key_lines:
                raise ParseError(f"{path}: line {lineno}: parameter {key!r} already set on line {key_lines[key]}")
            key_lines[key] = lineno
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
@click.option("--out", type=_OutputFile(dir_okay=False), required=True, help="Output cloud (.ply or .tsv).")
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
              help=f"'oracle' or a directory of block files ({io._BLOCK_PATTERNS}; suffixes in any letter case).")
@click.option("--out-labels", type=_OutputFile(dir_okay=False), default=None)
@click.option("--out-report", type=_OutputFile(dir_okay=False), default=None)
@click.option("--dump-blocks", type=_OutputDir(file_okay=False), default=None,
              help="Also write each block's predictions as .npz files into this directory.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Accepted and checked (>= 1), but blocks are predicted in the calling thread.")
@_field_options(CorruptionParams, PipelineConfig)
@_handle_errors
def pipeline(input_path, predictor, out_labels, out_report, dump_blocks, threads, **options) -> None:
    """Run the full segmentation pipeline over a point cloud."""
    config = _from_options(PipelineConfig, options)
    effective_threads(threads)
    corruption = _from_options(CorruptionParams, options)
    if out_labels:
        io._check_label_table_path(out_labels)
    if predictor != "oracle" and (corruption != CorruptionParams() or dump_blocks):
        flags = ", ".join(f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(CorruptionParams))
        raise ConfigError(f"{flags} and --dump-blocks apply only to the oracle predictor")
    if dump_blocks:
        try:
            Path(dump_blocks).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputDataError(f"{dump_blocks}: cannot create directory: {exc.strerror or exc}") from None
        if io._block_files(dump_blocks):
            # A replay reads every block file there, so files of an earlier dump would join this one's.
            raise ConfigError(f"--dump-blocks directory {dump_blocks} already holds block files ({io._BLOCK_PATTERNS})")
    if predictor != "oracle":
        if not os.path.isdir(predictor):  # False, not an OSError, for a path the OS refuses, such as a name too long
            raise ParseError(f"predictor must be 'oracle' or a directory, got {predictor!r}")
        if not (block_files := io._block_files(predictor)):
            raise ParseError(f"{Path(predictor)}: no block files ({io._BLOCK_PATTERNS}) found")
    cloud = io.read_cloud(input_path)
    if predictor == "oracle":
        result = run_pipeline(cloud, config, corruption=corruption, threads=threads)
        if dump_blocks:
            from .pipeline import make_oracle_predictor
            from .tiling import tile_cloud

            predict = make_oracle_predictor(cloud, corruption, config.seed)
            for block in tile_cloud(cloud, config.radius, config.stride):
                io.write_block_file(Path(dump_blocks) / f"block_{block.block_id:05d}.npz", predict(block))
    else:
        # Each file read as the merge pulls it; a generator, not ``map``, so an escaping StopIteration fails the run.
        result = run_pipeline_from_blocks((io.read_block_file(path) for path in block_files), cloud, config)

    if out_labels:
        io.write_labels_tsv(out_labels, result.merge.instance, result.merge.semantic)
    _emit_json(result.report, out_report)


@main.command("select-queries")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Labeled cloud to voxelize, select from and score the selection against.")
@click.option("--method", type=click.Choice(["isa", "fps"]), default="isa", show_default=True)
@click.option("--k", type=int, default=300, show_default=True)
@click.option("--threshold", type=float, default=0.5, show_default=True)
@click.option("--resolution", type=float, default=0.2, show_default=True)
@click.option("--noise-sigma", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=_OutputFile(dir_okay=False), default=None)
@_handle_errors
def select_queries(input_path, method, k, threshold, resolution, noise_sigma, seed, out) -> None:
    """Select query voxels and report coverage statistics as JSON."""
    ctx = click.get_current_context()
    isa_only = [p for p in ctx.command.params if p.name in ("threshold", "noise_sigma", "seed")]
    if method == "fps" and any(ctx.params[p.name] != p.default for p in isa_only):
        raise ConfigError("--threshold, --noise-sigma and --seed apply only to --method isa")
    # Each option's rule, in the order the stages below apply them, before the cloud is read.
    _resolution(resolution)
    for name, value, rule in (("noise_sigma", noise_sigma, "finite >= 0"), ("seed", seed, "int >= 0"),
                              ("threshold", threshold, "[0, 1]"), ("k", k, "int >= 1")):
        core._setting(name, value, rule)
    cloud = io.read_cloud(input_path)
    if not cloud.has_labels:
        raise MissingLabels(f"{input_path}: query selection statistics need GT labels")
    vox = voxelize(cloud, resolution)
    gt = voxel_labels_from_points(vox, cloud)
    if method == "isa":
        field = oracle_embeddings(vox, gt, noise_sigma=noise_sigma, seed=seed)
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
@click.option("--out", type=_OutputFile(dir_okay=False), default=None)
@_handle_errors
def evaluate(pred_path, gt_path, iou, out) -> None:
    """Evaluate predicted labels against ground truth; JSON report."""
    core._setting("IoU threshold", iou, "[0, 1]")  # evaluate_labels' rule, checked before any file is read
    pred_inst, pred_sem = io.read_labels_tsv(pred_path)
    gt_inst, gt_sem = io.read_labels_tsv(gt_path)
    report = evaluate_labels(pred_inst, gt_inst, pred_sem, gt_sem, iou_threshold=iou)
    _emit_json({"iou_threshold": iou, **report.to_dict()}, out)


@main.command()
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=_OutputFile(dir_okay=False), default=None)
@_handle_errors
def gradcheck(trials, seed, out) -> None:
    """Verify every analytic loss gradient against finite differences."""
    report = run_gradient_checks(trials=trials, seed=seed)
    _emit_json(report, out)
    if not report["all_pass"]:
        sys.exit(4)


if __name__ == "__main__":
    main()
