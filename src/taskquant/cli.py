"""Command-line interface.

Subcommands: design, simulate, sweep, bound, train, harden. All accept
--config, --output, --seed, --trials; exit code 0 on success, 1 on
configuration problems, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import deep, harness, io
from .errors import ConfigError, NumericalError
from .linear_task import QuantizerDesign


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _load(args) -> harness.ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    overrides = {name: getattr(args, name) for name in ("seed", "trials", "output")
                 if getattr(args, name) is not None}
    # replace() re-runs the config's validation on the overridden values
    return dataclasses.replace(harness.load_config(args.config), **overrides)


def _cmd_design(args) -> int:
    cfg = _load(args)
    scenario = harness.build_scenario(cfg)
    des = harness.pipeline(cfg, scenario)[0]
    if not isinstance(des, QuantizerDesign):
        raise ConfigError(f"[sweep] method: {cfg.method} on {scenario.name} has "
                          f"no combiner design")
    waterline = "" if np.isnan(des.waterline) else f"waterline={des.waterline:.6g} "
    print(f"scenario={scenario.name} channels={des.channels} "
          f"levels={des.quantizer.levels} support={des.quantizer.support:.6g} "
          f"{waterline}predicted_excess_mse={des.predicted_excess_mse:.6g}")
    if cfg.output:
        io.save_design(cfg.output, des)
        print(f"design written to {cfg.output}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    rows = [harness.simulate(cfg)]
    harness.write_csv(rows, sys.stdout)
    print(f"# wall_time_ms={rows[0].wall_time_ms:.1f}", file=sys.stderr)
    if cfg.output:
        harness.save_csv(rows, cfg.output)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    rows = harness.sweep(cfg, verbose=True)
    if not cfg.output:
        harness.write_csv(rows, sys.stdout)
    else:
        print(f"{len(rows)} rows written to {cfg.output}")
    return 0


def _cmd_bound(args) -> int:
    cfg = _load(args)
    scenario = harness.build_scenario(cfg)
    if not cfg.grid:
        raise ConfigError("[sweep] grid: rate grid required for bound curves")
    rows = [harness.bound_row(scenario, bits) for bits in cfg.grid]
    if cfg.output:
        harness.save_csv(rows, cfg.output)
        print(f"{len(rows)} rows written to {cfg.output}")
    else:
        harness.write_csv(rows, sys.stdout)
    return 0


def _cmd_train(args) -> int:
    cfg = dataclasses.replace(_load(args), method="deep")
    scenario = harness.build_scenario(cfg)
    bits = harness.point_bits(cfg, scenario)
    if scenario.kind == "classification":
        result = harness.train_deep_classifier(scenario, bits, cfg.train, cfg.seed,
                                               channels=cfg.channels)
    else:
        result = harness.train_deep_estimator(scenario, bits, channels=cfg.channels,
                                              settings=cfg.train, seed=cfg.seed)
        print(f"test_mse={result['test_mse']:.6g} (se {result['test_se']:.2g})")
    losses = result["history"]
    print(f"channels={result['channels']} levels={result['levels']} "
          f"epochs={len(losses)} first_loss={losses[0]:.6g} "
          f"final_loss={losses[-1]:.6g}")
    if cfg.output:
        io.save_model(cfg.output, result["net"])
        print(f"model written to {cfg.output}")
    return 0


def _cmd_harden(args) -> int:
    if not args.model:
        raise ConfigError("--model is required for harden")
    net = io.load_model(args.model)
    hardened = deep.harden(net)
    dump = {"channels": []}
    for spec in hardened.quantizer.channel_specs:
        dump["channels"].append({"thresholds": spec.thresholds.tolist(),
                                 "levels": spec.levels.tolist()})
    text = json.dumps(dump, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"quantizer spec written to {args.output}")
    else:
        print(text)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="taskquant",
                     description="Task-based quantization designs, bounds, "
                                 "and Monte Carlo experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, handler in (
            ("design", "compute and serialize a pipeline design", _cmd_design),
            ("simulate", "simulate one operating point", _cmd_simulate),
            ("sweep", "run a grid of operating points to CSV", _cmd_sweep),
            ("bound", "rate-distortion lower-bound curve to CSV", _cmd_bound),
            ("train", "train a deep quantizer and save the model", _cmd_train),
            ("harden", "dump the discrete quantizer of a trained model", _cmd_harden)):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--output", help="output path")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--trials", type=int, help="Monte Carlo trials")
        if name == "harden":
            p.add_argument("--model", help="trained model file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
