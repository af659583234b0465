"""Command-line front end: simulate observations, invert them, run noise studies.

Every command is deterministic given its config and seed; rerunning with the
same inputs reproduces output files byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .errors import HeatInvError
from .forward import make_observations
from .inverse import invert
from .io import (
    ExperimentConfig,
    _config_sha256,
    format_report,
    load_config,
    read_observations,
    write_json,
    write_observations,
    write_reconstruction,
    write_study,
)
from .presets import PRESETS, preset_names
from .regularize import run_noise_study


@functools.cache  # one parser per process: main may run many commands
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatinv",
        description=(
            "Simulate the 1-D heat equation with unknown source h(t), boundary "
            "input v(t) and initial data g(x), and reconstruct all three from "
            "the observation triple {u1(t), u3(t), u(y,t)}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="JSON experiment config")
        p.add_argument(
            "--out", type=Path, default=None,
            help="output directory (default: the config's out_dir)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--preset",
            choices=preset_names(),
            default=None,
            help="override the config problem preset: " + "; ".join(
                f"{name}, {PRESETS[name].description}" for name in preset_names()),
        )

    p_sim = sub.add_parser("simulate", help="generate the observation triple")
    common(p_sim)

    p_inv = sub.add_parser("invert", help="reconstruct (h, v, g) from observation files")
    p_inv.add_argument("observations", type=Path, help="observations CSV written by simulate")
    common(p_inv)

    p_study = sub.add_parser("study", help="noise-amplification study")
    common(p_study)

    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.preset is not None:
        overrides["preset"] = args.preset
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir) if args.out is None else Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _provenance(cfg: ExperimentConfig, **extra) -> dict:
    """What a command's outputs record of their config; the config is
    serialised once, for both its dict and its hash."""
    config = cfg.to_dict()
    return {"config": config, "config_sha256": _config_sha256(config), "seed": cfg.seed, **extra}


def cmd_simulate(args) -> int:
    cfg = _load(args)
    problem = cfg.make_problem()
    obs = make_observations(problem, cfg.y, cfg.noise_spec())
    out = _out_dir(args, cfg)
    prov = _provenance(cfg, y=cfg.y)
    meta = {"noise": dataclasses.asdict(cfg.noise_spec()), "seed": cfg.seed, "preset": cfg.preset,
            "config_sha256": prov["config_sha256"]}
    write_observations(out / "observations.csv", obs, meta)
    write_json(out / "observations.json", prov)
    print(f"wrote {out / 'observations.csv'} ({obs.u1.n} samples)")
    return 0


def cmd_invert(args) -> int:
    cfg = _load(args)
    obs, meta = read_observations(args.observations)
    rec = invert(obs, cfg.inversion_config())
    out = _out_dir(args, cfg)
    # basename only: embedding a volatile absolute path would break the
    # byte-identical rerun contract
    prov = _provenance(cfg, y=obs.y, order=obs.order,
                       observations=Path(args.observations).name,
                       observations_config_sha256=meta.get("config_sha256"))
    write_reconstruction(out, rec, prov)
    report = format_report(rec, prov)
    (out / "report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_study(args) -> int:
    cfg = _load(args)
    problem = cfg.make_problem()
    study = run_noise_study(
        problem,
        cfg.y,
        levels=cfg.levels,
        trials=cfg.trials,
        cfg=cfg.inversion_config(),
        base_seed=cfg.seed,
    )
    out = _out_dir(args, cfg)
    paths = write_study(out, study, _provenance(cfg, y=cfg.y))
    print(f"wrote {', '.join(str(p) for p in paths)}")
    if study.n_failed():
        print(f"note: {study.n_failed()} trial(s) failed; see study.csv", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"simulate": cmd_simulate, "invert": cmd_invert, "study": cmd_study}
    try:
        return handlers[args.command](args)
    except (HeatInvError, OSError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "stage"):
            diag["stage"] = exc.stage
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
