"""Command-line front end.

Subcommands: analyze | predict | simulate | capacity | verify.  All take a
JSON config plus flag overrides and write reports into the output directory;
every report embeds the config hash, the seed and the tool version so the
producing command can be re-run exactly.  ``simulate`` runs its epsilon grid
as one engine call, so each ``wall_time`` in ``hitting.json`` is that call's.

Exit codes: 0 success, 1 pipeline failure, 2 malformed config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["potential", "gamma"],
    "properties": {
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "dimension"],
            "properties": {
                "family": {
                    "enum": [
                        "quartic-double-well-1d",
                        "separable-double-well-nd",
                        "polynomial-custom",
                    ]
                },
                "dimension": {"type": "integer", "minimum": 1, "maximum": 3},
                "parameters": {"type": "array"},
                "offset": {"type": "number"},
            },
        },
        "gamma": {"type": "number", "exclusiveMinimum": 0},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "epsilon_grid": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "balls": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rule": {"enum": ["fixed", "epsilon", "desk"]},
                "radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scheme": {"enum": ["euler-maruyama", "splitting-obabo"]},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "max_time": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "ensemble": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_traj": {"type": "integer", "minimum": 1},
                "base_seed": {"type": "integer"},
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points_per_axis": {"type": "integer", "minimum": 4},
                "panels": {"type": "integer", "minimum": 1},
                "truncation_offset": {"type": "number", "exclusiveMinimum": 0},
                "K": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "landscape": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "box": {"type": "array"},
                "grid_density": {"type": "integer", "minimum": 2},
                "start_well": {"type": "array", "items": {"type": "number"}},
            },
        },
        "checks": {"type": "object"},
        "output_dir": {"type": "string"},
    },
}

DEFAULTS = {
    "balls": {"rule": "desk", "radius": 0.2},
    "integrator": {"scheme": "splitting-obabo", "dt": 1.0e-3, "max_time": 1.0e6},
    "ensemble": {"n_traj": 2000, "base_seed": 0},
    "quadrature": {"points_per_axis": 64, "panels": 4, "truncation_offset": 8.0, "K": 4.0},
    "landscape": {"grid_density": 9},
}


class ConfigError(Exception):
    pass


def load_config(path: str, overrides, epsilon=None, seed=None):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects dotted.path=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        _apply_override(cfg, dotted.split("."), raw)
    if epsilon is not None:
        cfg["epsilon"] = epsilon
        cfg.pop("epsilon_grid", None)
    if seed is not None:
        cfg.setdefault("ensemble", {})["base_seed"] = seed
    try:
        import jsonschema

        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = ".".join(str(x) for x in exc.absolute_path) or "(root)"
        raise ConfigError(f"config field {where}: {exc.message}") from exc
    if "epsilon" not in cfg and "epsilon_grid" not in cfg:
        raise ConfigError("config needs epsilon or epsilon_grid")
    merged = dict(cfg)
    for key, defaults in DEFAULTS.items():
        block = dict(defaults)
        block.update(merged.get(key, {}))
        merged[key] = block
    return merged


def _apply_override(cfg, path, raw):
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {'.'.join(path)} crosses a non-object")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[path[-1]] = value


def config_hash(cfg) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _build_model(cfg):
    from . import potentials

    block = cfg["potential"]
    family = block["family"]
    if family == "quartic-double-well-1d":
        model = potentials.quartic_double_well()
    elif family == "separable-double-well-nd":
        model = potentials.separable_double_well(block.get("parameters", []))
    else:
        terms = [(c, tuple(e)) for c, e in block.get("parameters", [])]
        model = potentials.polynomial_potential(block["dimension"], terms)
    if block["dimension"] != model.dimension:
        raise ConfigError(
            f"potential dimension {block['dimension']} does not match family ({model.dimension})"
        )
    if block.get("offset"):
        from dataclasses import replace

        model = replace(model, offset=model.offset + float(block["offset"]))
    return model


def _analyze(cfg):
    from .landscape import build_landscape, find_critical_points

    model = _build_model(cfg)
    land = cfg["landscape"]
    box = land.get("box") or [[-2.0, 2.0]] * model.dimension
    cps = find_critical_points(model, box, land["grid_density"])
    report = build_landscape(model, cps, start_well_hint=land.get("start_well"))
    return model, report


def _epsilons(cfg):
    return cfg.get("epsilon_grid") or [cfg["epsilon"]]


def _radius(cfg, epsilon):
    from .hitting import target_radius_for

    rule = cfg["balls"]["rule"]
    if rule == "fixed":
        return cfg["balls"]["radius"]
    return target_radius_for(epsilon, rule)


def _metadata(cfg, argv):
    return {
        "tool_version": __version__,
        "config_hash": config_hash(cfg),
        "base_seed": cfg["ensemble"]["base_seed"],
        "config": cfg,
        "metadata": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "argv": argv},
    }


def _write_json(outdir: Path, name: str, payload: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(json.dumps(payload, indent=2, default=_jsonable) + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    return str(obj)


def cmd_analyze(cfg, args, outdir):
    model, report = _analyze(cfg)
    payload = _metadata(cfg, args.argv)
    payload["landscape"] = {
        "minimum_m": report.minimum_m.location,
        "minimum_s": report.minimum_s.location,
        "saddle": report.saddle.location,
        "barrier_from_m": report.barrier_from_m,
        "barrier_from_s": report.barrier_from_s,
        "lambda_sigma": report.lambda_sigma,
        "is_valid_double_well": report.is_valid_double_well,
        "saddle_eigenvalues": report.saddle.hessian_eigenvalues,
        "m_eigenvalues": report.minimum_m.hessian_eigenvalues,
    }
    path = _write_json(outdir, "landscape.json", payload)
    print(f"wrote {path}")
    return 0


def cmd_predict(cfg, args, outdir):
    from .rates import OVERDAMPED, UNDERDAMPED, build_saddle_frame, ek_prediction

    model, report = _analyze(cfg)
    frame = build_saddle_frame(model, report, cfg["gamma"])
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "predictions.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "regime", "prefactor", "exponent", "predicted_mean_time"])
        for eps in _epsilons(cfg):
            for regime in (UNDERDAMPED, OVERDAMPED):
                pred = ek_prediction(report, frame, eps, regime)
                writer.writerow(
                    [eps, regime, f"{pred.prefactor:.12g}", f"{pred.exponent:.12g}",
                     f"{pred.predicted_mean_time:.12g}"]
                )
    print(f"wrote {path}")
    return 0


def cmd_simulate(cfg, args, outdir):
    from .dynamics import IntegratorConfig
    from .hitting import Ball, EnsembleConfig, estimate_mean_hitting_times
    from .rates import build_saddle_frame, ek_prediction

    model, report = _analyze(cfg)
    frame = build_saddle_frame(model, report, cfg["gamma"])
    integ = cfg["integrator"]
    ens = cfg["ensemble"]
    preds, ecfgs = [], []
    for i, eps in enumerate(_epsilons(cfg)):
        pred = ek_prediction(report, frame, eps)
        max_time = min(integ["max_time"], 50.0 * pred.predicted_mean_time)
        preds.append(pred)
        ecfgs.append(EnsembleConfig(
            model=model,
            epsilon=eps,
            gamma=cfg["gamma"],
            n_traj=ens["n_traj"],
            start=np.concatenate([report.minimum_m.location, np.zeros(model.dimension)]),
            target=Ball(
                np.concatenate([report.minimum_s.location, np.zeros(model.dimension)]),
                _radius(cfg, eps),
            ),
            integrator=IntegratorConfig(scheme=integ["scheme"], dt=integ["dt"], max_time=max_time),
            base_seed=ens["base_seed"],
            stream_base=i * ens["n_traj"],
        ))
    results, rows = [], []
    for ecfg, pred, stats in zip(ecfgs, preds, estimate_mean_hitting_times(ecfgs, jobs=args.jobs)):
        eps = ecfg.epsilon
        results.append(
            {
                "epsilon": eps,
                "mean": stats.mean,
                "variance": stats.variance,
                "ci95_half_width": stats.ci95_half_width,
                "n_completed": stats.n_completed,
                "n_timeout": stats.n_timeout,
                "min": stats.min,
                "max": stats.max,
                "predicted_mean_time": pred.predicted_mean_time,
                "wall_time": stats.wall_time,
                "stream_range": stats.stream_range,
            }
        )
        if args.dump_trajectories:
            names = {0: "hit_target", 1: "hit_avoid", 2: "timeout", 3: "level_crossed"}
            for tid, (t, r) in enumerate(zip(stats.times, stats.reasons)):
                rows.append([eps, tid, f"{t:.9g}", names[int(r)]])
    payload = _metadata(cfg, args.argv)
    payload["hitting"] = results
    path = _write_json(outdir, "hitting.json", payload)
    print(f"wrote {path}")
    if args.dump_trajectories:
        tpath = outdir / "trajectories.csv"
        with tpath.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epsilon", "trajectory_id", "hit_time", "stop_reason"])
            writer.writerows(rows)
        print(f"wrote {tpath}")
    return 0


def cmd_capacity(cfg, args, outdir):
    from .capacity import (
        QuadratureConfig,
        boundary_capacity_integral,
        numerator_integral,
        partition_function,
        predicted_time_ratio,
    )
    from .rates import build_saddle_frame

    if cfg["potential"]["dimension"] > 2:
        raise ConfigError("capacity quadrature supports potential.dimension <= 2")
    model, report = _analyze(cfg)
    frame = build_saddle_frame(model, report, cfg["gamma"])
    qcfg = cfg["quadrature"]
    quad = QuadratureConfig(
        points_per_axis=qcfg["points_per_axis"],
        panels=qcfg["panels"],
        truncation_offset=qcfg["truncation_offset"],
    )
    out = []
    for eps in _epsilons(cfg):
        part = partition_function(model, eps, quadrature=quad, report=report)
        ce = boundary_capacity_integral(
            model, frame, eps, qcfg["K"], quad, z_eps=part.z_eps, report=report
        )
        nr = numerator_integral(model, report, eps, quad, qcfg["K"], z_eps=part.z_eps)
        pt = predicted_time_ratio(nr, ce, report, frame)
        out.append(
            {
                "epsilon": eps,
                "z_eps": part.z_eps,
                "z_laplace_ratio": part.ratio,
                "numerator": nr.value,
                "numerator_ratio": nr.ratio,
                "boundary_integral": ce.boundary_integral,
                "alpha_epsilon": ce.alpha_epsilon,
                "capacity_ratio": ce.ratio,
                "minus_side_ratio": ce.minus_ratio,
                "exact_v_ratio": ce.exact_v_ratio,
                "quadratic_gap": ce.quadratic_gap,
                "predicted_mean_time": pt.mean_time_estimate,
                "ek_cross_check_ratio": pt.ek_cross_check_ratio,
            }
        )
    payload = _metadata(cfg, args.argv)
    payload["capacity"] = out
    path = _write_json(outdir, "capacity.json", payload)
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg, args, outdir):
    from .checks import CHECKS, PARALLEL_CHECKS

    overrides = cfg.get("checks", {})
    results = []
    all_ok = True
    names = args.only.split(",") if args.only else list(CHECKS)
    for name in names:
        if name not in CHECKS:
            print(f"unknown check {name!r}", file=sys.stderr)
            return 2
        kwargs = dict(overrides.get(name, {}))
        if name in PARALLEL_CHECKS and args.jobs > 1:
            kwargs["jobs"] = args.jobs
        result = CHECKS[name](**kwargs)
        print(result.line())
        results.append(result)
        all_ok = all_ok and result.passed
    payload = _metadata(cfg, args.argv)
    payload["checks"] = [
        {"name": r.name, "passed": r.passed, "runtime": r.runtime, "details": r.details}
        for r in results
    ]
    payload["all_passed"] = all_ok
    path = _write_json(outdir, "verify.json", payload)
    print(f"wrote {path}")
    return 0 if all_ok else 1


COMMANDS = {
    "analyze": cmd_analyze,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "capacity": cmd_capacity,
    "verify": cmd_verify,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="metastable",
        description="Transition-time prediction and verification for the underdamped Langevin process",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="JSON config file")
    parser.add_argument("--epsilon", type=float, default=None, help="override the temperature")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for ensembles")
    parser.add_argument("--set", action="append", dest="overrides", metavar="K=V",
                        help="dotted-path config override, e.g. ensemble.n_traj=4000")
    parser.add_argument("--dump-trajectories", action="store_true")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--only", default=None, help="comma-separated check names (verify)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        cfg = load_config(args.config, args.overrides, args.epsilon, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out or cfg.get("output_dir") or "out")
    try:
        return COMMANDS[args.command](cfg, args, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failure: report and signal exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
