"""`astra` command line: thin JSON-emitting wrappers over the library calls.

Exit codes: 0 success, 1 domain error or unwritable output, 2 usage error;
either error writes one JSON line {"error", "message"} on stderr. A master
--seed threads the RNG wherever one is used. A global --log-level (before
the verb) writes the library's log records at that level and above to
stderr, one line each; at DEBUG, `sim` reports every global fix and expert
re-plan of an episode.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import esdf, localization, odometry, planner, rewards, sim
from .errors import (
    AstraError,
    InputFileError,
    UnknownConfigKeyError,
    is_finite_number,
    is_finite_triple,
    read_json,
    read_text,
)
from .esdf import format_grid, load_occupancy, make_mask, mask_esdf, save_grid, signed_esdf
from .geom import Pose2, PoseTrajectory
from .topomap import TopoMap


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _seed(text: str) -> int:
    """The argparse type of every --seed: a non-negative integer, as numpy's
    seeding requires; anything else is a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _finite(text: str) -> float:
    """The argparse type of --pose values: a finite number; nan or inf is a
    usage error (exit 2)."""
    value = float(text)
    if not is_finite_number(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are a JSON line on stderr, as
    domain errors are, with exit code 2."""

    def error(self, message):
        error = {"error": "UsageError", "message": f"{self.prog}: {message}"}
        sys.stderr.write(json.dumps(error) + "\n")
        raise SystemExit(2)


def _load_json(path, parse=lambda doc: doc):
    """Read a JSON input file and build from it with `parse`; a file that cannot
    be read or parsed, or whose content `parse` rejects, raises InputFileError."""
    doc = read_json(path, InputFileError)
    try:
        return parse(doc)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        raise InputFileError(f"{path}: unexpected content: {e!r}") from e


def _goal(doc):
    """A goal file holds {"instruction": "..."} (a non-empty string) or
    {"pose": [x, y, theta]} (three finite numbers)."""
    if "instruction" in doc:
        text = doc["instruction"]
        if not isinstance(text, str) or not text.strip():
            raise ValueError("goal instruction must be a non-empty string")
        return text
    return Pose2.from_jsonable(doc["pose"])


def _load_flat_config(path, cls, where: str):
    """Build the config dataclass `cls` from a flat JSON object, rejecting unknown keys."""
    data = _load_json(path) if path else {}
    if not isinstance(data, dict):
        raise InputFileError(f"{path}: {where} must be a JSON object")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise UnknownConfigKeyError(key, where)
    return cls(**data)


def _load_worlds(path) -> list:
    """Every world directory inside `path`, or `path` itself when it holds none."""
    dirs = []
    if os.path.isdir(path):
        dirs = [d for d in sorted(os.path.join(path, d) for d in os.listdir(path)) if os.path.isdir(d)]
    return [sim.load_world(d) for d in dirs or [path]]


# --- verb handlers -----------------------------------------------------------

def _cmd_map_validate(args) -> int:
    report = TopoMap.load(args.file).validate()
    _emit(report.to_jsonable())
    return 0 if report.ok else 1


def _cmd_map_path(args) -> int:
    topo = TopoMap.load(args.file)
    topo.validate().require(args.file)
    path = topo.shortest_path(args.from_id, args.to_id)
    cost = 0.0
    for a, b in zip(path[:-1], path[1:]):
        cost += topo.edges[tuple(sorted((a, b)))].length
    _emit({"path": path, "cost": cost, "connected": bool(path)})
    return 0


def _cmd_localize(args) -> int:
    topo = TopoMap.load(args.map)
    topo.validate().require(args.map)
    ctx, observations = localization.load_query(args.query)
    oracle = (
        localization.make_ground_truth_oracle()
        if args.oracle == "gt"
        else localization.heuristic_oracle
    )
    result = localization.localize(observations, ctx, topo, oracle, args.fine_mode)
    _emit(result.to_jsonable())
    return 0


def _cmd_goal(args) -> int:
    topo = TopoMap.load(args.map)
    topo.validate().require(args.map)
    current = Pose2(*args.pose)
    node_id, pose = localization.goal_localize(args.terms, topo, current, args.r_max)
    _emit({"node_id": node_id, "goal_pose": list(pose.as_tuple())})
    return 0


def _covis(doc):
    return float(doc["covis"]) if "covis" in doc else None


def _coarse_output(pred):
    extra = PoseTrajectory.from_jsonable(pred.get("extra_poses", []))
    output = rewards.CoarseOutput(
        bool(pred.get("format_valid", False)),
        {rewards.canonical_landmark(c, dict(a)) for c, a in pred.get("landmarks", [])},
        set(pred.get("ids", [])),
        [extra[i] for i in range(len(extra))],
    )
    return output, _covis(pred)


def _coarse_truth(gt):
    truth = rewards.CoarseGroundTruth(
        {rewards.canonical_landmark(c, dict(a)) for c, a in gt.get("landmarks", [])},
        set(gt.get("ids", [])),
        Pose2.from_jsonable(gt["pose"]) if gt.get("pose") is not None else None,
    )
    return truth, _covis(gt)


def _cmd_reward_eval(args) -> int:
    output, pred_covis = _load_json(args.pred, _coarse_output)
    truth, gt_covis = _load_json(args.gt, _coarse_truth)
    weights = rewards.RewardWeights()
    if args.weights:
        weights = _load_json(args.weights, rewards.RewardWeights.from_jsonable)
    result = rewards.coarse_reward(output, truth, weights)
    if pred_covis is not None and gt_covis is not None:
        r_covis = rewards.covis_reward(gt_covis, pred_covis)
        result["covis"] = r_covis
        result["covis_total"] = rewards.covis_total(
            result["format"], r_covis, weights.covis_lambda
        )
    _emit(result)
    return 0


def _cmd_esdf_compute(args) -> int:
    phi = signed_esdf(load_occupancy(args.occ_file))
    if args.mask:
        poses = _load_json(args.mask, PoseTrajectory.from_jsonable)
        mask = make_mask(poses, phi, args.dilation)
        phi = mask_esdf(phi, mask, args.alpha)
    if args.out:
        save_grid(phi, args.out)
    else:
        sys.stdout.write(format_grid(phi))
    return 0


def _cmd_plan_train(args) -> int:
    config = _load_flat_config(args.config, planner.TrainConfig, "train config")
    if args.seed is not None:
        config.seed = args.seed
    dataset = sim.load_dataset(args.data)
    model, log = planner.train(dataset, config)
    model.save(args.out)
    _emit({"model": args.out, "epochs": len(log), "log_tail": log[-3:]})
    return 0


def _cmd_plan_sample(args) -> int:
    model = planner.VectorFieldModel.load(args.model)
    cond = _load_json(args.cond, planner.PlanningCondition.from_jsonable)
    rng = np.random.default_rng(args.seed)
    (actions,), (poses,) = planner.sample(model, [cond], args.steps, [rng])
    _emit({"actions": actions.tolist(), "poses": PoseTrajectory(poses).to_jsonable(),
           "mean_step": float(np.hypot(actions[:, 0], actions[:, 1]).mean())})
    return 0


def _cmd_plan_eval(args) -> int:
    model = planner.VectorFieldModel.load(args.model)
    _emit(sim.evaluate_planner(model, _load_worlds(args.worlds), seed=args.seed))
    return 0


def _increment(rec) -> odometry.SensorIncrement:
    """A log record: "wheel" and "vision" hold three finite numbers [dx, dy,
    dtheta] and "imu_dtheta" one finite number, each absent or null when the
    sensor gave nothing. Other keys are ignored. A bad value raises ValueError."""
    values = []
    for key, ok, form in (("wheel", is_finite_triple, "three finite numbers"),
                          ("imu_dtheta", is_finite_number, "a finite number"),
                          ("vision", is_finite_triple, "three finite numbers")):
        value = rec.get(key)
        if value is not None and not ok(value):
            raise ValueError(f"{key} must be {form}, got {value!r}")
        values.append(tuple(value) if isinstance(value, list) else value)
    return odometry.SensorIncrement(*values)


def _cmd_odom_eval(args) -> int:
    increments = []
    lines = read_text(args.log, odometry.OdometryError).split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            increments.append(_increment(json.loads(line)))
        except (AttributeError, RecursionError, ValueError) as e:
            raise odometry.OdometryError(f"{args.log}:{line_no}: malformed record: {e!r}") from e
    gt = _load_json(args.gt, PoseTrajectory.from_jsonable)
    if len(gt) == 0:
        raise odometry.OdometryError(f"{args.gt}: ground truth holds no poses")
    est = odometry.dead_reckon(increments, gt[0])
    _emit(odometry.traj_metrics(est, gt))
    return 0


def _cmd_sim_gen(args) -> int:
    world = sim.generate_world(args.seed, args.size, args.density, args.landmarks)
    sim.save_world(world, args.out)
    _emit(
        {
            "out": args.out,
            "seed": args.seed,
            "nodes": len(world.map.nodes),
            "edges": len(world.map.edges),
            "landmarks": len(world.map.landmarks),
        }
    )
    return 0


def _cmd_sim_dataset(args) -> int:
    if args.samples < 1:
        raise sim.SimError(f"--samples must be at least 1, got {args.samples}")
    dataset = sim.build_planning_dataset(_load_worlds(args.worlds), args.samples, seed=args.seed)
    sim.save_dataset(dataset, args.out)
    _emit({"out": args.out, "samples": len(dataset)})
    return 0


def _cmd_sim_run(args) -> int:
    world = sim.load_world(args.world)
    goal = _load_json(args.goal, _goal)
    config = _load_flat_config(args.config, sim.NavConfig, "nav config")
    model = planner.VectorFieldModel.load(args.model) if args.model else None
    report = sim.run_episode(world, goal, config, model, seed=args.seed)
    _emit(report.to_jsonable())
    return 0


def _cmd_sim_eval(args) -> int:
    worlds = _load_worlds(args.worlds)
    config = _load_flat_config(args.config, sim.NavConfig, "nav config")
    model = planner.VectorFieldModel.load(args.model) if args.model else None
    _emit(sim.eval_suite(worlds, args.episodes, config, model, master_seed=args.seed))
    return 0


# --- parser ------------------------------------------------------------------

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="astra", description=__doc__)
    parser.add_argument("--log-level", type=str.upper, choices=_LOG_LEVELS,
                        help="write library log records at this level and above to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map validation and global paths")
    map_sub = p_map.add_subparsers(dest="map_command", required=True)
    p = map_sub.add_parser("validate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_map_validate)
    p = map_sub.add_parser("path")
    p.add_argument("file")
    p.add_argument("--from", dest="from_id", required=True)
    p.add_argument("--to", dest="to_id", required=True)
    p.set_defaults(func=_cmd_map_path)

    p = sub.add_parser("localize", help="coarse-to-fine self-localization")
    p.add_argument("--map", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--oracle", choices=["gt", "heuristic"], default="heuristic")
    p.add_argument("--fine-mode", choices=["weighted", "nearest"], default="weighted")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("goal", help="language-based goal localization")
    p.add_argument("--map", required=True)
    p.add_argument("--terms", nargs="+", required=True,
                   help="instruction words; a goal landmark's category and description hold them all")
    p.add_argument("--pose", nargs=3, type=_finite, default=[0.0, 0.0, 0.0])
    p.add_argument("--r-max", type=float, default=100.0,
                   help="search radius in m around --pose; positive and finite")
    p.set_defaults(func=_cmd_goal)

    p_reward = sub.add_parser("reward", help="rule-based reward evaluation")
    reward_sub = p_reward.add_subparsers(dest="reward_command", required=True)
    p = reward_sub.add_parser("eval")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--weights")
    p.set_defaults(func=_cmd_reward_eval)

    p_esdf = sub.add_parser("esdf", help="signed distance fields")
    esdf_sub = p_esdf.add_subparsers(dest="esdf_command", required=True)
    p = esdf_sub.add_parser("compute")
    p.add_argument("occ_file")
    p.add_argument("--mask", help="JSON pose trajectory to mask around")
    p.add_argument("--alpha", type=float, default=esdf.MASK_ALPHA)
    p.add_argument("--dilation", type=float, default=esdf.MASK_DILATION)
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_esdf_compute)

    p_plan = sub.add_parser("plan", help="flow-matching local planner")
    plan_sub = p_plan.add_subparsers(dest="plan_command", required=True)
    p = plan_sub.add_parser("train")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", default="model.json")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_plan_train)
    p = plan_sub.add_parser("sample")
    p.add_argument("--model", required=True)
    p.add_argument("--cond", required=True)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_plan_sample)
    p = plan_sub.add_parser("eval")
    p.add_argument("--model", required=True)
    p.add_argument("--worlds", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_plan_eval)

    p_odom = sub.add_parser("odom", help="odometry evaluation")
    odom_sub = p_odom.add_subparsers(dest="odom_command", required=True)
    p = odom_sub.add_parser("eval")
    p.add_argument("--log", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=_cmd_odom_eval)

    p_sim = sub.add_parser("sim", help="grid-world simulator")
    sim_sub = p_sim.add_subparsers(dest="sim_command", required=True)
    p = sim_sub.add_parser("gen")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--size", type=int, default=48)
    p.add_argument("--density", type=float, default=0.15)
    p.add_argument("--landmarks", type=int, default=10,
                   help="landmarks to place; at most one per wall-side free cell")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sim_gen)
    p = sim_sub.add_parser("dataset", help="expert windows of saved worlds, for `plan train --data`")
    p.add_argument("--worlds", required=True)
    p.add_argument("--samples", type=int, required=True, help="windows per world")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sim_dataset)
    p = sim_sub.add_parser("run")
    p.add_argument("--world", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--model")
    p.add_argument("--config")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_sim_run)
    p = sim_sub.add_parser("eval")
    p.add_argument("--worlds", required=True)
    p.add_argument("--episodes", type=int, default=50)
    p.add_argument("--model")
    p.add_argument("--config")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_sim_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logger = logging.getLogger("astra_nav")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    if args.log_level:
        logger.addHandler(handler)
        logger.setLevel(args.log_level)
    try:
        return args.func(args)
    except (AstraError, OSError) as e:
        sys.stderr.write(
            json.dumps({"error": type(e).__name__, "message": str(e)}) + "\n"
        )
        return 1
    finally:
        # a caller that runs several commands in one process starts each afresh
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
