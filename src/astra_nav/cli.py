"""`astra` command line: thin JSON-emitting wrappers over the library calls.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage error. A master --seed threads the RNG wherever one is used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import localization, odometry, planner, rewards, sim
from .errors import AstraError, UnknownConfigKeyError
from .esdf import format_grid, load_occupancy, make_mask, mask_esdf, save_grid, signed_esdf
from .geom import Pose2, PoseTrajectory
from .topomap import TopoMap


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_flat_config(path, cls, where: str):
    """Build the config dataclass `cls` from a flat JSON object, rejecting unknown keys."""
    data = _load_json(path) if path else {}
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
    path = topo.shortest_path(args.from_id, args.to_id)
    cost = 0.0
    for a, b in zip(path[:-1], path[1:]):
        cost += topo.edges[tuple(sorted((a, b)))].length
    _emit({"path": path, "cost": cost, "connected": bool(path)})
    return 0


def _cmd_localize(args) -> int:
    topo = TopoMap.load(args.map)
    ctx, observations = localization.load_query(args.query)
    oracle = (
        localization.make_ground_truth_oracle()
        if args.oracle == "gt"
        else localization.heuristic_oracle
    )
    config = localization.LocalizationConfig()
    if args.fine_mode:
        config.fine_mode = args.fine_mode
    result = localization.localize(observations, ctx, topo, config, oracle)
    _emit(result.to_jsonable())
    return 0


def _cmd_goal(args) -> int:
    topo = TopoMap.load(args.map)
    current = Pose2(*args.pose)
    node_id, pose = localization.goal_localize(
        args.terms, topo, current, args.r0, args.r_step, args.r_max
    )
    _emit({"node_id": node_id, "goal_pose": list(pose.as_tuple())})
    return 0


def _cmd_reward_eval(args) -> int:
    pred = _load_json(args.pred)
    gt = _load_json(args.gt)
    weights = rewards.RewardWeights.from_jsonable(_load_json(args.weights) if args.weights else {})
    output = rewards.CoarseOutput(
        bool(pred.get("format_valid", False)),
        {rewards.canonical_landmark(c, dict(a)) for c, a in pred.get("landmarks", [])},
        set(pred.get("ids", [])),
        [Pose2(*p) for p in pred.get("extra_poses", [])],
    )
    truth = rewards.CoarseGroundTruth(
        {rewards.canonical_landmark(c, dict(a)) for c, a in gt.get("landmarks", [])},
        set(gt.get("ids", [])),
        Pose2(*gt["pose"]) if gt.get("pose") is not None else None,
    )
    result = rewards.coarse_reward(output, truth, weights)
    if "covis" in pred and "covis" in gt:
        r_covis = rewards.covis_reward(float(gt["covis"]), float(pred["covis"]))
        result["covis"] = r_covis
        result["covis_total"] = rewards.covis_total(
            result["format"], r_covis, weights.covis_lambda
        )
    _emit(result)
    return 0


def _cmd_esdf_compute(args) -> int:
    phi = signed_esdf(load_occupancy(args.occ_file))
    if args.mask:
        poses = PoseTrajectory.from_jsonable(_load_json(args.mask))
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
    dataset = sim.load_dataset(args.data, config.mask_alpha, config.mask_dilation)
    model, log = planner.train(dataset, config)
    model.save(args.out)
    _emit({"model": args.out, "epochs": len(log), "log_tail": log[-3:]})
    return 0


def _cmd_plan_sample(args) -> int:
    model = planner.VectorFieldModel.load(args.model)
    cond = planner.PlanningCondition.from_jsonable(_load_json(args.cond))
    rng = np.random.default_rng(args.seed)
    plan = planner.sample(model, cond, args.steps, rng)
    _emit(plan.to_jsonable())
    return 0


def _cmd_plan_eval(args) -> int:
    model = planner.VectorFieldModel.load(args.model)
    _emit(sim.evaluate_planner(model, _load_worlds(args.worlds), seed=args.seed))
    return 0


def _cmd_odom_eval(args) -> int:
    increments = []
    with open(args.log) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            increments.append(
                odometry.SensorIncrement(
                    rec.get("dt", 0.1),
                    tuple(rec["wheel"]) if rec.get("wheel") is not None else None,
                    rec.get("imu_dtheta"),
                    tuple(rec["vision"]) if rec.get("vision") is not None else None,
                )
            )
    gt = PoseTrajectory.from_jsonable(_load_json(args.gt))
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


def _cmd_sim_run(args) -> int:
    world = sim.load_world(args.world)
    goal_doc = _load_json(args.goal)
    goal = goal_doc["instruction"] if "instruction" in goal_doc else Pose2(*goal_doc["pose"])
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="astra", description=__doc__)
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
    p.add_argument("--fine-mode", choices=["weighted", "nearest"], default=None)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("goal", help="language-based goal localization")
    p.add_argument("--map", required=True)
    p.add_argument("--terms", nargs="+", required=True)
    p.add_argument("--pose", nargs=3, type=float, default=[0.0, 0.0, 0.0])
    p.add_argument("--r0", type=float, default=10.0)
    p.add_argument("--r-step", type=float, default=10.0)
    p.add_argument("--r-max", type=float, default=100.0)
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
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--dilation", type=float, default=0.3)
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_esdf_compute)

    p_plan = sub.add_parser("plan", help="flow-matching local planner")
    plan_sub = p_plan.add_subparsers(dest="plan_command", required=True)
    p = plan_sub.add_parser("train")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", default="model.json")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_plan_train)
    p = plan_sub.add_parser("sample")
    p.add_argument("--model", required=True)
    p.add_argument("--cond", required=True)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_plan_sample)
    p = plan_sub.add_parser("eval")
    p.add_argument("--model", required=True)
    p.add_argument("--worlds", required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=48)
    p.add_argument("--density", type=float, default=0.15)
    p.add_argument("--landmarks", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sim_gen)
    p = sim_sub.add_parser("run")
    p.add_argument("--world", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--model")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sim_run)
    p = sim_sub.add_parser("eval")
    p.add_argument("--worlds", required=True)
    p.add_argument("--episodes", type=int, default=50)
    p.add_argument("--model")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sim_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AstraError as e:
        sys.stderr.write(
            json.dumps({"error": type(e).__name__, "message": str(e)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
