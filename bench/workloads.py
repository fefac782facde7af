"""Workloads, output checks and metrics of the astra_nav benchmark.

Every workload is a closed loop with one caller: the benchmark calls the
library from one process and each call starts when the previous one returns.
A workload has a set-up (inputs built and first-call costs paid) and a
round, a fixed unit of work that the run repeats until its time is up.
Every round of a run computes the same outputs, so rounds are checked
against each other, and the traced round against the untraced ones.

- ``nav-oracle``: ``sim.eval_suite`` with the expert planner on worlds 0-2
  at size 48. The learned planner is never called.
- ``nav-model``: the same episodes with the learned planner and fallback on,
  one ``planner.sample`` call per control cycle, using a small model trained
  in set-up on a fixed seed.
- ``learn``: expert dataset, training at lambda 0 and 0.1, and batched
  open-loop rollouts of both models: the backward pass and the masked-ESDF
  paths no nav workload touches, and the paper's claim that the clearance
  term lowers collisions.
- ``mapgen``: world generation at size 96 and the signed ESDF of 256x256
  random grids, which the other workloads pay only in set-up.

The nav and learn inputs are pinned (world seeds 0-2, episode master seed
0, training seed 0) so their task metrics are exact guards that repeat on
every run. The mapgen world seeds are pinned too, because a world's cost
depends on how many draws its seed needs before the map is connected; the
workload seed draws the random grids and the cells checked on them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from astra_nav import esdf, planner, sim, topomap
from astra_nav.geom import PoseTrajectory
from tracing import Tracer, has_ancestor, latency_summary


NAV_WORLD_SEEDS = (0, 1, 2)
NAV_WORLD_SIZE = 48
LAMBDAS = (0.0, 0.1)
EVAL_SEED = 1  # evaluate_planner conditions differ from the training windows (seed 0)
EDT_DENSITY = 0.2
FOOTPRINT = 0.3
REASONS = ("reached", "timeout", "stuck", "localization-fail")


@dataclass(frozen=True)
class Sizes:
    nav_episodes: int = 60
    model_samples_per_world: int = 32
    model_epochs: int = 40
    model_hidden: tuple[int, ...] = (64, 64)
    learn_samples_per_world: int = 128
    learn_epochs: int = 100
    learn_conditions_per_world: int = 10
    learn_rollouts_per_condition: int = 30
    map_world_size: int = 96
    map_worlds: int = 6
    edt_size: int = 256
    edt_grids: int = 6
    edt_check_cells: int = 64
    setup_repeats: int = 5


FULL = Sizes()
# Every workload at a tiny size, for the benchmark's own tests.
SMOKE = Sizes(
    nav_episodes=3,
    model_samples_per_world=4,
    model_epochs=2,
    model_hidden=(16,),
    learn_samples_per_world=6,
    learn_epochs=2,
    learn_conditions_per_world=2,
    learn_rollouts_per_condition=2,
    map_world_size=48,
    map_worlds=2,
    edt_size=32,
    edt_grids=2,
    edt_check_cells=16,
    setup_repeats=2,
)


@dataclass
class Round:
    """One round's checkable output, operation counts and timed intervals.

    Workloads record ``perf_counter`` intervals; the runner converts them to
    reference seconds (see clock.py) into ``seconds`` and ``timings``.
    """

    output: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    task: dict = field(default_factory=dict)
    wall: tuple[float, float] = (0.0, 0.0)
    intervals: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    seconds: float = 0.0
    timings: dict[str, list[float]] = field(default_factory=dict)

    def time(self, stage: str, start: float) -> None:
        """Record the interval from ``start`` to now under ``stage``."""
        self.intervals.setdefault(stage, []).append((start, time.perf_counter()))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _call(round_: Round, what: str, fn, *args, **kwargs):
    """Run one library call at an operation boundary; a raise is recorded as
    a problem with its traceback and returns None."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - the run goes on and reports the failure
        round_.problems.append(f"{what} raised:\n{traceback.format_exc()}")
        return None


def _nav_worlds(sizes: Sizes) -> list:
    worlds = [sim.generate_world(s, NAV_WORLD_SIZE) for s in NAV_WORLD_SEEDS]
    for world in worlds:
        world.dist_field()
        world.phi()
    return worlds


def _model_digest(model) -> str:
    return _digest(model.get_params()) if model is not None else ""


# --- nav-oracle and nav-model --------------------------------------------------

class Nav:
    """``sim.eval_suite`` over the pinned worlds; one round is the full suite."""

    def __init__(self, planner_kind: str):
        self.planner_kind = planner_kind

    def nav_config(self) -> sim.NavConfig:
        return sim.NavConfig(planner=self.planner_kind, fallback=True)

    def train_config(self, sizes: Sizes) -> planner.TrainConfig:
        return planner.TrainConfig(
            epochs=sizes.model_epochs, esdf_lambda=0.1, hidden=sizes.model_hidden, seed=0
        )

    def setup(self, sizes: Sizes, seed: int) -> dict:
        worlds = _nav_worlds(sizes)
        model = None
        if self.planner_kind == "model":
            data = sim.build_planning_dataset(worlds, sizes.model_samples_per_world, seed=0)
            model, _ = planner.train(data, self.train_config(sizes))
        return {"worlds": worlds, "model": model, "sizes": sizes}

    def setup_digest(self, state: dict) -> str:
        return _digest([w.map.to_jsonable() for w in state["worlds"]], _model_digest(state["model"]))

    def run_round(self, state: dict) -> Round:
        n = state["sizes"].nav_episodes
        r = Round(attempted=n)
        t0 = time.perf_counter()
        suite = _call(r, "eval_suite", sim.eval_suite,
                      state["worlds"], n, self.nav_config(), state["model"], 0)
        r.time("episodes", t0)
        r.wall = r.intervals["episodes"][0]
        if suite is None:
            r.failed = n
            return r
        reports = suite["reports"]
        bad = [
            i for i, rep in enumerate(reports)
            if rep["reason"] not in REASONS or rep["success"] != (rep["reason"] == "reached")
        ]
        r.failed = len(bad) + max(0, n - len(reports))
        if r.failed:
            r.problems.append(f"{r.failed} of {n} episode reports missing or malformed: {bad[:5]}")
        calls = sum(rep["planner_calls"] for rep in reports)
        r.task = {
            "success_rate": suite["success_rate"],
            "collision_rate": suite["collision_rate"],
            "fallback_per_call": sum(rep["fallback_count"] for rep in reports) / calls if calls else 0.0,
            "reasons": dict(Counter(rep["reason"] for rep in reports)),
            "reports": reports,
        }
        r.output = _digest(suite)
        return r

    def success_rate(self, rounds: list[Round]) -> float:
        """Share of episodes that reach their goal."""
        return rounds[0].task["success_rate"]

    def stages(self, state: dict, rounds: list[Round]) -> dict:
        first = rounds[0].task
        out = {
            "stage.episodes_per_s": rounds[0].attempted / statistics.median(x.seconds for x in rounds),
            "task.success_rate": first["success_rate"],
            "task.collision_rate": first["collision_rate"],
        }
        if self.planner_kind == "model":
            out["task.fallback_per_call"] = first["fallback_per_call"]
        return out

    def detail(self, state: dict, rounds: list[Round]) -> dict:
        task = rounds[0].task
        out = {
            "worlds": {"seeds": list(NAV_WORLD_SEEDS), "size": NAV_WORLD_SIZE},
            "episodes": state["sizes"].nav_episodes,
            "master_seed": 0,
            "nav_config": asdict(self.nav_config()),
            "reasons": task.get("reasons"),
            "reports": task.get("reports"),
        }
        if self.planner_kind == "model":
            out["model_training"] = asdict(self.train_config(state["sizes"]))
            out["model_training"]["samples_per_world"] = state["sizes"].model_samples_per_world
        return out


# --- learn -------------------------------------------------------------------------

class Learn:
    """Dataset build, training per lambda and batched rollouts of each model;
    one round is all of them, in that order."""

    def train_config(self, sizes: Sizes, lam: float) -> planner.TrainConfig:
        return planner.TrainConfig(epochs=sizes.learn_epochs, esdf_lambda=lam, seed=0)

    def setup(self, sizes: Sizes, seed: int) -> dict:
        return {"worlds": _nav_worlds(sizes), "sizes": sizes}

    def setup_digest(self, state: dict) -> str:
        return _digest([w.map.to_jsonable() for w in state["worlds"]])

    def run_round(self, state: dict) -> Round:
        sizes, worlds = state["sizes"], state["worlds"]
        n_samples = sizes.learn_samples_per_world * len(worlds)
        n_rollouts = sizes.learn_conditions_per_world * len(worlds) * sizes.learn_rollouts_per_condition
        r = Round(attempted=n_samples + n_rollouts * len(LAMBDAS))
        r.task = {"samples": 0, "rollouts": 0, "collision_rate": {}, "train_log_tail": {}}
        start = time.perf_counter()

        t0 = time.perf_counter()
        data = _call(r, "build_planning_dataset", sim.build_planning_dataset,
                     worlds, sizes.learn_samples_per_world, seed=0) or []
        r.time("dataset", t0)
        r.task["samples"] = len(data)
        r.failed += n_samples - len(data)
        if len(data) < n_samples:
            r.problems.append(f"dataset holds {len(data)} of {n_samples} samples")
        unsafe = [
            i for i, s in enumerate(data)
            if planner.collision_check(
                PoseTrajectory.from_jsonable(s.gt_poses), None, FOOTPRINT,
                worlds[s.world_index].dist_field(),
            )
        ]
        if unsafe:
            r.failed += len(unsafe)
            r.problems.append(f"{len(unsafe)} expert windows trip collision_check: {unsafe[:5]}")
        parts = [
            [s.actions.tolist() for s in data],
            [s.condition.vector().tolist() for s in data],
            [s.start.as_tuple() for s in data],
            *[s.phi.values for s in data],
        ]

        for lam in LAMBDAS:
            key = f"lambda{lam:g}"
            t0 = time.perf_counter()
            trained = _call(r, f"train {key}", planner.train, data, self.train_config(sizes, lam))
            r.time(f"train.{key}", t0)
            if trained is None:
                r.failed += n_rollouts
                continue
            model, log = trained
            r.task["train_log_tail"][key] = log[-3:]
            if any(e.get("diverged") for e in log):
                r.problems.append(f"training at {key} diverged")
            t0 = time.perf_counter()
            ev = _call(r, f"evaluate_planner {key}", sim.evaluate_planner, model, worlds,
                       sizes.learn_conditions_per_world, sizes.learn_rollouts_per_condition,
                       seed=EVAL_SEED)
            r.time("rollouts", t0)
            done = ev["rollouts"] if ev else 0
            r.task["rollouts"] += done
            r.failed += n_rollouts - done
            if done < n_rollouts:
                r.problems.append(f"evaluate_planner at {key} ran {done} of {n_rollouts} rollouts")
            if ev:
                r.task["collision_rate"][key] = ev["collision_rate"]
            parts += [log, _model_digest(model), ev]
        r.wall = (start, time.perf_counter())
        r.output = _digest(*parts)
        return r

    def success_rate(self, rounds: list[Round]) -> float:
        """Share of the lambda 0.1 model's rollouts free of collision: the
        model the paper's clearance term is for."""
        return 1.0 - rounds[0].task["collision_rate"]["lambda0.1"]

    def stages(self, state: dict, rounds: list[Round]) -> dict:
        med = statistics.median
        first = rounds[0].task
        return {
            "stage.dataset_samples_per_s": first["samples"] / med(x.timings["dataset"][0] for x in rounds),
            "stage.train_epoch_s": med(x.timings["train.lambda0.1"][0] for x in rounds)
            / state["sizes"].learn_epochs,
            "stage.rollouts_per_s": first["rollouts"] / med(sum(x.timings["rollouts"]) for x in rounds),
            "task.plan_collision_rate.lambda0": first["collision_rate"]["lambda0"],
            "task.plan_collision_rate.lambda0.1": first["collision_rate"]["lambda0.1"],
        }

    def detail(self, state: dict, rounds: list[Round]) -> dict:
        sizes = state["sizes"]
        return {
            "dataset": {"world_seeds": list(NAV_WORLD_SEEDS), "world_size": NAV_WORLD_SIZE,
                        "samples_per_world": sizes.learn_samples_per_world, "seed": 0},
            "training": {f"lambda{lam:g}": asdict(self.train_config(sizes, lam))
                         for lam in LAMBDAS},
            "evaluation": {"conditions_per_world": sizes.learn_conditions_per_world,
                           "rollouts_per_condition": sizes.learn_rollouts_per_condition,
                           "seed": EVAL_SEED},
            "plan_collision_rate": rounds[0].task["collision_rate"],
            "train_log_tail": rounds[0].task["train_log_tail"],
        }


# --- mapgen ------------------------------------------------------------------------

def _graph_connected(topo) -> bool:
    if not topo.nodes:
        return False
    adj = {nid: [] for nid in topo.nodes}
    for a, b in topo.edges:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(adj)


def _brute_force_signed(occ: np.ndarray, resolution: float, cells: np.ndarray) -> np.ndarray:
    """Signed distance at each (row, col) by scanning every cell of the other class."""
    out = np.empty(len(cells))
    occupied, free = np.argwhere(occ), np.argwhere(~occ)
    diag = float(np.hypot(*occ.shape))
    for k, (r, c) in enumerate(cells):
        others = free if occ[r, c] else occupied
        d = float(np.sqrt(((others - (r, c)) ** 2).sum(axis=1).min())) if len(others) else diag
        out[k] = (-d if occ[r, c] else d) * resolution
    return out


class Mapgen:
    """World generation over pinned seeds and the signed ESDF of random grids
    drawn from the workload seed; one round generates every world and
    transforms every grid."""

    def setup(self, sizes: Sizes, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        n = sizes.edt_size
        grids = [esdf.BinaryMap2D(rng.random((n, n)) < EDT_DENSITY, 0.25)
                 for _ in range(sizes.edt_grids)]
        check_cells = [rng.integers(0, n, size=(sizes.edt_check_cells, 2)) for _ in grids]
        # first-call costs, paid on a small world and grid
        sim.generate_world(0, 48)
        esdf.signed_esdf(esdf.BinaryMap2D(grids[0].values[:64, :64], 0.25))
        return {"world_seeds": list(range(sizes.map_worlds)), "grids": grids,
                "check_cells": check_cells, "sizes": sizes}

    def setup_digest(self, state: dict) -> str:
        return _digest(state["world_seeds"], *[g.values for g in state["grids"]])

    def run_round(self, state: dict) -> Round:
        sizes = state["sizes"]
        r = Round(attempted=len(state["world_seeds"]) + len(state["grids"]))
        parts = []
        start = time.perf_counter()
        for seed in state["world_seeds"]:
            t0 = time.perf_counter()
            world = _call(r, f"generate_world({seed})", sim.generate_world, seed, sizes.map_world_size)
            r.time("world", t0)
            if world is None:
                r.failed += 1
                continue
            report = world.map.validate()
            if not report.ok or not _graph_connected(world.map):
                r.failed += 1
                r.problems.append(f"world {seed}: map invalid {report.violations[:3]} "
                                  f"or node graph disconnected")
            parts += [world.map.to_jsonable(), world.grid.values, world.start_xy]
        for grid, cells in zip(state["grids"], state["check_cells"]):
            t0 = time.perf_counter()
            phi = _call(r, "signed_esdf", esdf.signed_esdf, grid)
            r.time("esdf", t0)
            if phi is None:
                r.failed += 1
                continue
            want = _brute_force_signed(grid.values, grid.resolution, cells)
            got = phi.values[cells[:, 0], cells[:, 1]]
            if not np.allclose(got, want, rtol=0.0, atol=1e-9):
                r.failed += 1
                r.problems.append(f"signed_esdf differs from brute force by {np.abs(got - want).max()}")
            parts.append(phi.values)
        r.wall = (start, time.perf_counter())
        r.output = _digest(*parts)
        return r

    def success_rate(self, rounds: list[Round]) -> float:
        """Share of worlds and fields that pass their checks."""
        return 1.0 - rounds[0].failed / rounds[0].attempted

    def stages(self, state: dict, rounds: list[Round]) -> dict:
        def rate(stage: str, work: float) -> float:
            return work / statistics.median(sum(x.timings[stage]) for x in rounds)

        sizes = state["sizes"]
        return {
            "stage.worlds_per_s": rate("world", len(state["world_seeds"])),
            "stage.esdf_mcells_per_s": rate("esdf", len(state["grids"]) * sizes.edt_size ** 2 / 1e6),
        }

    def detail(self, state: dict, rounds: list[Round]) -> dict:
        sizes = state["sizes"]
        return {
            "world_seeds": state["world_seeds"],
            "world_size": sizes.map_world_size,
            "edt": {"size": sizes.edt_size, "grids": sizes.edt_grids, "density": EDT_DENSITY,
                    "checked_cells_per_grid": sizes.edt_check_cells},
        }


WORKLOADS = {
    "nav-oracle": Nav("oracle"),
    "nav-model": Nav("model"),
    "learn": Learn(),
    "mapgen": Mapgen(),
}

# Every workload reports every end-to-end metric, so their names are generic;
# setup_s and peak_rss_mb are measured by the runner.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "task_success_rate": "ratio", "peak_rss_mb": "MB"}
# Stage rates and task outcomes of the workloads that have them; reported by
# traced runs, from their untraced rounds, as 0 where a workload has none.
STAGES = {
    "stage.episodes_per_s": "1/s",
    "stage.dataset_samples_per_s": "1/s",
    "stage.train_epoch_s": "s",
    "stage.rollouts_per_s": "1/s",
    "stage.worlds_per_s": "1/s",
    "stage.esdf_mcells_per_s": "Mcells/s",
    "task.success_rate": "ratio",
    "task.collision_rate": "ratio",
    "task.fallback_per_call": "ratio",
    "task.plan_collision_rate.lambda0": "ratio",
    "task.plan_collision_rate.lambda0.1": "ratio",
}


def end_to_end(workload, rounds: list[Round]) -> dict:
    """Operations per second of library time (the output checks between calls
    are left out), median over rounds, and the workload's task success."""
    busy = statistics.median(sum(sum(v) for v in r.timings.values()) for r in rounds)
    return {
        "ops_per_s": rounds[0].attempted / busy,
        "task_success_rate": workload.success_rate(rounds),
    }


# --- tracing -------------------------------------------------------------------------

# Span name -> the (owner, attribute) pairs where callers on a workload path look it up.
TRACED = {
    "sim.run_episode": [(sim, "run_episode")],
    "sim.oracle_plan": [(sim, "oracle_plan")],
    "sim.generate_world": [(sim, "generate_world")],
    "sim.build_planning_dataset": [(sim, "build_planning_dataset")],
    "esdf.sample_bilinear": [(sim, "sample_bilinear"), (planner, "sample_bilinear")],
    "esdf.edt": [(esdf, "edt"), (planner, "edt")],
    "esdf.make_mask": [(sim, "make_mask")],
    "planner.sample": [(sim, "plan_sample")],
    "planner.collision_check": [(sim, "collision_check")],
    "planner.occupancy_features": [(sim, "occupancy_features")],
    "planner.planning_loss": [(planner, "planning_loss")],
    "planner.VectorFieldModel.forward": [(planner.VectorFieldModel, "forward")],
    "localization.localize": [(sim, "localize")],
    "topomap.TopoMap.shortest_path": [(topomap.TopoMap, "shortest_path")],
    "odometry.fuse_increment": [(sim, "fuse_increment")],
}
FLAGS = {
    "planner.collision_check": bool,
    "localization.localize": lambda result: result.confidence > 0,
}
LATENCIES = ("sim.run_episode", "planner.sample")


def patch_layers(tracer: Tracer) -> Tracer:
    for name, sites in TRACED.items():
        for owner, attr in sites:
            tracer.patch(owner, attr, name, FLAGS.get(name))
    return tracer


def layer_metrics(spans: list, round_start: int, clock) -> dict:
    """Per-layer (value, unit) of the traced round, the spans from
    ``round_start`` on, plus each layer's busy time in the traced set-up.
    Times are in reference seconds (clock.py)."""
    busy = [clock.reference_seconds(s.start, s.end) for s in spans]
    own = [s.self_s * clock.factor(s.start, s.end) for s in spans]
    by_name: dict[str, list[int]] = {name: [] for name in TRACED}
    in_setup: dict[str, float] = {name: 0.0 for name in TRACED}
    for i, span in enumerate(spans):
        if i >= round_start:
            by_name[span.name].append(i)
        else:
            in_setup[span.name] += busy[i]
    out = {}
    for name, idx in by_name.items():
        out[f"{name}.calls"] = (len(idx), "count")
        out[f"{name}.busy_s"] = (sum(busy[i] for i in idx), "s")
        out[f"{name}.self_s"] = (sum(own[i] for i in idx), "s")
        out[f"setup.{name}.busy_s"] = (in_setup[name], "s")
    latency_units = {"p50": "ms", "tail": "ms", "tail_pct": "%", "samples": "count"}
    for name in LATENCIES:
        for key, value in latency_summary([busy[i] for i in by_name[name]]).items():
            out[f"{name}.latency_ms.{key}"] = (value, latency_units[key])
    plans = len(by_name["sim.oracle_plan"])
    inside = sum(1 for i in by_name["esdf.sample_bilinear"] if has_ancestor(spans, spans[i], "sim.oracle_plan"))
    out["esdf.sample_bilinear.calls_per_oracle_plan"] = (inside / plans if plans else 0.0, "ratio")
    for name, key in (("planner.collision_check", "reject_ratio"), ("localization.localize", "fix_ratio")):
        flags = [spans[i].flag for i in by_name[name]]
        out[f"{name}.{key}"] = (sum(flags) / len(flags) if flags else 0.0, "ratio")
    return out
