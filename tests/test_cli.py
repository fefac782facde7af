import contextlib
import inspect
import json
import logging
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from astra_nav import cli, localization, planner, sim
from astra_nav.topomap import TopoMap


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A world made by `sim gen` plus one input file for every verb."""
    root = tmp_path_factory.mktemp("cli")
    world_dir = root / "worlds" / "w0"
    assert cli.main(["sim", "gen", "--seed", "0", "--size", "24", "--out", str(world_dir)]) == 0
    world = sim.load_world(world_dir)
    node_ids = sorted(world.map.nodes)
    lm = world.map.landmarks[sorted(world.map.landmarks)[0]]
    (sx, sy), (gx, gy) = world.start_xy[0], world.start_xy[-1]
    docs = {
        "query.json": {
            "query_ctx": {"pose": [sx, sy, 0.0]},
            "observations": [{"category": lm.category, "visual_attributes": lm.visual_attributes}],
        },
        "pred.json": {"format_valid": True, "landmarks": [["sofa", {"color": "gray"}]], "ids": ["n-000"]},
        "gt.json": {"landmarks": [["sofa", {"color": "gray"}]], "ids": ["n-000"], "pose": [0, 0, 0]},
        "goal.json": {"pose": [gx, gy, 0.0]},
        "nav.json": {"planner": "oracle"},
        "train.json": {"epochs": 1, "batch_size": 4, "hidden": [8]},
        "traj.json": [[sx, sy, 0.0], [gx, gy, 0.0]],
        "odom_gt.json": [[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]],
    }
    paths = {"root": root, "worlds": root / "worlds", "world": world_dir, "map": world_dir / "map.json"}
    for name, doc in docs.items():
        paths[name] = root / name
        paths[name].write_text(json.dumps(doc))
    paths["odom.jsonl"] = root / "odom.jsonl"
    paths["odom.jsonl"].write_text(
        "\n".join(json.dumps({"dt": 0.1, "wheel": [0.1, 0, 0], "imu_dtheta": 0.0}) for _ in range(2))
    )
    data = sim.build_planning_dataset([world], 4, n_actions=8, seed=0)
    paths["data.jsonl"] = root / "data.jsonl"
    sim.save_dataset(data, paths["data.jsonl"])
    paths["cond.json"] = root / "cond.json"
    paths["cond.json"].write_text(json.dumps(data[0].condition.to_jsonable()))
    paths["model.json"] = root / "fixture-model.json"
    cond_dim = data[0].condition.vector().size
    planner.VectorFieldModel.create(8, cond_dim, hidden=(8,)).save(paths["model.json"])
    paths["node_ids"] = node_ids
    paths["category"] = lm.category
    return paths


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def assert_json_error(code, out, err):
    assert code == 1
    assert "Traceback" not in out + err
    doc = json.loads(err.strip().splitlines()[-1])
    assert set(doc) == {"error", "message"}


def test_every_verb(files, capsys):
    f = files
    model = f["root"] / "model.json"
    commands = [
        ("map", "validate", f["map"]),
        ("map", "path", f["map"], "--from", f["node_ids"][0], "--to", f["node_ids"][-1]),
        ("localize", "--map", f["map"], "--query", f["query.json"], "--oracle", "gt"),
        ("goal", "--map", f["map"], "--terms", f["category"]),
        ("reward", "eval", "--pred", f["pred.json"], "--gt", f["gt.json"]),
        ("esdf", "compute", f["world"] / "grid.occ", "--mask", f["traj.json"]),
        ("plan", "train", "--data", f["data.jsonl"], "--config", f["train.json"], "--out", model),
        ("plan", "sample", "--model", model, "--cond", f["cond.json"]),
        ("plan", "eval", "--model", model, "--worlds", f["worlds"]),
        ("odom", "eval", "--log", f["odom.jsonl"], "--gt", f["odom_gt.json"]),
        ("sim", "dataset", "--worlds", f["worlds"], "--samples", "2", "--out", f["root"] / "dataset.jsonl"),
        ("sim", "run", "--world", f["world"], "--goal", f["goal.json"], "--config", f["nav.json"]),
        ("sim", "eval", "--worlds", f["worlds"], "--episodes", "2"),
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert err == ""
        assert out
    plan = json.loads(run(capsys, "plan", "sample", "--model", model, "--cond", f["cond.json"])[1])
    assert set(plan) == {"actions", "poses", "mean_step"}


def test_gen_dataset_train_eval_on_relative_paths(tmp_path, monkeypatch, capsys):
    # the dataset lands in a subdirectory, so its grid references must be
    # written relative to it, not to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "train.json").write_text(json.dumps({"epochs": 1, "batch_size": 4, "hidden": [8]}))
    data = "out/data.jsonl"
    steps = [
        ("sim", "gen", "--seed", "0", "--size", "24", "--out", "worlds/w1"),
        ("sim", "dataset", "--worlds", "worlds", "--samples", "4", "--seed", "3", "--out", data),
        ("plan", "train", "--data", data, "--config", "train.json", "--out", "out/model.json"),
        ("plan", "eval", "--model", "out/model.json", "--worlds", "worlds"),
    ]
    outputs = []
    for argv in steps:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        outputs.append(json.loads(out))
    lines = (tmp_path / data).read_text().splitlines()
    assert outputs[1] == {"out": data, "samples": len(lines)} and len(lines) > 0
    assert {json.loads(line)["grid_ref"] for line in lines} == {"../worlds/w1/grid.occ"}
    assert outputs[3]["rollouts"] > 0


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_dataset_of_no_samples_exits_1(files, capsys, samples):
    out_file = files["root"] / f"no-samples{samples}.jsonl"
    code, out, err = run(capsys, "sim", "dataset", "--worlds", files["worlds"], "--samples", samples,
                         "--out", out_file)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "SimError"
    assert not out_file.exists()


@pytest.mark.parametrize("verb", ["sim-dataset", "plan-train"])
def test_output_in_a_missing_directory_exits_1(files, capsys, verb):
    out_file = files["root"] / "missing" / "out.json"
    command = {
        "sim-dataset": ("sim", "dataset", "--worlds", files["worlds"], "--samples", "1"),
        "plan-train": ("plan", "train", "--data", files["data.jsonl"], "--config", files["train.json"]),
    }[verb]
    code, out, err = run(capsys, *command, "--out", out_file)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_esdf_stdout_matches_out_file(files, capsys):
    grid = files["world"] / "grid.occ"
    out_file = files["root"] / "phi.esdf"
    code, out, _ = run(capsys, "esdf", "compute", grid)
    assert code == 0
    assert run(capsys, "esdf", "compute", grid, "--out", out_file)[0] == 0
    assert out.startswith("ESDF ")
    assert out_file.read_text() == out


MALFORMED_GRIDS = {
    "negative-dims": "OCC2 -2 -3 0.25 0 0\n1 0 1\n0 1 0\n",
    "zero-resolution": "OCC2 2 2 0 0 0\n1 0\n0 1\n",
    "nan-resolution": "OCC2 2 2 nan 0 0\n1 0\n0 1\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GRIDS))
def test_malformed_grid_exits_1(files, capsys, name):
    path = files["root"] / f"{name}.occ"
    path.write_text(MALFORMED_GRIDS[name])
    assert_json_error(*run(capsys, "esdf", "compute", path))


def test_map_file_holding_a_list_exits_1(files, capsys):
    path = files["root"] / "list.json"
    path.write_text("[1, 2]")
    assert_json_error(*run(capsys, "map", "validate", path))


def chain_map(lengths):
    """A hand-written map: nodes a, b, c, ... 1 m apart on a line, joined in
    order by edges of the given lengths."""
    ids = "abcdefgh"[: len(lengths) + 1]
    pose = {"position": [1.0, 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]}
    return {
        "nodes": [{"id": nid, "pose": {"position": [float(i), 0.0, 0.0],
                                       "quaternion": [1.0, 0.0, 0.0, 0.0]}}
                  for i, nid in enumerate(ids)],
        "edges": [{"nodes": [a, b], "relative_pose": pose, "length": length}
                  for a, b, length in zip(ids, ids[1:], lengths)],
    }


def test_chain_map_path_costs_its_lengths(files, capsys):
    path = files["root"] / "chain.json"
    path.write_text(json.dumps(chain_map([1.0, 2.0, 0.5])))
    code, out, _ = run(capsys, "map", "path", path, "--from", "a", "--to", "d")
    assert code == 0
    assert json.loads(out) == {"path": ["a", "b", "c", "d"], "cost": 3.5, "connected": True}
    assert run(capsys, "map", "validate", path)[0] == 0


@pytest.mark.parametrize("length", [-2.0, math.nan, math.inf, -math.inf], ids=["negative", "nan", "inf", "-inf"])
def test_map_with_a_bad_edge_length_exits_1(files, capsys, length):
    # a negative length used to give "cost": 0.0 from `map path`, meaning nothing
    path = files["root"] / "bad-chain.json"
    path.write_text(json.dumps(chain_map([1.0, length, 1.0])))
    for argv in (("map", "path", path, "--from", "a", "--to", "d"), ("map", "validate", path)):
        code, out, err = run(capsys, *argv)
        assert_json_error(code, out, err)
        doc = json.loads(err)
        assert doc["error"] == "MapError" and "edges[1]" in doc["message"]


def test_missing_files_exit_1(files, capsys):
    missing = files["root"] / "missing"
    assert_json_error(*run(capsys, "esdf", "compute", missing))
    assert_json_error(*run(capsys, "map", "validate", missing))
    assert_json_error(*run(capsys, "sim", "eval", "--worlds", missing))


# Every JSON or JSON-lines file argument of the CLI, as a command taking that file.
FILE_ARGS = {
    "localize:query": lambda f, p: ("localize", "--map", f["map"], "--query", p),
    "reward:pred": lambda f, p: ("reward", "eval", "--pred", p, "--gt", f["gt.json"]),
    "reward:gt": lambda f, p: ("reward", "eval", "--pred", f["pred.json"], "--gt", p),
    "reward:weights": lambda f, p: (
        "reward", "eval", "--pred", f["pred.json"], "--gt", f["gt.json"], "--weights", p
    ),
    "esdf:mask": lambda f, p: ("esdf", "compute", f["world"] / "grid.occ", "--mask", p),
    "plan-train:data": lambda f, p: ("plan", "train", "--data", p, "--out", f["root"] / "m.json"),
    "plan-train:config": lambda f, p: (
        "plan", "train", "--data", f["data.jsonl"], "--config", p, "--out", f["root"] / "m.json"
    ),
    "plan-sample:model": lambda f, p: ("plan", "sample", "--model", p, "--cond", f["cond.json"]),
    "plan-sample:cond": lambda f, p: ("plan", "sample", "--model", f["model.json"], "--cond", p),
    "plan-eval:model": lambda f, p: ("plan", "eval", "--model", p, "--worlds", f["worlds"]),
    "odom:log": lambda f, p: ("odom", "eval", "--log", p, "--gt", f["odom_gt.json"]),
    "odom:gt": lambda f, p: ("odom", "eval", "--log", f["odom.jsonl"], "--gt", p),
    "sim-run:goal": lambda f, p: ("sim", "run", "--world", f["world"], "--goal", p),
    "sim-run:config": lambda f, p: (
        "sim", "run", "--world", f["world"], "--goal", f["goal.json"], "--config", p
    ),
    "sim-run:model": lambda f, p: (
        "sim", "run", "--world", f["world"], "--goal", f["goal.json"], "--model", p
    ),
    "sim-eval:config": lambda f, p: ("sim", "eval", "--worlds", f["worlds"], "--config", p),
    "sim-eval:model": lambda f, p: ("sim", "eval", "--worlds", f["worlds"], "--model", p),
}
BAD_FILES = {
    "missing": None,
    "directory": "",
    "not-json": "{not json\n",
    "wrong-shape": "[1, 2]\n",
}


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
@pytest.mark.parametrize("arg", sorted(FILE_ARGS))
def test_bad_input_file_exits_1(files, capsys, arg, bad):
    path = files["root"] / f"bad-{bad}"
    if bad == "directory":
        path.mkdir(exist_ok=True)
    elif BAD_FILES[bad] is not None:
        path.write_text(BAD_FILES[bad])
    assert_json_error(*run(capsys, *FILE_ARGS[arg](files, path)))


# Goal files that parse as JSON but hold no usable goal.
BAD_GOALS = {
    "pose-string": {"pose": ["a", 1, 0]},
    "pose-empty": {"pose": []},
    "pose-two": {"pose": [1.0, 2.0]},
    "pose-four": {"pose": [1.0, 2.0, 0.0, 0.0]},
    "pose-bool": {"pose": [True, 1.0, 0.0]},
    "pose-nan": {"pose": [1.0, float("nan"), 0.0]},
    "pose-inf": {"pose": [1.0, 2.0, float("inf")]},
    "pose-null": {"pose": [None, 1.0, 0.0]},
    "pose-object": {"pose": {"x": 1.0, "y": 2.0, "theta": 0.0}},
    "instruction-empty": {"instruction": ""},
    "instruction-blank": {"instruction": "  "},
    "instruction-number": {"instruction": 5},
    "instruction-list": {"instruction": ["sofa"]},
}


@pytest.mark.parametrize("name", sorted(BAD_GOALS))
def test_bad_goal_exits_1(files, capsys, name):
    path = files["root"] / f"goal-{name}.json"
    path.write_text(json.dumps(BAD_GOALS[name]))
    code, out, err = run(capsys, "sim", "run", "--world", files["world"], "--goal", path)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "InputFileError"


# Pose values that are not three finite numbers, for every pose a JSON input holds.
BAD_POSES = {
    "string": ["a", 1, 0],
    "x-string": ["x", 0, 0],
    "nan": [1.0, float("nan"), 0.0],
    "inf": [float("-inf"), 0.0, 0.0],
    "theta-nan": [0.0, 0.0, float("nan")],
    "bool": [True, 0.0, 0.0],
    "null": [None, 0.0, 0.0],
    "two": [1.0, 2.0],
    "four": [1.0, 2.0, 0.0, 0.0],
    "object": {"x": 1.0, "y": 2.0, "theta": 0.0},
}
POSE_INPUTS = {
    # (file written, command) for a file holding `pose` where a pose belongs
    "reward-extra-poses": lambda f, pose: (
        {"format_valid": True, "landmarks": [["sofa", {}]], "ids": ["n-000"], "extra_poses": [pose]},
        lambda p: ("reward", "eval", "--pred", p, "--gt", f["gt.json"]),
    ),
    "reward-gt-pose": lambda f, pose: (
        {"landmarks": [["sofa", {}]], "ids": ["n-000"], "pose": pose},
        lambda p: ("reward", "eval", "--pred", f["pred.json"], "--gt", p),
    ),
    "esdf-mask": lambda f, pose: (
        [[0.5, 0.5, 0.0], pose],
        lambda p: ("esdf", "compute", f["world"] / "grid.occ", "--mask", p),
    ),
    # a bad query pose once exited 0, localizing with no fix or with theta 0
    "localize-query": lambda f, pose: (
        {**json.loads(f["query.json"].read_text()), "query_ctx": {"pose": pose}},
        lambda p: ("localize", "--map", f["map"], "--query", p),
    ),
    # a bad ground-truth row once ended in a numpy traceback, printed NaN or meant theta 0
    "odom-gt": lambda f, pose: (
        [[0, 0, 0], [0.1, 0, 0], pose],
        lambda p: ("odom", "eval", "--log", f["odom.jsonl"], "--gt", p),
    ),
    # a bad condition goal once ended in a traceback or meant theta 0
    "plan-cond": lambda f, pose: (
        {**json.loads(f["cond.json"].read_text()), "goal": pose},
        lambda p: ("plan", "sample", "--model", f["model.json"], "--cond", p),
    ),
    # a dataset record on one line, its last ground-truth pose replaced
    "plan-train-data": lambda f, pose: (
        (lambda rec: {**rec, "gt_poses": rec["gt_poses"][:-1] + [pose]})(
            json.loads(f["data.jsonl"].read_text().splitlines()[0])),
        lambda p: ("plan", "train", "--data", p, "--config", f["train.json"],
                   "--out", f["root"] / "pose-model.json"),
    ),
}
# The error each pose input reports, where it is not InputFileError.
POSE_ERRORS = {"localize-query": "LocalizationError", "plan-train-data": "SimError"}


@pytest.mark.parametrize("where", sorted(POSE_INPUTS))
@pytest.mark.parametrize("name", sorted(BAD_POSES))
def test_bad_pose_exits_1(files, capsys, where, name):
    doc, command = POSE_INPUTS[where](files, BAD_POSES[name])
    path = files["root"] / f"pose-{where}-{name}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command(path))
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == POSE_ERRORS.get(where, "InputFileError")
    assert "a pose must be three finite numbers" in json.loads(err)["message"]


@pytest.mark.parametrize("where", sorted(POSE_INPUTS))
def test_good_pose_exits_0(files, capsys, where):
    doc, command = POSE_INPUTS[where](files, [1.0, 2, -0.5])
    path = files["root"] / f"pose-{where}-good.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command(path))
    assert (code, err) == (0, "")
    assert out


def test_mask_file_not_a_list_exits_1(files, capsys):
    path = files["root"] / "mask-object.json"
    path.write_text(json.dumps({"poses": [[0.5, 0.5, 0.0]]}))
    assert_json_error(*run(capsys, "esdf", "compute", files["world"] / "grid.occ", "--mask", path))


@pytest.mark.parametrize(
    "option, value",
    [("--dilation", "-1"), ("--dilation", "-inf"), ("--dilation", "nan"), ("--dilation", "inf"),
     ("--alpha", "-0.5"), ("--alpha", "2"), ("--alpha", "nan")],
)
def test_bad_mask_parameter_exits_1(files, capsys, option, value):
    grid = files["world"] / "grid.occ"
    code, out, err = run(capsys, "esdf", "compute", grid, "--mask", files["traj.json"], f"{option}={value}")
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "MaskError"


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the body once `seconds` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Nav configs holding values the loop cannot run with; without a check, zero
# execute_steps looped forever and zero fix_every divides by zero. The keys of
# settings that are now module constants are unknown keys, whatever their value.
BAD_NAV_CONFIGS = {
    "execute-steps-0": {"execute_steps": 0},
    "execute-steps-float": {"execute_steps": 2.5},
    "fix-every-0": {"fix_every": 0},
    "fix-every-negative": {"fix_every": -3},
    "euler-steps-0": {"euler_steps": 0},
    "max-step-0": {"max_step": 0.0},
    "max-step-inf": {"max_step": float("inf")},
    "budget-factor-negative": {"budget_factor": -1.0},
    "footprint-negative": {"footprint_radius": -0.1},
    "goal-tolerance-nan": {"goal_tolerance": float("nan")},
    "lookahead-string": {"lookahead": "far"},
    "imu-sigma-negative": {"imu_sigma": -0.01},
    "exec-rot-sigma-bool": {"exec_rot_sigma": True},
    "planner-unknown": {"planner": "random"},
    "fallback-string": {"fallback": "no"},
}


@pytest.mark.parametrize("verb", ["run", "eval"])
@pytest.mark.parametrize("name", sorted(BAD_NAV_CONFIGS))
def test_bad_nav_config_exits_1(files, capsys, name, verb):
    path = files["root"] / f"nav-{name}.json"
    path.write_text(json.dumps({"planner": "oracle", **BAD_NAV_CONFIGS[name]}))
    where = ("--world", files["world"], "--goal", files["goal.json"]) if verb == "run" else (
        "--worlds", files["worlds"], "--episodes", "2"
    )
    with time_limit(60.0):
        code, out, err = run(capsys, "sim", verb, *where, "--config", path)
    assert_json_error(code, out, err)
    (key,) = BAD_NAV_CONFIGS[name]
    if key in NAV_CONSTANTS:
        assert json.loads(err) == {"error": "UnknownConfigKeyError", "message": f"unknown nav config key: {key!r}"}
    else:
        assert json.loads(err)["error"] == "SimError"


# Train configs that name only known keys but hold values training cannot run
# with; unchecked, each ended in a traceback or trained with a coerced value.
BAD_TRAIN_CONFIGS = {
    "learning-rate-string": {"learning_rate": "x"},
    "learning-rate-nan": {"learning_rate": float("nan")},
    "epochs-float": {"epochs": 2.5},
    "batch-size-bool": {"batch_size": True},
    "hidden-string": {"hidden": "ab"},
    "hidden-0": {"hidden": [0]},
    "momentum-string": {"momentum": "m"},
    "esdf-lambda-null": {"esdf_lambda": None},
    "seed-negative": {"seed": -1},
}


@pytest.mark.parametrize("name", sorted(BAD_TRAIN_CONFIGS))
def test_bad_train_config_exits_1(files, capsys, name):
    path = files["root"] / f"train-{name}.json"
    path.write_text(json.dumps({"epochs": 1, "batch_size": 4, "hidden": [8], **BAD_TRAIN_CONFIGS[name]}))
    out_file = files["root"] / f"train-{name}-model.json"
    with time_limit(60.0):
        code, out, err = run(capsys, "plan", "train", "--data", files["data.jsonl"], "--config", path,
                             "--out", out_file)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "PlannerError"
    assert not out_file.exists()


def _train_to(f):
    return ("plan", "train", "--data", f["data.jsonl"], "--out", f["root"] / "removed-key.json")


def _sim_run(f):
    return ("sim", "run", "--world", f["world"], "--goal", f["goal.json"])


def _sim_eval(f):
    return ("sim", "eval", "--worlds", f["worlds"], "--episodes", 1)


# The nav config keys of the loop's fixed settings, now module constants, with
# the values they held.
NAV_CONSTANTS = {"goal_tolerance": 0.5, "lookahead": 2.0, "execute_steps": 4, "budget_factor": 10.0,
                 "footprint_radius": 0.3, "max_step": 0.25, "fix_oracle_radius": 0.8, "euler_steps": 20}
# Keys that configs once accepted and then ignored or made constant: (config kind,
# key, value, command).
REMOVED_KEYS = {
    "sim-run-seed": ("nav", "seed", 5, _sim_run),
    "sim-eval-seed": ("nav", "seed", 5, _sim_eval),
    "plan-train-n-actions": ("train", "n_actions", 8, _train_to),
    "plan-train-euler-steps": ("train", "euler_steps", 5, _train_to),
    "plan-train-mask-alpha": ("train", "mask_alpha", 0.5, _train_to),
    "plan-train-mask-dilation": ("train", "mask_dilation", 0.3, _train_to),
    **{f"sim-{verb}-{key.replace('_', '-')}": ("nav", key, value, command)
       for verb, command in (("run", _sim_run), ("eval", _sim_eval))
       for key, value in NAV_CONSTANTS.items()},
}


@pytest.mark.parametrize("name", sorted(REMOVED_KEYS))
def test_removed_config_key_exits_1(files, capsys, name):
    where, key, value, command = REMOVED_KEYS[name]
    path = files["root"] / f"removed-{name}.json"
    path.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, *command(files), "--config", path)
    assert_json_error(code, out, err)
    assert json.loads(err) == {"error": "UnknownConfigKeyError", "message": f"unknown {where} config key: {key!r}"}
    assert not (files["root"] / "removed-key.json").exists()


@pytest.mark.parametrize("weights", [{"lambda": float("nan")}, {"covis_lambda": float("inf")}],
                         ids=["lambda-nan", "covis-lambda-inf"])
def test_non_finite_reward_weights_exit_1(files, capsys, weights):
    path = files["root"] / "weights.json"
    path.write_text(json.dumps(weights))
    pred = files["root"] / "pred-covis.json"
    gt = files["root"] / "gt-covis.json"
    pred.write_text(json.dumps({**json.loads(files["pred.json"].read_text()), "covis": 0.5}))
    gt.write_text(json.dumps({**json.loads(files["gt.json"].read_text()), "covis": 0.75}))
    code, out, err = run(capsys, "reward", "eval", "--pred", pred, "--gt", gt, "--weights", path)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "RewardError"
    assert out == ""


def test_model_file_with_other_activation_exits_1(files, capsys):
    doc = json.loads(files["model.json"].read_text())
    assert doc["activation"] == "tanh"
    path = files["root"] / "relu-model.json"
    path.write_text(json.dumps({**doc, "activation": "relu"}))
    code, out, err = run(capsys, "plan", "sample", "--model", path, "--cond", files["cond.json"])
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "PlannerError"
    assert "unsupported activation: 'relu'" in json.loads(err)["message"]


@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_model_file_with_a_wrong_weight_count_exits_1(files, capsys, change):
    doc = json.loads(files["model.json"].read_text())
    weights = doc["weights"][:-1] if change < 0 else doc["weights"] + [0.0]
    path = files["root"] / "weights-model.json"
    path.write_text(json.dumps({**doc, "weights": weights}))
    code, out, err = run(capsys, "plan", "sample", "--model", path, "--cond", files["cond.json"])
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "ShapeMismatchError"
    assert json.loads(err)["message"].startswith(f"{path}: expected {len(doc['weights'])} parameters")


# Model files the planner cannot run: (layer sizes, n_actions, cond_dim), each
# input layer 3 n_actions + 1 + cond_dim wide for the fixture condition's 262
# entries where n_actions is a whole number.
BAD_MODELS = {
    "n-actions-0": ([263, 8, 0], 0, 262),
    "n-actions-4.5": ([275, 8, 12], 4.5, 262),
    "n-actions-true": ([266, 8, 3], True, 262),
    "cond-dim-negative": ([24, 8, 24], 8, -1),
    "hidden-width-0": ([287, 0, 24], 8, 262),
}


@pytest.mark.parametrize("command", ["plan-sample:model", "plan-eval:model", "sim-eval:model"])
@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_model_file_the_planner_cannot_run_exits_1(files, capsys, name, command):
    sizes, n_actions, cond_dim = BAD_MODELS[name]
    doc = {"layer_sizes": sizes, "activation": "tanh", "n_actions": n_actions, "cond_dim": cond_dim,
           "weights": [0.0] * planner._param_count(sizes)}
    path = files["root"] / f"model-{name}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *FILE_ARGS[command](files, path))
    assert_json_error(code, out, err)
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "PlannerError"
    assert json.loads(err)["message"].startswith(f"{path}: ")  # the constructor's refusal names the file


# A search radius that is not positive and finite is refused, match or not.
BAD_GOAL_RADII = {
    "r-max-inf": ("--r-max", "inf"),
    "r-max-nan": ("--r-max", "nan"),
    "r-max-0": ("--r-max", "0"),
    "r-max-negative": ("--r-max", "-5"),
}


@pytest.mark.parametrize("matching", [False, True], ids=["no-match", "match"])
@pytest.mark.parametrize("name", sorted(BAD_GOAL_RADII))
def test_bad_goal_radius_exits_1(files, capsys, name, matching):
    term = files["category"] if matching else "zebra"
    with time_limit(30.0):
        code, out, err = run(capsys, "goal", "--map", files["map"], "--terms", term, *BAD_GOAL_RADII[name])
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "LocalizationError"


def test_default_goal_radii_still_search(files, capsys):
    code, out, _ = run(capsys, "goal", "--map", files["map"], "--terms", files["category"])
    assert code == 0
    assert json.loads(out)["node_id"] in files["node_ids"]
    code, _, err = run(capsys, "goal", "--map", files["map"], "--terms", "zebra")
    assert_json_error(code, "", err)
    assert json.loads(err)["error"] == "GoalNotFoundError"


@pytest.mark.parametrize("flag", ["--r0", "--r-step"])
def test_ring_radius_flags_are_gone(files, capsys, flag):
    with pytest.raises(SystemExit) as exited:
        run(capsys, "goal", "--map", files["map"], "--terms", "sofa", flag, "50")
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert out == "" and json.loads(err)["error"] == "UsageError"


def test_goal_is_never_past_r_max(files, capsys):
    # the nearest sofa node, n-004 at (2, 2), is 2.83 m from the default pose
    code, out, err = run(capsys, "goal", "--map", files["map"], "--terms", "sofa", "--r-max", "1")
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "GoalNotFoundError"
    code, out, err = run(capsys, "goal", "--map", files["map"], "--terms", "sofa", "--r-max", "3")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"node_id": "n-004", "goal_pose": [2.0, 2.0, 0.0]}


def test_huge_r_max_without_a_match_answers_at_once(files, capsys):
    with time_limit(10.0):
        code, out, err = run(capsys, "goal", "--map", files["map"], "--terms", "zebra", "--r-max", "1e300")
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "GoalNotFoundError"


def test_goal_pose_whose_distances_overflow_writes_one_json_error(files):
    # the squared offsets overflow to inf; numpy's overflow warning once went to
    # stderr ahead of the JSON error, so the whole of stderr is parsed, in a
    # process of its own, where warnings reach the real stderr
    argv = ["goal", "--map", str(files["map"]), "--terms", "sofa", "--pose", "1e308", "1e308", "0"]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "astra_nav.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert json.loads(done.stderr)["error"] == "GoalNotFoundError"


@pytest.mark.parametrize("terms", [["Sofa."], ["resting,", "sofa"], ["living areas"]],
                         ids=["punctuated", "comma", "two-words-in-one-term"])
def test_goal_terms_are_split_into_words(files, capsys, terms):
    code, out, err = run(capsys, "goal", "--map", files["map"], "--terms", *terms)
    assert (code, err) == (0, "")
    assert json.loads(out)["node_id"] == "n-004"


@pytest.mark.parametrize("term", ["", "..."], ids=["empty", "dots"])
def test_goal_terms_without_a_word_exit_1(files, capsys, term):
    code, out, err = run(capsys, "goal", "--map", files["map"], "--terms", term)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "LocalizationError"


def test_cli_defaults_agree_with_the_library():
    parser = cli.build_parser()
    goal = parser.parse_args(["goal", "--map", "m.json", "--terms", "sofa"])
    assert goal.r_max == inspect.signature(localization.goal_localize).parameters["r_max"].default
    gen = parser.parse_args(["sim", "gen", "--out", "w"])
    library = inspect.signature(sim.generate_world).parameters
    assert (gen.size, gen.density, gen.landmarks) == (
        library["size"].default, library["obstacle_density"].default, library["landmark_count"].default
    )


@pytest.mark.parametrize("size", [-4, 0, 1, 2])
def test_too_small_world_exits_1(files, capsys, size):
    out_dir = files["root"] / f"tiny{size}"
    with time_limit(60.0):
        code, out, err = run(capsys, "sim", "gen", "--size", size, "--out", out_dir)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "SimError"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "kwargs",
    [{"landmark_count": -1}, {"landmark_count": 0}],
    ids=["landmarks-negative", "landmarks-0"],
)
def test_generate_world_rejects_bad_parameters(kwargs):
    with pytest.raises(sim.SimError):
        sim.generate_world(0, 16, **kwargs)


def test_zero_landmarks_fail_before_any_draw(monkeypatch):
    # start points are landmark nodes, so the count is refused before a candidate is drawn
    def refused(*args, **kwargs):
        raise AssertionError("a world was drawn")

    monkeypatch.setattr(sim.np.random, "default_rng", refused)
    with pytest.raises(sim.SimError, match="landmark count"):
        sim.generate_world(0, 16, landmark_count=0)


# every verb that takes --seed, with its other arguments
SEED_VERBS = {
    "sim-gen": lambda f: ("sim", "gen", "--out", f["root"] / "negative-seed"),
    "sim-run": lambda f: ("sim", "run", "--world", f["world"], "--goal", f["goal.json"]),
    "sim-eval": lambda f: ("sim", "eval", "--worlds", f["worlds"], "--episodes", 1),
    "plan-sample": lambda f: ("plan", "sample", "--model", f["model.json"], "--cond", f["cond.json"]),
    "plan-eval": lambda f: ("plan", "eval", "--model", f["model.json"], "--worlds", f["worlds"]),
    "plan-train": lambda f: ("plan", "train", "--data", f["data.jsonl"], "--config", f["train.json"],
                             "--out", f["root"] / "negative-seed.json"),
}


@pytest.mark.parametrize("verb", sorted(SEED_VERBS))
def test_negative_seed_is_a_usage_error(files, capsys, verb):
    with pytest.raises(SystemExit) as exited:
        run(capsys, *SEED_VERBS[verb](files), "--seed", -1)
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert "Traceback" not in out + err
    assert "argument --seed: must be a non-negative integer" in err
    assert not (files["root"] / "negative-seed").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "Infinity"])
def test_non_finite_goal_pose_is_a_usage_error(files, capsys, value):
    # argparse's float once let these through to a misleading GoalNotFoundError
    with pytest.raises(SystemExit) as exited:
        run(capsys, "goal", "--map", files["map"], "--pose", value, 0, 0, "--terms", files["category"])
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc == {"error": "UsageError",
                   "message": f"astra goal: argument --pose: must be a finite number, got {value}"}


@pytest.mark.parametrize(
    "content",
    [None, "{not json", '{"start_xy": 3}', "[]"],
    ids=["missing", "not-json", "start-xy-not-a-list", "list"],
)
def test_bad_world_file_exits_1(files, capsys, tmp_path, content):
    world_dir = tmp_path / "world"
    shutil.copytree(files["world"], world_dir)
    (world_dir / "world.json").unlink()
    if content is not None:
        (world_dir / "world.json").write_text(content)
    code, out, err = run(capsys, "sim", "run", "--world", world_dir, "--goal", files["goal.json"])
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "SimError"


@pytest.mark.parametrize("pose", [[1e300, 0.0, 0.0], [100.0, 100.0, 0.0]], ids=["1e300", "off-the-map"])
def test_goal_pose_outside_the_world_exits_1(files, capsys, tmp_path, pose):
    # the expert path ends at the goal as given, after A* has snapped it to the
    # grid: 1e300 once raised from resample_polyline, and (100, 100) drove a
    # 138 m path off the map and exited 0
    path = tmp_path / "goal.json"
    path.write_text(json.dumps({"pose": pose}))
    code, out, err = run(capsys, "sim", "run", "--world", files["world"], "--goal", path)
    assert_json_error(code, out, err)
    doc = json.loads(err)
    assert doc["error"] == "SimError" and "outside the world's grid" in doc["message"]


@pytest.mark.parametrize("start_xy", [[], "nan", [[1e300, 5.0]]], ids=["empty", "nan", "outside"])
@pytest.mark.parametrize("verb", ["run", "eval", "dataset"])
def test_bad_start_points_exit_1(files, capsys, tmp_path, start_xy, verb):
    # an empty list once raised from rng.integers; a NaN or far-off point exited 0
    world_dir = tmp_path / "worlds" / "w0"
    shutil.copytree(files["world"], world_dir)
    doc = json.loads((world_dir / "world.json").read_text())
    doc["start_xy"] = [[math.nan, 1.0]] + doc["start_xy"] if start_xy == "nan" else start_xy
    (world_dir / "world.json").write_text(json.dumps(doc))
    argv = {
        "run": ("sim", "run", "--world", world_dir, "--goal", files["goal.json"]),
        "eval": ("sim", "eval", "--worlds", tmp_path / "worlds", "--episodes", 2),
        "dataset": ("sim", "dataset", "--worlds", tmp_path / "worlds", "--samples", 2,
                    "--out", tmp_path / "data.jsonl"),
    }[verb]
    code, out, err = run(capsys, *argv)
    assert_json_error(code, out, err)
    doc = json.loads(err)
    assert doc["error"] == "SimError" and "world.json" in doc["message"]
    assert not (tmp_path / "data.jsonl").exists()


def test_odom_eval_without_ground_truth_poses_exits_1(files, capsys):
    path = files["root"] / "empty-gt.json"
    path.write_text("[]")
    assert_json_error(*run(capsys, "odom", "eval", "--log", files["odom.jsonl"], "--gt", path))


def test_world_with_esdf_grid_exits_1(files, capsys):
    world_dir = files["root"] / "esdf-world"
    shutil.copytree(files["world"], world_dir)
    assert run(capsys, "esdf", "compute", world_dir / "grid.occ", "--out", world_dir / "grid.occ")[0] == 0
    code, out, err = run(capsys, "sim", "run", "--world", world_dir, "--goal", files["goal.json"])
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "GridParseError"


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _well_formed(magic, dims, res, origin, n_cells) -> bool:
    """Independent statement of which grid files `esdf compute` accepts."""
    if magic != "OCC2" or len(dims) not in (2, 3) or not all(d.lstrip("-").isdigit() for d in dims):
        return False
    ints = [int(d) for d in dims]
    res_v, origin_v = _number(res), [_number(o) for o in origin]
    return (
        min(ints) >= 1
        and math.prod(ints) == n_cells
        and res_v is not None
        and 0 < res_v < math.inf
        and all(o is not None and math.isfinite(o) for o in origin_v)
    )


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    magic=st.sampled_from(["OCC2", "ESDF", "GRID"]),
    dims=st.lists(st.sampled_from(["-3", "-1", "0", "1", "2", "3", "2.5", "x"]), min_size=1, max_size=4),
    res=st.sampled_from(["0.25", "1", "1e-300", "0", "-0.5", "nan", "inf", "abc"]),
    origin=st.lists(st.sampled_from(["0", "-1.5", "nan", "inf", "x"]), min_size=2, max_size=2),
    n_cells=st.integers(0, 12),
)
def test_fuzz_grid_header(files, capsys, magic, dims, res, origin, n_cells):
    path = files["root"] / "fuzz.occ"
    cells = (["1", "0"] * 6)[:n_cells]
    path.write_text(" ".join([magic, *dims, res, *origin]) + "\n" + " ".join(cells) + "\n")
    code, out, err = run(capsys, "esdf", "compute", path)
    if _well_formed(magic, dims, res, origin, n_cells):
        assert code == 0 and out.startswith("ESDF ")
    else:
        assert_json_error(code, out, err)


def test_misspelt_reward_weight_exits_1(files, capsys):
    path = files["root"] / "weights-misspelt.json"
    path.write_text(json.dumps({"lamda": 5}))
    code, out, err = run(capsys, "reward", "eval", "--pred", files["pred.json"], "--gt", files["gt.json"],
                         "--weights", path)
    assert_json_error(code, out, err)
    assert json.loads(err) == {"error": "UnknownConfigKeyError", "message": "unknown reward weights key: 'lamda'"}
    assert out == ""


# Odometry log records whose sensor values are not finite numbers of the right
# count; each once ended in a traceback or printed NaN, which is not JSON.
BAD_ODOM_RECORDS = {
    "wheel-two": {"wheel": [1, 0]},
    "wheel-string": {"wheel": ["a", 0, 0]},
    "wheel-nan": {"wheel": [float("nan"), 0, 0]},
    "wheel-object": {"wheel": {"dx": 0.1}},
    "imu-string": {"wheel": [0.1, 0, 0], "imu_dtheta": "x"},
    "imu-inf": {"wheel": [0.1, 0, 0], "imu_dtheta": float("inf")},
    "imu-bool": {"wheel": [0.1, 0, 0], "imu_dtheta": True},
    "vision-four": {"vision": [0.1, 0, 0, 0], "imu_dtheta": 0.0},
    "vision-huge-int": {"vision": [10**400, 0, 0], "imu_dtheta": 0.0},
}


@pytest.mark.parametrize("name", sorted(BAD_ODOM_RECORDS))
def test_bad_odometry_record_exits_1(files, capsys, name):
    good = json.dumps({"wheel": [0.1, 0, 0], "imu_dtheta": 0.0})
    path = files["root"] / f"odom-{name}.jsonl"
    path.write_text(good + "\n" + json.dumps(BAD_ODOM_RECORDS[name]) + "\n")
    code, out, err = run(capsys, "odom", "eval", "--log", path, "--gt", files["odom_gt.json"])
    assert_json_error(code, out, err)
    doc = json.loads(err)
    assert doc["error"] == "OdometryError"
    assert f"{path}:2: malformed record" in doc["message"]
    assert out == ""


def test_odometry_record_dt_is_ignored(files, capsys):
    lines = [{"wheel": [0.1, 0, 0], "imu_dtheta": 0.0, "vision": None}] * 2
    outputs = []
    for dt in (None, 0.1, float("inf"), "x"):
        path = files["root"] / "odom-dt.jsonl"
        path.write_text("\n".join(json.dumps(rec if dt is None else {**rec, "dt": dt}) for rec in lines))
        code, out, err = run(capsys, "odom", "eval", "--log", path, "--gt", files["odom_gt.json"])
        assert (code, err) == (0, "")
        outputs.append(out)
    assert len(set(outputs)) == 1
    assert json.loads(outputs[0]) == {"ate_m": 0.0, "rre_deg_per_10m": 0.0, "rte_percent": 0.0}


# `localize` output on the fixture map and query (heuristic oracle), as the
# configurable localization of earlier versions printed it.
LOCALIZED = {
    "candidate_node_ids": ["n-001", "n-002", "n-003", "n-007"],
    "confidence": 1.0,
    "filtered_node_ids": ["n-001"],
    "reference_node_ids": ["n-000", "n-001", "n-004"],
}
FINE_MODES = {
    "default": ([], [1.611253294930218, 1.2929744123318514, 0.0]),
    "weighted": (["--fine-mode", "weighted"], [1.611253294930218, 1.2929744123318514, 0.0]),
    "nearest": (["--fine-mode", "nearest"], [1.0, 1.0, 0.0]),
}


@pytest.mark.parametrize("mode", sorted(FINE_MODES))
def test_localize_fine_modes(files, capsys, mode):
    flags, pose = FINE_MODES[mode]
    code, out, err = run(capsys, "localize", "--map", files["map"], "--query", files["query.json"], *flags)
    assert (code, err) == (0, "")
    assert json.loads(out) == {**LOCALIZED, "estimated_pose": pose}


def test_sim_run_with_an_instruction_goal(files, capsys, monkeypatch):
    searched = []
    goal_localize = sim.goal_localize

    def recording(terms, *args):
        searched.append(terms)
        return goal_localize(terms, *args)

    monkeypatch.setattr(sim, "goal_localize", recording)
    path = files["root"] / "goal-sofa.json"
    path.write_text(json.dumps({"instruction": "sofa"}))
    code, out, err = run(capsys, "sim", "run", "--world", files["world"], "--goal", path)
    assert (code, err) == (0, "")
    assert searched == [["sofa"]]
    # the report on the fixture world since the expert follows one path and splits its turns
    assert json.loads(out) == {
        "collision_count": 2, "expert_length": 6.5200100582498, "fallback_count": 0,
        "final_error": 0.4962004912207977, "mean_velocity": 0.7227721127655979,
        "path_length": 6.6856420430817805, "planner_calls": 0, "reason": "reached", "success": True,
    }


def test_sim_run_splits_the_instruction_into_words(files, capsys):
    reports = []
    for instruction in ("sofa", "Sofa."):
        path = files["root"] / "goal-instruction.json"
        path.write_text(json.dumps({"instruction": instruction}))
        code, out, err = run(capsys, "sim", "run", "--world", files["world"], "--goal", path)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    assert reports[1] == reports[0] and reports[1]["reason"] == "reached"


def test_sim_run_instruction_without_a_word_exits_1(files, capsys):
    path = files["root"] / "goal-dots.json"
    path.write_text(json.dumps({"instruction": "..."}))
    code, out, err = run(capsys, "sim", "run", "--world", files["world"], "--goal", path)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "LocalizationError"


def test_log_level_debug_reports_fixes_and_replans(files, capsys):
    argv = ("sim", "run", "--world", files["world"], "--goal", files["goal.json"],
            "--config", files["nav.json"])
    code, quiet_out, quiet_err = run(capsys, *argv)
    assert code == 0 and quiet_err == ""
    code, out, err = run(capsys, "--log-level", "debug", *argv)
    assert code == 0
    assert out == quiet_out  # logging changes nothing the command computes
    lines = err.splitlines()
    assert lines[0].startswith("DEBUG astra_nav.sim: episode 0: first global fix accepted")
    assert lines[-1].startswith("DEBUG astra_nav.sim: episode 0 ends ")
    assert all(line.startswith("DEBUG astra_nav.sim: episode 0") for line in lines)
    # the flag lasts for its own command only
    assert run(capsys, *argv)[2] == ""
    assert logging.getLogger("astra_nav").handlers == []


def test_log_level_above_debug_is_quiet(files, capsys):
    code, _, err = run(capsys, "--log-level", "INFO", "sim", "run", "--world", files["world"],
                       "--goal", files["goal.json"], "--config", files["nav.json"])
    assert code == 0 and err == ""


def test_unknown_log_level_is_a_usage_error(files, capsys):
    with pytest.raises(SystemExit) as exited:
        run(capsys, "--log-level", "loud", "map", "validate", files["map"])
    out, err = capsys.readouterr()
    assert exited.value.code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


# Node poses in a map file that are not three finite position and four finite quaternion numbers.
BAD_MAP_POSES = {
    "position-two": {"position": [1.0, 2.0], "quaternion": [1.0, 0.0, 0.0, 0.0]},
    "position-string": {"position": ["a", 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]},
    "position-nan": {"position": [float("nan"), 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]},
    "quaternion-three": {"position": [0.0, 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0]},
    "quaternion-inf": {"position": [0.0, 0.0, 0.0], "quaternion": [float("inf"), 0.0, 0.0, 0.0]},
}


@pytest.mark.parametrize("name", sorted(BAD_MAP_POSES))
def test_bad_map_pose_exits_1(files, capsys, name):
    doc = json.loads(files["map"].read_text())
    doc["nodes"][0]["pose"] = BAD_MAP_POSES[name]
    path = files["root"] / f"map-{name}.json"
    path.write_text(json.dumps(doc))
    for argv in (("localize", "--map", path, "--query", files["query.json"]),
                 ("goal", "--map", path, "--terms", files["category"]),
                 ("map", "validate", path)):
        code, out, err = run(capsys, *argv)
        assert_json_error(code, out, err)
        assert json.loads(err)["error"] == "MapError"


# Dataset records that once ended `plan train` in a traceback: (the second
# record's change, the words of the error).
BAD_DATASET_RECORDS = {
    "fewer-actions": (lambda rec: {**rec, "actions": rec["actions"][:-1]}, "7 actions"),
    "longer-occ-features": (
        lambda rec: {**rec, "condition": {**rec["condition"],
                                          "occ_features": rec["condition"]["occ_features"] + [0.0]}},
        "but the first record has 8",
    ),
    "actions-in-pairs": (
        lambda rec: {**rec, "actions": [row[:2] for row in rec["actions"]]}, "rows of three finite numbers"
    ),
    "nan-action": (
        lambda rec: {**rec, "actions": [[float("nan"), 0.0, 0.0]] + rec["actions"][1:]},
        "rows of three finite numbers",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_DATASET_RECORDS))
def test_bad_dataset_record_exits_1(files, capsys, name):
    change, words = BAD_DATASET_RECORDS[name]
    first = json.loads(files["data.jsonl"].read_text().splitlines()[0])
    path = files["root"] / f"data-{name}.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps(change(first)) + "\n")
    code, out, err = run(capsys, "plan", "train", "--data", path, "--config", files["train.json"],
                         "--out", files["root"] / f"data-{name}-model.json")
    assert_json_error(code, out, err)
    doc = json.loads(err)
    assert doc["error"] == "SimError"
    assert f"{path}:2: " in doc["message"] and words in doc["message"]


# Condition velocities and occupancy features that are not finite numbers.
BAD_CONDITIONS = {
    "velocity-string": lambda cond: {**cond, "velocity": ["a", 0]},
    "velocity-one": lambda cond: {**cond, "velocity": [1.0]},
    "velocity-nan": lambda cond: {**cond, "velocity": [float("nan"), 0.0]},
    "velocity-object": lambda cond: {**cond, "velocity": {"vx": 1.0}},
    "occ-features-nan": lambda cond: {**cond, "occ_features": cond["occ_features"][:-1] + [float("nan")]},
    "occ-features-string": lambda cond: {**cond, "occ_features": "abc"},
}


@pytest.mark.parametrize("name", sorted(BAD_CONDITIONS))
def test_bad_condition_exits_1(files, capsys, name):
    cond = BAD_CONDITIONS[name](json.loads(files["cond.json"].read_text()))
    path = files["root"] / f"cond-{name}.json"
    path.write_text(json.dumps(cond))
    code, out, err = run(capsys, "plan", "sample", "--model", files["model.json"], "--cond", path)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "InputFileError"
    assert "must be" in json.loads(err)["message"]
    record = json.loads(files["data.jsonl"].read_text().splitlines()[0])
    data = files["root"] / f"data-cond-{name}.jsonl"
    data.write_text(json.dumps({**record, "condition": cond}) + "\n")
    code, out, err = run(capsys, "plan", "train", "--data", data, "--config", files["train.json"],
                         "--out", files["root"] / f"cond-{name}-model.json")
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "SimError"


# Landmark text in a map file that the matching cannot read.
BAD_MAP_LANDMARKS = {
    "category-number": {"category": 7},
    "category-empty": {"category": ""},
    "attribute-number": {"visual_attributes": {"color": 1}},
    "attributes-list": {"visual_attributes": [["color", "red"]]},
    "description-number": {"functional_description": 5},
    "node-ids-number": {"node_ids": 5},
}


@pytest.mark.parametrize("name", sorted(BAD_MAP_LANDMARKS))
def test_bad_map_landmark_exits_1(files, capsys, name):
    doc = json.loads(files["map"].read_text())
    doc["landmarks"][0].update(BAD_MAP_LANDMARKS[name])
    path = files["root"] / f"map-landmark-{name}.json"
    path.write_text(json.dumps(doc))
    for argv in (("localize", "--map", path, "--query", files["query.json"]),
                 ("goal", "--map", path, "--terms", files["category"]),
                 ("map", "validate", path)):
        code, out, err = run(capsys, *argv)
        assert_json_error(code, out, err)
        assert json.loads(err)["error"] == "MapError"


@pytest.mark.parametrize("doc", [{"nodes": 5}, {"edges": 5}, {"landmarks": 5},
                                 {"nodes": [{"id": "n", "pose": {"position": [0, 0, 0],
                                                                 "quaternion": [1, 0, 0, 0]},
                                             "landmark_ids": 3}]}],
                         ids=["nodes", "edges", "landmarks", "landmark-ids"])
def test_map_with_a_number_for_a_list_exits_1(files, capsys, doc):
    path = files["root"] / "map-number-for-list.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "map", "validate", path)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "MapError"


# Query observations whose text the matching cannot read.
BAD_OBSERVATIONS = {
    "category-number": {"category": 5, "visual_attributes": {}},
    "category-missing": {"visual_attributes": {}},
    "attribute-number": {"category": "sofa", "visual_attributes": {"color": 1}},
    "attributes-string": {"category": "sofa", "visual_attributes": "red"},
    "not-an-object": 5,
}


@pytest.mark.parametrize("name", sorted(BAD_OBSERVATIONS))
def test_bad_query_observation_exits_1(files, capsys, name):
    query = json.loads(files["query.json"].read_text())
    query["observations"].append(BAD_OBSERVATIONS[name])
    path = files["root"] / f"query-{name}.json"
    path.write_text(json.dumps(query))
    code, out, err = run(capsys, "localize", "--map", files["map"], "--query", path)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "LocalizationError"
    assert "bad observation at index 1" in json.loads(err)["message"]


@pytest.mark.parametrize("ids", ["lm-001", [1, 2]], ids=["string", "numbers"])
def test_query_landmark_ids_not_a_list_of_strings_exit_1(files, capsys, ids):
    # a string once became the set of its characters, and numbers never matched
    query = json.loads(files["query.json"].read_text())
    query["query_ctx"]["landmark_ids"] = ids
    path = files["root"] / "query-landmark-ids.json"
    path.write_text(json.dumps(query))
    code, out, err = run(capsys, "localize", "--map", files["map"], "--query", path)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "LocalizationError"
    assert "landmark_ids must be a list of strings" in json.loads(err)["message"]


def _dangling_edge(doc):
    first = doc["nodes"][0]["id"]
    doc["edges"].append({"nodes": [first, "n-zzz"], "length": 1.0,
                         "relative_pose": {"position": [1.0, 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]}})


def _dangling_node_landmark(doc):
    for node in doc["nodes"]:
        node["landmark_ids"].append("lm-missing")


def _dangling_landmark_node(doc):
    doc["landmarks"][0]["node_ids"].append("n-zzz")


# Map files that refer to a node or landmark they do not hold.
DANGLING_MAPS = {
    "edge-to-missing-node": _dangling_edge,
    "node-lists-missing-landmark": _dangling_node_landmark,
    "landmark-lists-missing-node": _dangling_landmark_node,
}


def dangling_world(files, tmp_path, name):
    """A copy of the fixture world, under tmp_path/worlds, whose map has the named defect."""
    world_dir = tmp_path / "worlds" / "w0"
    shutil.copytree(files["world"], world_dir)
    doc = json.loads((world_dir / "map.json").read_text())
    DANGLING_MAPS[name](doc)
    (world_dir / "map.json").write_text(json.dumps(doc))
    return world_dir


MAP_READERS = {
    "map-validate": lambda f, w: ("map", "validate", w / "map.json"),
    "map-path": lambda f, w: ("map", "path", w / "map.json", "--from", f["node_ids"][0],
                              "--to", f["node_ids"][-1]),
    "localize": lambda f, w: ("localize", "--map", w / "map.json", "--query", f["query.json"]),
    "goal": lambda f, w: ("goal", "--map", w / "map.json", "--terms", f["category"]),
    "sim-run": lambda f, w: ("sim", "run", "--world", w, "--goal", f["goal.json"],
                             "--config", f["nav.json"]),
    "sim-eval": lambda f, w: ("sim", "eval", "--worlds", w.parent, "--episodes", 2),
    "sim-dataset": lambda f, w: ("sim", "dataset", "--worlds", w.parent, "--samples", 2,
                                 "--out", w.parent.parent / "data.jsonl"),
}


@pytest.mark.parametrize("verb", sorted(MAP_READERS))
@pytest.mark.parametrize("name", sorted(DANGLING_MAPS))
def test_dangling_map_reference_gives_no_traceback(files, capsys, tmp_path, name, verb):
    # every verb that reads a map either works around the dangling reference
    # or refuses the map with one JSON error line; a logged warning may come first
    world_dir = dangling_world(files, tmp_path, name)
    code, out, err = run(capsys, *MAP_READERS[verb](files, world_dir))
    assert code in (0, 1)
    assert "Traceback" not in out + err
    if code == 1 and verb == "map-validate":
        assert err == "" and not json.loads(out)["ok"]  # the violations, on stdout
    elif code == 1:
        assert set(json.loads(err.strip().splitlines()[-1])) == {"error", "message"}


@pytest.mark.parametrize("verb", ["sim-run", "sim-eval", "sim-dataset"])
@pytest.mark.parametrize("name", sorted(DANGLING_MAPS))
def test_world_with_dangling_map_reference_exits_1(files, capsys, tmp_path, name, verb):
    # an edge to a missing node once ended `sim run` and `sim eval` in a
    # KeyError, and a node's missing landmark ended `sim run` in one
    world_dir = dangling_world(files, tmp_path, name)
    code, out, err = run(capsys, *MAP_READERS[verb](files, world_dir))
    assert_json_error(code, out, err)
    doc = json.loads(err)
    violations = "; ".join(TopoMap.load(world_dir / "map.json").validate().violations[:3])
    assert doc == {"error": "SimError", "message": f"{world_dir / 'map.json'}: invalid map: {violations}"}
    assert not (tmp_path / "data.jsonl").exists()


@pytest.mark.parametrize("name", sorted(DANGLING_MAPS))
def test_map_path_on_a_dangling_map_exits_1(files, capsys, tmp_path, name):
    world_dir = dangling_world(files, tmp_path, name)
    code, out, err = run(capsys, *MAP_READERS["map-path"](files, world_dir))
    assert_json_error(code, out, err)
    assert json.loads(err)["error"] == "MapError"
    # validation still lists every violation, and exits 1 on them
    code, out, err = run(capsys, *MAP_READERS["map-validate"](files, world_dir))
    assert code == 1 and err == "" and not json.loads(out)["ok"]


@pytest.mark.parametrize("verb", ["localize", "goal"])
@pytest.mark.parametrize("name", sorted(DANGLING_MAPS))
def test_map_reader_on_a_dangling_map_exits_1(files, capsys, tmp_path, name, verb):
    # `localize` once listed a landmark's missing node among its candidates,
    # and both verbs exited 0 on a map that fails validation
    world_dir = dangling_world(files, tmp_path, name)
    code, out, err = run(capsys, *MAP_READERS[verb](files, world_dir))
    assert_json_error(code, out, err)
    violations = "; ".join(TopoMap.load(world_dir / "map.json").validate().violations[:3])
    assert json.loads(err) == {"error": "MapError",
                               "message": f"{world_dir / 'map.json'}: invalid map: {violations}"}


def test_goal_in_an_obstacle_exits_1(files, capsys, tmp_path):
    # the oracle planner once reported this goal `reached`, after 30 collisions
    path = tmp_path / "goal.json"
    path.write_text(json.dumps({"pose": [3.0, 0.0, 0.0]}))
    world = sim.load_world(files["world"])
    assert world.grid2d().values[0, 3]
    code, out, err = run(capsys, "sim", "run", "--world", files["world"], "--goal", path,
                         "--config", files["nav.json"])
    assert_json_error(code, out, err)
    doc = json.loads(err)
    assert doc["error"] == "SimError" and "occupied cell" in doc["message"]


@pytest.mark.parametrize("verb", ["run", "eval", "dataset"])
def test_start_point_in_an_obstacle_exits_1(files, capsys, tmp_path, verb):
    world_dir = tmp_path / "worlds" / "w0"
    shutil.copytree(files["world"], world_dir)
    doc = json.loads((world_dir / "world.json").read_text())
    doc["start_xy"].append([3.0, 0.0])
    (world_dir / "world.json").write_text(json.dumps(doc))
    argv = {
        "run": ("sim", "run", "--world", world_dir, "--goal", files["goal.json"]),
        "eval": ("sim", "eval", "--worlds", tmp_path / "worlds", "--episodes", 2),
        "dataset": ("sim", "dataset", "--worlds", tmp_path / "worlds", "--samples", 2,
                    "--out", tmp_path / "data.jsonl"),
    }[verb]
    code, out, err = run(capsys, *argv)
    assert_json_error(code, out, err)
    doc = json.loads(err)
    assert doc["error"] == "SimError" and "world.json" in doc["message"] and "occupied" in doc["message"]
