import json
import math
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from astra_nav import cli, sim


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


def test_missing_files_exit_1(files, capsys):
    missing = files["root"] / "missing"
    assert_json_error(*run(capsys, "esdf", "compute", missing))
    assert_json_error(*run(capsys, "map", "validate", missing))
    assert_json_error(*run(capsys, "sim", "eval", "--worlds", missing))


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
