import json

import numpy as np
import pytest

from astra_nav import sim


@pytest.fixture(scope="module")
def world():
    return sim.generate_world(0, 24)


@pytest.fixture(scope="module")
def saved_world(world, tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    sim.save_world(world, out)
    return sim.load_world(out)


def test_world_round_trip(world, saved_world):
    # the loaded grid is the compressed 2-D occupancy of the generated volume
    assert world.grid.values.ndim == 3
    np.testing.assert_array_equal(saved_world.grid.values, world.grid2d().values)
    assert saved_world.grid.resolution == world.grid.resolution
    assert saved_world.grid.origin == world.grid.origin
    assert saved_world.map == world.map
    assert saved_world.start_xy == [tuple(p) for p in world.start_xy]
    assert saved_world.seed == world.seed
    np.testing.assert_array_equal(saved_world.phi().values, world.phi().values)


def test_dataset_round_trip(saved_world, tmp_path):
    data = sim.build_planning_dataset([saved_world], 4, n_actions=8, seed=1)
    assert len(data) == 4
    path = tmp_path / "data.jsonl"
    sim.save_dataset(data, path)
    loaded = sim.load_dataset(path)
    assert len(loaded) == len(data)
    for a, b in zip(data, loaded):
        np.testing.assert_array_equal(b.actions, a.actions)
        np.testing.assert_array_equal(b.condition.vector(), a.condition.vector())
        assert b.gt_poses == a.gt_poses
        assert b.grid_ref == a.grid_ref
        assert b.start == a.start
        np.testing.assert_array_equal(b.phi.values, a.phi.values)


def test_save_dataset_needs_grid_ref(world, tmp_path):
    # a generated world has no file behind it, so its samples carry no grid_ref
    data = sim.build_planning_dataset([world], 1, n_actions=8, seed=1)
    assert data[0].grid_ref is None
    with pytest.raises(sim.SimError):
        sim.save_dataset(data, tmp_path / "data.jsonl")


def test_eval_suite_is_deterministic(world):
    config = sim.NavConfig(planner="oracle")
    runs = [json.dumps(sim.eval_suite([world], 4, config, master_seed=3)) for _ in range(2)]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["episodes"] == 4
