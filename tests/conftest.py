import concurrent.futures
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Same examples on every run, no per-example timing: tier-1 stays
    # reproducible on slow or loaded machines.
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")

from nvgames import distributions, lp
from nvgames.distributions import DiscreteMarginal, Instance
from nvgames.stress import ExperimentConfig, gen_instance


def lp_path_only():
    """A context in which no polytope has a vertex table, so that every
    worst-case ratio is solved by Dinkelbach LPs and every extremal sample
    by an LP, as above the vertex cap."""
    return mock.patch.object(distributions, "_VERTEX_CAP", 0)


@pytest.fixture
def lp_path():
    with lp_path_only():
        yield


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """Stands in for the process pool of `run_stress`, which imports it from
    `concurrent.futures` when it runs in parallel: records each pool's
    `max_workers` in the returned list and maps the jobs serially, so no
    test starts worker processes."""
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return sizes


@pytest.fixture
def simplex_phases(monkeypatch) -> list:
    """Records the phase (1 or 2) of every simplex run, in order: a solve
    that starts from a usable basis adds only 2s, a cold one a 1 first."""
    phases = []
    run = lp._Simplex._run

    def recording_run(self, c_work):
        phases.append(self._phase)
        return run(self, c_work)

    monkeypatch.setattr(lp._Simplex, "_run", recording_run)
    return phases


@pytest.fixture
def refactors(monkeypatch) -> list:
    """Records the size of every basis that `_Simplex.refactor` factorizes,
    in order, so its length counts the factorizations: a solve's start
    basis (one that turns out singular included) or, for a cold start, its
    all-artificial phase-1 start, and its periodic and final
    refactorizations."""
    sizes = []
    refactor = lp._Simplex.refactor

    def recording_refactor(self):
        sizes.append(self.m)
        return refactor(self)

    monkeypatch.setattr(lp._Simplex, "refactor", recording_refactor)
    return sizes


@pytest.fixture
def t1() -> Instance:
    """Two retailers in two blocks: demand {1,3} equiprobable and a point
    mass at 2, price 2, cost 1. The consistency polytope is a singleton."""
    return Instance(
        price=2.0,
        cost=1.0,
        partition=((0,), (1,)),
        marginals=(
            DiscreteMarginal(np.array([[1.0], [3.0]]), np.array([0.5, 0.5])),
            DiscreteMarginal(np.array([[2.0]]), np.array([1.0])),
        ),
    )


@pytest.fixture
def t2() -> Instance:
    """Two singleton blocks, both with demand {1,3} equiprobable; the
    polytope is the 2x2 transportation square with two vertices."""
    m = DiscreteMarginal(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))
    return Instance(price=2.0, cost=1.0, partition=((0,), (1,)), marginals=(m, m))


def make_example1(k: int, d_total: float = 1.0, price: float = 1.5, cost: float = 1.0) -> Instance:
    """Three retailers: block one holds (d1, D - d1) with d1 uniform on
    {D/K, ..., D}; block two holds d3 uniform on the same grid."""
    grid = np.arange(1, k + 1) * (d_total / k)
    m1 = DiscreteMarginal(np.column_stack([grid, d_total - grid]), np.full(k, 1.0 / k))
    m2 = DiscreteMarginal(grid[:, None], np.full(k, 1.0 / k))
    return Instance(price, cost, ((0, 1), (2,)), (m1, m2))


@pytest.fixture
def example1_small() -> Instance:
    return make_example1(24)


def random_instance(
    seed: int,
    n: int = 4,
    block_sizes=(2, 2),
    atoms_per_block=(2, 2),
    support=(1, 10),
    price: float = 1.5,
    cost: float = 1.0,
) -> Instance:
    cfg = ExperimentConfig(
        n=n,
        block_sizes=tuple(block_sizes),
        atoms_per_block=tuple(atoms_per_block),
        support_lo=support[0],
        support_hi=support[1],
        price=price,
        cost=cost,
        num_instances=1,
        seed=seed,
    )
    return gen_instance(cfg, seed)
