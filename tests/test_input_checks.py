"""Every input check of the package, reached through its public entry point
with one bad input each, its message matched."""

import re

import numpy as np
import pytest

from nvgames import lp
from nvgames.coop import (
    CharacteristicFunction,
    balancedness_duality_pair,
    core_membership,
    solve_stability_lp,
)
from nvgames.distributions import (
    DiscreteMarginal,
    Instance,
    JointDistribution,
    coalition_mask,
    instance_from_dict,
    instance_to_dict,
    sample_extremal,
)
from nvgames.errors import InputError
from nvgames.newsvendor import ProperCoalitions, optimal_order, worst_case_shortage
from nvgames.robust_game import Decision, RobustGameSolver, verify_rcore2
from nvgames.stress import ExcessEvaluator, ExperimentConfig, config_from_dict

from oracles import expected_profit


class Unordered(int):
    """An integer that refuses to be compared: the one kind of value whose
    config check raises TypeError rather than InputError."""

    def __lt__(self, other):
        raise TypeError("unorderable integer")


def square() -> Instance:
    """Two singleton blocks, demand {1, 3} equiprobable in each: 4 atoms."""
    m = DiscreteMarginal([[1.0], [3.0]], [0.5, 0.5])
    return Instance(2.0, 1.0, ((0,), (1,)), (m, m))


def uniform() -> JointDistribution:
    """The uniform joint over `square()`'s 4 atoms."""
    return JointDistribution(np.full(4, 0.25))


def game() -> CharacteristicFunction:
    return CharacteristicFunction(2, [0.0, 1.0, 1.0, 3.0])


def document(**changes) -> dict:
    return {**instance_to_dict(square()), **changes}


def config(**changes) -> dict:
    return {"n": 2, "block_sizes": [1, 1], "atoms_per_block": [2, 2], "seed": 0, **changes}


def incidence() -> lp.IncidenceOperator:
    """A 4-row incidence operator over two blocks of two atoms."""
    return lp.IncidenceOperator([np.array([1, 2]), np.array([3, 4])], 4)


MARGINAL = DiscreteMarginal([[1.0]], [1.0])
GATHER = r"an incidence operator gathers only columns, as op\[:, ids\]"

# One raise per case: (id, call, exception, message pattern).
CASES = [
    # coop
    ("player-count", lambda: CharacteristicFunction(0, [0.0]), InputError,
     "player count must be >= 1, got 0"),
    ("stability-mask", lambda: solve_stability_lp(2, {4: 1.0}, 1.0), InputError,
     r"stability values must be an array of shape \(2,\), got dict"),
    ("stability-short", lambda: solve_stability_lp(3, np.zeros(3), 1.0), InputError,
     r"stability values must be an array of shape \(6,\), got \(3,\)"),
    ("stability-grand", lambda: solve_stability_lp(3, np.zeros(7), 1.0), InputError,
     r"stability values must be an array of shape \(6,\), got \(7,\)"),
    ("stability-2d", lambda: solve_stability_lp(3, np.zeros((2, 3)), 1.0), InputError,
     r"stability values must be an array of shape \(6,\), got \(2, 3\)"),
    ("core-allocation", lambda: core_membership(game(), [3.0]), InputError,
     r"allocation has shape \(1,\), expected \(2,\)"),
    ("core-tol-nan", lambda: core_membership(game(), [1.5, 1.5], tol=np.nan), InputError,
     "tol must be finite and nonnegative, got nan"),
    ("core-tol-negative", lambda: core_membership(game(), [1.5, 1.5], tol=-1e-7), InputError,
     "tol must be finite and nonnegative, got -1e-07"),
    ("ratio-table-mask",
     lambda: balancedness_duality_pair({0b101: 5.0, 0b01: 0.2, 0b10: 0.3}, n=2), InputError,
     r"coalition mask 5 has members outside 0\.\.1"),
    ("ratio-table-missing",
     lambda: balancedness_duality_pair({1: 0.2, 2: 0.3, 7: 5.0}, n=3), InputError,
     "ratio table lacks coalition mask 3"),
    # distributions
    ("atoms-ndim", lambda: DiscreteMarginal(np.ones((1, 1, 1)), [1.0]), InputError,
     r"atoms must be a \(K, dim\) matrix"),
    ("probs-length", lambda: DiscreteMarginal([[1.0], [2.0]], [1.0]), InputError,
     r"probs has length 1, expected 2 \(one per atom\)"),
    ("empty-partition", lambda: Instance(2.0, 1.0, (), ()), InputError,
     "partition must contain nonempty blocks"),
    ("marginal-count", lambda: Instance(2.0, 1.0, ((0,),), (MARGINAL, MARGINAL)), InputError,
     "2 marginals for 1 partition blocks"),
    ("negative-coalition", lambda: coalition_mask(-1), InputError,
     "coalition mask must be nonnegative, got -1"),
    ("negative-mask", lambda: coalition_mask(-2), InputError,
     "coalition mask must be nonnegative, got -2"),
    ("mask-members", lambda: coalition_mask(4, 2), InputError,
     r"coalition mask 4 has members outside 0\.\.1"),
    ("fractional-member", lambda: coalition_mask((0.5, 1)), InputError,
     "coalition member must be an integer >= 0, got 0.5"),
    ("string-member", lambda: coalition_mask(("1",)), InputError,
     "coalition member must be an integer >= 0, got '1'"),
    ("truncated-member", lambda: coalition_mask([1, 1.9]), InputError,
     "coalition member must be an integer >= 0, got 1.9"),
    ("negative-member", lambda: coalition_mask((-1,)), InputError,
     "coalition member must be an integer >= 0, got -1"),
    ("float-coalition", lambda: coalition_mask(2.0), InputError,
     "coalition members must be iterable, got 2.0"),
    ("bool-mask", lambda: coalition_mask(True), InputError,
     "coalition mask must be an integer, got True"),
    ("joint-ndim", lambda: JointDistribution(np.full((2, 2), 0.25)), InputError,
     "q must be a vector"),
    ("extremal-cost", lambda: sample_extremal(square(), [0.0, np.nan, 0.0, 0.0]), InputError,
     "cost vector must be finite"),
    ("document-type", lambda: instance_from_dict([]), InputError,
     "instance document must be an object, got list"),
    ("marginals-type", lambda: instance_from_dict(document(marginals={})), InputError,
     "field 'marginals' must be a list"),
    ("marginal-entry", lambda: instance_from_dict(document(marginals=[{"atoms": [[1.0]]}])),
     InputError, r"marginals\[0\] must be an object with 'atoms' and 'probs'"),
    # lp
    ("matrix-ndim", lambda: lp.LinearProgram("min", [1.0], np.ones((1, 1, 1)), [1.0]),
     InputError, "a_eq must be a 2-d matrix, got ndim=3"),
    ("sense", lambda: lp.LinearProgram("maximize", [1.0]), InputError,
     "sense must be 'min' or 'max', got 'maximize'"),
    ("objective-empty", lambda: lp.LinearProgram("min", []), InputError,
     "objective must be a nonempty 1-d vector"),
    ("objective-finite", lambda: lp.LinearProgram("min", [np.inf]), InputError,
     "objective must be finite"),
    ("bounds-shape", lambda: lp.LinearProgram("min", [1.0], lower_bounds=[0.0, 0.0]),
     InputError, r"lower_bounds has shape \(2,\), expected \(1,\)"),
    ("bounds-value", lambda: lp.LinearProgram("min", [1.0], lower_bounds=[np.inf]),
     InputError, "lower_bounds must be finite"),
    ("bounds-free", lambda: lp.LinearProgram("min", [1.0], lower_bounds=[-np.inf]),
     InputError, "lower_bounds must be finite"),
    ("gather-rows", lambda: incidence()[[0, 1]], InputError, GATHER),
    ("gather-row-slice", lambda: incidence()[0:1, [0, 1]], InputError, GATHER),
    ("gather-row-ids", lambda: incidence()[np.arange(2), [0, 1]], InputError, GATHER),
    # newsvendor
    ("joint-atoms", lambda: optimal_order(square(), JointDistribution([0.5, 0.5]), 1),
     InputError, "joint distribution has 2 atoms, instance support has 4"),
    ("profit-order-nan", lambda: expected_profit(square(), uniform(), np.nan, 1), InputError,
     "order quantity must be finite and nonnegative, got nan"),
    ("profit-order-inf", lambda: expected_profit(square(), uniform(), np.inf, 1), InputError,
     "order quantity must be finite and nonnegative, got inf"),
    ("shortage-order", lambda: worst_case_shortage(square(), -1.0, 1), InputError,
     "order quantity must be finite and nonnegative, got -1.0"),
    ("shortage-order-nan", lambda: worst_case_shortage(square(), np.nan, 1), InputError,
     "order quantity must be finite and nonnegative, got nan"),
    ("shortage-order-inf", lambda: worst_case_shortage(square(), np.inf, 1), InputError,
     "order quantity must be finite and nonnegative, got inf"),
    # robust_game
    ("multiples-sum", lambda: Decision(2.0, [0.5, 0.6]), InputError,
     r"multiples sum to 1\.1, expected 1 within 1e-9"),
    ("table-mask", lambda: RobustGameSolver(square()).table(2.0).value(3), KeyError, "3"),
    ("table-bool-mask", lambda: RobustGameSolver(square()).table(2.0).value(True), InputError,
     "coalition mask must be an integer, got True"),
    ("decision-size", lambda: verify_rcore2(square(), Decision(2.0, [1.0])), InputError,
     "decision has 1 multiples, instance has 2 retailers"),
    # stress
    ("atoms-per-block", lambda: ExperimentConfig(2, (1, 1), (2, 2, 2)), InputError,
     r"atoms_per_block \(2, 2, 2\) must give one count per block"),
    ("stack-shape",
     lambda: ExcessEvaluator(ProperCoalitions(square())).excess(
         np.full((1, 3), 1.0 / 3.0), [Decision(4.0, [0.5, 0.5])]),
     InputError, r"joints have shape \(1, 3\), expected rows of 4 atoms"),
    ("excess-long-z",
     lambda: ExcessEvaluator(ProperCoalitions(square())).excess(
         np.full(4, 0.25), [Decision(3.0, [0.5, 0.25, 0.25])]),
     InputError, "decision has 3 multiples, instance has 2 retailers"),
    ("excess-short-z",
     lambda: ExcessEvaluator(ProperCoalitions(square())).excess(
         np.full(4, 0.25), [Decision(3.0, [0.5, 0.5]), Decision(3.0, [1.0])]),
     InputError, "decision has 1 multiples, instance has 2 retailers"),
    ("config-type", lambda: config_from_dict([]), InputError,
     "experiment config must be an object"),
    ("config-invalid", lambda: config_from_dict(config(n=Unordered(2))), InputError,
     "experiment config invalid: unorderable integer"),
    ("config-key", lambda: config_from_dict({**config(), 1: 0}), InputError,
     "experiment config field names must be strings, got 1"),
    ("config-mixed-keys", lambda: config_from_dict({**config(), "extra": 0, 2: 0}), InputError,
     "experiment config field names must be strings, got 2"),
    ("lambda-bool", lambda: config_from_dict(config(lambda_grid=[True])), InputError,
     "lambda_grid must be a finite number, got True"),
    ("lambda-string", lambda: config_from_dict(config(lambda_grid=["0.5"])), InputError,
     "lambda_grid must be a finite number, got '0.5'"),
    ("lambda-empty", lambda: config_from_dict(config(lambda_grid=[])), InputError,
     "lambda_grid must not be empty"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_bad_input_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert re.fullmatch(message, str(info.value.args[0]))
