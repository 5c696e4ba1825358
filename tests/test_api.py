"""Tests for the declarative API: registries, Scenario, FMoreEngine.

Pins the contracts the README documents: registry round-trips, Scenario
JSON round-trips, exact engine-vs-legacy equivalence, bitwise agreement
of the vectorised ``bid_batch`` with the per-bid loop, and one grid build
per advertised game across a multi-seed run.
"""

import numpy as np
import pytest

from repro.api import FMoreEngine, Scenario
from repro.core import (
    CobbDouglasScore,
    EquilibriumSolver,
    LinearCost,
    MultiplicativeScore,
    PowerCost,
    PrivateValueModel,
    ScaledBetaTheta,
    UniformTheta,
)
from repro.core.psi import PsiSelection
from repro.core.registry import (
    COST_MODELS,
    MARGIN_METHODS,
    PAYMENT_RULES,
    SCORING_RULES,
    THETA_DISTRIBUTIONS,
    WINNER_SELECTIONS,
    Registry,
)


class TestRegistry:
    def test_decorator_registration_and_create(self):
        reg = Registry("widget")

        @reg.register("box")
        class Box:
            def __init__(self, size=1):
                self.size = size

        assert "box" in reg
        assert reg.names() == ("box",)
        assert reg.create("box").size == 1
        assert reg.create({"name": "box", "size": 7}).size == 7
        assert reg.create({"name": "box"}, size=9).size == 9

    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.register("a", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", lambda: 2)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="linear"):
            COST_MODELS.get("cubic")
        with pytest.raises(KeyError):
            SCORING_RULES.create({"name": "nope"})

    def test_spec_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            COST_MODELS.create({"betas": [1.0]})

    def test_bad_params_report_component(self):
        with pytest.raises(TypeError, match="linear"):
            COST_MODELS.create({"name": "linear", "bogus": 3})

    @pytest.mark.parametrize(
        "registry, spec, cls, attr, expected",
        [
            (COST_MODELS, {"name": "linear", "betas": [4.0, 2.0]}, LinearCost, "betas", [4.0, 2.0]),
            (COST_MODELS, {"name": "power", "betas": [1.0], "gammas": 3.0}, PowerCost, "gammas", [3.0]),
            (SCORING_RULES, {"name": "multiplicative", "n_dimensions": 2, "scale": 25.0}, MultiplicativeScore, "scale", 25.0),
            (SCORING_RULES, {"name": "cobb_douglas", "weights": [0.6, 0.4]}, CobbDouglasScore, "weights", [0.6, 0.4]),
            (THETA_DISTRIBUTIONS, {"name": "uniform", "lo": 0.1, "hi": 1.0}, UniformTheta, "hi", 1.0),
            (THETA_DISTRIBUTIONS, {"name": "scaled_beta", "lo": 0.1, "hi": 1.0, "a": 2.0, "b": 5.0}, ScaledBetaTheta, "b", 5.0),
            (WINNER_SELECTIONS, {"name": "psi", "psi": 0.7}, PsiSelection, "psi", 0.7),
        ],
    )
    def test_round_trip_name_create_same_params(self, registry, spec, cls, attr, expected):
        obj = registry.create(spec)
        assert isinstance(obj, cls)
        value = getattr(obj, attr)
        if isinstance(value, np.ndarray):
            assert value.tolist() == expected
        else:
            assert value == pytest.approx(expected)

    def test_expected_families_registered(self):
        assert set(SCORING_RULES.names()) >= {
            "additive", "perfect_complementary", "cobb_douglas", "multiplicative",
        }
        assert set(COST_MODELS.names()) >= {"linear", "quadratic", "power"}
        assert set(THETA_DISTRIBUTIONS.names()) >= {
            "uniform", "truncated_normal", "scaled_beta",
        }
        assert set(WINNER_SELECTIONS.names()) >= {"top_k", "psi", "per_node_psi"}
        assert set(PAYMENT_RULES.names()) == {"first_score", "second_score"}
        assert set(MARGIN_METHODS.names()) == {"quadrature", "euler", "rk4"}


class TestScenario:
    def test_json_round_trip(self):
        scenario = Scenario.from_preset("smoke", "mnist_o", seeds=(0, 1))
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario

    def test_dict_round_trip_preserves_tuples(self):
        scenario = Scenario.from_preset("bench", "cifar10")
        again = Scenario.from_dict(scenario.to_dict())
        assert again.size_range == scenario.size_range
        assert isinstance(again.seeds, tuple)
        assert again == scenario

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="warp_speed"):
            Scenario.from_dict({"warp_speed": 9})

    @pytest.mark.parametrize(
        "lr", [float("nan"), float("inf"), 0.0, -0.1, "nan", None, True]
    )
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be a finite number"):
            Scenario(lr=lr)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset 'nope'"):
            Scenario(dataset="nope")
        with pytest.raises(ValueError, match="unknown dataset 'nope'"):
            Scenario.from_preset("smoke", "nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(n_clients=10, k_winners=11)
        with pytest.raises(ValueError):
            Scenario(schemes=("Oracle",))
        with pytest.raises(ValueError):
            Scenario(seeds=())
        with pytest.raises(ValueError):
            Scenario(scoring={"name": "nope"})
        with pytest.raises(ValueError):
            Scenario(payment_rule="third_score")
        with pytest.raises(ValueError):
            Scenario(psi=1.5)

    def test_with_overrides_parses_cli_values(self):
        scenario = Scenario().with_overrides(
            ["n_rounds=5", "seeds=0,1,2", "schemes=FMore,RandFL", "psi=null", "lr=0.05"]
        )
        assert scenario.n_rounds == 5
        assert scenario.seeds == (0, 1, 2)
        assert scenario.schemes == ("FMore", "RandFL")
        assert scenario.psi is None
        assert scenario.lr == 0.05

    def test_with_overrides_accepts_scalar_seeds_and_schemes(self):
        """`--set seeds=0` / `--set schemes=FMore` parse to scalars; the
        scenario must lift them to one-element tuples, not iterate them."""
        scenario = Scenario().with_overrides(["seeds=0", "schemes=FMore"])
        assert scenario.seeds == (0,)
        assert scenario.schemes == ("FMore",)

    def test_with_overrides_rejects_unknown_key(self):
        # The message must list the valid override paths (satellite of the
        # policy-pipeline redesign: no opaque constructor errors).
        with pytest.raises(ValueError, match="unknown scenario override"):
            Scenario().with_overrides(["rounds=5"])
        with pytest.raises(ValueError, match="valid paths"):
            Scenario().with_overrides(["rounds=5"])

    def test_with_overrides_dotted_spec_paths(self):
        scenario = Scenario().with_overrides(
            ["scoring.scale=30", "execution.max_workers=3"]
        )
        assert scenario.scoring["scale"] == 30
        assert scenario.execution["max_workers"] == 3
        # Untouched sibling keys survive the nested merge.
        assert scenario.scoring["name"] == "multiplicative"

    def test_with_overrides_dotted_policy_paths(self):
        scenario = Scenario().with_overrides(
            ['policies.selection={"name": "psi", "psi": 0.7}']
        ).with_overrides(["policies.selection.psi=0.4"])
        assert scenario.policies["selection"] == {"name": "psi", "psi": 0.4}

    def test_with_overrides_dotted_rejects_non_spec_fields(self):
        with pytest.raises(ValueError, match="does not support dotted"):
            Scenario().with_overrides(["seeds.0=1"])
        with pytest.raises(ValueError, match="unknown scenario override"):
            Scenario().with_overrides(["bogus.name=linear"])


@pytest.fixture(scope="module")
def smoke_scenario():
    return Scenario.from_preset(
        "smoke", "mnist_o", schemes=("FMore", "RandFL", "FixFL"), seeds=(0,)
    )


class TestEngine:
    def test_scenario_json_round_trip_same_histories(self, smoke_scenario):
        """A serialized scenario runs to the same result (CLI contract)."""
        scenario = smoke_scenario.with_(schemes=("FMore",), n_rounds=2)
        a = FMoreEngine().run(scenario)
        b = FMoreEngine().run(Scenario.from_json(scenario.to_json()))
        assert a.history("FMore").accuracies == b.history("FMore").accuracies
        assert a.history("FMore").total_payment == b.history("FMore").total_payment

    def test_solver_cached_across_seeds_and_schemes(self, smoke_scenario):
        """Acceptance: a 3-seed run builds the equilibrium grid once."""
        engine = FMoreEngine()
        scenario = smoke_scenario.with_(
            schemes=("FMore", "PsiFMore"), seeds=(0, 1, 2), n_rounds=1
        )
        engine.run(scenario)
        assert engine.cache_misses == 1
        assert engine.cache_hits == 2  # one build, reused by seeds 1 and 2

    def test_different_game_different_cache_entry(self, smoke_scenario):
        engine = FMoreEngine()
        engine.solver_for(smoke_scenario)
        engine.solver_for(smoke_scenario)  # hit
        engine.solver_for(smoke_scenario.with_(grid_size=33))  # new game
        assert engine.cache_misses == 2
        assert engine.cache_hits == 1

    def test_registry_spec_reaches_the_game(self, smoke_scenario):
        """Swapping the theta spec changes the solver's distribution."""
        scenario = smoke_scenario.with_(
            theta={"name": "scaled_beta", "lo": 0.1, "hi": 1.0, "a": 2.0, "b": 5.0}
        )
        solver = FMoreEngine().solver_for(scenario)
        assert isinstance(solver.model.distribution, ScaledBetaTheta)


@pytest.fixture(scope="module")
def sim_solver():
    return EquilibriumSolver(
        MultiplicativeScore(2, 25.0),
        LinearCost([4.0, 2.0]),
        PrivateValueModel(UniformTheta(0.1, 1.0), 30, 6),
        [[0.01, 5.0], [0.05, 1.0]],
        grid_size=65,
    )


class TestBidBatch:
    def test_agrees_with_per_bid_loop_capped(self, sim_solver):
        rng = np.random.default_rng(0)
        thetas = np.asarray(sim_solver.model.distribution.sample(rng, 64))
        caps = np.column_stack(
            [rng.uniform(0.3, 5.0, 64), rng.uniform(0.1, 1.0, 64)]
        )
        qualities, payments = sim_solver.bid_batch(thetas, caps)
        for i, (theta, cap) in enumerate(zip(thetas, caps)):
            q, p = sim_solver.bid_with_capacity(float(theta), cap)
            np.testing.assert_array_equal(qualities[i], q)
            assert payments[i] == p

    def test_agrees_with_per_bid_loop_uncapped(self, sim_solver):
        rng = np.random.default_rng(1)
        thetas = np.asarray(sim_solver.model.distribution.sample(rng, 64))
        qualities, payments = sim_solver.bid_batch(thetas)
        for i, theta in enumerate(thetas):
            q, p = sim_solver.bid(float(theta))
            np.testing.assert_array_equal(qualities[i], q)
            assert payments[i] == p

    def test_empty_population(self, sim_solver):
        qualities, payments = sim_solver.bid_batch(np.empty(0))
        assert qualities.shape == (0, 2)
        assert payments.shape == (0,)

    def test_shape_validation(self, sim_solver):
        with pytest.raises(ValueError, match="1-D"):
            sim_solver.bid_batch(np.ones((2, 2)))
        with pytest.raises(ValueError, match="\\(n, m\\)"):
            sim_solver.bid_batch(np.asarray([0.5]), np.ones((2, 2)))
        with pytest.raises(ValueError, match="support"):
            sim_solver.bid_batch(np.asarray([5.0]))

    def test_mechanism_batch_path_matches_sequential_make_bid(self, sim_solver):
        """run_round's batched collection == per-agent make_bid, exactly."""
        from repro.core.auction import MultiDimensionalProcurementAuction
        from repro.core.mechanism import FMoreMechanism
        from repro.mec.node import EdgeNode
        from repro.mec.resources import ResourceProfile, UniformAvailabilityDynamics

        def agents():
            return [
                EdgeNode(
                    node_id=i,
                    theta=0.1 + 0.8 * i / 19,
                    solver=sim_solver,
                    profile=ResourceProfile(
                        data_size=500 + 200 * i, category_proportion=0.2 + 0.04 * i
                    ),
                    dynamics=UniformAvailabilityDynamics(0.4),
                    theta_jitter=0.2,
                )
                for i in range(20)
            ]

        auction = MultiDimensionalProcurementAuction(sim_solver.quality_rule, 6)
        record = FMoreMechanism(auction).run_round(
            agents(), 3, np.random.default_rng(42)
        )
        rng = np.random.default_rng(42)
        expected = {}
        for agent in agents():
            bid = agent.make_bid(3, rng)
            if bid is not None:
                expected[agent.node_id] = (bid.quality, bid.payment)
        got = {
            sb.node_id: (sb.bid.quality, sb.bid.payment)
            for sb in record.outcome.scored_bids
        }
        assert set(got) == set(expected)
        for node_id, (quality, payment) in expected.items():
            np.testing.assert_array_equal(got[node_id][0], quality)
            assert got[node_id][1] == payment

    def test_overridden_make_bid_not_bypassed_by_batch_path(self, sim_solver):
        """A subclass customising make_bid alone must keep its override."""
        from repro.core.auction import MultiDimensionalProcurementAuction
        from repro.core.bids import Bid
        from repro.core.mechanism import FMoreMechanism
        from repro.mec.node import EdgeNode
        from repro.mec.resources import ResourceProfile

        class ShadedNode(EdgeNode):
            def make_bid(self, round_index, rng):
                bid = super().make_bid(round_index, rng)
                if bid is None:
                    return None
                return Bid(bid.node_id, bid.quality, bid.payment + 100.0)

        agents = [
            ShadedNode(
                node_id=i,
                theta=0.2 + 0.1 * i,
                solver=sim_solver,
                profile=ResourceProfile(data_size=1000, category_proportion=0.5),
            )
            for i in range(4)
        ]
        auction = MultiDimensionalProcurementAuction(sim_solver.quality_rule, 2)
        record = FMoreMechanism(auction).run_round(
            agents, 1, np.random.default_rng(0)
        )
        # Every collected bid must carry the override's +100 shading.
        assert record.accounting.n_bids == 4
        for sb in record.outcome.scored_bids:
            assert sb.bid.payment > 100.0


class TestCLI:
    def test_run_with_scenario_file(self, tmp_path, capsys):
        from repro.__main__ import main

        scenario = Scenario.from_preset(
            "smoke", "mnist_o", schemes=("RandFL", "FMore"), seeds=(0,)
        ).with_(n_rounds=1)
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        assert main(["run", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "RandFL" in out and "FMore" in out
        assert "solver cache: 1 build(s)" in out

    def test_scenario_command_round_trips(self, capsys):
        from repro.__main__ import main

        assert main(["scenario", "--preset", "smoke", "--set", "seeds=0,1"]) == 0
        out = capsys.readouterr().out
        scenario = Scenario.from_json(out)
        assert scenario.seeds == (0, 1)
        assert scenario.name == "smoke-mnist_o"

    def test_compare_accepts_schemes_flag(self, capsys):
        from repro.__main__ import main

        assert main(
            ["compare", "mnist_o", "--schemes", "RandFL,FixFL", "--rounds", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "RandFL" in out and "FixFL" in out
        assert "FMore" not in out

    def test_compare_rejects_unknown_scheme(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["compare", "mnist_o", "--schemes", "Oracle"])

    def test_psifmore_reachable_from_cli(self, capsys):
        """The satellite fix: PsiFMore can be compared from the CLI."""
        from repro.__main__ import main

        assert main(
            [
                "run",
                "--preset",
                "smoke",
                "--schemes",
                "PsiFMore",
                "--set",
                "n_rounds=1",
                "--set",
                "psi=0.8",
            ]
        ) == 0
        assert "PsiFMore" in capsys.readouterr().out
