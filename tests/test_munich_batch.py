"""Tests for the batched MUNICH convolution (repro.munich.batch).

Property: for every randomized configuration — lengths, sample counts,
bin counts, thresholds from degenerate to saturating — the stacked batch
evaluator equals :func:`repro.munich.exact.convolved_probability` per
candidate to far better than the 1e-9 batch-kernel tolerance, and the
technique/profile/matrix/shard layers above it inherit that parity.

The concentration brackets of :func:`probability_brackets_batch` must
contain that evaluator's value for every cell, and decision plans that
settle cells from them must reproduce value mode's verdicts exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InvalidParameterError, MultisampleUncertainTimeSeries, spawn
from repro.datasets import generate_dataset
from repro.evaluation.tau import DEFAULT_TAU_GRID
from repro.munich import (
    Munich,
    convolved_probability,
    convolved_probability_batch,
    stack_candidate_samples,
)
from repro.munich.batch import probability_brackets_batch
from repro.perturbation import ConstantScenario
from repro.queries import (
    ConcentrationStage,
    MunichTechnique,
    SessionConfig,
    ShardedExecutor,
    SimilaritySession,
)

PARITY_TOL = 1e-9


def _random_workload(rng, n_candidates=None):
    length = int(rng.integers(1, 28))
    s_query = int(rng.integers(1, 6))
    s_candidate = int(rng.integers(1, 6))
    count = (
        int(rng.integers(1, 10)) if n_candidates is None else n_candidates
    )
    query = MultisampleUncertainTimeSeries(
        rng.normal(size=(length, s_query))
    )
    candidates = [
        MultisampleUncertainTimeSeries(
            rng.normal(size=(length, s_candidate)) + 0.5 * rng.normal()
        )
        for _ in range(count)
    ]
    return query, candidates


class TestBatchedConvolution:
    def test_randomized_parity(self):
        """Property: batch ≡ per-pair over random shapes, bins, and ε."""
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(30):
            query, candidates = _random_workload(rng)
            stacked = stack_candidate_samples(candidates)
            n_bins = int(rng.choice([2, 5, 64, 512, 4096]))
            scale = np.sqrt(len(query)) * (0.2 + 2.0 * rng.random())
            for epsilon in (0.0, 0.3 * scale, scale, 4.0 * scale):
                reference = np.array([
                    convolved_probability(
                        query, candidate, epsilon, n_bins=n_bins
                    )
                    for candidate in candidates
                ])
                batch = convolved_probability_batch(
                    query, stacked, epsilon, n_bins=n_bins
                )
                worst = max(worst, float(np.max(np.abs(batch - reference))))
        assert worst <= 1e-12

    def test_zero_epsilon_counts_exact_zeros(self):
        samples = np.ones((6, 3))
        query = MultisampleUncertainTimeSeries(samples)
        same = MultisampleUncertainTimeSeries(np.ones((6, 2)))
        other = MultisampleUncertainTimeSeries(np.ones((6, 2)) + 1.0)
        stacked = stack_candidate_samples([same, other])
        probabilities = convolved_probability_batch(query, stacked, 0.0)
        assert probabilities[0] == 1.0
        assert probabilities[1] == 0.0

    def test_saturating_epsilon_is_one(self):
        rng = np.random.default_rng(5)
        query, candidates = _random_workload(rng, n_candidates=4)
        stacked = stack_candidate_samples(candidates)
        probabilities = convolved_probability_batch(query, stacked, 1e9)
        assert np.all(probabilities == 1.0)

    def test_blocked_rows_match_single_block(self, monkeypatch):
        """Row blocking (memory bound) must not change any probability."""
        import repro.munich.batch as batch_module

        rng = np.random.default_rng(6)
        query, candidates = _random_workload(rng, n_candidates=9)
        stacked = stack_candidate_samples(candidates)
        epsilon = float(np.sqrt(len(query)))
        whole = convolved_probability_batch(query, stacked, epsilon, 128)
        monkeypatch.setattr(batch_module, "BATCH_BLOCK_ELEMENTS", 1)
        blocked = convolved_probability_batch(query, stacked, epsilon, 128)
        # Blocking regroups the span-sorted timestamp schedule, so the
        # float ordering (not the math) may differ across block sizes.
        np.testing.assert_allclose(whole, blocked, atol=1e-12)

    def test_chunked_dp_matches_per_pair(self, monkeypatch):
        """Tiny DP chunks (forced splits) keep per-pair parity."""
        import repro.munich.batch as batch_module

        monkeypatch.setattr(batch_module, "DP_CHUNK_ELEMENTS", 8)
        rng = np.random.default_rng(7)
        query, candidates = _random_workload(rng, n_candidates=8)
        stacked = stack_candidate_samples(candidates)
        epsilon = float(np.sqrt(len(query)))
        reference = np.array([
            convolved_probability(query, candidate, epsilon, n_bins=64)
            for candidate in candidates
        ])
        batch = convolved_probability_batch(query, stacked, epsilon, 64)
        np.testing.assert_allclose(batch, reference, atol=1e-12)

    def test_validation(self):
        query = MultisampleUncertainTimeSeries(np.zeros((4, 2)))
        stacked = np.zeros((1, 4, 2))
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, stacked, -1.0)
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, stacked, 1.0, n_bins=1)
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, np.zeros((4, 2)), 1.0)
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, np.zeros((1, 5, 2)), 1.0)

    def test_ragged_stacking_rejected(self):
        ragged = [
            MultisampleUncertainTimeSeries(np.zeros((4, 2))),
            MultisampleUncertainTimeSeries(np.zeros((4, 3))),
        ]
        with pytest.raises(InvalidParameterError):
            stack_candidate_samples(ragged)


# ---------------------------------------------------------------------------
# Technique-level parity (profile / matrix / shards / ragged fallback)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def multisample():
    exact = generate_dataset("GunPoint", seed=55, n_series=16, length=20)
    scenario = ConstantScenario("normal", 0.5)
    return [
        scenario.apply_multisample(series, 3, spawn(55, "ms", index))
        for index, series in enumerate(exact)
    ]


class TestMunichTechniqueBatch:
    @pytest.mark.parametrize("use_bounds", [True, False])
    def test_profile_matches_per_pair(self, multisample, use_bounds):
        munich = Munich(tau=0.5, n_bins=256, use_bounds=use_bounds)
        technique = MunichTechnique(munich)
        for epsilon in (0.5, 2.5, 6.0):
            profile = technique.probability_profile(
                multisample[0], multisample, epsilon
            )
            reference = np.array([
                munich.probability(multisample[0], candidate, epsilon)
                for candidate in multisample
            ])
            assert np.max(np.abs(profile - reference)) <= PARITY_TOL

    def test_matrix_matches_per_pair(self, multisample):
        munich = Munich(tau=0.5, n_bins=256)
        technique = MunichTechnique(munich)
        epsilons = np.linspace(1.0, 5.0, 6)
        matrix = technique.probability_matrix(
            multisample[:6], multisample, epsilons
        )
        reference = np.array([
            [
                munich.probability(query, candidate, float(epsilon))
                for candidate in multisample
            ]
            for query, epsilon in zip(multisample[:6], epsilons)
        ])
        assert np.max(np.abs(matrix - reference)) <= PARITY_TOL

    def test_montecarlo_method_keeps_per_pair_path(self, multisample):
        munich = Munich(tau=0.5, method="montecarlo", n_samples=50, rng=3)
        technique = MunichTechnique(munich)
        profile = technique.probability_profile(
            multisample[0], multisample, 2.5
        )
        reference = np.array([
            munich.probability(multisample[0], candidate, 2.5)
            for candidate in multisample
        ])
        np.testing.assert_allclose(profile, reference, atol=PARITY_TOL)

    def test_ragged_sample_counts_fall_back(self, multisample):
        """Mixed samples-per-timestamp collections use the per-pair path."""
        rng = np.random.default_rng(8)
        ragged = list(multisample[:5])
        ragged.append(
            MultisampleUncertainTimeSeries(
                rng.normal(size=(len(multisample[0]), 5))
            )
        )
        munich = Munich(tau=0.5, n_bins=128)
        technique = MunichTechnique(munich)
        profile = technique.probability_profile(multisample[0], ragged, 2.5)
        reference = np.array([
            munich.probability(multisample[0], candidate, 2.5)
            for candidate in ragged
        ])
        assert np.max(np.abs(profile - reference)) <= PARITY_TOL

    def test_sharded_matrix_parity(self, multisample):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=256))
        epsilons = np.full(len(multisample), 2.5)
        full = technique.probability_matrix(
            multisample, multisample, epsilons
        )
        with ShardedExecutor(n_workers=1, row_block=5, col_block=7) as serial:
            sharded = serial.matrix(
                technique, "probability", multisample, multisample, epsilons
            )
        assert np.max(np.abs(sharded - full)) <= PARITY_TOL

    def test_process_pool_parity(self, multisample):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=128))
        epsilons = np.full(6, 2.5)
        full = technique.probability_matrix(
            multisample[:6], multisample, epsilons
        )
        with ShardedExecutor(n_workers=2, backend="process") as pool:
            sharded = pool.matrix(
                technique,
                "probability",
                multisample[:6],
                multisample,
                epsilons,
            )
        assert np.max(np.abs(sharded - full)) <= PARITY_TOL


# ---------------------------------------------------------------------------
# Concentration brackets: admissible, and never flip a verdict
# ---------------------------------------------------------------------------


def _brackets(query, stacked, epsilon, n_bins=512):
    """Brackets of one query against a candidate stack (cell-paired)."""
    count = stacked.shape[0]
    return probability_brackets_batch(
        np.broadcast_to(query.samples, (count,) + query.samples.shape),
        stacked,
        np.full(count, epsilon),
        n_bins,
    )


def _assert_brackets_contain(query, stacked, epsilon, n_bins):
    exact = convolved_probability_batch(query, stacked, epsilon, n_bins)
    lower, upper = _brackets(query, stacked, epsilon, n_bins)
    assert np.all(lower <= exact), (lower - exact).max()
    assert np.all(exact <= upper), (exact - upper).max()
    # The DP's rounded sums may pass 1 by a few ulps; so may ``upper``.
    assert np.all((0.0 <= lower) & (upper <= 1.0 + 1e-8))
    return lower, upper, exact


class TestConcentrationBrackets:
    def test_brackets_contain_dp_value(self):
        """Property: lower <= P_dp <= upper over random σ, sample
        counts, bins, and thresholds from overflow-heavy to saturating —
        including cells whose rounded DP value lands above 1."""
        rng = np.random.default_rng(99)
        decided = 0
        above_one = 0
        for _ in range(30):
            length = int(rng.integers(1, 80))
            s_query = int(rng.integers(1, 6))
            s_candidate = int(rng.integers(1, 6))
            sigma = float(rng.uniform(0.01, 2.0))
            base = rng.normal(size=length).cumsum()
            query = MultisampleUncertainTimeSeries(
                base[:, None] + sigma * rng.normal(size=(length, s_query))
            )
            stacked = (
                base[None, :, None]
                + rng.uniform(0, 1) * rng.normal(size=(16, length, 1))
                + sigma * rng.normal(size=(16, length, s_candidate))
            )
            n_bins = int(rng.choice([2, 16, 512, 4096]))
            scale = np.sqrt(length) * sigma
            for factor in (0.05, 0.3, 1.0, 2.0, 5.0):
                lower, upper, exact = _assert_brackets_contain(
                    query, stacked, factor * scale, n_bins
                )
                decided += int(np.count_nonzero((lower >= 0.5) | (upper < 0.5)))
                above_one += int(np.count_nonzero(exact > 1.0))
        assert decided > 0
        assert above_one > 0

    @pytest.mark.parametrize("n_bins", [512, 4096])
    def test_values_exactly_at_threshold_and_overflow(self, n_bins):
        """Atoms exactly at ε² stay in range, larger ones overflow."""
        query = MultisampleUncertainTimeSeries(np.zeros((6, 2)))
        rng = np.random.default_rng(3)
        # Differences of 0, 1, 2 (= ε, so exactly ε²) and 3 (overflow).
        stacked = rng.choice([0.0, 1.0, 2.0, 3.0], size=(40, 6, 3))
        lower, upper, exact = _assert_brackets_contain(
            query, stacked, 2.0, n_bins
        )
        assert np.any((exact > 0.0) & (exact < 1.0))

    def test_exact_rows_get_exact_values(self):
        query = MultisampleUncertainTimeSeries(np.zeros((5, 2)))
        far = np.full((1, 5, 2), 10.0)  # every atom overflows
        near = np.zeros((1, 5, 2))  # nothing can overflow
        lower, upper = _brackets(query, np.concatenate([far, near]), 1.0)
        np.testing.assert_array_equal(lower, [0.0, 1.0])
        assert upper[0] == 0.0 and upper[1] >= 1.0

    def test_zero_epsilon_brackets_nothing(self, multisample):
        stacked = stack_candidate_samples(multisample)
        lower, upper = _brackets(multisample[0], stacked, 0.0)
        np.testing.assert_array_equal(lower, 0.0)
        np.testing.assert_array_equal(upper, 1.0)


def _value_mode_sets(query_set, epsilons, tau):
    values = query_set.profile_matrix(epsilon=epsilons)
    return [list(row) for row in values.result_sets(tau)]


@pytest.fixture(
    params=["single", "sharded"], ids=["in-process", "sharded-session"]
)
def munich_session(request, multisample):
    config = (
        SessionConfig()
        if request.param == "single"
        else SessionConfig(
            n_workers=2, backend="serial", row_block=5, col_block=7
        )
    )
    with SimilaritySession(multisample, config=config) as session:
        yield session


class TestConcentrationVerdicts:
    EPSILONS = np.linspace(1.5, 5.0, 16)

    @pytest.mark.parametrize("tau", [0.0, 1e-12, 0.5, 1.0])
    def test_prob_range_equals_value_mode(self, munich_session, tau):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=512))
        query_set = munich_session.queries().using(technique)
        result = query_set.prob_range(self.EPSILONS, tau)
        assert [list(row) for row in result.matches] == _value_mode_sets(
            query_set, self.EPSILONS, tau
        )

    def test_tau_grid_equals_value_mode(self, munich_session):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=512))
        query_set = munich_session.queries().using(technique)
        grid = query_set.profile_matrix(
            epsilon=self.EPSILONS, tau=DEFAULT_TAU_GRID
        )
        for tau in DEFAULT_TAU_GRID:
            assert [list(row) for row in grid.result_sets(tau)] == (
                _value_mode_sets(query_set, self.EPSILONS, tau)
            ), tau
        assert grid.pruning_stats.decided_by("concentration") > 0

    def test_value_mode_plans_no_concentration(self):
        technique = MunichTechnique(Munich(tau=0.5))
        plan = technique.build_plan("probability", tau=None)
        assert not any(
            isinstance(stage, ConcentrationStage) for stage in plan.stages
        )
        plan = technique.build_plan("probability", tau=0.5)
        assert any(
            isinstance(stage, ConcentrationStage) for stage in plan.stages
        )

    @pytest.mark.parametrize(
        "munich",
        [
            Munich(tau=0.5, method="naive", use_bounds=True),
            Munich(tau=0.5, method="montecarlo", n_samples=32, rng=4),
            Munich(tau=0.5, use_bounds=False),
        ],
        ids=["naive", "montecarlo", "no-bounds"],
    )
    def test_other_methods_plan_no_concentration(self, munich):
        plan = MunichTechnique(munich).build_plan("probability", tau=0.5)
        assert not any(
            isinstance(stage, ConcentrationStage) for stage in plan.stages
        )

    def test_montecarlo_and_naive_bracket_nothing(self, multisample):
        undecided = np.ones((2, len(multisample)), dtype=bool)
        for munich in (
            Munich(tau=0.5, method="naive"),
            Munich(tau=0.5, method="montecarlo", n_samples=8, rng=1),
        ):
            brackets = MunichTechnique(munich).probability_brackets(
                multisample[:2], multisample, np.full(2, 2.5), undecided
            )
            assert brackets is None

    def test_zero_epsilon_is_a_sound_noop(self, multisample):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=256))
        values, stats = technique.matrix_with_stats(
            "probability", multisample[:4], multisample, epsilon=0.0,
            tau=0.5,
        )
        reference = technique.probability_matrix(
            multisample[:4], multisample, 0.0
        )
        assert stats.decided_by("concentration") == 0
        np.testing.assert_array_equal(values >= 0.5, reference >= 0.5)

    def test_ragged_samples_are_a_sound_noop(self, multisample):
        rng = np.random.default_rng(8)
        ragged = list(multisample[:6]) + [
            MultisampleUncertainTimeSeries(
                rng.normal(size=(len(multisample[0]), 5))
            )
        ]
        technique = MunichTechnique(Munich(tau=0.5, n_bins=128))
        values, stats = technique.matrix_with_stats(
            "probability", ragged[:3], ragged, epsilon=2.5, tau=0.5
        )
        reference = technique.probability_matrix(ragged[:3], ragged, 2.5)
        assert stats.decided_by("concentration") == 0
        np.testing.assert_array_equal(values >= 0.5, reference >= 0.5)
