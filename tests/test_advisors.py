"""Tests for the trial advisors: random, grid, GP/Bayesian."""

import hashlib

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.stats import norm

from repro.core.tune import (
    BayesianAdvisor,
    GridSearchAdvisor,
    HyperSpace,
    RandomSearchAdvisor,
    Trial,
    TrialResult,
    demo_space,
    section71_space,
)
from repro.core.tune.advisors.gp import GaussianProcess, _rbf, expected_improvement
from repro.exceptions import ConfigurationError


def broadcast_rbf(a, b, length_scale, signal_var):
    """The (m, n, d) broadcast kernel the per-coordinate one replaced."""
    sq_dist = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return signal_var * np.exp(-0.5 * sq_dist / length_scale**2)


def two_solve_predict(gp, x_new):
    """The posterior as ``predict`` computed it before the variance took
    one triangular solve: ``cho_solve`` (two solves over the candidates)
    and an ``einsum`` of its result with the cross-kernel."""
    x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
    k_star = _rbf(x_new, gp._x, gp.length_scale, gp.signal_var)
    mean = k_star @ gp._alpha
    v = cho_solve(gp._cho, k_star.T)
    var = np.maximum(gp.signal_var - np.einsum("ij,ji->i", k_star, v), 1e-12)
    return mean * gp._y_std + gp._y_mean, np.sqrt(var) * gp._y_std


def scipy_stats_ei(mean, std, best, xi=0.01):
    """Expected improvement through ``scipy.stats.norm``."""
    improvement = mean - best - xi
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


def space_1d() -> HyperSpace:
    space = HyperSpace()
    space.add_range_knob("x", "float", 0.0, 1.0)
    return space


def result(params, performance, worker="w") -> TrialResult:
    return TrialResult(trial=Trial(params=params), performance=performance,
                       epochs=1, worker=worker)


class TestBaseBookkeeping:
    def test_best_tracking(self):
        advisor = RandomSearchAdvisor(space_1d())
        advisor.collect(result({"x": 0.1}, 0.5, "w1"))
        advisor.collect(result({"x": 0.2}, 0.8, "w2"))
        advisor.collect(result({"x": 0.3}, 0.6, "w1"))
        assert advisor.best_performance == 0.8
        assert advisor.is_best("w2")
        assert not advisor.is_best("w1")
        assert advisor.best_trial().performance == 0.8

    def test_empty_best(self):
        advisor = RandomSearchAdvisor(space_1d())
        assert advisor.best_trial() is None
        assert advisor.best_performance == 0.0


class TestRandomSearch:
    def test_proposals_in_domain(self):
        advisor = RandomSearchAdvisor(space_1d(), rng=np.random.default_rng(0))
        for _ in range(50):
            trial = advisor.next("w")
            assert 0.0 <= trial["x"] < 1.0

    def test_max_proposals(self):
        advisor = RandomSearchAdvisor(space_1d(), max_proposals=3)
        assert all(advisor.next("w") is not None for _ in range(3))
        assert advisor.next("w") is None

    def test_deterministic_with_seeded_rng(self):
        a = RandomSearchAdvisor(space_1d(), rng=np.random.default_rng(5))
        b = RandomSearchAdvisor(space_1d(), rng=np.random.default_rng(5))
        assert a.next("w") == b.next("w")


class TestGridSearch:
    def test_exhausts_grid(self):
        space = HyperSpace()
        space.add_categorical_knob("a", "str", ["x", "y"])
        space.add_categorical_knob("b", "str", ["1", "2", "3"])
        advisor = GridSearchAdvisor(space)
        proposals = [advisor.next("w") for _ in range(6)]
        assert advisor.next("w") is None
        assert len({tuple(sorted(p.items())) for p in proposals}) == 6


class TestGaussianProcess:
    def test_interpolates_observations(self):
        x = np.array([[0.0], [0.5], [1.0]])
        y = np.array([0.0, 1.0, 0.0])
        gp = GaussianProcess(noise_var=1e-8).fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.05)

    def test_uncertainty_grows_away_from_data(self):
        gp = GaussianProcess().fit(np.array([[0.5]]), np.array([1.0]))
        _, std_near = gp.predict(np.array([[0.5]]))
        _, std_far = gp.predict(np.array([[0.0]]))
        assert std_far[0] > std_near[0]

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianProcess().predict(np.array([[0.0]]))

    def test_mismatched_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianProcess().fit(np.zeros((3, 1)), np.zeros(2))

    @pytest.mark.parametrize("d_new", [1, 2, 4, 9])
    def test_predict_of_another_dimension_rejected(self, d_new):
        """Fewer coordinates than the fit saw used to be scored on the
        first ones; more raised a raw ``IndexError``."""
        rng = np.random.default_rng(0)
        gp = GaussianProcess().fit(rng.random((6, 3)), rng.random(6))
        with pytest.raises(ConfigurationError, match="3"):
            gp.predict(rng.random((4, d_new)))

    @pytest.mark.parametrize("n_first, n_second", [(40, 12), (5, 30), (20, 20)])
    def test_a_refit_predicts_what_a_fresh_fit_predicts(self, n_first, n_second):
        """``fit`` keeps the inverse Cholesky factor: a refit on other
        data (fewer, more or as many points) replaces it, never reads it."""
        rng = np.random.default_rng(n_first * 100 + n_second)
        first, second = rng.random((n_first, 5)), rng.random((n_second, 5))
        y_first, y_second = rng.standard_normal(n_first), rng.standard_normal(n_second)
        x_new = rng.random((60, 5))
        refit = GaussianProcess().fit(first, y_first).fit(second, y_second)
        fresh = GaussianProcess().fit(second, y_second)
        for got, want in zip(refit.predict(x_new), fresh.predict(x_new)):
            assert got.tobytes() == want.tobytes()

    def test_expected_improvement_prefers_high_mean(self):
        mean = np.array([0.5, 0.9])
        std = np.array([0.1, 0.1])
        ei = expected_improvement(mean, std, best=0.6)
        assert ei[1] > ei[0]

    def test_expected_improvement_prefers_uncertainty(self):
        mean = np.array([0.5, 0.5])
        std = np.array([0.01, 0.5])
        ei = expected_improvement(mean, std, best=0.6)
        assert ei[1] > ei[0]


class TestByteIdentity:
    """The per-coordinate kernel and the ``ndtr`` EI round exactly like
    the broadcast kernel and ``scipy.stats`` did."""

    @pytest.mark.parametrize("same", [True, False], ids=["a_is_b", "a_b"])
    @pytest.mark.parametrize("d", list(range(1, 21)) + [64, 129, 300])
    def test_kernel_matches_broadcast(self, d, same):
        rng = np.random.default_rng(d)
        for n in (1, 3, 40, 151):
            b = rng.random((n, d))
            a = b if same else rng.random((37, d))
            for length_scale, signal_var in ((0.2, 1.0), (1.7, 0.3)):
                got = _rbf(a, b, length_scale, signal_var)
                want = broadcast_rbf(a, b, length_scale, signal_var)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (d, n, length_scale)

    def test_kernel_matches_broadcast_off_the_unit_cube(self):
        rng = np.random.default_rng(7)
        for d in (5, 8, 17, 130):
            a = rng.standard_normal((23, d)) * 40.0
            b = rng.standard_normal((29, d)) * 1e-3
            assert _rbf(a, b, 0.2, 1.0).tobytes() == broadcast_rbf(a, b, 0.2, 1.0).tobytes()

    def test_expected_improvement_matches_scipy_stats(self):
        """Equal bytes, except that a NaN's sign bit is not compared:
        ``scipy.stats`` writes its own NaN where a NaN argument reaches
        the pdf, while arithmetic passes one operand's NaN on, and which
        operand depends on the SIMD lane."""
        rng = np.random.default_rng(3)
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0]
        mean = np.concatenate([special, rng.standard_normal(400) * 3.0, [1e300, -1e300]])
        std = np.concatenate([[np.inf], np.logspace(-300, 300, 61), rng.random(30) + 1e-6])
        mean, std = (grid.ravel() for grid in np.meshgrid(mean, std))
        with np.errstate(all="ignore"):
            for best in (0.0, -0.0, 0.37, -2.5, np.inf, -np.inf, np.nan):
                got = expected_improvement(mean, std, best)
                want = scipy_stats_ei(mean, std, best)
                assert got.dtype == want.dtype
                got[np.isnan(got)] = np.nan
                want[np.isnan(want)] = np.nan
                assert got.tobytes() == want.tobytes(), best

    def test_seeded_proposal_stream_is_pinned(self):
        """120 proposals of a two-in-flight study on section 7.1's space:
        the hash was taken with the broadcast kernel and scipy.stats EI."""
        space = section71_space()
        advisor = BayesianAdvisor(space, rng=np.random.default_rng(11))
        in_flight = [advisor.next("w0")]
        proposals = list(in_flight)
        while len(proposals) < 120:
            params = advisor.next(f"w{len(proposals) % 2}")
            proposals.append(params)
            in_flight.append(params)
            done = in_flight.pop(0)
            advisor.collect(result(done, -float(np.sum((space.encode(done) - 0.6) ** 2))))
        digest = hashlib.sha256(repr(proposals).encode()).hexdigest()
        assert digest == "1cc32c1142fef6566d71c122079e4c4cd3513374140844bb1d2feaa63fd1b83a"


class TestOneSolvePosterior:
    """``predict``'s variance takes one triangular solve: the mean and
    every proposal are unchanged, and the variance rounds differently
    only at the level of the cancellation both forms share."""

    @pytest.mark.parametrize("d", [1, 5, 17])
    @pytest.mark.parametrize("n", [1, 8, 40, 151])
    def test_matches_the_two_solve_posterior(self, n, d):
        """Mean bytes equal; variance within 1e-14 of the prior variance
        (worst seen 1.8e-15). Both forms subtract from ``signal_var``, so
        where the posterior variance is a small fraction of it (d = 1,
        observed points, little noise) the std's relative difference
        grows by the inverse of that fraction: up to 1e-10 here."""
        rng = np.random.default_rng(100 * n + d)
        for gp in (GaussianProcess(), GaussianProcess(length_scale=0.2, noise_var=5e-3),
                   GaussianProcess(length_scale=0.5, signal_var=0.4, noise_var=1e-3)):
            x = rng.random((n, d))
            gp.fit(x, rng.standard_normal(n) * 3.0 + 1.0)
            x_new = np.vstack([rng.random((500, d)), x[:3]])
            mean, std = gp.predict(x_new)
            want_mean, want_std = two_solve_predict(gp, x_new)
            assert mean.tobytes() == want_mean.tobytes()
            var, want_var = ((s / gp._y_std) ** 2 for s in (std, want_std))
            np.testing.assert_allclose(var, want_var, rtol=0, atol=1e-14 * gp.signal_var)

    def test_advisor_fits_match_the_two_solve_posterior(self, monkeypatch):
        """On the advisor's own fits (section 7.1's five knobs, two in
        flight) the std agrees within rtol 1e-13 (worst seen 4.0e-14
        over 1 410 fits) and the mean byte for byte."""
        predict = GaussianProcess.predict
        fits = []

        def checked(gp, x_new):
            mean, std = predict(gp, x_new)
            want_mean, want_std = two_solve_predict(gp, x_new)
            assert mean.tobytes() == want_mean.tobytes()
            np.testing.assert_allclose(std, want_std, rtol=1e-13, atol=0)
            fits.append(len(std))
            return mean, std

        monkeypatch.setattr(GaussianProcess, "predict", checked)
        space = section71_space()
        for seed in range(3):
            advisor = BayesianAdvisor(space, rng=np.random.default_rng(seed))
            in_flight = [advisor.next("w0")]
            for _ in range(100):
                in_flight.append(advisor.next("w1"))
                done = in_flight.pop(0)
                advisor.collect(result(done, -float(np.sum((space.encode(done) - 0.6) ** 2))))
        assert len(fits) == 3 * 92  # 101 proposals a seed, 9 before 8 results

    def test_seeded_stream_with_non_finite_results_is_pinned(self):
        """Ten seeds of 150 proposals, two in flight, where every few
        results is NaN or infinite: the hash was taken with the two-solve
        posterior and the advisor's list-of-points bookkeeping."""
        space = section71_space()
        streams = []
        for seed in range(10):
            advisor = BayesianAdvisor(space, rng=np.random.default_rng(seed))
            in_flight = [advisor.next("w0")]
            proposals = list(in_flight)
            while len(proposals) < 150:
                params = advisor.next(f"w{len(proposals) % 2}")
                proposals.append(params)
                in_flight.append(params)
                done = in_flight.pop(0)
                count = len(proposals)
                if count % 7 == 0:
                    performance = float("nan")
                elif count % 11 == 0:
                    performance = float("inf") if count % 2 else float("-inf")
                else:
                    performance = -float(np.sum((space.encode(done) - 0.6) ** 2))
                advisor.collect(result(done, performance))
            streams.append(proposals)
        digest = hashlib.sha256(repr(streams).encode()).hexdigest()
        assert digest == "c60025eae52614669001f2575139677fc82094b617b202f0f310788ebc3c6d99"


class TestBayesianAdvisor:
    def _run(self, advisor, objective, iterations=30):
        for _ in range(iterations):
            params = advisor.next("w")
            advisor.collect(result(params, objective(params["x"])))
        return advisor

    def test_locates_smooth_optimum(self):
        def objective(x):
            return -((x - 0.73) ** 2)

        bayes = self._run(
            BayesianAdvisor(space_1d(), rng=np.random.default_rng(0), warmup=5),
            objective,
        )
        best_x = bayes.best_trial().trial.params["x"]
        assert abs(best_x - 0.73) < 0.05
        assert bayes.best_performance > -1e-3

    def test_beats_random_on_average_in_3d(self):
        """In higher dimensions random search lags BO clearly."""
        space = HyperSpace()
        for name in ("x", "y", "z"):
            space.add_range_knob(name, "float", 0.0, 1.0)

        def objective(params):
            return -sum((params[k] - 0.6) ** 2 for k in ("x", "y", "z"))

        bayes_scores, random_scores = [], []
        for seed in range(3):
            bayes = BayesianAdvisor(space, rng=np.random.default_rng(seed), warmup=6)
            random = RandomSearchAdvisor(space, rng=np.random.default_rng(seed))
            for advisor, scores in ((bayes, bayes_scores), (random, random_scores)):
                for _ in range(25):
                    params = advisor.next("w")
                    advisor.collect(result(params, objective(params)))
                scores.append(advisor.best_performance)
        assert np.mean(bayes_scores) > np.mean(random_scores)

    def test_warmup_proposals_are_random(self):
        advisor = BayesianAdvisor(space_1d(), rng=np.random.default_rng(0), warmup=4)
        # no observations: the first proposals must not crash the GP
        assert all(advisor.next("w") is not None for _ in range(4))

    def test_max_proposals(self):
        advisor = BayesianAdvisor(space_1d(), max_proposals=2)
        advisor.next("w")
        advisor.next("w")
        assert advisor.next("w") is None

    @pytest.mark.parametrize("bad", [
        {"candidates": 0}, {"candidates": -3}, {"warmup": -1},
        {"length_scale": 0.0}, {"length_scale": -0.2}, {"noise_var": -1e-3},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_unusable_hyper_parameters_rejected(self, bad):
        """These used to pass warm-up and fail at the first GP proposal."""
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            BayesianAdvisor(space_1d(), **bad)

    def test_edge_hyper_parameters_accepted(self):
        advisor = BayesianAdvisor(space_1d(), rng=np.random.default_rng(0), warmup=0,
                                  candidates=1, noise_var=0.0)
        advisor.collect(result({"x": 0.3}, 0.2))
        assert 0.0 <= advisor.next("w")["x"] < 1.0


class TestConstantLiar:
    def test_concurrent_proposals_spread_out(self):
        """With pending trials, the liar pushes new proposals away."""
        space = space_1d()
        advisor = BayesianAdvisor(space, rng=np.random.default_rng(0), warmup=4,
                                  constant_liar=True)
        # bootstrap the posterior
        for x in (0.1, 0.4, 0.6, 0.9):
            advisor.collect(result({"x": x}, -((x - 0.7) ** 2)))
        first = advisor.next("w1")["x"]
        second = advisor.next("w2")["x"]
        third = advisor.next("w3")["x"]
        values = [first, second, third]
        spread = max(values) - min(values)
        assert spread > 0.01  # not three near-identical points

    def test_without_liar_pending_is_ignored(self):
        advisor = BayesianAdvisor(space_1d(), rng=np.random.default_rng(0),
                                  warmup=2, constant_liar=False)
        advisor.collect(result({"x": 0.2}, 0.1))
        advisor.collect(result({"x": 0.8}, 0.5))
        a = advisor.next("w1")["x"]
        b = advisor.next("w2")["x"]
        # pure EI re-proposes (nearly) the same argmax given the same pool rng?
        # the candidate pools differ per call, so just check both are valid.
        assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0

    def test_pending_retired_on_collect(self):
        advisor = BayesianAdvisor(space_1d(), rng=np.random.default_rng(0), warmup=2)
        advisor.collect(result({"x": 0.2}, 0.1))
        advisor.collect(result({"x": 0.8}, 0.5))
        proposal = advisor.next("w1")
        assert len(advisor._pending) == 1
        advisor.collect(result(proposal, 0.3))
        assert len(advisor._pending) == 0

    def test_pending_retired_on_snapping_knobs(self):
        """Int and categorical knobs (and a post-hook) round a candidate
        when it is decoded; its result must still retire it."""
        space = demo_space()
        advisor = BayesianAdvisor(space, rng=np.random.default_rng(0), warmup=4)
        rng = np.random.default_rng(1)
        for _ in range(60):
            params = advisor.next("w")
            advisor.collect(result(params, float(rng.random())))
            assert advisor._pending == {}
        # two in flight, collected out of order
        first, second = advisor.next("w1"), advisor.next("w2")
        assert len(advisor._pending) == 2
        advisor.collect(result(second, 0.2))
        advisor.collect(result(first, 0.4))
        assert advisor._pending == {}


class TestNonFinitePerformance:
    def test_nan_after_warmup_still_gets_a_proposal(self):
        advisor = BayesianAdvisor(section71_space(), rng=np.random.default_rng(0), warmup=4)
        for index in range(4):
            params = advisor.next("w")
            advisor.collect(result(params, 0.1 * index))
        params = advisor.next("w")
        advisor.collect(result(params, float("nan")))
        for performance in (float("inf"), 0.5, float("-inf")):
            params = advisor.next("w")
            assert params is not None
            advisor.collect(result(params, performance))
        assert advisor.next("w") is not None
        assert advisor.num_results == 8

    def test_no_finite_observation_samples(self):
        advisor = BayesianAdvisor(space_1d(), rng=np.random.default_rng(0), warmup=2)
        for _ in range(3):
            params = advisor.next("w")
            advisor.collect(result(params, float("nan")))
        assert 0.0 <= advisor.next("w")["x"] < 1.0

    def test_finite_results_beside_nan_drive_the_fit(self):
        """A NaN result leaves the GP exactly as if it had not come in."""
        def run(with_nan: bool):
            advisor = BayesianAdvisor(space_1d(), rng=np.random.default_rng(4), warmup=2,
                                      constant_liar=False)
            advisor.collect(result({"x": 0.2}, 0.1))
            if with_nan:
                advisor.collect(result({"x": 0.5}, float("nan")))
            advisor.collect(result({"x": 0.8}, 0.5))
            return [advisor.next("w")["x"] for _ in range(3)]

        assert run(True) == run(False)
