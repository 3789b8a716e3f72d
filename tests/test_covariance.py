import hashlib
import tracemalloc

import numpy as np
import pytest

from covdec.covariance import Trial, ccv, covariances, prepare, standardize
from covdec.errors import ConfigError, DataError

from conftest import pin_note


def brute_ccv(data: np.ndarray, lag: int = 0) -> np.ndarray:
    """Textbook double loop straight from the definition (the oracle)."""
    c, t_len = data.shape
    ts = [t for t in range(t_len) if 0 <= t + lag < t_len]
    n = len(ts)
    out = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            a = [data[i, t] for t in ts]
            b = [data[j, t + lag] for t in ts]
            mean_a = sum(a) / n
            mean_b = sum(b) / n
            out[i, j] = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b)) / (n - 1)
    return out


def test_constant_channels_give_zero_matrix():
    trial = Trial(np.full((3, 10), 7.5), label=0)
    assert np.allclose(ccv(trial).values, 0.0, atol=1e-12)


def test_identical_channels_sample_variance():
    trial = Trial(np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]), label=0)
    m = ccv(trial).values
    assert np.allclose(m, 5.0 / 3.0, atol=1e-12)


def test_scaled_channel_pair_matches_frozen_oracle_values():
    data = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]])
    m = ccv(Trial(data, label=0)).values
    expected = np.array([[5.0 / 3.0, 10.0 / 3.0], [10.0 / 3.0, 20.0 / 3.0]])
    assert np.max(np.abs(m - expected)) < 1e-10
    assert np.max(np.abs(brute_ccv(data) - expected)) < 1e-10


def test_matches_brute_force_on_random_trials():
    rng = np.random.default_rng(10)
    for _ in range(25):
        c = int(rng.integers(2, 9))
        t_len = int(rng.integers(4, 65))
        data = rng.normal(size=(c, t_len)) * rng.uniform(0.1, 10.0)
        m = ccv(Trial(data, label=0)).values
        assert np.max(np.abs(m - brute_ccv(data))) < 1e-10


def test_lagged_matches_brute_force():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(4, 30))
    for lag in (-7, -1, 1, 3, 12):
        m = ccv(Trial(data, label=0), lag).values
        assert np.max(np.abs(m - brute_ccv(data, lag))) < 1e-10


def test_zero_lag_symmetry_is_exact():
    rng = np.random.default_rng(12)
    # the README and recording shapes included
    for shape in [(6, 40), (8, 128), (64, 1280)]:
        m = ccv(Trial(rng.normal(size=shape), label=0)).values
        assert np.array_equal(m, m.T), shape


def test_zero_lag_positive_semidefinite():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = ccv(Trial(rng.normal(size=(5, 20)), label=0)).values
        for _ in range(100):
            x = rng.normal(size=5)
            assert x @ m @ x >= -1e-9 * (x @ x)


def test_scale_equivariance():
    rng = np.random.default_rng(14)
    data = rng.normal(size=(4, 32))
    alpha = 3.7
    base = ccv(Trial(data, label=0)).values
    scaled = ccv(Trial(alpha * data, label=0)).values
    assert np.max(np.abs(scaled - alpha**2 * base)) <= 1e-9 * np.max(np.abs(scaled))


def test_lag_out_of_range_is_config_error():
    trial = Trial(np.random.default_rng(0).normal(size=(2, 8)), label=0)
    with pytest.raises(ConfigError, match="lag 8"):
        ccv(trial, 8)
    with pytest.raises(ConfigError):
        ccv(trial, -9)


def test_single_sample_overlap_is_degenerate():
    trial = Trial(np.random.default_rng(0).normal(size=(2, 8)), label=0)
    with pytest.raises(DataError, match="degenerate"):
        ccv(trial, 7)


def test_nonzero_lag_not_symmetrized():
    rng = np.random.default_rng(15)
    m = ccv(Trial(rng.normal(size=(3, 50)), label=0), lag=2).values
    assert not np.allclose(m, m.T)


def test_trial_validation():
    with pytest.raises(DataError, match="2 channels"):
        Trial(np.zeros((1, 10)), label=0)
    with pytest.raises(DataError, match="2 channels"):
        Trial(np.zeros((3, 1)), label=0)
    with pytest.raises(DataError, match="non-finite"):
        Trial(np.array([[1.0, np.nan], [0.0, 1.0]]), label=0)


@pytest.mark.parametrize("label", [-1, 1.0, True, "1", None])
def test_trial_rejects_a_label_that_is_not_a_non_negative_integer(label):
    with pytest.raises(DataError, match=(f"^trial 't7': label must be a non-negative "
                                         f"integer, got {label!r}$")):
        Trial(np.eye(2), label, trial_id="t7")
    assert Trial(np.eye(2), np.int64(2)).label == 2


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def random_covs(rng, n, c=4, t=30):
    """n covariances stacked as one [n, c, c] array."""
    return np.stack([ccv(Trial(rng.normal(size=(c, t)) * rng.uniform(0.5, 2.0), label=0)).values
                     for _ in range(n)])


def test_single_matrix_standardizes_to_zero():
    rng = np.random.default_rng(16)
    out, _ = standardize(random_covs(rng, 1))
    assert out.shape == (1, 4, 4)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_fitted_stats_zscore_the_fitting_set():
    rng = np.random.default_rng(17)
    out, stats = standardize(random_covs(rng, 20))
    above_floor = stats.std > 1e-8
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
    assert np.allclose(out.std(axis=0)[above_floor], 1.0, atol=1e-6)


def test_train_stats_applied_to_other_set_differ_from_self_fit():
    rng = np.random.default_rng(18)
    set_a = random_covs(rng, 15)
    set_b = random_covs(rng, 15)
    _, stats_a = standardize(set_a)
    b_by_a, _ = standardize(set_b.copy(), stats_a)
    b_by_b, _ = standardize(set_b.copy())
    diff = np.max(np.abs(b_by_a - b_by_b))
    assert diff > 1e-3


def test_reapplying_returned_stats_is_identical():
    rng = np.random.default_rng(19)
    mats = random_covs(rng, 10)
    out1, stats = standardize(mats.copy())
    out2, _ = standardize(mats.copy(), stats)
    assert np.array_equal(out1, out2)


def test_standardize_works_in_place_byte_for_byte():
    rng = np.random.default_rng(22)
    mats = random_covs(rng, 12)
    before = mats.copy()
    out, stats = standardize(mats)
    assert out is mats
    want = [(m - before.mean(axis=0)) / np.maximum(before.std(axis=0), 1e-8) for m in before]
    assert out.tobytes() == np.stack(want).tobytes()
    again = before.copy()
    assert standardize(again, stats)[0] is again
    assert again.tobytes() == out.tobytes()


def test_standardize_rejects_empty_list():
    with pytest.raises(DataError, match="empty"):
        standardize(np.empty((0, 4, 4)))
    with pytest.raises(DataError, match=r"\[N, C, C\]"):
        standardize(np.zeros((4, 4)))


def test_std_floor_prevents_blowup():
    mats = np.ones((5, 2, 2))  # zero variance everywhere
    out, stats = standardize(mats)
    assert np.all(stats.std == 1e-8)
    assert np.all(np.isfinite(out[0]))


def test_prepare_is_ccv_then_standardize():
    rng = np.random.default_rng(20)
    trials = [Trial(rng.normal(size=(4, 30)), k % 2, trial_id=f"t{k}") for k in range(6)]
    # fitting, as run_training does it
    covs, labels = covariances(trials, 1)
    mats, norm = standardize(covs)
    expected, expected_norm = standardize(np.stack([ccv(t, 1).values for t in trials]))
    assert np.array_equal(mats, expected)
    assert np.array_equal(norm.mean, expected_norm.mean)
    assert np.array_equal(labels, [0, 1, 0, 1, 0, 1])
    again, again_labels = prepare(trials[:2], 1, norm)
    assert np.array_equal(again, mats[:2]) and np.array_equal(again_labels, [0, 1])


def test_prepare_holds_the_covariance_set_at_most_twice():
    # 200 64-channel trials, streamed: one copy of the set is 6.6 MB. The
    # covariance list and its stacked array coexist for a moment; fitting
    # (covariances + standardize, as run_training does) adds one temporary
    # copy inside std, after the list is gone; prepare applies the fitted
    # stats. Nothing else of that size may be alive at once.
    n, c = 200, 64
    copy = n * c * c * 8

    def trials(count):
        rng = np.random.default_rng(41)
        for k in range(count):
            yield Trial(rng.normal(size=(c, 96)), k % 2, trial_id=f"t{k}")

    def traced(call):
        """(call()'s result, the peak of what it allocated)."""
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # first-call allocations are not the set's
    prepare(trials(2), 0, standardize(covariances(trials(2), 0)[0])[1])
    (fitted, norm), fit_peak = traced(lambda: standardize(covariances(trials(n), 0)[0]))
    (applied, _), apply_peak = traced(lambda: prepare(trials(n), 0, norm))
    assert max(fit_peak, apply_peak) <= 2.05 * copy, (fit_peak / copy, apply_peak / copy)
    digest = hashlib.sha256(fitted.tobytes() + norm.mean.tobytes()
                            + norm.std.tobytes()).hexdigest()
    assert digest == "e91db98b3bc85482cf61f51c5912f704c7e7608d0d8fcc8fa0f52af28de309ed", pin_note()
    assert applied.tobytes() == fitted.tobytes()


def test_zero_lag_ccv_holds_one_centred_copy_of_the_trial():
    # lag 0 centres the trial once and multiplies that buffer by itself, so
    # beyond the [C, C] result only one [C, T] copy is alive at a time
    trial = Trial(np.random.default_rng(42).normal(size=(64, 1280)), label=0)
    ccv(trial, 0)  # first-call allocations are not the trial's
    tracemalloc.start()
    try:
        ccv(trial, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * trial.data.nbytes, peak / trial.data.nbytes


def test_prepare_rejects_channel_count_naming_trial():
    rng = np.random.default_rng(21)
    four = [Trial(rng.normal(size=(4, 30)), 0, trial_id=f"t{k}") for k in range(3)]
    three = Trial(rng.normal(size=(3, 30)), 0, trial_id="odd")
    with pytest.raises(DataError, match="trial 'odd' has 3 channels, expected 4"):
        covariances(four + [three], 0)
    _, norm = standardize(covariances(four, 0)[0])
    with pytest.raises(DataError, match="trial 'odd' has 3 channels, expected 4"):
        prepare([three], 0, norm)
    with pytest.raises(DataError, match="empty"):
        prepare([], 0, norm)


def _ccv_formula(data: np.ndarray, lag: int) -> np.ndarray:
    """The lag-tau covariance by its formula, in ccv's float operations:
    lag 0 centres one copy and takes `a @ a.T` (BLAS syrk); every other lag
    centres each operand on its own and takes `a @ b.T` (BLAS gemm)."""
    window = data.shape[1] - abs(lag)
    if lag == 0:
        a = data - data.mean(axis=1, keepdims=True)
        return (a @ a.T) / (window - 1)
    if lag > 0:
        a, b = data[:, :window], data[:, lag:lag + window]
    else:
        a, b = data[:, -lag:], data[:, :window]
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    return (a @ b.T) / (window - 1)


# every lag that leaves at least 2 overlapping samples
@pytest.mark.parametrize("shape, lag", [
    pytest.param(shape, lag, id=f"{shape[0]}x{shape[1]}-lag{lag}")
    for shape in [(2, 2), (3, 5), (8, 128), (17, 300), (64, 1280)]
    for lag in (0, 1, -3) if abs(lag) < shape[1] - 1
])
@pytest.mark.parametrize("snapped", [False, True], ids=["f64", "f32-snapped"])
def test_ccv_bytes_equal_two_centrings_formula(shape, lag, snapped):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    data = rng.normal(size=shape) * 3.7 + 1.5
    if snapped:
        data = data.astype(np.float32).astype(np.float64)
    data[-1] = 2.25  # a flat channel: its centred row is exactly zero
    got = ccv(Trial(data, label=0), lag).values
    assert got.tobytes() == _ccv_formula(data, lag).tobytes()


@pytest.mark.parametrize("lag", [0, 3])
def test_covariances_reusing_one_buffer_match_allocating_bytes(lag):
    # `_ccv_formula` allocates each centred window anew; the sample count
    # changes twice, so `covariances` makes its one buffer three times
    rng = np.random.default_rng(lag + 5)
    data = [rng.normal(size=(9, t)) * 2.5 + 0.5 for t in (40, 40, 57, 57, 57, 40)]
    mats, _ = covariances((Trial(x, 0) for x in data), lag)
    for got, x in zip(mats, data):
        assert got.tobytes() == _ccv_formula(x, lag).tobytes()
