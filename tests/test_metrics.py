import numpy as np
import pytest

from gradleak import (
    ContractError,
    ImagePair,
    SeedRng,
    ShapeError,
    Tensor,
    convergence_report,
    mse_255,
    mse_unit,
    report_kv,
)
from gradleak.attack import AttackTrace, TraceRecord
from oracles import loop_mse_255

# checkpoint grid and MSE decline shape used for the report fixtures
SERIES = [(20, 105.68), (40, 99.63), (50, 89.63), (80, 54.25), (200, 3.22)]


def _pair(a, b):
    return ImagePair(Tensor(a), Tensor(b))


def _trace(series):
    snap = Tensor.zeros((2, 2, 1))
    return AttackTrace(tuple(
        TraceRecord(iteration=i, distance=float(len(series) - k),
                    mse_255=m, mse_raw=m / 65025.0, snapshot=snap, step_events=0)
        for k, (i, m) in enumerate(series)
    ))


class TestMse255:
    def test_identical_images(self):
        img = Tensor([[0.25, 0.5], [0.75, 1.0]], shape=(2, 2, 1))
        assert mse_255(ImagePair(img, img)) == 0.0

    def test_full_scale_difference(self):
        assert mse_255(_pair([[[0.0]]], [[[1.0]]])) == 255.0**2

    def test_candidate_clamped_first(self):
        assert mse_255(_pair([[[1.0]]], [[[7.5]]])) == 0.0
        assert mse_255(_pair([[[0.0]]], [[[-3.0]]])) == 0.0

    def test_matches_loop_oracle(self):
        rng = SeedRng(55)
        a = np.array([rng.uniform() for _ in range(24)]).reshape(4, 3, 2)
        b = np.array([rng.uniform() * 1.4 - 0.2 for _ in range(24)]).reshape(4, 3, 2)
        got = mse_255(_pair(a, np.clip(b, 0, 1)))
        assert abs(got - loop_mse_255(a, b)) < 1e-9

    def test_symmetry_and_permutation_invariance(self):
        rng = SeedRng(56)
        a = np.array([rng.uniform() for _ in range(16)]).reshape(4, 4, 1)
        b = np.array([rng.uniform() for _ in range(16)]).reshape(4, 4, 1)
        assert mse_255(_pair(a, b)) == mse_255(_pair(b, a))
        perm = np.argsort([rng.uniform() for _ in range(16)])
        ap = a.ravel()[perm].reshape(4, 4, 1)
        bp = b.ravel()[perm].reshape(4, 4, 1)
        # identical up to float summation order
        assert abs(mse_255(_pair(a, b)) - mse_255(_pair(ap, bp))) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ImagePair(Tensor.zeros((2, 2, 1)), Tensor.zeros((2, 3, 1)))

    def test_mse_unit_is_unclamped(self):
        assert mse_unit(_pair([[[0.0]]], [[[2.0]]])) == 4.0


class TestConvergenceReport:
    def test_declining_series_flags(self):
        report = convergence_report(_trace(SERIES))
        assert report.monotone
        assert report.final_mse == 3.22
        assert report.converged
        assert report.rows[0] == (20, 5.0, 105.68)

    def test_single_checkpoint_is_vacuously_monotone(self):
        report = convergence_report(_trace([(10, 42.0)]))
        assert report.monotone
        assert not report.converged

    def test_non_monotone_series_flagged(self):
        report = convergence_report(_trace([(10, 5.0), (20, 9.0), (30, 2.0)]))
        assert not report.monotone
        assert report.converged

    def test_monotone_flag_matches_pairwise_scan(self):
        rng = SeedRng(57)
        for _ in range(20):
            mses = [rng.uniform() * 100 for _ in range(5)]
            report = convergence_report(_trace(list(zip((1, 2, 3, 4, 5), mses))))
            want = all(mses[k + 1] <= mses[k] for k in range(4))
            assert report.monotone == want

    def test_empty_or_mse_free_trace_rejected(self):
        with pytest.raises(ContractError):
            convergence_report(AttackTrace(()))
        snap = Tensor.zeros((2, 2, 1))
        no_mse = AttackTrace((TraceRecord(1, 0.5, None, None, snap, 0),))
        with pytest.raises(ContractError):
            convergence_report(no_mse)

    def test_renderings(self):
        report = convergence_report(_trace(SERIES))
        kv = report_kv(report)
        assert "checkpoint: 200" in kv
        assert "monotone_mse: true" in kv
        assert "converged: true" in kv
        assert "threshold: 5.0" in kv
        assert "final_mse: 3.22" in kv
