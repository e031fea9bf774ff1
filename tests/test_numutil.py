import itertools
import math

import numpy as np
import pytest

from rwre_lab.numutil import jackknife_stderr_logmean, logsumexp, words


def jackknife_oracle(logw):
    """Leave-one-out log-mean-exp by explicit deletion, then the jackknife spread."""
    logw = np.asarray(logw, dtype=np.float64)
    n = logw.size
    loo = np.array([logsumexp(np.delete(logw, i)) - math.log(n - 1) for i in range(n)])
    return math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))


class TestJackknife:
    @pytest.mark.parametrize("logw", [
        [0.0, -800.0, -900.0],  # one replica holds all the mass in double precision
        [5.0, 5.0, -3.0, 1.0],  # tied maxima
        [0.0, -1e-3, -2.0, 5.0],
    ])
    def test_matches_leave_one_out_oracle(self, logw):
        got = jackknife_stderr_logmean(logw)
        assert math.isfinite(got)
        assert got == pytest.approx(jackknife_oracle(logw), rel=1e-12)

    def test_random_weights_match_oracle(self):
        logw = np.random.default_rng(1).normal(0.0, 30.0, size=200)
        assert jackknife_stderr_logmean(logw) == pytest.approx(jackknife_oracle(logw), rel=1e-12)

    def test_single_replica_has_no_error_bar(self):
        assert math.isnan(jackknife_stderr_logmean([1.0]))


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("k", [2, 3, 5])
def test_words_follow_product_order(k, n):
    # gibbs_configurations and exact_gap_oracle pair row i with the i-th product word
    got = words(k, n)
    assert got.shape == (k**n, n) and got.dtype == np.int64
    assert got.tolist() == [list(w) for w in itertools.product(range(k), repeat=n)]
