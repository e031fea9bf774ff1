import itertools
import math

import numpy as np
import pytest

from rwre_lab.numutil import (fsum_parts, jackknife_stderr, loo_logmeanexp, ordered_dot,
                              word_blocks, words)

from oracles import jackknife_by_deletion, log_mean_exp


def jackknife_oracle(logw):
    return jackknife_by_deletion(logw, log_mean_exp)  # leave-one-out log-mean-exps by deletion


class TestJackknife:
    @pytest.mark.parametrize("logw", [
        [0.0, -800.0, -900.0],  # one replica holds all the mass in double precision
        [5.0, 5.0, -3.0, 1.0],  # tied maxima
        [0.0, -1e-3, -2.0, 5.0],
    ])
    def test_matches_leave_one_out_oracle(self, logw):
        got = jackknife_stderr(loo_logmeanexp(logw))
        assert math.isfinite(got)
        assert got == pytest.approx(jackknife_oracle(logw), rel=1e-12)

    def test_random_weights_match_oracle(self):
        logw = np.random.default_rng(1).normal(0.0, 30.0, size=200)
        assert jackknife_stderr(loo_logmeanexp(logw)) == pytest.approx(jackknife_oracle(logw),
                                                                      rel=1e-12)

    def test_single_replica_has_no_error_bar(self):
        assert math.isnan(jackknife_stderr([1.0]))


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("k", [2, 3, 5])
def test_words_follow_product_order(k, n):
    # the oracles' gibbs_configurations and exact_gap_oracle pair row i with the i-th
    # product word, and the enumeration tests take words(2 * d, n) as every path
    got = words(k, n)
    assert got.shape == (k**n, n) and got.dtype == np.int64 and got.flags.c_contiguous
    assert got.tolist() == [list(w) for w in itertools.product(range(k), repeat=n)]


@pytest.mark.parametrize("rows", [1, 7, 1024])
@pytest.mark.parametrize("k,n", [(2, 5), (4, 3), (3, 0), (5, 1)])
def test_word_blocks_are_the_words_in_order(k, n, rows):
    blocks = list(word_blocks(k, n, rows))
    assert all(len(b) <= rows and b.dtype == np.int64 for b in blocks)
    assert np.concatenate(blocks).tolist() == words(k, n).tolist()


@pytest.mark.parametrize("block", [1, 7, 777])
def test_fsum_parts_carry_the_exact_sum(block):
    # signed terms over some 600 binades, where a rounded running sum drifts:
    # the parts carried over blocks give the fsum of all terms at once
    rng = np.random.default_rng(block)
    values = rng.lognormal(0.0, 60.0, size=5000) * rng.choice([-1.0, 1.0], size=5000)
    parts = []
    for start in range(0, len(values), block):
        parts = fsum_parts(values[start:start + block], parts)
        assert len(parts) <= 40
    assert math.fsum(parts) == math.fsum(values.tolist())
    assert fsum_parts([math.inf, 1.0], [2.0]) == [math.inf]  # carried, not looped on
    assert fsum_parts([0.5, -0.5], []) == []


def test_ordered_dot_sums_left_to_right():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-1, 1, size=(4, 3)), rng.uniform(-1, 1, size=(2, 3, 5))
    want = (a[:, :1] * b[:, :1] + a[:, 1:2] * b[:, 1:2]) + a[:, 2:] * b[:, 2:]
    assert np.array_equal(ordered_dot(a, b), want)
    assert np.array_equal(ordered_dot(a[0], b), want[:, 0])
    assert np.array_equal(ordered_dot(a, b[0, :, 0]), want[0, :, 0])
    # the bits of a row do not depend on the rows riding along
    assert np.array_equal(ordered_dot(a[1:2], b), want[:, 1:2])
