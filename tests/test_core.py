"""Tests for the numeric substrate: finiteness, softmax and the RNG."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensdistill.core import (
    RngStream,
    check_finite,
    log_softmax,
    softmax,
)


def test_check_finite_passes_through_and_rejects():
    a = np.array([1.0, 2.0])
    assert check_finite("a", a) is a
    with pytest.raises(FloatingPointError):
        check_finite("bad", np.array([1.0, np.nan]))
    with pytest.raises(FloatingPointError):
        check_finite("bad", np.array([np.inf]))


# --- softmax helpers --------------------------------------------------------

def test_softmax_rows_sum_to_one_and_shift_invariant():
    logits = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    p = softmax(logits)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    shifted = softmax(logits + 100.0)
    assert np.allclose(p, shifted, atol=1e-12)
    assert np.allclose(np.log(p), log_softmax(logits), atol=1e-12)


# --- gaussian draws ---------------------------------------------------------

def test_gaussian_deterministic():
    a, _ = RngStream(42).gaussian(64)
    b, _ = RngStream(42).gaussian(64)
    assert np.array_equal(a, b)


def test_gaussian_empty():
    vals, nxt = RngStream(1).gaussian(0)
    assert vals.shape == (0,)
    assert nxt.counter == 0


def test_gaussian_statistics():
    vals, _ = RngStream(123).gaussian(100_000)
    assert -0.02 <= vals.mean() <= 0.02
    assert 0.97 <= vals.var() <= 1.03


def test_uniform_range_and_advance():
    vals, nxt = RngStream(9).uniform(1000)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    assert nxt.counter == 1000
    more, _ = nxt.uniform(1000)
    assert not np.array_equal(vals, more)


def test_uniform_counter_addressable():
    # drawing 10 then 10 equals drawing 20 in one call
    first, mid = RngStream(7).uniform(10)
    second, _ = mid.uniform(10)
    whole, _ = RngStream(7).uniform(20)
    assert np.array_equal(np.concatenate([first, second]), whole)


# --- split ------------------------------------------------------------------

def test_split_deterministic():
    s = RngStream(2024)
    a, _ = s.split(1).uniform(100)
    b, _ = s.split(1).uniform(100)
    assert np.array_equal(a, b)


def test_split_distinct_tags_differ():
    s = RngStream(2024)
    a, _ = s.split(1).uniform(100)
    b, _ = s.split(2).uniform(100)
    assert not np.array_equal(a, b)


def test_split_nested_differs_from_parent():
    s = RngStream(2024)
    child = s.split(1)
    grandchild = child.split(1)
    a, _ = child.uniform(100)
    b, _ = grandchild.uniform(100)
    assert not np.array_equal(a, b)


def test_split_leaves_parent_unchanged():
    s = RngStream(11, counter=5)
    s.split(3)
    assert s.seed == 11
    assert s.counter == 5


def test_split_handles_large_and_negative_seeds():
    big = RngStream(2**64 + 17).split(0)
    neg = RngStream(-1).split(0)
    assert isinstance(big.seed, int)
    a, _ = big.uniform(4)
    b, _ = neg.uniform(4)
    assert np.all(np.isfinite(a))
    assert np.all(np.isfinite(b))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(20, 200),
       tags=st.lists(st.integers(0, 2 ** 64 - 1), min_size=2, max_size=2, unique=True))
def test_split_children_are_independent(seed, n, tags):
    # a restart stack draws one permutation per slice from sibling streams;
    # siblings, and a child and its parent, must share no stretch of values
    # (split reads a tag modulo 2**64, so tags are drawn below it)
    parent = RngStream(seed)
    a, b = (parent.split(tag) for tag in tags)
    prefixes = [stream.uniform(64)[0] for stream in (parent, a, b)]
    for one, other in itertools.combinations(prefixes, 2):
        assert not set(one) & set(other)
    assert not np.array_equal(a.permutation(n)[0], b.permutation(n)[0])


# --- permutation ------------------------------------------------------------

def test_permutation_is_a_permutation():
    perm, _ = RngStream(3).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_permutation_deterministic_and_seed_sensitive():
    a, _ = RngStream(3).permutation(50)
    b, _ = RngStream(3).permutation(50)
    c, _ = RngStream(4).permutation(50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 5000))
def test_permutation_is_the_stable_argsort_of_its_uniforms(seed, n):
    stream = RngStream(seed)
    perm, nxt = stream.permutation(n)
    u, want_next = stream.uniform(n)
    assert np.array_equal(perm, np.argsort(u, kind="stable"))
    assert nxt == want_next


@pytest.mark.parametrize("keys", [[0.5, 0.25, 0.5, 0.25, 0.5, 1.0],
                                  [0.75] * 40 + [0.25] * 40,
                                  [0.5, 0.5]])
def test_tied_uniforms_keep_their_positions(monkeypatch, keys):
    u = np.array(keys)
    monkeypatch.setattr(RngStream, "uniform", lambda self, n: (u[:n].copy(), self))
    perm, _ = RngStream(0).permutation(len(keys))
    assert np.array_equal(perm, np.argsort(u, kind="stable"))
