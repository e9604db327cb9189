import numpy as np

from molre.rng import RngStream


def test_same_key_same_draws():
    a = RngStream(123, 4).normal(0, 1, 100)
    b = RngStream(123, 4).normal(0, 1, 100)
    assert np.array_equal(a, b)


def test_different_stream_ids_differ():
    a = RngStream(123, 0).normal(0, 1, 100)
    b = RngStream(123, 1).normal(0, 1, 100)
    assert not np.array_equal(a, b)


def test_child_is_deterministic_and_label_sensitive():
    root = RngStream(7)
    c1 = root.child("augment", 3, 12).uniform(0, 1, 50)
    c2 = RngStream(7).child("augment", 3, 12).uniform(0, 1, 50)
    assert np.array_equal(c1, c2)
    other = RngStream(7).child("augment", 3, 13).uniform(0, 1, 50)
    assert not np.array_equal(c1, other)


def test_child_draw_order_independence():
    # deriving a child never consumes state from the parent
    root = RngStream(7)
    before = root.child("x")
    root.normal(0, 1, 1000)
    after = root.child("x")
    assert np.array_equal(before.uniform(0, 1, 10), after.uniform(0, 1, 10))


def test_nested_children_differ_from_flat():
    root = RngStream(7)
    nested = root.child("a").child("b").uniform(0, 1, 10)
    flat = root.child("a", "b").uniform(0, 1, 10)
    # both valid streams, but distinct paths
    assert not np.array_equal(nested, flat)
    assert np.array_equal(nested, RngStream(7).child("a").child("b").uniform(0, 1, 10))


def test_int_and_str_labels_do_not_collide():
    a = RngStream(0).child(1).uniform(0, 1, 10)
    b = RngStream(0).child("1").uniform(0, 1, 10)
    assert not np.array_equal(a, b)


def test_degenerate_uniform_is_exact():
    # uniform(a, a) must return exactly a — identity augmentation relies on it
    v = RngStream(0).uniform(0.37, 0.37, 1000)
    assert np.all(v == 0.37)


def test_bernoulli_zero_and_one():
    s = RngStream(0)
    assert not s.bernoulli(0.0, 10000).any()
    assert RngStream(0).bernoulli(1.0 + 1e-12, 100).all()


def test_bernoulli_mean_near_p():
    draws = RngStream(5).bernoulli(0.3, 200_000)
    assert abs(draws.mean() - 0.3) < 0.005


def test_permutation_is_a_permutation():
    p = RngStream(9).permutation(257)
    assert np.array_equal(np.sort(p), np.arange(257))


def test_integers_range():
    v = RngStream(11).integers(3, 9, 10_000)
    assert v.min() >= 3 and v.max() <= 8
    assert set(np.unique(v)) == set(range(3, 9))


def test_uniform_bounds():
    v = RngStream(3).uniform(-2.0, 5.0, 100_000)
    assert v.min() >= -2.0 and v.max() < 5.0
