"""Per-trial random streams: the bulk Philox draw and the binomial step
tables must reproduce each trial's own numpy generator bit for bit, so a
(seed, trial) pair names the same numbers on either path."""

import ctypes
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from stokesim import protocols, sampling
from stokesim.detection import DetectorSpec
from stokesim.protocols import ProtocolConfig
from stokesim.rng import binomial_draw, binomial_steps, trial_rng, trial_uniforms

SEEDS = [0, 1, 2**63, 2**64 - 1]
#: (start, count): a plain range, one crossing 2^32, one crossing 2^63
RANGES = [(0, 5), (2**32 - 3, 6), (2**63 - 2, 4)]


def _reference(seed: int, start: int, count: int, n: int) -> np.ndarray:
    return np.array([trial_rng(seed, i).random(n) for i in range(start, start + count)]).reshape(count, n)


def _assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start, count", RANGES)
def test_trial_uniforms_match_each_trial_generator(seed, start, count):
    # n = 1..9 covers one, two and three Philox blocks of four words
    for n in range(1, 10):
        _assert_bits_equal(trial_uniforms(seed, start, count, n), _reference(seed, start, count, n))


@settings(max_examples=60, deadline=None)
@given(
    hs.integers(0, 2**64 - 1),
    hs.integers(0, 2**64 - 1 - 8),
    hs.integers(1, 8),
    hs.integers(1, 9),
)
def test_trial_uniforms_match_each_trial_generator_anywhere(seed, start, count, n):
    _assert_bits_equal(trial_uniforms(seed, start, count, n), _reference(seed, start, count, n))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**63 - sampling._BLOCK // 2])
@pytest.mark.parametrize("extra", [0, 1])
def test_trial_uniforms_match_at_the_full_block_size(seed, start, extra):
    count = sampling._BLOCK + extra
    for n in range(1, 10):
        u = trial_uniforms(seed, start, count, n)
        assert u.shape == (count, n)
        for k in (0, 1, count // 2, count - 1):
            _assert_bits_equal(u[k : k + 1], trial_rng(seed, start + k).random((1, n)))


def test_trial_uniforms_rows_do_not_depend_on_the_range():
    whole = trial_uniforms(9, 100, 50, 3)
    _assert_bits_equal(np.vstack([trial_uniforms(9, 100, 13, 3), trial_uniforms(9, 113, 37, 3)]), whole)
    # a longer draw extends each row without changing its first words
    _assert_bits_equal(trial_uniforms(9, 100, 50, 7)[:, :3], whole)


def test_trial_rng_rejects_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            trial_rng(seed, 0)


class _WordFeed:
    """A numpy bit generator that hands out chosen words: word k is
    `ms[k] << 11`, which numpy reads as the uniform ms[k] * 2^-53, and
    zeros follow.  It shows numpy's own binomial draw at any uniform,
    the edges of a step table included, which random streams hit about
    once in 2^53.  `read` counts the words numpy took."""

    class _Bitgen(ctypes.Structure):
        # numpy's `bitgen_t`: a state pointer, then next_uint64,
        # next_uint32, next_double and next_raw, in this order
        _fields_ = [(name, ctypes.c_void_p) for name in ("state", "uint64", "uint32", "double", "raw")]

    def __init__(self, ms):
        words = [m << 11 for m in ms] + [0] * 8
        self.read = 0

        def next_uint64(_):
            self.read += 1
            return words[self.read - 1]

        self._calls = (
            ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)(next_uint64),
            ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)(lambda st: next_uint64(st) >> 32),
            ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(lambda st: (next_uint64(st) >> 11) * 2.0**-53),
        )
        uint64, uint32, double = (ctypes.cast(f, ctypes.c_void_p) for f in self._calls)
        self._bitgen = self._Bitgen(None, uint64, uint32, double, uint64)
        capsule_new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)(
            ("PyCapsule_New", ctypes.pythonapi)
        )
        # the two attributes `np.random.Generator` reads from a bit generator
        self.capsule = capsule_new(ctypes.addressof(self._bitgen), b"BitGenerator", None)
        self.lock = threading.Lock()


def test_word_feed_hands_numpy_the_chosen_uniforms():
    feed = _WordFeed([5, 2**53 - 1])
    rng = np.random.Generator(feed)
    assert (rng.random(), rng.random(), rng.random()) == (5 * 2.0**-53, 1.0 - 2.0**-53, 0.0)
    assert feed.read == 3


#: (n, eta) pairs: both inversion branches, eta near 0 and 1, and
#: n * min(eta, 1 - eta) > 30, where numpy switches to BTPE
BINOMIALS = [(n, eta) for n in (1, 2, 3, 4, 6) for eta in (0.001, 0.3, 0.5, 0.8, 0.999)] + [(100, 0.5), (200, 0.9)]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_binomial_replica_matches_each_trial_generator(seed):
    u = trial_uniforms(seed, 2**32 - 200, 400, 2)
    for n, eta in BINOMIALS:
        edges, values = binomial_steps(n, eta)
        table = values[np.searchsorted(edges, u[:, 0], side="right")]
        for k, i in enumerate(range(2**32 - 200, 2**32 + 200)):
            draw = binomial_draw(n, eta, float(u[k, 0]))
            assert table[k] == draw
            if draw < 0:
                assert n * min(eta, 1 - eta) > 30  # only BTPE, at these odds
                continue
            rng = trial_rng(seed, i)
            assert rng.binomial(n, eta) == draw
            # the draw read exactly one word
            assert rng.random() == u[k, 1]


@pytest.mark.parametrize("n, eta", BINOMIALS)
def test_binomial_step_edges_bound_each_draw(n, eta):
    edges, values = binomial_steps(n, eta)
    assert len(values) == len(edges) + 1
    assert np.all(np.diff(edges) > 0)
    assert values[0] == binomial_draw(n, eta, 0.0)
    assert values[-1] == binomial_draw(n, eta, 1.0 - 2.0**-53)
    for k, edge in enumerate(edges):
        m = int(edge * 2.0**53)
        assert m * 2.0**-53 == edge
        for word, value in ((m - 1, values[k]), (m, values[k + 1])):
            assert binomial_draw(n, eta, word * 2.0**-53) == value
            # numpy's own draw from that word: the value, or a second word read
            feed = _WordFeed([word])
            draw = np.random.Generator(feed).binomial(n, eta)
            assert (feed.read, draw) == ((1, value) if value >= 0 else (2, draw))


def test_binomial_redraw_region_is_the_top_of_the_range():
    # n = 2, eta = 0.8: the inversion's probabilities sum to just under
    # 1, so numpy discards the highest words and reads another
    edges, values = binomial_steps(2, 0.8)
    assert values.tolist() == [2, 1, 0, -1]
    assert 1.0 - edges[-1] < 2.0**-50


def test_a_loss_word_at_a_redraw_edge_runs_the_trial_generator(monkeypatch):
    cfg = ProtocolConfig(detector=DetectorSpec(efficiency=0.8, dark_prob=1e-3), mode="sampled", theta=0.7, phi=1.9)
    sp = protocols._SampledProtocol(cfg, "memory")
    occupations = np.array([occ for occ, _ in sp.prep.distribution])
    edges, _ = binomial_steps(2, 0.8)
    # the first trial whose pattern puts two photons on one detector; its
    # stream reads a loss word for each detector with photons before that
    # one, and a dark-count word for every detector before it
    words = trial_uniforms(cfg.seed, 0, 1000, 1)[:, 0]
    picks = sp.prep.sampler.pick(words)
    trial = next(i for i, pick in enumerate(picks) if 2 in occupations[pick])
    occ = occupations[picks[trial]].tolist()
    j = occ.index(2)
    col = 1 + sum(n > 0 for n in occ[:j]) + j

    def crafted(seed, start, count, n):
        u = trial_uniforms(seed, start, count, n)
        u[trial - start, col] = edges[-1]
        return u

    built = []
    monkeypatch.setattr("stokesim.rng.trial_uniforms", crafted)
    monkeypatch.setattr("stokesim.rng.trial_rng", lambda seed, i: built.append(i) or trial_rng(seed, i))
    bulk = sp.prep.sampler.sample_block(cfg.seed, 0, trial + 10)
    assert built == [trial]
    # the scalar path read the trial's real stream, as every trial matches
    index = {occ: i for i, (occ, _) in enumerate(sp.prep.distribution)}
    oracle = []
    for i in range(trial + 10):
        _, code, true = sp.prep.sample(trial_rng(cfg.seed, i))
        oracle.append(index[true] * 16 + code)
    assert bulk.tolist() == oracle
