import itertools
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import twostage
from twostage import rng as rng_mod
from twostage.rng import event_draws, exponentials, substream

_MASK64 = (1 << 64) - 1


def _reference(seed, *keys):
    entropy = [int(seed) & _MASK64] + [int(k) & _MASK64 for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _same_stream(seed, *keys):
    return substream(seed, *keys).bit_generator.state == _reference(seed, *keys).bit_generator.state


def test_substream_equals_seed_sequence_over_blocks_of_keys():
    # the seed's entropy word count (1 or 2) changes the hash, so cover
    # small, >= 2**32 and negative seeds (masked to 64 bits)
    for seed in (0, 11, 2**32 - 1, 2**32, 2**40 + 3, -1, -(2**40)):
        for k in range(0, 1100):
            assert _same_stream(seed, k), (seed, k)


def test_substream_equals_seed_sequence_at_block_and_word_edges():
    edges = [0, 1, 255, 256, 257, 511, 512, 2**31, 2**32 - 257, 2**32 - 256, 2**32 - 1]
    beyond = [2**32, 2**32 + 1, 2**40, _MASK64, 2**64, 2**64 + 7, -1, -256]
    for seed in (0, 5, 2**33 + 1, -7):
        for k in edges + beyond:
            assert _same_stream(seed, k), (seed, k)


def test_substream_equals_seed_sequence_for_other_key_tuples():
    for keys in [(), (3, 4), (0, 0, 0), (2**32, 5), (7, 2**40, 1), (-1, 2)]:
        for seed in (0, 9, 2**32 + 9, -3):
            assert _same_stream(seed, *keys), (seed, keys)


def test_substream_interleaved_seeds_and_blocks():
    # more live (seed, block) pairs than the memo keeps, visited in turn
    seeds = [1, 2, 3, 4, 5, 2**35, -9]
    for k in range(0, 3000, 7):
        for seed in seeds:
            assert _same_stream(seed, k), (seed, k)
    assert rng_mod._block_states.cache_info().currsize <= 4


def test_substream_streams_draw_as_seed_sequence():
    a = substream(21, 300)
    b = _reference(21, 300)
    assert (a.random(1000) == b.random(1000)).all()
    assert (a.standard_exponential(100) == b.standard_exponential(100)).all()
    assert isinstance(a.bit_generator, np.random.PCG64)


def test_block_seeded_generator_pickles_as_its_seed_sequence():
    g = substream(4, 9)
    g.random(3)
    h = pickle.loads(pickle.dumps(g))
    assert h.bit_generator.state == g.bit_generator.state
    assert (h.random(5) == g.random(5)).all()


def test_import_does_not_load_numpy_random():
    src = os.path.dirname(os.path.dirname(twostage.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, twostage; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ----------------------------------------------------------------------
# draw layout: windows of 64, 64, 128, ..., 4096 values, then 4096 each;
# a window of w is drawn when its first value is read, as w uniforms and
# then w exponentials (event_draws) or w exponentials alone (exponentials)
# ----------------------------------------------------------------------
WINDOWS = [64, 64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096, 4096]
ENDS = list(itertools.accumulate(WINDOWS))  # past 2 * 8192 values


def _state(gen):
    # MT19937's and Philox's states hold arrays, which do not compare as a whole
    return pickle.dumps(gen.bit_generator.state)


def _layout(gen, pairs):
    """The values of every window of WINDOWS in plain numpy draws, and
    gen's state after each window."""
    values, states = [], []
    for w in WINDOWS:
        if pairs:
            values += zip(gen.random(w).tolist(), gen.standard_exponential(w).tolist())
        else:
            values += gen.standard_exponential(w).tolist()
        states.append(_state(gen))
    return values, states


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
@pytest.mark.parametrize("read", [event_draws, exponentials])
def test_draws_follow_one_window_layout_on_every_generator(bit_generator, read):
    pairs = read is event_draws
    # slices of 5 values on each side of every window edge, and the rest
    # between them; after each slice the generator sits at the end of the
    # window that holds the last value read
    cuts = sorted({0} | {e + k for e in ENDS for k in (-5, 0, 5) if e + k <= ENDS[-1]})
    for seed in (3, 4):
        want, states = _layout(np.random.Generator(bit_generator(seed)), pairs)
        rng = np.random.Generator(bit_generator(seed))
        before = _state(rng)
        draws = read(rng)
        assert _state(rng) == before  # nothing is drawn until a value is read
        for lo, hi in zip(cuts, cuts[1:]):
            got = list(itertools.islice(draws, hi - lo))
            assert got == want[lo:hi], (seed, lo, hi)
            flat = itertools.chain.from_iterable(got) if pairs else got
            assert all(type(x) is float for x in flat)
            window = next(i for i, e in enumerate(ENDS) if e >= hi)
            assert _state(rng) == states[window], (seed, hi)


def test_a_second_reader_goes_on_where_the_first_stopped():
    # 70 pairs reach the second window; a clock stream on the same
    # generator starts after it
    rng = substream(5, 1)
    list(itertools.islice(event_draws(rng), 70))
    first_clock = next(exponentials(rng))
    ref = substream(5, 1)
    for w in (64, 64):
        ref.random(w)
        ref.standard_exponential(w)
    assert first_clock == ref.standard_exponential(64)[0]
    assert rng.bit_generator.state == ref.bit_generator.state
