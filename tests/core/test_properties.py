"""Hypothesis property tests on the attack stack's invariants."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import DNNStartDetector
from repro.core.campaign import _cell_seed
from repro.core.scheme import AttackScheme as Scheme
from repro.errors import SchemeError
from repro.sensors.encoder import zone_bits_from_readout


class TestSchemeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        delay=st.integers(min_value=0, max_value=500),
        window=st.integers(min_value=1, max_value=8000),
        strikes=st.integers(min_value=1, max_value=256),
    )
    def test_spread_over_stays_in_window(self, delay, window, strikes):
        try:
            scheme = Scheme.spread_over(delay, window, strikes)
        except SchemeError:
            return  # legitimately does not fit
        starts = scheme.strike_start_cycles()
        assert starts.shape == (strikes,)
        assert starts[0] == delay
        assert starts[-1] + scheme.strike_cycles <= delay + window
        # Strictly increasing, uniformly spaced.
        assert np.all(np.diff(starts) == scheme.attack_period)

    @settings(max_examples=60, deadline=None)
    @given(
        delay=st.integers(min_value=0, max_value=100),
        period=st.integers(min_value=2, max_value=64),
        count=st.integers(min_value=0, max_value=50),
    )
    def test_compiled_bits_count_matches(self, delay, period, count):
        scheme = Scheme(delay, period, count)
        bits = scheme.compile()
        assert int(bits.sum()) == count * scheme.strike_cycles
        assert bits.shape[0] == scheme.total_cycles

    @settings(max_examples=40, deadline=None)
    @given(
        delay=st.integers(min_value=0, max_value=100),
        period=st.integers(min_value=2, max_value=32),
        count=st.integers(min_value=1, max_value=30),
    )
    def test_compiled_strikes_where_promised(self, delay, period, count):
        scheme = Scheme(delay, period, count)
        bits = scheme.compile()
        for start in scheme.strike_start_cycles():
            assert bits[start] == 1


class TestDetectorProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        idle=st.integers(min_value=90, max_value=94),
        wobble=st.integers(min_value=0, max_value=1),
    )
    def test_never_triggers_within_purified_band(self, idle, wobble):
        """Any trace staying within the top zone's band cannot trigger."""
        rng = np.random.default_rng(idle * 7 + wobble)
        trace = idle + rng.integers(-wobble, wobble + 1, size=400)
        det = DNNStartDetector()
        if np.all(det.detector_input_trace(trace) >= 4):
            assert det.find_trigger(trace) is None

    @settings(max_examples=40, deadline=None)
    @given(droop=st.integers(min_value=3, max_value=40))
    def test_always_triggers_on_sustained_droop(self, droop):
        trace = np.concatenate([np.full(50, 92), np.full(50, 92 - droop)])
        det = DNNStartDetector()
        hw_during = zone_bits_from_readout(92 - droop).sum()
        hit = det.find_trigger(trace)
        if hw_during <= det.trigger_hw:
            assert hit is not None and hit >= 50
        else:
            assert hit is None


#: Seed matrix covering every axis _cell_seed hashes over: campaign base
#: seeds, target names (including the blind baseline), strike counts.
SEED_MATRIX = [(base, target, count)
               for base in (0, 1, 5, 97)
               for target in ("conv1", "conv2", "fc1", "pool1", "blind")
               for count in (1, 40, 500, 4500)]


class TestCellSeedProperties:
    """The per-cell RNG derivation underpinning serial/parallel parity."""

    def test_distinct_across_the_matrix(self):
        """No collisions anywhere in the seed matrix: every (base,
        target, count) cell gets its own 64-bit stream."""
        seeds = [_cell_seed(b, t, c) for b, t, c in SEED_MATRIX]
        assert len(set(seeds)) == len(seeds)

    @pytest.mark.parametrize(("base", "target", "count"),
                             [(0, "conv1", 500), (5, "pool1", 40),
                              (1, "blind", 4500)])
    def test_pinned_golden_values(self, base, target, count):
        """Golden values: any drift in the blake2s recipe would silently
        invalidate every checkpoint ever written, so pin it."""
        golden = {
            (0, "conv1", 500): 6495321012492060130,
            (5, "pool1", 40): 13605348230261973582,
            (1, "blind", 4500): 11994326623131085193,
        }
        assert _cell_seed(base, target, count) == golden[(base, target,
                                                         count)]

    def test_stable_across_process_boundaries(self):
        """A freshly spawned interpreter (its own PYTHONHASHSEED — the
        trap ``hash()`` would fall into) derives the identical matrix;
        this is what lets pool workers agree with the parent."""
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, json; sys.path.insert(0, {src!r}); "
            "from repro.core.campaign import _cell_seed; "
            "matrix = {matrix!r}; "
            "print(json.dumps([_cell_seed(b, t, c) for b, t, c in matrix]))"
        ).format(src=src_dir, matrix=SEED_MATRIX)
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == [_cell_seed(b, t, c)
                                          for b, t, c in SEED_MATRIX]

    @settings(max_examples=60, deadline=None)
    @given(base=st.integers(min_value=0, max_value=2**32),
           count=st.integers(min_value=0, max_value=10**6),
           target=st.sampled_from(["conv1", "fc1", "blind", "pool1"]))
    def test_fits_in_uint64_and_is_deterministic(self, base, count, target):
        seed = _cell_seed(base, target, count)
        assert 0 <= seed < 2**64
        assert seed == _cell_seed(base, target, count)


class TestSchemeRoundTrip:
    """compile() -> parse() round-trips of the attacking scheme file."""

    @settings(max_examples=60, deadline=None)
    @given(delay=st.integers(min_value=0, max_value=200),
           period=st.integers(min_value=1, max_value=64),
           count=st.integers(min_value=2, max_value=40),
           width=st.integers(min_value=1, max_value=8))
    def test_multi_pulse_schemes_round_trip_exactly(self, delay, period,
                                                    count, width):
        """With >= 2 pulses the period is observable, so parse recovers
        the scheme parameter-for-parameter."""
        try:
            scheme = Scheme(delay, period, count, strike_cycles=width)
        except SchemeError:
            return  # period < width: legitimately unconstructible
        if period == width:
            return  # pulses fuse into one run; covered by the bit test
        assert Scheme.parse(scheme.compile()) == scheme

    @settings(max_examples=60, deadline=None)
    @given(delay=st.integers(min_value=0, max_value=200),
           period=st.integers(min_value=1, max_value=64),
           count=st.integers(min_value=0, max_value=40),
           width=st.integers(min_value=1, max_value=8))
    def test_bit_vectors_always_round_trip(self, delay, period, count,
                                           width):
        """Bit-level invariant for *every* constructible scheme (single
        pulses lose the unobservable period, but never the bits)."""
        try:
            scheme = Scheme(delay, period, count, strike_cycles=width)
        except SchemeError:
            return
        bits = scheme.compile()
        assert np.array_equal(Scheme.parse(bits).compile(), bits)


class TestBucketProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bucketing_partitions_strikes(self, seed, probe_attack):
        """landed + wasted == total, cycles stay layer-relative."""
        rng = np.random.default_rng(seed)
        total_cycles = probe_attack.engine.schedule.total_cycles
        n = 40
        cycles = np.sort(rng.choice(total_cycles, size=n, replace=False))
        volts = np.full(n, 0.95)
        struck, wasted = probe_attack.bucket_strikes(cycles, volts)
        landed = sum(s.count for s in struck)
        assert landed + wasted == n
        for entry in struck:
            window = probe_attack.engine.schedule.window(entry.layer_name)
            assert np.all(entry.cycles >= 0)
            assert np.all(entry.cycles < window.cycles)


@pytest.fixture(scope="module")
def probe_attack(probe_engine):
    from repro.core import DeepStrike

    return DeepStrike(probe_engine, rng=np.random.default_rng(0))
