"""The 802.11 frequency-hopping spread-spectrum PHY (1 and 2 Mbps).

FHSS was the alternative spread-spectrum option in the original standard:
79 one-MHz channels in the 2.4 GHz ISM band, pseudo-random hop patterns,
and 2-level (1 Mbps) or 4-level (2 Mbps) GFSK modulation.

Included here:

* the standard's hop-sequence family ``f_x(i) = (b(i) + x) mod 79``,
  approximated with a maximally scrambled base permutation;
* a complex-baseband GFSK modem (Gaussian pulse shaping, FM modulation,
  phase-discriminator detection);
* a hop-collision model for co-located networks, the mechanism by which
  FHSS shares spectrum.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DemodulationError
from repro.utils.rng import as_generator

N_CHANNELS = 79
CHANNEL_SPACING_HZ = 1e6
MIN_HOP_DISTANCE = 6  # the standard requires consecutive hops >= 6 channels


def hop_sequence(pattern_index, n_hops, rng_seed=2005):
    """A pseudo-random 79-channel hop sequence.

    Sequences in the same family (same ``rng_seed``) with different
    ``pattern_index`` are cyclic shifts of one base permutation, mirroring
    the standard's ``(b(i) + x) mod 79`` family structure, so any two
    sequences collide on exactly one channel index per cycle.
    """
    rng = np.random.default_rng(rng_seed)
    base = _min_distance_permutation(rng)
    seq = (base + pattern_index) % N_CHANNELS
    reps = int(np.ceil(n_hops / N_CHANNELS))
    return np.tile(seq, reps)[:n_hops]


def _min_distance_permutation(rng, max_attempts=500):
    """Random permutation of 0..78 whose consecutive steps are >= 6 apart."""
    for _ in range(max_attempts):
        perm = rng.permutation(N_CHANNELS)
        gaps = np.abs(np.diff(perm))
        if np.all(gaps >= MIN_HOP_DISTANCE):
            return perm
    # Fallback: deterministic large-stride pattern (stride 23 is coprime
    # with 79 and always >= 6 away modulo wrap-around).
    return (23 * np.arange(N_CHANNELS)) % N_CHANNELS


def collision_probability(n_networks):
    """Probability a given hop suffers a co-channel collision.

    With ``n`` co-located, unsynchronised networks each occupying one of the
    79 channels per dwell, the probability that at least one other network
    lands on our channel is ``1 - (1 - 1/79)^(n-1)``.
    """
    if n_networks < 1:
        raise ConfigurationError("need at least one network")
    return 1.0 - (1.0 - 1.0 / N_CHANNELS) ** (n_networks - 1)


def gaussian_pulse(bt=0.5, samples_per_symbol=8, span=4):
    """Gaussian frequency-pulse (unit area) for GFSK with bandwidth-time bt."""
    if bt <= 0:
        raise ConfigurationError(f"BT product must be positive, got {bt}")
    if samples_per_symbol < 1:
        raise ConfigurationError(
            f"need >= 1 sample per symbol, got {samples_per_symbol}")
    t = np.arange(-span / 2, span / 2, 1.0 / samples_per_symbol)
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * bt)
    pulse = np.exp(-(t ** 2) / (2.0 * sigma ** 2))
    return pulse / pulse.sum()


class GfskModem:
    """2- or 4-level GFSK at one hop channel (complex baseband).

    Parameters
    ----------
    levels : int
        2 (1 Mbps) or 4 (2 Mbps).
    modulation_index : float
        Peak frequency deviation as a fraction of the symbol rate; 0.32 is
        the 802.11 FH value for 2GFSK.
    samples_per_symbol : int
    bt : float
        Gaussian filter bandwidth-time product (802.11 uses 0.5).
    """

    def __init__(self, levels=2, modulation_index=0.32,
                 samples_per_symbol=8, bt=0.5):
        if levels not in (2, 4):
            raise ConfigurationError(f"GFSK levels must be 2 or 4, got {levels}")
        self.levels = levels
        self.bits_per_symbol = 1 if levels == 2 else 2
        self.modulation_index = modulation_index
        self.sps = int(samples_per_symbol)
        self.bt = bt
        self._pulse = gaussian_pulse(bt=bt, samples_per_symbol=self.sps)

    def _symbols(self, bits):
        bits = np.asarray(bits).astype(int).ravel()
        if bits.size % self.bits_per_symbol != 0:
            raise ConfigurationError(
                f"{bits.size} bits is not a multiple of {self.bits_per_symbol}"
            )
        if self.levels == 2:
            return 2.0 * bits - 1.0  # -1, +1
        pairs = bits.reshape(-1, 2)
        value = pairs[:, 0] * 2 + pairs[:, 1]
        # Gray-coded 4 levels: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
        level_of = np.array([-3.0, -1.0, 3.0, 1.0])
        return level_of[value]

    def modulate(self, bits):
        """GFSK-modulate bits into a unit-envelope complex baseband signal."""
        from scipy.signal import fftconvolve

        symbols = self._symbols(bits)
        impulses = np.zeros(symbols.size * self.sps)
        impulses[:: self.sps] = symbols
        freq = fftconvolve(impulses, self._pulse, mode="full")
        # The pulse has unit area, so each +/-1 symbol contributes a total
        # phase of pi * h (cycles: h/2) — the CPFSK definition of the
        # modulation index.
        phase = 2.0 * np.pi * (self.modulation_index / 2.0) * np.cumsum(freq)
        return np.exp(1j * phase)

    def n_samples(self, n_bits):
        """Signal length :meth:`modulate` produces for ``n_bits`` bits."""
        return n_bits // self.bits_per_symbol * self.sps + len(self._pulse) - 1

    def demodulate(self, signal, n_bits):
        """Discriminator (phase-difference) detection."""
        signal = np.asarray(signal, dtype=np.complex128).ravel()
        inst_freq = np.angle(signal[1:] * np.conj(signal[:-1]))
        # Integrate-and-dump over a window centred on each pulse peak.
        delay = len(self._pulse) // 2
        n_symbols = n_bits // self.bits_per_symbol
        decisions = np.empty(n_symbols)
        for k in range(n_symbols):
            start = max(delay + k * self.sps - self.sps // 2, 0)
            stop = start + self.sps
            if stop > inst_freq.size:
                raise DemodulationError("signal too short for requested bits")
            decisions[k] = inst_freq[start:stop].mean()
        # Per-sample frequency of a lone +/-1 symbol, accounting for the
        # fraction of the Gaussian pulse mass inside the decision window.
        centre = len(self._pulse) // 2
        window_mass = self._pulse[
            max(centre - self.sps // 2, 0) : centre + self.sps // 2
        ].sum()
        scale = np.pi * self.modulation_index * window_mass / self.sps
        normalised = decisions / scale
        if self.levels == 2:
            return (normalised > 0).astype(np.int8)
        edges = np.array([-2.0, 0.0, 2.0])
        idx = np.digitize(normalised, edges)  # 0..3 for -3,-1,+1,+3
        bits_of_level = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
        out = []
        for i in idx:
            out.extend(bits_of_level[int(i)])
        return np.array(out, dtype=np.int8)


class FhssPhy:
    """FHSS link abstraction: GFSK modem + hop pattern + collision model.

    ``transmit_dwell``/``receive_dwell`` move one dwell period's bits; a
    collision (another network on the same channel) is modelled as a jamming
    interferer added at the given interference-to-signal ratio.
    """

    def __init__(self, rate_mbps=1, pattern_index=0):
        if rate_mbps not in (1, 2):
            raise ConfigurationError(f"FHSS rate must be 1 or 2, got {rate_mbps}")
        self.rate_mbps = rate_mbps
        self.pattern_index = pattern_index
        self.modem = GfskModem(levels=2 if rate_mbps == 1 else 4)

    def channel_for_hop(self, hop_index):
        """Channel number used on dwell ``hop_index``."""
        return int(hop_sequence(self.pattern_index, hop_index + 1)[-1])

    def transmit_dwell(self, bits):
        """Modulate one dwell's bits."""
        return self.modem.modulate(bits)

    def receive_dwell(self, signal, n_bits, collided=False,
                      interference_db=0.0, rng=None):
        """Demodulate one dwell, optionally jammed by a colliding network."""
        rng = as_generator(rng)
        signal = np.asarray(signal, dtype=np.complex128)
        if collided:
            # A colliding GFSK burst is well modelled as a constant-envelope
            # random-phase interferer at the same centre frequency.
            isr = 10.0 ** (interference_db / 10.0)
            phase = rng.uniform(0, 2 * np.pi, signal.size)
            signal = signal + np.sqrt(isr) * np.exp(1j * np.cumsum(
                0.3 * rng.normal(size=signal.size)) + 1j * phase[0])
        return self.modem.demodulate(signal, n_bits)
