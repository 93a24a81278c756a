"""Parametric timing model of the device under test.

The simulator prices a challenge instead of cycle-accurately executing one:

    duration = passes * scan_words * (scan_cost + compute_cost)
             + adversary_delay
             + noise_sample                                [integer microseconds]

Swap adversaries evict checked words to a slower tier and refill them every
pass, paying two transfers per word (the load/store pair of a minimal
persistent implant), so

    adversary_delay = passes * words_per_pass * 2 * (tier.per_word_cost
                                                     + tier.per_op_fixed_cost)

while an mmc_io adversary pays for a single payload transfer once per
challenge.

Each time-only adversary (ADVERSARY_TIERS) answers correctly and pays only
latency, the strongest stealthy attacker; corrupt_result's wrong answer
(AdversaryConfig.answer, zero delay) exercises the value check. Tiers are
checked at load: a Scenario refuses a tier table that lacks one it prices.

Default calibration solves per-word costs from published aggregate timings
for a 500-pass scan of a 192 KB region rather than inventing absolute
latencies; every knob stays configurable through scenario JSON.
"""

import functools
import itertools
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .checkpoint import DEFAULT_REGISTER_COUNT, Checkpoint, checkpoint_record, region_bytes
from .errors import TimecheckError, UnknownTier
from .field import is_prime
from .seeding import STREAM_WORDS, derive_seed, derive_seeds, first_words, random_words

# --- default calibration ---------------------------------------------------
# 192 KB of 8-byte words plus a 64-word register file, scanned 500 times in
# 9.591e6 us. Swap tiers are solved from the observed +4000 us (DRAM) and
# +1000 us (IOMEM) aggregate delays at one word per pass; the mmc numbers
# come from the +3.57e6 us cost of a single 512-byte payload transfer.

SRAM_IMAGE_WORDS = 24576
SRAM_REGISTER_WORDS = 64
SRAM_SCAN_WORDS = SRAM_IMAGE_WORDS + SRAM_REGISTER_WORDS  # 24640
SRAM_PASSES = 500
SRAM_BASELINE_MEAN_US = 9.591e6
SRAM_SCAN_US_PER_WORD = SRAM_BASELINE_MEAN_US / (SRAM_PASSES * SRAM_SCAN_WORDS)

FULL_IMAGE_WORDS = (4 << 30) // 8 + SRAM_IMAGE_WORDS  # 4 GiB of DRAM + SRAM
FULL_STANDIN_WORDS = 4096  # the image a full-memory device materializes
FULL_PASSES = 1
FULL_BASELINE_MEAN_US = 1.731895e9
FULL_SCAN_US_PER_WORD = FULL_BASELINE_MEAN_US / (FULL_PASSES * FULL_IMAGE_WORDS)
FULL_BASELINE_SIGMA_US = 16543.0
FULL_MMC_SIGMA_US = 28587.0

MMC_PAYLOAD_BYTES = 512
MMC_DELAY_US = 3.570e6  # mean shift of the full-memory storage attack

# The tier each time-only adversary kind is priced from: a swap evicts words
# to it, and mmc_io moves its payload through it.
ADVERSARY_TIERS = {"dram_swap": "dram", "iomem_swap": "iomem", "mmc_io": "mmc"}


@dataclass(frozen=True)
class TierModel:
    """Per-word access cost and per-transaction fixed cost of one memory tier.

    A tier's name is its key in a tier table; validate_tiers checks the table.
    """

    per_word_cost: float  # us per 8-byte access
    per_op_fixed_cost: float = 0.0  # us per swap transaction


def default_tiers() -> dict:
    mmc_fixed = MMC_DELAY_US - (MMC_PAYLOAD_BYTES // 8) * 100.0
    return {
        "sram": TierModel(SRAM_SCAN_US_PER_WORD),
        "iomem": TierModel(1.0),
        "dram": TierModel(4.0),
        "mmc": TierModel(100.0, mmc_fixed),
    }


def validate_tiers(tiers: dict):
    """Raise ValueError unless each tier's fields hold their types (see
    _check_fields), its costs are >= 0, and the tiers keep their physical
    ordering: sram and iomem are faster than dram, dram than mmc."""
    for name, tier in tiers.items():
        _check_fields(tier, f"tier {name}: ")
        if tier.per_word_cost < 0 or tier.per_op_fixed_cost < 0:
            raise ValueError(f"tier {name}: costs must be non-negative")
    for faster, slower in (("sram", "dram"), ("iomem", "dram"), ("dram", "mmc")):
        if (faster in tiers and slower in tiers
                and not tiers[faster].per_word_cost < tiers[slower].per_word_cost):
            raise ValueError(f"tier ordering violated: {faster} must be faster than {slower}")


# The field annotations _check_fields checks, and what a value of each must be.
_KINDS = {int: "an int", str: "a str", float: "a number"}


def _fault(value, want: type):
    """None when value fits a field annotated want (a _KINDS key), else what
    it must be: a bool is neither an int nor a number, and a float field takes
    an int or float no larger than the largest finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
        return _KINDS[want]
    if want is float and not abs(value) <= sys.float_info.max:  # nan, inf or a huge int
        return "finite"
    return None


def _check_fields(obj, where: str = ""):
    """Raise ValueError naming the first int, str or float field of the
    dataclass obj whose value does not fit its annotation (see _fault). A None
    in a field whose default is None is left for __post_init__ to fill. where
    prefixes the field name in the message."""
    for f in obj.__dataclass_fields__.values():
        if f.type in _KINDS:
            value = getattr(obj, f.name)
            if not (value is None is f.default) and (fault := _fault(value, f.type)):
                raise ValueError(f"{where}{f.name} must be {fault}, got {value!r}")


@dataclass(frozen=True)
class AdversaryConfig:
    """What the injected adversary does each challenge."""

    kind: str = "none"  # none | dram_swap | iomem_swap | mmc_io | corrupt_result
    words_per_pass: int = 1
    payload_bytes: int = MMC_PAYLOAD_BYTES

    def __post_init__(self):
        _check_fields(self)
        if self.kind not in ("none", "corrupt_result", *ADVERSARY_TIERS):
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.kind in ADVERSARY_TIERS and self.kind != "mmc_io" and self.words_per_pass < 1:
            raise ValueError("swap adversaries move at least one word per pass")
        if self.payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {self.payload_bytes}")

    def answer(self, accumulator: int, p: int) -> int:
        """The accumulator this adversary reports for an honest one mod p."""
        return (accumulator + 1) % p if self.kind == "corrupt_result" else accumulator


# Each --attack name and the adversary it installs.
ATTACKS = {
    "none": AdversaryConfig("none"),
    "dram": AdversaryConfig("dram_swap", words_per_pass=1),
    "iomem": AdversaryConfig("iomem_swap", words_per_pass=1),
    "mmc": AdversaryConfig("mmc_io"),
    "corrupt": AdversaryConfig("corrupt_result"),
}


# Every duration a Scenario prices stays below 2^53 us, where a float still
# holds each whole microsecond and noise still moves it.
MAX_DURATION_US = 2.0 ** 53
GAUSS_REACH = math.sqrt(-2.0 * math.log(2.0 ** -53))  # max |gauss(0, 1)|: 1 - random() >= 2^-53


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise, optional baseline drift, and rare interrupt spikes.

    kind "gaussian" uses sigma, "uniform" draws from [-width, +width],
    "empirical" resamples from the given values (repeats encode weights --
    quantized timer/link noise is naturally atomic). Drift shifts the mean
    linearly per trial or as a step; both exist to exercise recalibration.
    """

    kind: str = "gaussian"
    sigma: float = 185.0
    width: float = 320.0
    values: tuple = ()
    drift: str = "none"  # none | linear | step
    drift_us_per_trial: float = 0.0
    drift_step_at: int = 0
    drift_step_us: float = 0.0
    nmi_prob: float = 0.0
    nmi_us: float = 50_000.0

    def __post_init__(self):
        _check_fields(self, "noise ")
        if self.kind not in ("gaussian", "uniform", "empirical"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "empirical" and not self.values:
            raise ValueError("empirical noise needs sample values")
        if self.drift not in ("none", "linear", "step"):
            raise ValueError(f"unknown drift kind {self.drift!r}")
        faults = {_fault(v, float) for v in self.values} - {None}
        if faults:
            must = "finite" if faults == {"finite"} else "numbers"
            raise ValueError(f"noise values must be {must}, got {list(self.values)}")
        if self.sigma < 0 or self.width < 0:
            raise ValueError(f"noise sigma and width must be >= 0, got {self.sigma} "
                             f"and {self.width}")
        if not 0.0 <= self.nmi_prob <= 1.0:
            raise ValueError(f"noise nmi_prob must be in [0, 1], got {self.nmi_prob}")
        if self.drift_step_at < 0:
            raise ValueError(f"noise drift_step_at must be >= 0, got {self.drift_step_at}")

    def reach_us(self, trial_id: int = 1) -> float:
        """The most one sample of trial trial_id, or of an earlier one, moves a duration."""
        spread = {"gaussian": GAUSS_REACH * self.sigma, "uniform": self.width,
                  "empirical": max(map(abs, self.values), default=0.0)}[self.kind]
        drift = {"none": 0.0, "linear": self.drift_us_per_trial * trial_id,
                 "step": self.drift_step_us}
        return spread + abs(drift[self.drift]) + (abs(self.nmi_us) if self.nmi_prob else 0.0)

    def sample(self, rng: random.Random, trial_id: int = 0):
        """(noise_us, nmi_fired) for one trial."""
        if self.kind == "gaussian":
            v = rng.gauss(0.0, self.sigma)
        elif self.kind == "uniform":
            v = rng.uniform(-self.width, self.width)
        else:
            v = self.values[rng.randrange(len(self.values))]
        if self.drift == "linear":
            v += self.drift_us_per_trial * trial_id
        elif self.drift == "step" and trial_id >= self.drift_step_at:
            v += self.drift_step_us
        nmi = self.nmi_prob > 0.0 and rng.random() < self.nmi_prob
        if nmi:
            v += self.nmi_us
        return v, nmi

    def sample_words(self, words, trial_ids):
        """(noise_us, nmi, drawn) arrays: row i is sample(rng, trial_ids[i]) for
        the fresh stream rng whose first getrandbits(32) draws are words[i].

        words is a uint32 matrix, as seeding.first_words returns. Where drawn
        is False the row's draws run past its words, and its noise_us and nmi
        mean nothing: the caller samples it from the real stream.

        The result is exact: sample draws only through getrandbits(k <= 32) and
        random(), which CPython's C code builds from 32-bit words as this does.
        getrandbits(k) is a word's top k bits, randrange(n) the first such draw
        below n for k = n.bit_length(), and random() of words a, b is
        ((a >> 5) * 2^26 + (b >> 6)) / 2^53. uniform(a, b) is a + (b - a) *
        random(), and a fresh stream's gauss(0.0, sigma) is 0.0 +
        cos(random() * 2pi) * sqrt(-2.0 * log(1.0 - random())) * sigma. The
        +, * and sqrt are IEEE-exact in numpy as in CPython; cos and log come
        from math, value by value, since numpy's may differ in the last bit.
        """
        n, width = words.shape
        at = np.arange(n)
        drawn = np.ones(n, bool)

        def uniforms(col):  # random() drawn from words col and col + 1 of each row
            return ((words[at, col] >> 5) * 67108864.0 + (words[at, col + 1] >> 6)) * (
                1.0 / 9007199254740992.0)

        if self.kind == "gaussian":
            cos = np.array([math.cos(x) for x in (uniforms(0) * math.tau).tolist()])
            log = np.array([math.log(u) for u in (1.0 - uniforms(2)).tolist()])
            v = 0.0 + cos * np.sqrt(-2.0 * log) * self.sigma
            used = 4
        elif self.kind == "uniform":
            v = -self.width + (self.width - -self.width) * uniforms(0)
            used = 2
        else:
            size = len(self.values)
            draws = words >> np.uint32(32 - size.bit_length())
            below = draws < size
            first = below.argmax(axis=1)
            drawn = below[at, first]
            v = np.array(self.values, float)[np.where(drawn, draws[at, first], 0)]
            used = first + 1
        if self.drift == "linear":
            v = v + self.drift_us_per_trial * trial_ids
        elif self.drift == "step":
            v = np.where(trial_ids >= self.drift_step_at, v + self.drift_step_us, v)
        nmi = np.zeros(n, bool)
        if self.nmi_prob > 0.0:
            drawn &= used + 2 <= width
            nmi = uniforms(np.minimum(used, width - 2)) < self.nmi_prob
            v = np.where(nmi, v + self.nmi_us, v)
        return v, nmi, drawn


@dataclass(frozen=True)
class Measurement:
    """One timed challenge observation, as the verifier records it."""

    trial_id: int
    scenario: str
    duration_us: int
    spec_digest: str = ""  # of the challenge sent; empty when none was sent
    nmi: bool = False

    def __post_init__(self):
        if self.duration_us <= 0:
            raise ValueError("durations are positive microsecond counts")


def make_device_state(image_seed: int, image_words: int,
                      register_count: int = DEFAULT_REGISTER_COUNT) -> np.ndarray:
    """Seeded live device memory: pseudorandom image words, then register file."""
    return np.concatenate([random_words(derive_seed(image_seed, "image"), image_words),
                           random_words(derive_seed(image_seed, "registers"), register_count)])


@functools.lru_cache(maxsize=8)
def device_snapshot(image_seed: int, image_words: int, region_id: str = "sram",
                    register_count: int = DEFAULT_REGISTER_COUNT) -> Checkpoint:
    """The checkpoint of make_device_state(...), recorded once per distinct image.

    A process-wide cache is safe because a checkpoint's words are read-only
    and determined by its key.
    """
    return checkpoint_record(make_device_state(image_seed, image_words, register_count),
                             register_count, region_id)


def adversary_delay_us(adversary: AdversaryConfig, tiers: dict, passes: int) -> float:
    """Total injected latency for one challenge; tiers holds the adversary's
    ADVERSARY_TIERS tier, as a Scenario checks."""
    if adversary.kind not in ADVERSARY_TIERS:
        return 0.0
    tier = tiers[ADVERSARY_TIERS[adversary.kind]]
    if adversary.kind == "mmc_io":  # one payload transfer per challenge
        return math.ceil(adversary.payload_bytes / 8) * tier.per_word_cost + tier.per_op_fixed_cost
    per_word = 2.0 * (tier.per_word_cost + tier.per_op_fixed_cost)  # evict + refill
    return passes * adversary.words_per_pass * per_word  # every pass


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible experiment configuration."""

    name: str
    region_id: str = "sram"
    image_words: int = SRAM_IMAGE_WORDS
    register_count: int = SRAM_REGISTER_WORDS
    timing_words: int = None  # scan length priced by the timing model
    passes: int = SRAM_PASSES
    prime: int = (1 << 61) - 1
    k: int = 4
    tiers: dict = field(default_factory=default_tiers)
    scan_us_per_word: float = None
    compute_us_per_word: float = 0.0
    noise: NoiseModel = field(default_factory=NoiseModel)
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    image_seed: int = 7

    def __post_init__(self):
        _check_fields(self)
        validate_tiers(self.tiers)
        region_bytes(self.region_id)
        if self.timing_words is None:
            object.__setattr__(self, "timing_words",
                               self.image_words + self.register_count)
        if self.scan_us_per_word is None:
            if "sram" not in self.tiers:
                raise UnknownTier("an unset scan_us_per_word needs tier 'sram'")
            object.__setattr__(self, "scan_us_per_word",
                               self.tiers["sram"].per_word_cost)
        needed = ADVERSARY_TIERS.get(self.adversary.kind)
        if needed not in (None, *self.tiers):
            raise UnknownTier(f"adversary {self.adversary.kind} needs tier {needed!r}")
        for name, least in (("passes", 1), ("k", 1), ("image_words", 1), ("timing_words", 1),
                            ("register_count", 0), ("scan_us_per_word", 0),
                            ("compute_us_per_word", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (2 <= self.prime < 1 << 64 and is_prime(self.prime)):
            raise ValueError(f"prime must be a prime below 2^64, got {self.prime}")
        fault = duration_bound_fault(self, self.passes)
        if fault:
            raise ValueError(fault)

    def base_cost_us(self, passes: int) -> float:
        """Honest scan time of a challenge of this many passes, before noise."""
        return passes * self.timing_words * (self.scan_us_per_word + self.compute_us_per_word)


def _nominal_us(scenario: Scenario, passes: int) -> float:
    """Base cost + adversary delay of one challenge: its duration before noise."""
    return (scenario.base_cost_us(passes)
            + adversary_delay_us(scenario.adversary, scenario.tiers, passes))


def duration_bound_fault(scenario: Scenario, passes: int, trial_id: int = 1):
    """Why trial trial_id, or an earlier one, of a challenge of this many passes
    could price a duration at or past 2^53 us, or None."""
    try:  # an int too large to price in a float reads as inf
        nominal = _nominal_us(scenario, passes)
    except OverflowError:
        nominal = math.inf
    reach = scenario.noise.reach_us(trial_id)
    if not nominal + reach < MAX_DURATION_US:
        return (f"a priced duration must stay below 2^53 us: {nominal:.6g} us at "
                f"{passes} passes, noise reaching {reach:.6g} us")


def price(scenario: Scenario, passes: int, rng: random.Random, trial_id: int = 0):
    """(duration_us, nmi) of one challenge: base cost + adversary delay + noise.

    The duration is a float; callers round it to the timer's microseconds.
    One noise draw comes from rng, and trial_id drives the noise drift.
    """
    noise_us, nmi = scenario.noise.sample(rng, trial_id)
    return _nominal_us(scenario, passes) + noise_us, nmi


def priced_trials(batches):
    """(duration_us, nmi) of every trial of each (scenario, n_trials, master_seed)
    batch, at the scenario's passes: an iterator of one list per batch, in
    trial order.

    The timing model is content-independent, so no challenge is drawn and no
    polynomial is evaluated. Trial i of a batch gets the rounded duration and
    the nmi of price(scenario, scenario.passes, rng, i) on the fresh stream
    rng = random.Random(derive_seed(master_seed, f"{scenario.name}/noise", i)).
    One seeding.first_words call gives every stream's first STREAM_WORDS words
    (in one numpy pass from NUMPY_SEEDING_MIN streams on), so a caller with
    many small batches passes them together, and one NoiseModel.sample_words
    call prices the trials of each scenario object from them. A trial whose
    draws run past its words is priced through price on its real stream.
    """
    batches = list(batches)
    counts = [n_trials for _, n_trials, _ in batches]
    if any(n_trials < 1 for n_trials in counts):
        raise ValueError("need at least one trial")
    seeds = np.fromiter(
        itertools.chain.from_iterable(derive_seeds(master_seed, f"{sc.name}/noise", n)
                                      for sc, n, master_seed in batches),
        np.uint64, sum(counts))
    words = first_words(seeds, STREAM_WORDS)
    starts = np.cumsum([0, *counts])
    trial_ids = np.arange(seeds.size) - np.repeat(starts[:-1], counts)
    groups = {}  # each distinct scenario object: (scenario, its batches' rows)
    for (scenario, _, _), lo, hi in zip(batches, starts[:-1], starts[1:]):
        groups.setdefault(id(scenario), (scenario, []))[1].append(np.arange(lo, hi))
    durations, nmi = np.empty(seeds.size), np.empty(seeds.size, bool)
    for scenario, spans in groups.values():
        rows = np.concatenate(spans)
        noise, nmi[rows], drawn = scenario.noise.sample_words(words[rows], trial_ids[rows])
        durations[rows] = _nominal_us(scenario, scenario.passes) + noise
        for row in rows[~drawn].tolist():
            durations[row], nmi[row] = price(scenario, scenario.passes,
                                             random.Random(int(seeds[row])),
                                             int(trial_ids[row]))
    return (list(zip(map(int, np.rint(durations[lo:hi]).tolist()), nmi[lo:hi].tolist()))
            for lo, hi in itertools.pairwise(starts.tolist()))


def run_trials(scenario: Scenario, n_trials: int, master_seed: int) -> list:
    """priced_trials' n trials as Measurements, in trial order.

    No challenge is drawn, so each spec_digest is empty. A priced duration at
    or below 0 (wide noise) reads as the timer's 1 us floor, as in
    calibrate's loopback path.
    """
    [priced] = priced_trials([(scenario, n_trials, master_seed)])
    return [Measurement(trial_id, scenario.name, max(1, duration), nmi=nmi)
            for trial_id, (duration, nmi) in enumerate(priced)]


# --- built-in scenarios -----------------------------------------------------

def _quantized(frame_us: float, spread: int):
    """Symmetric quantized link noise: atoms at whole character frames."""
    return tuple(k * frame_us for k in range(-spread, spread + 1))

# Detector-metric experiments use bounded, quantized noise: with interrupts
# masked the residual jitter is dominated by the serial link's character
# framing, so observed durations cluster on a handful of frame-aligned
# values instead of smooth tails.
FIG13_DRAM_FRAME_US = 131.0
# The iomem-experiment baseline additionally carries occasional one-sided
# interrupt-coalescing residue: a tight core plus a sparse slow shelf. The
# shelf sits inside the percentile band and under 2 sigma, but beyond the
# robust MAD band, which is what splits the detectors' false-positive rates.
FIG13_IOMEM_ATOMS = (
    (0.0, 42),
    (85.0, 36), (-85.0, 36),
    (170.0, 9), (-170.0, 9),
    (293.0, 25), (-293.0, 25),
    (322.0, 18),
)


def _weighted_values(atoms):
    vals = []
    for value, weight in atoms:
        vals.extend([value] * weight)
    return tuple(vals)


def _sram(noise: NoiseModel, attack: str = "none"):
    """Factory of an SRAM-scale preset: Scenario's defaults with this noise and attack."""
    return lambda name: Scenario(name, noise=noise, adversary=ATTACKS[attack])


def _full(sigma: float, attack: str = "none"):
    """Factory of a full-memory preset: 4 GiB of DRAM plus SRAM priced in one pass
    over a FULL_STANDIN_WORDS stand-in image; mmc pays one payload per challenge."""
    return lambda name: Scenario(
        name, region_id="full", image_words=FULL_STANDIN_WORDS, register_count=SRAM_REGISTER_WORDS,
        timing_words=FULL_IMAGE_WORDS, passes=FULL_PASSES, scan_us_per_word=FULL_SCAN_US_PER_WORD,
        noise=NoiseModel("gaussian", sigma=sigma), adversary=ATTACKS[attack])


_FIG13_DRAM_NOISE = NoiseModel("empirical", values=_quantized(FIG13_DRAM_FRAME_US, 2))
_FIG13_IOMEM_NOISE = NoiseModel("empirical", values=_weighted_values(FIG13_IOMEM_ATOMS))

# Every builtin scenario: its name and the factory that builds it from that name.
SCENARIOS = {
    "sram-baseline": _sram(NoiseModel("gaussian", sigma=185.0)),
    "sram-dram": _sram(NoiseModel("gaussian", sigma=130.0), "dram"),
    "sram-iomem": _sram(NoiseModel("gaussian", sigma=128.0), "iomem"),
    "detector-dram-baseline": _sram(_FIG13_DRAM_NOISE),
    "detector-dram-attack": _sram(_FIG13_DRAM_NOISE, "dram"),
    "detector-iomem-baseline": _sram(_FIG13_IOMEM_NOISE),
    "detector-iomem-attack": _sram(_FIG13_IOMEM_NOISE, "iomem"),
    "full-baseline": _full(FULL_BASELINE_SIGMA_US),
    "full-mmc": _full(FULL_MMC_SIGMA_US, "mmc"),
    "desk-small": lambda name: desk_scenario(),
}


def builtin_scenario(name: str) -> Scenario:
    """The named experiment preset; SCENARIOS names them all."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
    return SCENARIOS[name](name)


def desk_scenario() -> Scenario:
    """Fast end-to-end configuration: a 2048-word scan in 8 passes.

    Sized so a full session (restore + honest scan on both sides) runs in
    well under a second of host time. Swap costs are scaled up so a single
    swapped word per pass still clears the quantized noise band by an order
    of magnitude.
    """
    tiers = {
        "sram": TierModel(0.75),
        "iomem": TierModel(100.0),
        "dram": TierModel(400.0),
        "mmc": TierModel(MMC_DELAY_US / (MMC_PAYLOAD_BYTES // 8)),
    }
    return Scenario(
        name="desk-small", region_id="sram", image_words=2014, register_count=34,
        passes=8, k=2, tiers=tiers,
        noise=NoiseModel("empirical", values=(-200.0, -100.0, 0.0, 100.0, 200.0)),
    )


def attack_scenario(base: Scenario, kind: str) -> Scenario:
    """Copy of a scenario with the adversary of ATTACKS[kind], named base+kind."""
    if kind not in ATTACKS:
        raise ValueError(f"unknown attack kind {kind!r}")
    return replace(base, name=f"{base.name.split('+')[0]}+{kind}", adversary=ATTACKS[kind])


# --- scenario JSON ----------------------------------------------------------

# Keys of deleted fields that older scenario files still carry: the trial
# count every command takes from --trials, and an mmc trigger the price
# never read. Files that hold them load and price as before.
RETIRED_KEYS = {Scenario: "trials", AdversaryConfig: "trigger_index"}


def scenario_to_json(scenario: Scenario) -> dict:
    """Every field of the scenario in field order, with the tiers sorted by name."""
    doc = asdict(scenario)
    doc["tiers"] = dict(sorted(doc["tiers"].items()))
    doc["noise"]["values"] = list(doc["noise"]["values"])
    return doc


def _known(cls, doc, where: str):
    """doc without cls's RETIRED_KEYS key, once each of its other keys names a
    field of cls."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    doc = {k: v for k, v in doc.items() if k != RETIRED_KEYS.get(cls)}
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
    return doc


def scenario_from_json(doc: dict) -> Scenario:
    """The inverse of scenario_to_json; an omitted key takes its dataclass default.

    A key that names no field, at any level, raises ValueError: a typo must
    not fall back to the default unnoticed. A RETIRED_KEYS key is dropped
    unread, whatever its value.
    """
    doc = _known(Scenario, doc, "scenario")
    if "tiers" in doc:
        doc["tiers"] = {n: TierModel(**_known(TierModel, t, f"tiers.{n}"))
                        for n, t in doc["tiers"].items()}
    if "noise" in doc:
        noise = _known(NoiseModel, doc["noise"], "noise")
        doc["noise"] = NoiseModel(**{**noise, "values": tuple(noise.get("values", ()))})
    if "adversary" in doc:
        doc["adversary"] = AdversaryConfig(**_known(AdversaryConfig, doc["adversary"],
                                                    "adversary"))
    return Scenario(**doc)


def load_scenario(path) -> Scenario:
    """The scenario in a JSON file; a file that does not describe one raises TimecheckError."""
    with open(path) as fh:
        try:
            return scenario_from_json(json.load(fh))
        except (AttributeError, KeyError, TypeError, UnknownTier, ValueError) as exc:
            raise TimecheckError(f"{path}: {type(exc).__name__}: {exc}") from exc
