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
challenge, at the scan index given by trigger_index.

The simulated adversary is time-only: it always returns the correct
accumulator and pays only latency, which is the strongest stealthy attacker.
A separate corrupt_result mode (wrong value, zero delay) exists to exercise
the verifier's value check.

Default calibration solves per-word costs from published aggregate timings
for a 500-pass scan of a 192 KB region rather than inventing absolute
latencies; every knob stays configurable through scenario JSON.
"""

import copy
import functools
import json
import math
import random
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .checkpoint import (
    DEFAULT_REGISTER_COUNT,
    Checkpoint,
    MemoryImage,
    checkpoint_record,
    scan_words,
)
from .engine import random_spec
from .errors import TimecheckError, UnknownTier
from .seeding import derive_seed, derive_seeds, random_words, sub_rng

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
FULL_PASSES = 1
FULL_BASELINE_MEAN_US = 1.731895e9
FULL_SCAN_US_PER_WORD = FULL_BASELINE_MEAN_US / (FULL_PASSES * FULL_IMAGE_WORDS)
FULL_BASELINE_SIGMA_US = 16543.0
FULL_MMC_SIGMA_US = 28587.0

MMC_PAYLOAD_BYTES = 512
MMC_DELAY_US = 3.570e6  # mean shift of the full-memory storage attack

SWAP_KINDS = ("dram_swap", "iomem_swap")
_SWAP_TIER = {"dram_swap": "dram", "iomem_swap": "iomem"}


@dataclass(frozen=True)
class TierModel:
    """Per-word access cost and per-transaction fixed cost of one memory tier."""

    name: str
    per_word_cost: float  # us per 8-byte access
    per_op_fixed_cost: float = 0.0  # us per swap transaction

    def __post_init__(self):
        if self.per_word_cost < 0 or self.per_op_fixed_cost < 0:
            raise ValueError(f"tier {self.name}: costs must be non-negative")


def default_tiers() -> dict:
    mmc_fixed = MMC_DELAY_US - (MMC_PAYLOAD_BYTES // 8) * 100.0
    return {
        "sram": TierModel("sram", SRAM_SCAN_US_PER_WORD),
        "iomem": TierModel("iomem", 1.0),
        "dram": TierModel("dram", 4.0),
        "mmc": TierModel("mmc", 100.0, mmc_fixed),
    }


def validate_tiers(tiers: dict):
    """Physical ordering: sram and iomem are faster than dram, dram than mmc."""
    def cost(name):
        t = tiers.get(name)
        return None if t is None else t.per_word_cost

    sram, dram, iomem, mmc = cost("sram"), cost("dram"), cost("iomem"), cost("mmc")
    if sram is not None and dram is not None and not sram < dram:
        raise ValueError("tier ordering violated: sram must be faster than dram")
    if iomem is not None and dram is not None and not iomem < dram:
        raise ValueError("tier ordering violated: iomem must be faster than dram")
    if dram is not None and mmc is not None and not dram < mmc:
        raise ValueError("tier ordering violated: dram must be faster than mmc")
    return tiers


@dataclass(frozen=True)
class AdversaryConfig:
    """What the injected adversary does each challenge."""

    kind: str = "none"  # none | dram_swap | iomem_swap | mmc_io | corrupt_result
    words_per_pass: int = 1
    trigger_index: int = 100
    payload_bytes: int = MMC_PAYLOAD_BYTES

    def __post_init__(self):
        if self.kind not in ("none", "dram_swap", "iomem_swap", "mmc_io", "corrupt_result"):
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.kind in SWAP_KINDS and self.words_per_pass < 1:
            raise ValueError("swap adversaries move at least one word per pass")


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
        if self.kind not in ("gaussian", "uniform", "empirical"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "empirical" and not self.values:
            raise ValueError("empirical noise needs sample values")
        if self.drift not in ("none", "linear", "step"):
            raise ValueError(f"unknown drift kind {self.drift!r}")

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


@dataclass(frozen=True)
class Measurement:
    """One timed challenge observation, as the verifier records it."""

    trial_id: int
    scenario: str
    duration_us: int
    spec_digest: str
    nmi: bool = False

    def __post_init__(self):
        if self.duration_us <= 0:
            raise ValueError("durations are positive microsecond counts")


class DeviceState:
    """Live, mutable device: challenged words and register file."""

    def __init__(self, image: MemoryImage, registers, quiesced: bool = True):
        self.image = image
        self.registers = list(registers)
        self.quiesced = quiesced


def make_device_state(image_seed: int, image_words: int, region_id: str = "sram",
                      register_count: int = DEFAULT_REGISTER_COUNT) -> DeviceState:
    """Seeded device with pseudorandom memory content and register file."""
    words = random_words(derive_seed(image_seed, "image"), image_words)
    regs = random_words(derive_seed(image_seed, "registers"), register_count)
    return DeviceState(MemoryImage(words, region_id), regs)


@dataclass(frozen=True)
class DeviceSnapshot:
    """The recorded checkpoint of one seeded device image, shared read-only.

    scan is the word sequence a challenge covers (image words, then the
    register file) as a uint64 array that cannot be written to, so no
    endpoint can change what another one scans.
    """

    checkpoint: Checkpoint
    scan: np.ndarray

    def live_state(self) -> DeviceState:
        """A fresh mutable device holding a copy of the recorded words."""
        # the recorded words were validated once, when the image was made
        image = copy.copy(self.checkpoint.image)
        image.words = list(image.words)
        return DeviceState(image, self.checkpoint.register_file)


@functools.lru_cache(maxsize=8)
def device_snapshot(image_seed: int, image_words: int, region_id: str = "sram",
                    register_count: int = DEFAULT_REGISTER_COUNT) -> DeviceSnapshot:
    """The snapshot of make_device_state(...), built once per distinct image.

    A process-wide cache is safe because a snapshot is immutable and its
    words are determined by its key.
    """
    cp = checkpoint_record(make_device_state(image_seed, image_words, region_id,
                                             register_count))
    # backed by immutable bytes, so the array cannot be made writeable again
    scan = np.frombuffer(np.array(scan_words(cp), dtype=np.uint64).tobytes(), dtype=np.uint64)
    return DeviceSnapshot(cp, scan)


def adversary_delay_us(adversary: AdversaryConfig, tiers: dict, passes: int) -> float:
    """Total injected latency for one challenge."""
    if adversary.kind in ("none", "corrupt_result"):
        return 0.0
    if adversary.kind in SWAP_KINDS:
        tier_name = _SWAP_TIER[adversary.kind]
        tier = tiers.get(tier_name)
        if tier is None:
            raise UnknownTier(f"adversary targets missing tier {tier_name!r}")
        # evict + refill: two transfers per word, every pass
        per_word = 2.0 * (tier.per_word_cost + tier.per_op_fixed_cost)
        return passes * adversary.words_per_pass * per_word
    tier = tiers.get("mmc")
    if tier is None:
        raise UnknownTier("adversary targets missing tier 'mmc'")
    payload_words = math.ceil(adversary.payload_bytes / 8)
    return payload_words * tier.per_word_cost + tier.per_op_fixed_cost


def base_cost_us(timing_words: int, passes: int, scan_us_per_word: float,
                 compute_us_per_word: float = 0.0) -> float:
    return passes * timing_words * (scan_us_per_word + compute_us_per_word)


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
    trials: int = 50
    image_seed: int = 7

    def __post_init__(self):
        validate_tiers(self.tiers)
        if self.timing_words is None:
            object.__setattr__(self, "timing_words",
                               self.image_words + self.register_count)
        if self.scan_us_per_word is None:
            object.__setattr__(self, "scan_us_per_word",
                               self.tiers["sram"].per_word_cost)

    def base_cost_us(self) -> float:
        return base_cost_us(self.timing_words, self.passes,
                            self.scan_us_per_word, self.compute_us_per_word)


def price(scenario: Scenario, passes: int, rng: random.Random, trial_id: int = 0):
    """(duration_us, nmi) of one challenge: base cost + adversary delay + noise.

    The duration is a float; callers round it to the timer's microseconds.
    One noise draw comes from rng, and trial_id drives the noise drift.
    """
    noise_us, nmi = scenario.noise.sample(rng, trial_id)
    return (base_cost_us(scenario.timing_words, passes, scenario.scan_us_per_word,
                         scenario.compute_us_per_word)
            + adversary_delay_us(scenario.adversary, scenario.tiers, passes)
            + noise_us), nmi


def priced_trials(scenario: Scenario, n_trials: int, master_seed: int) -> list:
    """(duration_us, nmi) of n trials at the scenario's passes, in trial order.

    The timing model is content-independent, so only each trial's noise
    stream, seeded from its trial id, sets its duration: no challenge is
    drawn and no polynomial is evaluated. Trial i's stream is
    random.Random(derive_seed(master_seed, f"{scenario.name}/noise", i)); one
    generator is reseeded per trial, which restores exactly that state
    (gauss_next included) without building a new object.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    noise_rng = random.Random(0)
    out = []
    for trial_id, seed in enumerate(derive_seeds(master_seed, f"{scenario.name}/noise",
                                                 n_trials)):
        noise_rng.seed(seed)
        duration, nmi = price(scenario, scenario.passes, noise_rng, trial_id)
        out.append((int(round(duration)), nmi))
    return out


def run_trials(scenario: Scenario, n_trials: int, master_seed: int) -> list:
    """n timed challenge trials: priced_trials' durations, each with a fresh spec.

    Each Measurement records its spec's digest for the audit trail; the
    honest accumulator path is exercised by DeviceEndpoint.handle_challenge.
    """
    out = []
    for trial_id, (duration, nmi) in enumerate(priced_trials(scenario, n_trials, master_seed)):
        spec_rng = sub_rng(master_seed, f"{scenario.name}/spec", trial_id)
        spec = random_spec(scenario.prime, scenario.k, scenario.passes, spec_rng,
                           scenario.region_id)
        out.append(Measurement(trial_id=trial_id, scenario=scenario.name,
                               duration_us=duration, spec_digest=spec.digest(),
                               nmi=nmi))
    return out


def measurements_to_csv(measurements, path):
    """CSV export: trial_id, scenario, duration_us, spec_digest."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial_id", "scenario", "duration_us", "spec_digest"])
        for m in measurements:
            w.writerow([m.trial_id, m.scenario, m.duration_us, m.spec_digest])


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


def builtin_scenario(name: str) -> Scenario:
    """Named experiment presets; see list_scenarios()."""
    sram = dict(region_id="sram", image_words=SRAM_IMAGE_WORDS,
                register_count=SRAM_REGISTER_WORDS, passes=SRAM_PASSES)
    if name == "sram-baseline":
        return Scenario(name=name, noise=NoiseModel("gaussian", sigma=185.0), **sram)
    if name == "sram-dram":
        return Scenario(name=name, noise=NoiseModel("gaussian", sigma=130.0),
                        adversary=AdversaryConfig("dram_swap", words_per_pass=1), **sram)
    if name == "sram-iomem":
        return Scenario(name=name, noise=NoiseModel("gaussian", sigma=128.0),
                        adversary=AdversaryConfig("iomem_swap", words_per_pass=1), **sram)
    if name.startswith("detector-"):
        if "dram" in name:
            noise = NoiseModel("empirical", values=_quantized(FIG13_DRAM_FRAME_US, 2))
            adv = AdversaryConfig("dram_swap", words_per_pass=1)
        else:
            noise = NoiseModel("empirical", values=_weighted_values(FIG13_IOMEM_ATOMS))
            adv = AdversaryConfig("iomem_swap", words_per_pass=1)
        if name.endswith("-baseline"):
            adv = AdversaryConfig("none")
        elif not name.endswith("-attack"):
            raise ValueError(f"unknown scenario {name!r}")
        return Scenario(name=name, noise=noise, adversary=adv, **sram)
    if name == "full-baseline":
        return full_memory_scenario(attack=False)
    if name == "full-mmc":
        return full_memory_scenario(attack=True)
    if name == "desk-small":
        return desk_scenario()
    raise ValueError(f"unknown scenario {name!r}; known: {', '.join(list_scenarios())}")


def list_scenarios() -> tuple:
    return ("sram-baseline", "sram-dram", "sram-iomem",
            "detector-dram-baseline", "detector-dram-attack",
            "detector-iomem-baseline", "detector-iomem-attack",
            "full-baseline", "full-mmc", "desk-small")


def desk_scenario(name: str = "desk-small") -> Scenario:
    """Fast end-to-end configuration: a 2048-word scan in 8 passes.

    Sized so a full session (restore + honest scan on both sides) runs in
    well under a second of host time. Swap costs are scaled up so a single
    swapped word per pass still clears the quantized noise band by an order
    of magnitude.
    """
    tiers = {
        "sram": TierModel("sram", 0.75),
        "iomem": TierModel("iomem", 100.0),
        "dram": TierModel("dram", 400.0),
        "mmc": TierModel("mmc", MMC_DELAY_US / (MMC_PAYLOAD_BYTES // 8)),
    }
    return Scenario(
        name=name, region_id="sram", image_words=2014, register_count=34,
        passes=8, k=2, tiers=tiers,
        noise=NoiseModel("empirical", values=(-200.0, -100.0, 0.0, 100.0, 200.0)),
        trials=40,
    )


def full_memory_scenario(attack: bool, desk_image_words: int = 4096) -> Scenario:
    """Whole-memory scan pricing: 4 GiB of DRAM plus SRAM in a single pass.

    The materialized image is a desk-scale stand-in; the timing model prices
    the nominal full word count. The storage attack fires one 512-byte
    payload transfer when the scan index reaches trigger_index.
    """
    name = "full-mmc" if attack else "full-baseline"
    sigma = FULL_MMC_SIGMA_US if attack else FULL_BASELINE_SIGMA_US
    adversary = (AdversaryConfig("mmc_io", trigger_index=100,
                                 payload_bytes=MMC_PAYLOAD_BYTES)
                 if attack else AdversaryConfig("none"))
    return Scenario(name=name, region_id="full",
                    image_words=desk_image_words, register_count=SRAM_REGISTER_WORDS,
                    timing_words=FULL_IMAGE_WORDS, passes=FULL_PASSES,
                    scan_us_per_word=FULL_SCAN_US_PER_WORD,
                    noise=NoiseModel("gaussian", sigma=sigma),
                    adversary=adversary)


def attack_scenario(base: Scenario, kind: str) -> Scenario:
    """Copy of a scenario with a different adversary."""
    if kind == "none":
        adv = AdversaryConfig("none")
    elif kind == "mmc":
        adv = AdversaryConfig("mmc_io")
    elif kind in ("dram", "iomem"):
        adv = AdversaryConfig(f"{kind}_swap", words_per_pass=1)
    elif kind == "corrupt":
        adv = AdversaryConfig("corrupt_result")
    else:
        raise ValueError(f"unknown attack kind {kind!r}")
    return replace(base, name=f"{base.name.split('+')[0]}+{kind}", adversary=adv)


# --- scenario JSON ----------------------------------------------------------

def scenario_to_json(scenario: Scenario) -> dict:
    """Every field of the scenario in field order, with the tiers sorted by name."""
    doc = asdict(scenario)
    doc["tiers"] = {n: {k: v for k, v in t.items() if k != "name"}
                    for n, t in sorted(doc["tiers"].items())}
    doc["noise"]["values"] = list(doc["noise"]["values"])
    return doc


def _known(cls, doc, where: str, *given):
    """doc, once each of its keys names a field of cls that the caller has not given."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    unknown = set(doc) - ({f.name for f in fields(cls)} - set(given))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
    return doc


def scenario_from_json(doc: dict) -> Scenario:
    """The inverse of scenario_to_json; an omitted key takes its dataclass default.

    A key that names no field, at any level, raises ValueError: a typo must
    not fall back to the default unnoticed.
    """
    doc = dict(_known(Scenario, doc, "scenario"))
    if "tiers" in doc:
        doc["tiers"] = {n: TierModel(n, **_known(TierModel, t, f"tiers.{n}", "name"))
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
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise TimecheckError(f"{path}: {type(exc).__name__}: {exc}") from exc


def save_scenario(scenario: Scenario, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2)
        fh.write("\n")
