"""Tests for the device timing simulator."""

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecheck import protocol
from timecheck.checkpoint import MemoryImage
from timecheck.cli import main
from timecheck.device import (
    ADVERSARY_TIERS,
    ATTACKS,
    GAUSS_REACH,
    SCENARIOS,
    SRAM_SCAN_WORDS,
    AdversaryConfig,
    Measurement,
    NoiseModel,
    Scenario,
    TierModel,
    adversary_delay_us,
    attack_scenario,
    builtin_scenario,
    default_tiers,
    desk_scenario,
    load_scenario,
    make_device_state,
    price,
    priced_trials,
    run_trials,
    scenario_from_json,
    scenario_to_json,
    validate_tiers,
)
from timecheck.engine import multipass, random_spec
from timecheck.errors import TimecheckError, UnknownTier
from timecheck.protocol import ChallengeMessage, DeviceEndpoint, FrameDecoder
from timecheck.seeding import (
    NUMPY_SEEDING_MIN,
    STREAM_WORDS,
    derive_seed,
    derive_seeds,
    first_words,
)

# sha256 of json.dumps(scenario_to_json(builtin_scenario(name)), indent=2),
# re-taken when the fields of RETIRED_KEYS were deleted: each text is the
# earlier one without those two keys, byte for byte
BUILTIN_JSON_SHA256 = {
    "sram-baseline": "d414533efc4f30b7998f30ec6eef792894f743a965b2e81d2259be9ec976d7a0",
    "sram-dram": "3818141362d902e420def586200e0d025b22f6d98e9c38c9f9d22cddb05a3a4e",
    "sram-iomem": "df5ec218c11f82898e5efa7bac1f0d9e7e783346ac32defd17a336fbd3abc563",
    "detector-dram-baseline": "deedf53d8876bc6af7a1b2790328ea31f44bfff10df9de82b6e108f9d9f52b49",
    "detector-dram-attack": "eea20a61e9b02395c3022eb47d0b0914dc1da5d4a88d202f2c80e72342f25cc2",
    "detector-iomem-baseline": "a0e42f1ade649d58acfd29f5fec8d62deb7ad54e710627f41d1577aecf354850",
    "detector-iomem-attack": "9122a26d573fb94936582fc462afc1986a8c58d6143f8988916fdcea7cdc5f8c",
    "full-baseline": "893b9e3aea12beabb318058f4d4cb41494bce0c3e6e2ba842fbd18e078a25e94",
    "full-mmc": "295e327763d12611fb567f6c690d6da9e557e64c28b586c750ee4bd2466d1ef8",
    "desk-small": "8dffe535f4b7e83899329163b6c426a30376eaf4321b832d48e2ca31b83462dd",
}

# sha256 of the five texts json.dumps(scenario_to_json(attack_scenario(
# builtin_scenario(name), kind)), indent=2), kind in ATTACK_KINDS, concatenated
ATTACK_KINDS = ("none", "dram", "iomem", "mmc", "corrupt")
ATTACK_JSON_SHA256 = {
    "sram-baseline": "c98c41cba9274f2fdfe9cfeef7cf31bcf682741f7beb7832605e42c7dafc02e2",
    "sram-dram": "72793662a1acac4202fdbde6642668a0747871b09731d286aeffebfb90b1de5a",
    "sram-iomem": "db08252e112a129e13049dd1b641371d71c77441b3b5e8038f84f9df4d864beb",
    "detector-dram-baseline": "db3ca986a835b7854762dfec7de10ba02838fa51bc2c30980a2472dd830dca01",
    "detector-dram-attack": "25ebe4dc286fe21fce4ef72cfb2ed895d28efe48b08d2dc6e65126d2f16db3ba",
    "detector-iomem-baseline": "c2e77a882006aaa906de60656eff22c37a7967e0738f9b66290bbc00611143d3",
    "detector-iomem-attack": "5360aba42539486c733c2fc2b180fbaab194b4a8ac40d82cb4253f0bdd2b4db0",
    "full-baseline": "ada828e86ba8e8338fbfa4f91b4eac2d165946418447429b5153f084476429b8",
    "full-mmc": "858f257ce813550ee336445ef9d579e8a79ae54c291f215f4015e9839bbc7b90",
    "desk-small": "31804590bc6571e8637c9b11ab18f2490a9d4c9a254c8edf32f95c8e9599d649",
}


class TestTiers:
    def test_default_table_ordered(self):
        validate_tiers(default_tiers())

    def test_sram_slower_than_dram_rejected(self):
        tiers = default_tiers()
        tiers["sram"] = TierModel(9.0)
        with pytest.raises(ValueError):
            validate_tiers(tiers)

    def test_iomem_slower_than_dram_rejected(self):
        tiers = default_tiers()
        tiers["iomem"] = TierModel(5.0)
        with pytest.raises(ValueError):
            validate_tiers(tiers)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="^tier sram: costs must be non-negative$"):
            validate_tiers(dict(default_tiers(), sram=TierModel(-1.0)))


class TestAdversaryDelay:
    def test_calibrated_dram_delay(self):
        # one word per pass over 500 passes: evict+refill at 4us/word
        d = adversary_delay_us(AdversaryConfig("dram_swap"), default_tiers(), 500)
        assert d == pytest.approx(4000.0)

    def test_calibrated_iomem_delay(self):
        d = adversary_delay_us(AdversaryConfig("iomem_swap"), default_tiers(), 500)
        assert d == pytest.approx(1000.0)

    def test_mmc_payload_fires_once(self):
        d500 = adversary_delay_us(AdversaryConfig("mmc_io"), default_tiers(), 500)
        d1 = adversary_delay_us(AdversaryConfig("mmc_io"), default_tiers(), 1)
        assert d500 == d1 == pytest.approx(3.570e6)

    def test_none_kind_is_free(self):
        assert adversary_delay_us(AdversaryConfig("none"), default_tiers(), 500) == 0.0

    def test_missing_tier(self):
        # refused when the scenario is built, before anything is priced
        tiers = {"sram": TierModel(0.5)}
        with pytest.raises(UnknownTier, match="^adversary dram_swap needs tier 'dram'$"):
            Scenario("x", tiers=tiers, adversary=AdversaryConfig("dram_swap"))

    def test_monotone_in_passes_words_and_cost(self):
        tiers = default_tiers()
        base = adversary_delay_us(AdversaryConfig("dram_swap"), tiers, 100)
        assert adversary_delay_us(AdversaryConfig("dram_swap"), tiers, 200) > base
        assert adversary_delay_us(AdversaryConfig("dram_swap", words_per_pass=3),
                                  tiers, 100) > base
        slower = dict(tiers)
        slower["dram"] = TierModel(8.0)
        assert adversary_delay_us(AdversaryConfig("dram_swap"), slower, 100) > base

    def test_invalid_kinds(self):
        with pytest.raises(ValueError):
            AdversaryConfig("laser")
        with pytest.raises(ValueError):
            AdversaryConfig("dram_swap", words_per_pass=0)

    def test_answer_is_wrong_only_for_corrupt_result(self):
        for kind in ("none", "corrupt_result", *ADVERSARY_TIERS):
            want = 0 if kind == "corrupt_result" else 1008
            assert AdversaryConfig(kind).answer(1008, 1009) == want, kind

    def test_protocol_names_no_adversary_kind(self):
        # the device model alone decides each kind's tier, delay and answer
        source = inspect.getsource(protocol)
        assert [kind for kind in ("corrupt_result", *ADVERSARY_TIERS) if kind in source] == []


class TestDurationBound:
    def test_noise_reach(self):
        assert NoiseModel("gaussian", sigma=2.0).reach_us() == 2.0 * GAUSS_REACH
        assert NoiseModel("uniform", width=3.0, drift="step", drift_step_us=-4.0).reach_us() == 7.0
        assert NoiseModel("empirical", values=(1.0, -5.0), nmi_prob=0.1,
                          nmi_us=10.0).reach_us() == 15.0
        drifting = NoiseModel("gaussian", sigma=1.0, drift="linear", drift_us_per_trial=-2.0)
        assert drifting.reach_us() == GAUSS_REACH + 2.0
        # a linear drift counted to a given trial: trial 0 has none
        assert [drifting.reach_us(t) for t in (0, 5)] == [GAUSS_REACH, GAUSS_REACH + 10.0]
        # a field the model does not draw from moves nothing
        assert NoiseModel("uniform", sigma=1e308, width=1.0, drift_step_us=1e308,
                          nmi_us=1e308).reach_us() == 1.0

    def test_gauss_reach_is_the_largest_gaussian_draw(self):
        class Extreme(random.Random):
            def random(self):  # random()'s largest value, so 1 - random() is 2^-53
                return 1.0 - 2.0 ** -53

        z = Extreme().gauss(0.0, 1.0)
        assert GAUSS_REACH * (1 - 1e-12) < z <= GAUSS_REACH

    def test_bound_holds_up_to_2_53_us(self):
        edge = dict(image_words=1, register_count=0, passes=1,
                    noise=NoiseModel("uniform", width=1.0))
        assert Scenario("x", scan_us_per_word=2.0 ** 53 - 2, **edge).base_cost_us(1) == 2 ** 53 - 2
        with pytest.raises(ValueError, match=r"^a priced duration must stay below 2\^53 us: "
                                             r"9.0072e\+15 us at 1 passes, noise reaching 1 us$"):
            Scenario("x", scan_us_per_word=2.0 ** 53 - 1, **edge)

    def test_every_builtin_and_attack_is_inside_the_bound(self):
        for name in SCENARIOS:
            for kind in ATTACKS:
                sc = attack_scenario(builtin_scenario(name), kind)
                assert sc.base_cost_us(sc.passes) + adversary_delay_us(
                    sc.adversary, sc.tiers, sc.passes) + sc.noise.reach_us() < 2 ** 53


def small_scenario(**overrides):
    """A 48-word device (32 image words, 16 registers) on the default tiers."""
    return Scenario("small", image_words=32, register_count=16, **overrides)


def answer(scenario, spec):
    """(priced delay in us, accumulator) of the device's reply to one challenge."""
    replies = DeviceEndpoint(scenario, master_seed=3).handle_challenge(ChallengeMessage(1, spec))
    delay_us, reply = replies[-1]
    (response,) = FrameDecoder().feed(reply)
    return delay_us, response.accumulator


def honest_accumulator(scenario, spec):
    words = make_device_state(scenario.image_seed, scenario.image_words,
                              scenario.register_count)
    return multipass(MemoryImage(words.tolist()), spec).accumulator


class TestSimulateChallenge:
    def test_zero_adversary_identity(self):
        noise = NoiseModel("gaussian", sigma=7.0)
        sc = small_scenario(passes=2, noise=noise)
        duration, nmi = price(sc, 2, random.Random(42))
        expect = 48 * 2 * default_tiers()["sram"].per_word_cost
        expect += noise.sample(random.Random(42))[0]
        assert int(round(duration)) == int(round(expect)) and not nmi

    def test_honest_accumulator_for_every_kind(self):
        spec = random_spec((1 << 61) - 1, 2, 2, random.Random(2))
        honest = honest_accumulator(small_scenario(), spec)
        for kind in ("none", "dram_swap", "iomem_swap", "mmc_io"):
            sc = small_scenario(adversary=AdversaryConfig(kind),
                                noise=NoiseModel("gaussian", sigma=1.0))
            assert answer(sc, spec)[1] == honest

    def test_corrupt_result_wrong_value_zero_delay(self):
        spec = random_spec((1 << 61) - 1, 2, 1, random.Random(3))
        sc = small_scenario(adversary=AdversaryConfig("corrupt_result"), scan_us_per_word=1.0,
                            noise=NoiseModel("uniform", width=0.4))
        delay_us, accumulator = answer(sc, spec)
        assert accumulator != honest_accumulator(sc, spec)
        assert delay_us == 48 * spec.passes

    def test_nominal_timing_words_override(self):
        spec = random_spec((1 << 61) - 1, 1, 1, random.Random(4))
        sc = small_scenario(timing_words=1000, scan_us_per_word=2.0,
                            noise=NoiseModel("uniform", width=0.4))
        assert answer(sc, spec)[0] == 2000


class TestRunTrials:
    def test_deterministic_under_master_seed(self):
        sc = builtin_scenario("sram-baseline")
        a = run_trials(sc, 20, 777)
        b = run_trials(sc, 20, 777)
        assert a == b
        c = run_trials(sc, 20, 778)
        assert [m.duration_us for m in a] != [m.duration_us for m in c]

    def test_single_trial(self):
        ms = run_trials(builtin_scenario("sram-baseline"), 1, 0)
        assert len(ms) == 1 and ms[0].duration_us > 0

    def test_non_positive_priced_durations_read_one_microsecond(self):
        # noise this wide prices about a quarter of desk-small's trials at or
        # below 0 us, which Measurement used to refuse with a ValueError
        wide = replace(desk_scenario(), noise=NoiseModel("gaussian", sigma=20000.0))
        [priced] = priced_trials([(wide, 40, 5)])
        ms = run_trials(wide, 40, 5)
        assert min(duration for duration, _ in priced) <= 0
        assert [m.duration_us for m in ms] == [max(1, duration) for duration, _ in priced]
        with pytest.raises(ValueError, match="durations are positive"):
            Measurement(0, wide.name, 0)

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            run_trials(builtin_scenario("sram-baseline"), 0, 0)
        with pytest.raises(ValueError):
            priced_trials([(builtin_scenario("sram-baseline"), 0, 0)])

    def test_durations_are_the_priced_trials(self):
        base = builtin_scenario("sram-dram")
        spiky = replace(base, noise=replace(base.noise, nmi_prob=0.3, drift="linear",
                                            drift_us_per_trial=7.5))
        ms = run_trials(spiky, 40, 9)
        assert [[(m.duration_us, m.nmi) for m in ms]] == list(priced_trials([(spiky, 40, 9)]))

    # every builtin, plus gaussian and uniform noise with drift and interrupt
    # spikes: a gaussian draw caches a second normal that a new stream must discard
    PRICED_SCENARIOS = [builtin_scenario(name) for name in SCENARIOS] + [
        replace(builtin_scenario("sram-dram"), name="gauss-drift-nmi",
                noise=NoiseModel("gaussian", sigma=150.0, drift="linear",
                                 drift_us_per_trial=3.25, nmi_prob=0.25)),
        replace(builtin_scenario("sram-iomem"), name="uniform-step-nmi",
                noise=NoiseModel("uniform", width=90.0, drift="step", drift_step_at=3,
                                 drift_step_us=400.0, nmi_prob=0.4)),
    ]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-2**63, 2**64), st.integers(1, 12), st.booleans())
    def test_priced_trials_equal_fresh_stream_per_trial(self, master, n, cross):
        # each scenario alone, then all in one call; with cross, that call's
        # batch is large enough to be seeded with numpy, each alone is not
        if cross:
            n += NUMPY_SEEDING_MIN // len(self.PRICED_SCENARIOS)
            assert n * len(self.PRICED_SCENARIOS) >= NUMPY_SEEDING_MIN > n
        want = []
        for sc in self.PRICED_SCENARIOS:
            rows = []
            for i in range(n):
                rng = random.Random(derive_seed(master, f"{sc.name}/noise", i))
                duration, nmi = price(sc, sc.passes, rng, i)
                rows.append((int(round(duration)), nmi))
            assert list(priced_trials([(sc, n, master)])) == [rows], sc.name
            want.append(rows)
        assert list(priced_trials([(sc, n, master) for sc in self.PRICED_SCENARIOS])) == want

    # every kind of noise model, with and without drift and interrupt spikes
    NOISE_MODELS = [
        NoiseModel("gaussian", sigma=185.0),
        NoiseModel("gaussian", sigma=150.0, drift="linear", drift_us_per_trial=3.25,
                   nmi_prob=0.25),
        NoiseModel("uniform", width=320.0),
        NoiseModel("uniform", width=90.0, drift="step", drift_step_at=2, drift_step_us=400.0,
                   nmi_prob=0.5),
        NoiseModel("empirical", values=(-200.0, -100.0, 0.0, 100.0, 200.0)),
        # 129 values: randrange rejects almost half its 8-bit draws
        NoiseModel("empirical", values=tuple(float(v) for v in range(129)), drift="linear",
                   drift_us_per_trial=-2.0, nmi_prob=0.9, nmi_us=7.0),
        NoiseModel("empirical", values=(5.0,), drift="step", drift_step_at=1, drift_step_us=3.0,
                   nmi_prob=1.0),
    ]

    @staticmethod
    def fresh_stream_rows(sc, n, master):
        """Each trial priced by price on its own random.Random stream."""
        rows = []
        for i in range(n):
            rng = random.Random(derive_seed(master, f"{sc.name}/noise", i))
            duration, nmi = price(sc, sc.passes, rng, i)
            rows.append((int(round(duration)), nmi))
        return rows

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-2**63, 2**64), st.integers(1, 40), st.booleans())
    def test_priced_trials_sample_every_noise_model_like_random(self, master, n, cross):
        # with cross, the call prices enough trials to be seeded with numpy
        scenarios = [replace(builtin_scenario("sram-dram"), name=f"noise-{i}", noise=noise)
                     for i, noise in enumerate(self.NOISE_MODELS)]
        if cross:
            n += NUMPY_SEEDING_MIN // len(scenarios)
        got = list(priced_trials([(sc, n, master) for sc in scenarios]))
        assert got == [self.fresh_stream_rows(sc, n, master) for sc in scenarios]

    @pytest.mark.parametrize("noise, n, master, words_read, past", [
        # 129 values: 8-bit draws; a trial whose first 6 are all rejected
        # leaves fewer than the 2 words its NMI draw takes
        (NOISE_MODELS[5], 200, 1, 6, 2),
        (NOISE_MODELS[5], NUMPY_SEEDING_MIN, 1, 6, 19),
        # 5 values: 3-bit draws; a trial rejects all 8 words with p = (3/8)^8
        (NOISE_MODELS[4], NUMPY_SEEDING_MIN, 1, 8, 2),
    ])
    def test_trials_past_their_words_are_priced_on_the_real_stream(self, noise, n, master,
                                                                  words_read, past):
        sc = replace(builtin_scenario("sram-dram"), name="past-words", noise=noise)
        words = first_words(list(derive_seeds(master, f"{sc.name}/noise", n)), STREAM_WORDS)
        bits = len(noise.values).bit_length()
        rejected = (words[:, :words_read] >> (32 - bits)) >= len(noise.values)
        assert int(rejected.all(axis=1).sum()) == past
        _, _, drawn = noise.sample_words(words, np.arange(n))
        assert (~drawn == rejected.all(axis=1)).all()
        assert list(priced_trials([(sc, n, master)])) == [self.fresh_stream_rows(sc, n, master)]

    def test_baseline_mean_matches_calibration(self):
        sc = builtin_scenario("sram-baseline")
        ms = run_trials(sc, 50, 5)
        mean = sum(m.duration_us for m in ms) / 50
        assert abs(mean - 9.591e6) / 9.591e6 < 0.01
        assert sc.timing_words == SRAM_SCAN_WORDS

    def test_attack_means_shifted(self):
        base = run_trials(builtin_scenario("sram-baseline"), 50, 5)
        dram = run_trials(builtin_scenario("sram-dram"), 50, 5)
        iomem = run_trials(builtin_scenario("sram-iomem"), 50, 5)
        m = lambda ms: sum(x.duration_us for x in ms) / len(ms)
        assert 3000 < m(dram) - m(base) < 5000
        assert 500 < m(iomem) - m(base) < 1500

    def test_lag1_autocorrelation_in_band(self):
        from timecheck.stats import serial_correlation

        ms = run_trials(builtin_scenario("sram-baseline"), 50, 12)
        sc = serial_correlation([m.duration_us for m in ms], 1)
        assert abs(sc.autocorr[0]) <= sc.band

    def test_drift_breaks_whiteness(self):
        from timecheck.stats import serial_correlation

        base = builtin_scenario("sram-baseline")
        drifty = replace(base, noise=replace(base.noise, drift="linear",
                                             drift_us_per_trial=100.0))
        d = [m.duration_us for m in run_trials(drifty, 50, 0)]
        assert not serial_correlation(d, 10).white

    def test_step_drift_shifts_mean(self):
        base = builtin_scenario("sram-baseline")
        stepped = replace(base, noise=replace(base.noise, drift="step",
                                              drift_step_at=25, drift_step_us=5000.0))
        d = [m.duration_us for m in run_trials(stepped, 50, 0)]
        assert (sum(d[25:]) / 25 - sum(d[:25]) / 25) > 4000

    def test_nmi_spikes_marked(self):
        base = builtin_scenario("sram-baseline")
        spiky = replace(base, noise=replace(base.noise, nmi_prob=0.5, nmi_us=90000.0))
        ms = run_trials(spiky, 60, 0)
        n_spikes = sum(m.nmi for m in ms)
        assert 10 < n_spikes < 50
        durations_spiked = [m.duration_us for m in ms if m.nmi]
        durations_clean = [m.duration_us for m in ms if not m.nmi]
        assert min(durations_spiked) > max(durations_clean)


class TestScenarios:
    def test_full_memory_calibration(self):
        base = builtin_scenario("full-baseline")
        atk = builtin_scenario("full-mmc")
        assert base.base_cost_us(base.passes) == pytest.approx(1.731895e9)
        delta = adversary_delay_us(atk.adversary, atk.tiers, atk.passes)
        assert delta == pytest.approx(3.570e6)

    def test_full_memory_shift_in_nominal_sigmas(self):
        # (1735.465e6 - 1731.895e6) / 16543 = about 216 baseline sigmas
        atk = builtin_scenario("full-mmc")
        shift = adversary_delay_us(atk.adversary, atk.tiers, atk.passes)
        ratio = shift / 16543.0
        assert 210 < ratio < 220

    def test_compute_cost_adds_to_base(self):
        sc = replace(builtin_scenario("sram-baseline"), compute_us_per_word=0.1)
        extra = sc.passes * sc.timing_words * 0.1
        assert sc.base_cost_us(sc.passes) == pytest.approx(9.591e6 + extra)

    def test_attack_scenario_helper(self):
        sc = attack_scenario(builtin_scenario("sram-baseline"), "iomem")
        assert sc.adversary.kind == "iomem_swap"
        with pytest.raises(ValueError):
            attack_scenario(sc, "quantum")

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_scenario("nope")

    def test_json_round_trip(self, tmp_path):
        for name in ("sram-dram", "detector-iomem-baseline", "full-mmc", "desk-small"):
            sc = builtin_scenario(name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(scenario_to_json(sc)))
            back = load_scenario(path)
            assert back == sc

    @pytest.mark.parametrize("trigger_index", [100, "x"])
    def test_retired_keys_load_and_are_ignored(self, trigger_index):
        doc = scenario_to_json(builtin_scenario("desk-small"))
        assert "trials" not in doc and "trigger_index" not in doc["adversary"]
        old = dict(doc, trials=40, adversary=dict(doc["adversary"], trigger_index=trigger_index))
        assert scenario_from_json(json.loads(json.dumps(old))) == builtin_scenario("desk-small")

    def test_json_defaults(self):
        sc = scenario_from_json({"name": "defaults"})
        assert sc.passes == 500 and sc.region_id == "sram"
        assert scenario_to_json(sc)["prime"] == (1 << 61) - 1

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_builtin_json_bytes_pinned(self, name):
        # key order and number formatting are part of the file format
        text = json.dumps(scenario_to_json(builtin_scenario(name)), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_JSON_SHA256[name]
        assert scenario_from_json(json.loads(text)) == builtin_scenario(name)

    def test_readme_dump_one_liner_prints_the_builtin_json(self, capsys):
        # README's one-liner star-imports the module: both names stay public
        exec("from timecheck.device import *; import json; "
             "print(json.dumps(scenario_to_json(builtin_scenario('desk-small')), indent=2))", {})
        text = capsys.readouterr().out.removesuffix("\n")
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_JSON_SHA256["desk-small"]

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_attack_json_bytes_pinned(self, name):
        text = "".join(json.dumps(scenario_to_json(attack_scenario(builtin_scenario(name),
                                                                   kind)), indent=2)
                       for kind in ATTACK_KINDS)
        assert hashlib.sha256(text.encode()).hexdigest() == ATTACK_JSON_SHA256[name]

    def test_registries(self):
        assert set(ATTACKS) == set(ATTACK_KINDS)
        assert set(SCENARIOS) == set(BUILTIN_JSON_SHA256)
        for name in SCENARIOS:
            assert builtin_scenario(name).name == name

    @pytest.mark.parametrize("doc, message", [
        ({"passes": 0}, "passes must be >= 1, got 0"),
        ({"k": 0}, "k must be >= 1, got 0"),
        ({"image_words": 0}, "image_words must be >= 1, got 0"),
        ({"timing_words": 0}, "timing_words must be >= 1, got 0"),
        ({"register_count": -1}, "register_count must be >= 0, got -1"),
        ({"prime": 15}, "prime must be a prime below 2\\^64, got 15"),
        ({"prime": (1 << 64) + 13}, "got 18446744073709551629"),
    ])
    def test_impossible_values_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            scenario_from_json({"name": "x", **doc})

    @pytest.mark.parametrize("doc, key", [
        ({"name": "x", "passess": 3}, "passess"),
        ({"name": "x", "noise": {"kind": "uniform", "widht": 9.0}}, "widht"),
        ({"name": "x", "adversary": {"kind": "dram_swap", "word_per_pass": 2}}, "word_per_pass"),
        ({"name": "x", "tiers": {"sram": {"per_word_cost": 0.5, "fixed": 1.0}}}, "fixed"),
        ({"name": "x", "tiers": {"sram": {"per_word_cost": 0.5, "name": "dram"}}}, "name"),
    ])
    def test_json_unknown_key_rejected(self, doc, key):
        with pytest.raises(ValueError, match=key):
            scenario_from_json(doc)

    @pytest.mark.parametrize("text", [
        '{"name": "x", "passess": 3}',
        '{"passes": 3}',
        '{"name": "x", "noise": {"kind": "weird"}}',
        '{"name": "x", "tiers": {"dram": {"per_word_cost": 4.0}}}',
        '{"name": "x", "tiers": []}',
        '{"name": "x", "passes": 0}',
        '{"name": "x", "k": 0}',
        '{"name": "x", "image_words": 0}',
        '{"name": "x", "prime": 15}',
        '{"name": "x", "noise": {"sigma": NaN}}',
        '{"name": "x", "noise": {"kind": "uniform", "width": Infinity}}',
        '{"name": "x", "noise": {"kind": "empirical", "values": [0.0, Infinity]}}',
        '{"name": "x", "noise": {"kind": "empirical", "values": [NaN]}}',
        '{"name": "x", "noise": {"drift": "linear", "drift_us_per_trial": -Infinity}}',
        '{"name": "x", "noise": {"drift": "step", "drift_step_us": NaN}}',
        '{"name": "x", "noise": {"drift": "step", "drift_step_at": -1}}',
        '{"name": "x", "noise": {"nmi_prob": 1.5}}',
        '{"name": "x", "noise": {"nmi_prob": -0.1}}',
        '{"name": "x", "noise": {"nmi_prob": NaN}}',
        '{"name": "x", "noise": {"nmi_us": Infinity}}',
        '{"name": "x", "noise": {"sigma": -1.0}}',
        '{"name": "x", "noise": {"kind": "uniform", "width": -2.0}}',
        '["name"]',
        '{"name": "x",',
    ])
    def test_load_scenario_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(TimecheckError, match="bad.json"):
            load_scenario(path)

    def test_desk_scenario_shape(self):
        sc = desk_scenario()
        assert sc.timing_words == 2048
        assert sc.base_cost_us(sc.passes) == pytest.approx(12288.0)


class TestCsvExport:
    def test_column_contract(self, tmp_path):
        # calibrate's CSV holds exactly run_trials' measurements, one row each
        assert main(["calibrate", "--scenario", "sram-baseline", "--trials", "3",
                     "--seed", "0", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sram-baseline-measurements.csv").read_text().strip().splitlines()
        assert lines[0] == "trial_id,scenario,duration_us,spec_digest"
        ms = run_trials(builtin_scenario("sram-baseline"), 3, 0)
        assert lines[1:] == [f"{m.trial_id},{m.scenario},{m.duration_us},{m.spec_digest}"
                             for m in ms]
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "sram-baseline"
        assert int(first[2]) > 0 and first[3] == ""  # no challenge is drawn


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("weird")
    with pytest.raises(ValueError):
        NoiseModel("empirical", values=())
    with pytest.raises(ValueError):
        NoiseModel("gaussian", drift="sideways")
    for values in (("0.3",), (1.0, True)):
        with pytest.raises(ValueError, match="noise values must be numbers"):
            NoiseModel("empirical", values=values)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_device_state_peaks_near_its_own_size():
    # one draw of 64 * n bits, read as n words: a list of n Python ints and
    # its copy would raise the peak by about 9x the array
    code = ("import re; from timecheck.device import make_device_state\n"
            "def hwm(): return int(re.search(r'VmHWM:\\s+(\\d+) kB', "
            "open('/proc/self/status').read()).group(1))\n"
            "before = hwm(); words = make_device_state(5, 1 << 20)\n"
            "print((hwm() - before) * 1024, words.nbytes)")
    src = os.path.dirname(os.path.dirname(protocol.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, nbytes = map(int, proc.stdout.split())
    assert nbytes == 8 * ((1 << 20) + 34)
    assert grown <= 4 * nbytes
