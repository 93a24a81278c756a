"""Tests for the device timing simulator."""

import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecheck.checkpoint import MemoryImage
from timecheck.device import (
    SRAM_SCAN_WORDS,
    AdversaryConfig,
    NoiseModel,
    Scenario,
    TierModel,
    adversary_delay_us,
    attack_scenario,
    builtin_scenario,
    default_tiers,
    desk_scenario,
    full_memory_scenario,
    list_scenarios,
    load_scenario,
    make_device_state,
    measurements_to_csv,
    price,
    priced_trials,
    run_trials,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    validate_tiers,
)
from timecheck.engine import multipass, random_spec
from timecheck.errors import TimecheckError, UnknownTier
from timecheck.protocol import ChallengeMessage, DeviceEndpoint, FrameDecoder
from timecheck.seeding import derive_seed

# sha256 of json.dumps(scenario_to_json(builtin_scenario(name)), indent=2)
BUILTIN_JSON_SHA256 = {
    "sram-baseline": "1fc0abb532a7cf524f35e6a1eda77615ed653eaba1db3c5dbb79816c90f10ca9",
    "sram-dram": "ce83089aa173c7801c17b3c135acd8e92df1fa302f4e96fbe855b51d83f3f37e",
    "sram-iomem": "773a020e9708e84b137f9b06d0c482a78be90687ff94d1daf8ef8d2d382fac99",
    "detector-dram-baseline": "2edc2a3d13e4cbc41736ad7583353c3030936895edd3b5f03a0a0f26c1e175b7",
    "detector-dram-attack": "56c2615ba3a34f92a49780a13d590a3169d5e02188c6f5db43a5352f7621ef53",
    "detector-iomem-baseline": "3bf9a5dbbe9fb9d83eff78b0a5329433f87fa76707c671b5a131873ad2682212",
    "detector-iomem-attack": "d3571fea8c2908e64c385722a813e0efbe092876951986c8bf22d836f0eea418",
    "full-baseline": "91da7ed96d0d83ea396cafb505fde1326343798fab45371d3a393829ec795240",
    "full-mmc": "b0434456b6090114269b01407e74955f2b426d379033dc146510bee33707bcef",
    "desk-small": "a4f5811105f0b4b42017c6972419172ffc000b10530c20176373db38f0b62ff2",
}


class TestTiers:
    def test_default_table_ordered(self):
        validate_tiers(default_tiers())

    def test_sram_slower_than_dram_rejected(self):
        tiers = default_tiers()
        tiers["sram"] = TierModel("sram", 9.0)
        with pytest.raises(ValueError):
            validate_tiers(tiers)

    def test_iomem_slower_than_dram_rejected(self):
        tiers = default_tiers()
        tiers["iomem"] = TierModel("iomem", 5.0)
        with pytest.raises(ValueError):
            validate_tiers(tiers)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            TierModel("sram", -1.0)


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
        tiers = {"sram": TierModel("sram", 0.5)}
        with pytest.raises(UnknownTier):
            adversary_delay_us(AdversaryConfig("dram_swap"), tiers, 10)

    def test_monotone_in_passes_words_and_cost(self):
        tiers = default_tiers()
        base = adversary_delay_us(AdversaryConfig("dram_swap"), tiers, 100)
        assert adversary_delay_us(AdversaryConfig("dram_swap"), tiers, 200) > base
        assert adversary_delay_us(AdversaryConfig("dram_swap", words_per_pass=3),
                                  tiers, 100) > base
        slower = dict(tiers)
        slower["dram"] = TierModel("dram", 8.0)
        assert adversary_delay_us(AdversaryConfig("dram_swap"), slower, 100) > base

    def test_invalid_kinds(self):
        with pytest.raises(ValueError):
            AdversaryConfig("laser")
        with pytest.raises(ValueError):
            AdversaryConfig("dram_swap", words_per_pass=0)


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
    state = make_device_state(scenario.image_seed, scenario.image_words,
                              register_count=scenario.register_count)
    return multipass(MemoryImage(state.image.words + state.registers), spec).accumulator


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

    def test_fresh_spec_randomness_per_trial(self):
        sc = builtin_scenario("sram-baseline")
        ms = run_trials(sc, 30, 0)
        assert len({m.spec_digest for m in ms}) == 30

    def test_single_trial(self):
        ms = run_trials(builtin_scenario("sram-baseline"), 1, 0)
        assert len(ms) == 1 and ms[0].duration_us > 0

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            run_trials(builtin_scenario("sram-baseline"), 0, 0)
        with pytest.raises(ValueError):
            priced_trials(builtin_scenario("sram-baseline"), 0, 0)

    def test_durations_are_the_priced_trials(self):
        base = builtin_scenario("sram-dram")
        spiky = replace(base, noise=replace(base.noise, nmi_prob=0.3, drift="linear",
                                            drift_us_per_trial=7.5))
        ms = run_trials(spiky, 40, 9)
        assert [(m.duration_us, m.nmi) for m in ms] == priced_trials(spiky, 40, 9)

    # every builtin, plus gaussian noise with drift and interrupt spikes: a
    # gaussian draw caches a second normal that reseeding must discard
    PRICED_SCENARIOS = [builtin_scenario(name) for name in list_scenarios()] + [
        replace(builtin_scenario("sram-dram"), name="gauss-drift-nmi",
                noise=NoiseModel("gaussian", sigma=150.0, drift="linear",
                                 drift_us_per_trial=3.25, nmi_prob=0.25)),
    ]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-2**63, 2**64), st.integers(1, 12))
    def test_priced_trials_equal_fresh_stream_per_trial(self, master, n):
        for sc in self.PRICED_SCENARIOS:
            want = []
            for i in range(n):
                rng = random.Random(derive_seed(master, f"{sc.name}/noise", i))
                duration, nmi = price(sc, sc.passes, rng, i)
                want.append((int(round(duration)), nmi))
            assert priced_trials(sc, n, master) == want, sc.name

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
        base = full_memory_scenario(attack=False)
        atk = full_memory_scenario(attack=True)
        assert base.base_cost_us() == pytest.approx(1.731895e9)
        delta = adversary_delay_us(atk.adversary, atk.tiers, atk.passes)
        assert delta == pytest.approx(3.570e6)

    def test_full_memory_shift_in_nominal_sigmas(self):
        # (1735.465e6 - 1731.895e6) / 16543 = about 216 baseline sigmas
        atk = full_memory_scenario(attack=True)
        shift = adversary_delay_us(atk.adversary, atk.tiers, atk.passes)
        ratio = shift / 16543.0
        assert 210 < ratio < 220

    def test_compute_cost_adds_to_base(self):
        sc = replace(builtin_scenario("sram-baseline"), compute_us_per_word=0.1)
        extra = sc.passes * sc.timing_words * 0.1
        assert sc.base_cost_us() == pytest.approx(9.591e6 + extra)

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
            save_scenario(sc, path)
            back = load_scenario(path)
            assert back == sc

    def test_json_defaults(self):
        sc = scenario_from_json({"name": "defaults"})
        assert sc.passes == 500 and sc.region_id == "sram"
        assert scenario_to_json(sc)["prime"] == (1 << 61) - 1

    @pytest.mark.parametrize("name", list_scenarios())
    def test_builtin_json_bytes_pinned(self, name):
        # key order and number formatting are part of the file format
        text = json.dumps(scenario_to_json(builtin_scenario(name)), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_JSON_SHA256[name]
        assert scenario_from_json(json.loads(text)) == builtin_scenario(name)

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
        assert sc.base_cost_us() == pytest.approx(12288.0)


class TestCsvExport:
    def test_column_contract(self, tmp_path):
        ms = run_trials(builtin_scenario("sram-baseline"), 3, 0)
        path = tmp_path / "m.csv"
        measurements_to_csv(ms, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial_id,scenario,duration_us,spec_digest"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "sram-baseline"
        assert int(first[2]) > 0 and len(first[3]) == 32


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("weird")
    with pytest.raises(ValueError):
        NoiseModel("empirical", values=())
    with pytest.raises(ValueError):
        NoiseModel("gaussian", drift="sideways")
