"""CLI behavior: exit codes, artifacts, determinism."""

import dataclasses
import hashlib
import json
import random

import pytest

from timecheck import cli, stats
from timecheck.cli import _scenario_from_args, aggregate_detection, build_parser, main
from timecheck.device import builtin_scenario, load_scenario, price, save_scenario
from timecheck.seeding import derive_seed


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def calibrated(tmp_path):
    code = run(["calibrate", "--scenario", "desk-small", "--trials", 40,
                "--seed", 3, "--out", tmp_path])
    assert code == 0
    return tmp_path / "desk-small-profile.json"


class TestCalibrate:
    def test_writes_profile_and_csv(self, tmp_path, calibrated):
        doc = json.loads(calibrated.read_text())
        assert doc["n"] == 40
        assert doc["passes"] == 8
        assert len(doc["samples_us"]) == 40
        csv_lines = (tmp_path / "desk-small-measurements.csv").read_text().splitlines()
        assert csv_lines[0] == "trial_id,scenario,duration_us,spec_digest"
        assert len(csv_lines) == 41

    def test_single_trial_errors(self, tmp_path):
        assert run(["calibrate", "--scenario", "desk-small", "--trials", 1,
                    "--out", tmp_path]) == 1

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["calibrate", "--scenario", "desk-small", "--trials", 30,
                        "--seed", 11, "--out", tmp_path / sub]) == 0
        for name in ("desk-small-profile.json", "desk-small-measurements.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


class TestChallenge:
    def test_clean_device_accepts(self, tmp_path, calibrated, capsys):
        code = run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--seed", 5, "--jitter", 0.4])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["outcome"] == "ACCEPT"

    def test_dram_attack_rejected(self, tmp_path, calibrated, capsys):
        code = run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--attack", "dram", "--seed", 5, "--jitter", 0.4])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["outcome"] == "REJECT"

    def test_corrupt_attack_rejected_by_value(self, tmp_path, calibrated, capsys):
        code = run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--attack", "corrupt", "--seed", 5, "--jitter", 0.4])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["reason"] == "accumulator mismatch"

    def test_unreachable_tcp_target_errors(self, calibrated):
        code = run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--target", "tcp://127.0.0.1:1"])
        assert code == 1

    def test_shape_mismatch_errors(self, tmp_path, calibrated):
        code = run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--passes", 9])
        assert code == 1

    def test_interrupt_storm_is_operational_error(self, tmp_path, calibrated):
        from dataclasses import replace

        from timecheck.device import builtin_scenario, save_scenario

        sc = builtin_scenario("desk-small")
        stormy = replace(sc, noise=replace(sc.noise, nmi_prob=1.0, nmi_us=50_000.0))
        cfg = tmp_path / "storm.json"
        save_scenario(stormy, cfg)
        code = run(["challenge", "--profile", calibrated, "--config", cfg,
                    "--seed", 5, "--jitter", 0.4])
        assert code == 1


class TestReproduce:
    def test_sram_table(self, tmp_path):
        assert run(["reproduce", "fig10", "--seed", 0, "--out", tmp_path]) == 0
        lines = (tmp_path / "fig10_summary.csv").read_text().splitlines()
        assert lines[0] == "scenario,n,mean_us,std_us,t_pvalue,ks_pvalue"
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        base = float(rows["sram-baseline"][2])
        dram = float(rows["sram-dram"][2])
        iomem = float(rows["sram-iomem"][2])
        assert abs(base - 9.591e6) / 9.591e6 < 0.01
        assert abs(dram - 9.594e6) / 9.594e6 < 0.01
        assert abs(iomem - 9.591e6) / 9.591e6 < 0.01
        assert (tmp_path / "fig10_hist.csv").exists()

    def test_full_memory_table(self, tmp_path):
        assert run(["reproduce", "fig11", "--seed", 0, "--out", tmp_path]) == 0
        lines = (tmp_path / "fig11_summary.csv").read_text().splitlines()
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert abs(float(rows["full-baseline"][2]) - 1.731895e9) / 1.731895e9 < 0.01
        assert abs(float(rows["full-mmc"][2]) - 1.735465e9) / 1.735465e9 < 0.01
        assert float(rows["full-mmc"][6]) >= 100.0

    def test_detection_table_small(self, tmp_path):
        assert run(["reproduce", "fig13", "--seed", 0, "--seeds", 3,
                    "--out", tmp_path]) == 0
        lines = (tmp_path / "fig13_detection.csv").read_text().splitlines()
        assert lines[0] == "attack,method,fpr_pct,fnr_pct,baseline_points,attack_points"
        assert len(lines) == 7

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("r1", "r2"):
            for table in ("fig10", "fig11"):
                assert run(["reproduce", table, "--seed", 42,
                            "--out", tmp_path / sub]) == 0
            assert run(["reproduce", "fig13", "--seed", 42, "--seeds", 2,
                        "--out", tmp_path / sub]) == 0
        for name in ("fig10_summary.csv", "fig10_hist.csv", "fig11_summary.csv",
                     "fig11_hist.csv", "fig13_detection.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())

    # sha256 of fig13_detection.csv at the default --trials 50 --seeds 20. One
    # flipped leave-one-out decision moves a cell by 0.1 and changes the hash.
    FIG13_SHA256 = {
        0: "45fb7ce745af357233d6282bc329a3ecb547b733bd89684b10bb716b62fe8b37",
        7: "6ac159524f7e5051610d337cd0b9670989dc5e7271b69c81a382baa66a15e16f",
    }

    @pytest.mark.parametrize("seed", sorted(FIG13_SHA256))
    def test_detection_table_pinned_bytes(self, tmp_path, seed):
        assert run(["reproduce", "fig13", "--seed", seed, "--out", tmp_path]) == 0
        digest = hashlib.sha256((tmp_path / "fig13_detection.csv").read_bytes()).hexdigest()
        assert digest == self.FIG13_SHA256[seed]

    # sha256 of the fig10 and fig11 CSVs at the default --trials 50.
    SUMMARY_SHA256 = {
        0: {
            "fig10_summary.csv": "cdbea60e6db0e27239126d4104bd7c9bf4f56f73292efaaeba01819ae7c3d157",
            "fig10_hist.csv": "5316f94b45c2f39f60f2e81ac7d46494c706e6e106fcfce5bf44a190c0c393ed",
            "fig11_summary.csv": "b9e38d5b38c9ca0a1f8a84c33030e62d1289c098cf251c9bb4926e9ca3b762cc",
            "fig11_hist.csv": "7dc77d7bc3711f2ce0f2f5979937313b1c70afa1b6512ac47624c43e500eac27",
        },
        7: {
            "fig10_summary.csv": "ef4c40c792a1a9e4a763bb93de984771262dddbaee35eda42c6ca9bbca5764c4",
            "fig10_hist.csv": "c70017e735d519045c119faef3aa6a7b41816b36580421f014fca2380f3dd356",
            "fig11_summary.csv": "c97dc181716dcc68ef2e07cacfcb4fee5471b3462e5e1ad9e821475ceeaedd6d",
            "fig11_hist.csv": "51cb4b5dae8922e53d3ab657a8fb3a231f5a9613664c73bb964c02ee5c9a353c",
        },
    }

    @pytest.mark.parametrize("seed", sorted(SUMMARY_SHA256))
    def test_summary_tables_pinned_bytes(self, tmp_path, seed):
        for table in ("fig10", "fig11"):
            assert run(["reproduce", table, "--seed", seed, "--out", tmp_path]) == 0
        for name, want in self.SUMMARY_SHA256[seed].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    def test_detection_table_zero_mad_baseline(self, tmp_path):
        # one detector-dram baseline run at this seed has 25 of its 50 points
        # on one value, so a leave-one-out MAD is 0 and modified-z falls back
        # to the mean absolute deviation
        assert run(["reproduce", "fig13", "--seed", 1664276359, "--out", tmp_path]) == 0
        lines = (tmp_path / "fig13_detection.csv").read_text().splitlines()
        assert len(lines) == 7

    @pytest.mark.parametrize("table,flag,value", [
        ("fig13", "--seeds", 0),
        ("fig13", "--seeds", -1),
        ("fig10", "--trials", 0),
        ("fig11", "--trials", 0),
        ("fig13", "--trials", 0),
        ("fig10", "--trials", 1),
    ])
    def test_bad_counts_are_operational_errors(self, tmp_path, capsys, table, flag, value):
        out = tmp_path / "out"
        assert run(["reproduce", table, flag, value, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()


def _reference_durations(sc, trials, seed):
    return [int(round(price(sc, sc.passes,
                            random.Random(derive_seed(seed, f"{sc.name}/noise", i)), i)[0]))
            for i in range(trials)]


def _per_seed_detection(attack_label, n_seeds, trials, master_seed, methods):
    """Pooled counts from one one-row confusion report per seed."""
    base_sc = builtin_scenario(f"detector-{attack_label}-baseline")
    atk_sc = builtin_scenario(f"detector-{attack_label}-attack")
    fp = dict.fromkeys(methods, 0)
    fn = dict.fromkeys(methods, 0)
    for i in range(n_seeds):
        seed = derive_seed(master_seed, f"detect/{attack_label}", i)
        rows = stats.confusion_report(
            _reference_durations(base_sc, trials, seed),
            _reference_durations(atk_sc, trials, derive_seed(seed, "atk")), methods=methods)
        for m in methods:
            fp[m] += rows[m].false_positives
            fn[m] += rows[m].false_negatives
    points = n_seeds * trials
    return {m: {"fpr": fp[m] / points, "fnr": fn[m] / points,
                "false_positives": fp[m], "false_negatives": fn[m],
                "baseline_points": points, "attack_points": points}
            for m in methods}


class TestAggregateDetection:
    @pytest.fixture
    def batches(self, monkeypatch):
        """The number of seeds in each confusion_report call, in call order."""
        sizes = []
        report = stats.confusion_report

        def counting_report(base, atk, **kwargs):
            sizes.append(len(base))
            return report(base, atk, **kwargs)

        monkeypatch.setattr(stats, "confusion_report", counting_report)
        return sizes

    @pytest.mark.parametrize("attack_label", ["dram", "iomem"])
    def test_batches_equal_per_seed_loop(self, batches, attack_label):
        # 40 seeds x 50 x 49 leave-one-out values: batches of 26 and 14 seeds
        methods = ("percentile", "zscore", "modz", "chebyshev")
        got = aggregate_detection(attack_label, 40, 50, 11, methods=methods)
        assert batches == [26, 14]
        assert got == _per_seed_detection(attack_label, 40, 50, 11, methods)

    def test_one_seed_per_batch_past_the_budget(self, batches, monkeypatch):
        monkeypatch.setattr(cli, "LOO_BATCH_VALUES", 100)
        got = aggregate_detection("iomem", 3, 12, 5)
        assert batches == [1, 1, 1]
        assert got == _per_seed_detection("iomem", 3, 12, 5,
                                          ("percentile", "zscore", "modz"))


class TestScenarioFromArgs:
    def test_passes_override_keeps_every_other_field(self, tmp_path):
        # a scan length that differs from image_words + register_count
        sc = dataclasses.replace(builtin_scenario("desk-small"), timing_words=5000)
        cfg = tmp_path / "sc.json"
        save_scenario(sc, cfg)
        args = build_parser().parse_args(["serve", "--config", str(cfg), "--passes", "3"])
        got = _scenario_from_args(args)
        want = load_scenario(cfg)
        assert got.passes == 3
        assert got.timing_words == want.timing_words == 5000
        assert got.base_cost_us() != want.base_cost_us()
        for name in ("name", "region_id", "image_words", "register_count", "prime", "k",
                     "tiers", "scan_us_per_word", "compute_us_per_word", "noise",
                     "adversary", "trials", "image_seed"):
            assert getattr(got, name) == getattr(want, name), name


class TestCheckpointCommand:
    def test_make_and_inspect(self, tmp_path, capsys):
        path = tmp_path / "dev.ck"
        assert run(["checkpoint", "--make", path, "--words", 1024, "--seed", 7]) == 0
        capsys.readouterr()
        assert run(["checkpoint", "--inspect", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["word_count"] == 1024
        assert doc["register_count"] == 34
        assert doc["entropy_bits_per_byte_min"] > 7.0

    def test_make_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ck", tmp_path / "b.ck"
        run(["checkpoint", "--make", a, "--words", 256, "--seed", 9])
        run(["checkpoint", "--make", b, "--words", 256, "--seed", 9])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.ck.json").read_bytes() == (tmp_path / "b.ck.json").read_bytes()


def test_config_file_overrides_scenario(tmp_path, capsys):
    sc = builtin_scenario("desk-small")
    cfg = tmp_path / "tweaked.json"
    save_scenario(sc, cfg)
    assert run(["calibrate", "--config", cfg, "--trials", 20,
                "--out", tmp_path]) == 0
    assert (tmp_path / "desk-small-profile.json").exists()


@pytest.mark.parametrize("text, needle", [
    ('{"name": "x", "passess": 3}', "passess"),
    ('{"passes": 3}', "name"),
    ('{"name": "x", "noise": {"kind": "weird"}}', "weird"),
    ('{"name": "x",', "JSONDecodeError"),
])
def test_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, text, needle):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert run(["calibrate", "--config", cfg, "--trials", 5, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and needle in err
    assert not list(tmp_path.glob("*-profile.json"))
