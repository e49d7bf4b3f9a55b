"""Gradient-suite plumbing and the ablation harness at toy scale."""

import json

import numpy as np

from lfam.ablation import AblationConfig, AblationReport, VariantResult, render_text, run_ablation, to_record
from lfam.verify import SuiteResult, gradient_suite, render_suite


class TestSuiteResults:
    def test_pass_fail_threshold(self):
        assert SuiteResult("a", 1e-6, 1e-4).passed
        assert not SuiteResult("b", 1e-3, 1e-4).passed

    def test_render_lists_every_check(self):
        results = [SuiteResult("alpha", 1e-7, 1e-4), SuiteResult("beta", 5e-2, 1e-4)]
        text = render_suite(results)
        assert "alpha" in text and "PASS" in text
        assert "beta" in text and "FAIL" in text

    def test_suite_covers_required_checks(self):
        # cheap structural check; the acceptance suite runs the real thing
        names = [r.name for r in _CACHED_SUITE]
        for needed in ("masked_softmax", "conv2d", "upconv2x2", "channel_norm",
                       "focal_iou_loss", "weighted_ce", "unet-end-to-end"):
            assert needed in names
        lfam_rows = [n for n in names if n.startswith("lfam/")]
        assert len(lfam_rows) == 9  # three residual modes x three window sizes

    def test_suite_passes_in_double_precision(self):
        assert all(r.passed for r in _CACHED_SUITE)


_CACHED_SUITE = gradient_suite(seed=0)


class TestAblationReport:
    def test_encoder_best_flag_reflects_means(self):
        up = AblationReport(config=AblationConfig(), variants=(
            VariantResult("concat", (0.2,)),
            VariantResult("lfam-encoder-m3", (0.5,)),
            VariantResult("lfam-none-m3", (0.3,)),
        ))
        down = AblationReport(config=AblationConfig(), variants=(
            VariantResult("concat", (0.9,)),
            VariantResult("lfam-encoder-m3", (0.5,)),
        ))
        assert up.encoder_best_observed
        assert not down.encoder_best_observed

    def test_record_holds_the_whole_config(self):
        cfg = AblationConfig(n_images=12, base_channels=4, depth=3, batch_size=2, lr_base=5e-4,
                             seeds=(4, 5), data_seed=7, local_ranges=(2,))
        report = AblationReport(config=cfg, variants=(VariantResult("concat", (0.5, 0.6)),))
        record = json.loads(json.dumps(to_record(report)))
        rebuilt = {k: tuple(v) if isinstance(v, list) else v for k, v in record["config"].items()}
        assert AblationConfig(**rebuilt) == cfg

    def test_toy_run_is_well_formed(self):
        cfg = AblationConfig(n_images=10, image_size=16, num_classes=3,
                             rare_class_frac=0.04, base_channels=2, depth=1,
                             epochs=2, batch_size=4, seeds=(0,),
                             local_ranges=(3,))
        report = run_ablation(cfg)
        names = [v.name for v in report.variants]
        assert names == ["concat", "lfam-encoder-m3", "lfam-decoder-m3", "lfam-none-m3"]
        for v in report.variants:
            assert len(v.per_seed) == 1
            assert np.isfinite(v.mean) and 0.0 <= v.mean <= 1.0
            assert v.spread == 0.0

        text = render_text(report)
        assert text.count("\n") == len(names) + 1
        assert "encoder-residual placement best:" in text

        record = to_record(report)
        assert isinstance(record["encoder_best_observed"], bool)
        assert [v["name"] for v in record["variants"]] == names
        json.dumps(record)
