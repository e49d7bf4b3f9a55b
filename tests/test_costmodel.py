"""Exact flop arithmetic for global and windowed attention."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfam.costmodel import (
    attention_cost_global,
    attention_cost_local,
    attention_flops_global,
    attention_flops_local,
    cost_report,
    n_windows,
    network_cost_report,
    reference_levels,
    render_cost_table,
    report_record,
)
from lfam.errors import ConfigError


def counted_global_oracle(h, w, d):
    """Brute-force instruction counter mirroring the all-pairs evaluation."""
    flops = 0
    pixels = h * w
    for _p in range(pixels):
        for _q in range(pixels):
            flops += 2 * d  # score dot product
        flops += 5 * pixels  # softmax row
        for _q in range(pixels):
            flops += 2 * d  # value aggregation
    return flops


class TestGlobal:
    def test_logit_term_instantiation(self):
        assert attention_cost_global(32, 32, 1).logits == 2_097_152

    def test_doubling_width_doubles_matmul_terms(self):
        a = attention_cost_global(8, 8, 3)
        b = attention_cost_global(8, 8, 6)
        assert b.logits == 2 * a.logits and b.values == 2 * a.values
        assert b.softmax == a.softmax

    @pytest.mark.parametrize("h,w,d", [(4, 4, 1), (4, 4, 3), (2, 3, 2)])
    def test_matches_instruction_counted_oracle(self, h, w, d):
        assert attention_flops_global(h, w, d) == counted_global_oracle(h, w, d)

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            attention_flops_global(0, 4, 1)


class TestLocal:
    def test_logit_term_instantiation(self):
        assert attention_cost_local(14, 14, 1, 7).logits == 19_208

    def test_window_counts(self):
        assert n_windows(14, 14, 7) == 4
        assert n_windows(32, 32, 7) == 25
        assert n_windows(10, 9, 4) == 9

    def test_whole_map_window_equals_global(self):
        assert attention_flops_local(8, 8, 3, 8) == attention_flops_global(8, 8, 3)

    def test_oversized_window_counts_padded_grid(self):
        # m > both sides: one 11x11 window, cost as if the map were 11x11
        assert attention_flops_local(6, 6, 2, 11) == attention_flops_global(11, 11, 2)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 32), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_divisible_matmul_ratio_is_exact(self, hm, wm, d, m):
        h, w = hm * m, wm * m
        g = attention_cost_global(h, w, d)
        l = attention_cost_local(h, w, d, m)
        # exact integer identity: local/global == m^2/(hw)
        assert l.matmul * (h * w) == g.matmul * m * m

    def test_frozen_ratio_quarter(self):
        g = attention_cost_global(14, 14, 1)
        l = attention_cost_local(14, 14, 1, 7)
        assert l.matmul * 4 == g.matmul

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 16), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_local_never_exceeds_global_when_divisible(self, hm, wm, d, m):
        h, w = hm * m, wm * m
        assert attention_flops_local(h, w, d, m) <= attention_flops_global(h, w, d)


class TestReports:
    def test_reference_geometry(self):
        levels = reference_levels()
        assert [(lv.height, lv.channels) for lv in levels] == [
            (256, 64), (128, 256), (64, 512), (32, 1024)]
        report = cost_report(levels)
        assert report.total_global == sum(r.cost_global.total for r in report.levels)
        assert report.total_local == sum(r.cost_local.total for r in report.levels)
        assert report.ratio < 0.05
        assert 1e-4 < report.ratio < 1e-2

    def test_halving_resolution_scales_matmul_by_sixteen(self):
        hi = attention_cost_global(64, 64, 8)
        lo = attention_cost_global(32, 32, 8)
        assert hi.matmul == 16 * lo.matmul

    def test_table_renders_all_levels_and_the_external_figure(self):
        report = cost_report(reference_levels())
        text = render_cost_table(report)
        lines = text.splitlines()
        assert sum("x" in ln and "e-" in ln for ln in lines) >= 4
        assert "0.0466" in text
        assert f"{report.total_local}" in text

    def test_record_is_json_ready(self):
        import json
        record = report_record(cost_report(reference_levels()))
        parsed = json.loads(json.dumps(record))
        assert len(parsed["levels"]) == 4
        assert parsed["total_global"] == sum(lv["flops_global"] for lv in parsed["levels"])

    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigError):
            cost_report(())

    def test_network_report_from_config(self):
        from lfam.attention import LfamConfig
        from lfam.unet import SkipSpec, UNetConfig

        cfg = UNetConfig(base_channels=4, depth=2, skips=(
            SkipSpec(kind="lfam", lfam=LfamConfig(local_range=4)),
            SkipSpec(kind="lfam", lfam=LfamConfig(local_range=4)),
        ))
        report = network_cost_report(cfg, 16)
        assert [(r.level.height, r.level.channels) for r in report.levels] == [(16, 4), (8, 8)]
