"""Config parsing with line-numbered errors, emit/parse round trips, and
end-to-end subcommand runs through main()."""

import json
import os
import re
import shutil
import subprocess
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfam.cli
from lfam.cli import (
    EXIT_CONFIG,
    EXIT_FILE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    KEYS,
    RunConfig,
    dispatch,
    emit_config,
    main,
    parse_config,
    parse_config_text,
)
from lfam.data import gen_synthetic, read_pgm, save_dataset, write_pgm
from lfam.errors import ConfigError


# every float-valued key, and those whose "> 0" or ">= 0" check alone lets inf through
FLOAT_KEYS = sorted(key for key, f in KEYS.items() if type(f.default) is float)
UNBOUNDED_FLOAT_KEYS = ["train.lr_base", "loss.gamma", "loss.alpha", "loss.focal_weight",
                        "loss.iou_weight"]


class TestParseConfig:
    def test_empty_text_gives_all_defaults(self):
        cfg = parse_config_text("")
        assert cfg == RunConfig()
        assert cfg.local_range == 7  # documented default window size

    def test_comments_and_blanks_are_skipped(self):
        cfg = parse_config_text("# a comment\n\nrun.seed=3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match=":2:.*unknown key.*run\\.sede"):
            parse_config_text("run.seed=1\nrun.sede=2\n")

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ConfigError, match=":3:.*duplicate.*line 1"):
            parse_config_text("run.seed=1\n\nrun.seed=2\n")

    def test_type_error_names_the_line(self):
        with pytest.raises(ConfigError, match=":1:.*run\\.seed must be int"):
            parse_config_text("run.seed=three\n")

    def test_bool_values_are_strict(self):
        assert parse_config_text("lfam.swap_qkv=true\n").swap_qkv is True
        with pytest.raises(ConfigError, match="true or false"):
            parse_config_text("lfam.swap_qkv=yes\n")

    def test_zero_local_range_rejected(self):
        with pytest.raises(ConfigError, match="lfam\\.local_range must be >= 1"):
            parse_config_text("lfam.local_range=0\n")

    def test_enum_violation_lists_choices(self):
        with pytest.raises(ConfigError, match="adam, sgd"):
            parse_config_text("train.optimizer=lion\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config_text("run.seed 4\n")

    def test_malformed_class_weights_name_the_line_for_any_loss(self):
        with pytest.raises(ConfigError, match=":2:.*loss\\.class_weights must be"):
            parse_config_text("loss.kind=focal_iou\nloss.class_weights=abc\n")

    def test_non_positive_class_weight_names_the_line(self):
        with pytest.raises(ConfigError, match=":2:.*loss\\.class_weights must be.*'1,0,2'"):
            parse_config_text("loss.kind=weighted_ce\nloss.class_weights=1,0,2\n")

    def test_removed_in_channels_key_is_unknown(self):
        # every data source is single-channel, so the width is not a setting
        with pytest.raises(ConfigError, match=":1:.*unknown key.*unet\\.in_channels"):
            parse_config_text("unet.in_channels=3\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_float_names_the_key_and_line(self, key, text):
        with pytest.raises(ConfigError, match=f":2: {re.escape(key)} must be finite, got {text}"):
            parse_config_text(f"run.seed=1\n{key}={text}\n")

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("unet.depth=3\nlfam.local_range=5\n")
        cfg = parse_config(path)
        assert cfg.depth == 3 and cfg.local_range == 5

    def test_constraint_violations_on_direct_construction(self):
        with pytest.raises(ConfigError):
            RunConfig(local_range=0)
        with pytest.raises(ConfigError):
            RunConfig(skip="dense")


class TestEmitRoundTrip:
    def test_emit_parses_back_to_equal_config(self):
        cfg = RunConfig(seed=11, out_dir="o", n_images=16,
                        image_size=16, num_classes=3, rare_class_frac=0.03,
                        depth=1, skip="concat", local_range=5,
                        residual_source="decoder", scale_logits=True,
                        optimizer="sgd", lr_base=0.025, epochs=7,
                        loss_kind="weighted_ce", class_weights="1.0,2.0,3.0")
        assert parse_config_text(emit_config(cfg)) == cfg

    def test_free_strings_with_spaces_and_equals_parse_back(self):
        cfg = RunConfig(out_dir="runs/a b=c", data_root="/data/my set", checkpoint="x=1.ckpt")
        assert parse_config_text(emit_config(cfg)) == cfg

    @pytest.mark.parametrize("key", ["run.out_dir", "data.root", "eval.checkpoint"])
    @pytest.mark.parametrize("value", ["/data/run#1", "a\nb", "a\rb", "a\u2028b", " lead", "trail\t"])
    def test_free_string_that_would_not_parse_back_is_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{KEYS[key].name: value})

    def test_emitted_keys_are_sorted_and_complete(self):
        lines = emit_config(RunConfig()).strip().split("\n")
        keys = [ln.split("=")[0] for ln in lines]
        assert keys == sorted(KEYS)

    @given(seed=st.integers(0, 10 ** 6),
           depth=st.integers(1, 4),
           local_range=st.integers(1, 9),
           lr=st.floats(1e-6, 1.0, allow_nan=False),
           norm=st.booleans(),
           skip=st.sampled_from(["concat", "lfam", "none"]),
           residual=st.sampled_from(["encoder", "decoder", "none"]))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_over_randomized_configs(self, seed, depth, local_range,
                                                lr, norm, skip, residual):
        cfg = RunConfig(seed=seed, depth=depth, local_range=local_range,
                        lr_base=lr, channel_norm=norm, skip=skip,
                        residual_source=residual)
        assert parse_config_text(emit_config(cfg)) == cfg


class TestMaterializers:
    def test_unet_config_carries_lfam_settings(self):
        cfg = RunConfig(skip="lfam", local_range=3, residual_source="none",
                        proj_channels=4, depth=2)
        unet = cfg.unet_config()
        assert len(unet.skips) == 2
        assert unet.skips[0].kind == "lfam"
        assert unet.skips[0].lfam.local_range == 3
        assert unet.skips[0].lfam.proj_channels == 4

    def test_residual_projection_narrower_than_the_level_is_rejected(self):
        with pytest.raises(ConfigError, match="level 1's lfam skip"):
            RunConfig(skip="lfam", base_channels=8, depth=2, proj_channels=8)
        RunConfig(skip="concat", base_channels=8, depth=2, proj_channels=8)  # no fusion to project

    def test_concat_skip_has_no_lfam(self):
        unet = RunConfig(skip="concat").unet_config()
        assert all(s.kind == "concat" and s.lfam is None for s in unet.skips)

    def test_weighted_ce_weight_count_checked(self):
        cfg = RunConfig(loss_kind="weighted_ce", num_classes=3, class_weights="1.0,2.0")
        with pytest.raises(ConfigError, match="2 entries for 3 classes"):
            cfg.loss_config()

    def test_weighted_ce_falls_back_to_unit_weights(self):
        loss = RunConfig(loss_kind="weighted_ce", num_classes=3).loss_config()
        assert loss.class_weights == (1.0, 1.0, 1.0)


SMALL_TRAIN = """
run.seed=5
data.n_images=8
data.size=16
data.num_classes=2
data.rare_class_frac=0.04
data.val_frac=0.25
unet.base_channels=2
unet.depth=1
lfam.local_range=4
train.epochs=2
train.batch_size=4
"""


# (subcommand, config, key its message names): errors the subcommand finds,
# not the parser; the default unet.depth is 2
SUBCOMMAND_CONFIG_ERRORS = [
    ("eval", "", "eval.checkpoint"),
    ("gen-data", "data.num_classes=300\n", "data.num_classes"),
    ("train", "data.tile=6\n", "data.tile"),
    ("train", "data.size=18\n", "data.size"),
    ("train", "data.n_images=1\ndata.val_frac=0.9\n", "data.val_frac"),
    ("cost", "cost.geometry=model\nunet.skip=concat\n", "unet.skip"),
    ("cost", "cost.geometry=model\ncost.input_size=30\n", "cost.input_size"),
    # a seed past Philox's 64-bit key word
    *((command, f"run.seed={2**64}\n", "run.seed") for command in ("train", "gen-data", "gradcheck")),
]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSubcommands:
    def test_train_writes_log_and_provenance(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_TRAIN)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "config.txt").exists()
        run_meta = json.loads((out / "run.json").read_text())
        assert run_meta["command"] == "train" and run_meta["seed"] == 5
        assert "version" in run_meta
        assert run_meta["malloc"] == lfam.MALLOC_TUNING
        assert set(run_meta["blas"]) == {"name", "threads"} and run_meta["blas"]["name"]
        assert run_meta["shards"] == lfam.unet.shard_mode()
        log = (out / "log.csv").read_text().strip().split("\n")
        assert len(log) == 3  # header + 2 epochs
        assert (out / "best.ckpt").exists()
        assert "best val mean IoU" in capsys.readouterr().out

    def test_identical_runs_produce_identical_log_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_TRAIN)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (outs[0] / "log.csv").read_bytes() == (outs[1] / "log.csv").read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_adam_at_a_high_constant_rate_trains_through_float32_underflow(self, tmp_path):
        # at epoch 0 batch 1 a target pixel's float32 probability underflows
        # to 0; a loss that took its log stopped the run there with exit 5
        cfg = write_cfg(tmp_path, "data.size=32\ndata.n_images=16\nlfam.local_range=4\n"
                                  "train.epochs=3\ntrain.lr_base=0.05\ntrain.schedule=constant\n")
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len((out / "log.csv").read_text().splitlines()) == 4  # header + 3 epochs

    def test_an_adam_second_moment_overflow_is_a_numerical_error(self, tmp_path, capsys):
        # at ten times the rate above, g * g overflows float32 in Adam's second
        # moment, which then held inf and took zero steps there: losses of 1e13
        cfg = write_cfg(tmp_path, "data.size=32\ndata.n_images=16\nlfam.local_range=4\n"
                                  "train.epochs=3\ntrain.lr_base=0.5\ntrain.schedule=constant\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert re.search(r"numerical error: Adam second moment: overflow .* at epoch \d+ batch \d+",
                         capsys.readouterr().err)

    def test_eval_reports_iou_from_checkpoint(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SMALL_TRAIN)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        eval_cfg = write_cfg(tmp_path, SMALL_TRAIN +
                             f"eval.checkpoint={out / 'best.ckpt'}\n", "eval.cfg")
        assert main(["eval", "--config", eval_cfg, "--out", str(tmp_path / "e")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "mean IoU" in text
        record = json.loads((tmp_path / "e" / "eval.json").read_text())
        assert len(record["per_class_iou"]) == 2

    @pytest.mark.parametrize("kind", ["focal_iou", "weighted_ce"])
    def test_class_weight_count_is_config_error_before_any_output(self, tmp_path, capsys, kind):
        text = SMALL_TRAIN + f"loss.kind={kind}\nloss.class_weights=1,2,3\n"
        line = text.splitlines().index("loss.class_weights=1,2,3") + 1
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"{cfg}:{line}: loss.class_weights has 3 entries for 2 classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("depth, proj", [(1, 4), (2, 2)])
    def test_projection_a_residual_cannot_add_is_config_error_before_any_output(
            self, tmp_path, capsys, depth, proj):
        # base 2: proj 2 fits level 0 but not level 1, which is 4 wide
        text = SMALL_TRAIN.replace("unet.depth=1", f"unet.depth={depth}")
        cfg = write_cfg(tmp_path, text + f"lfam.proj_channels={proj}\n")
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "proj_channels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", UNBOUNDED_FLOAT_KEYS)
    def test_infinite_float_is_config_error_before_any_output(self, tmp_path, capsys, key):
        text = SMALL_TRAIN + f"{key}=inf\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        line = len(text.splitlines())
        assert f"{cfg}:{line}: {key} must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, key", SUBCOMMAND_CONFIG_ERRORS,
                             ids=[key for _, _, key in SUBCOMMAND_CONFIG_ERRORS])
    def test_subcommand_config_error_writes_no_output(self, tmp_path, capsys, command, text, key):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_eval_without_checkpoint_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_TRAIN)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "e")]) == EXIT_CONFIG

    def test_eval_missing_checkpoint_file_is_file_error(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_TRAIN + "eval.checkpoint=/nonexistent.ckpt\n")
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "e")]) == EXIT_FILE

    def test_eval_truncated_checkpoint_header_is_file_error(self, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"LFCK\x01")
        cfg = write_cfg(tmp_path, SMALL_TRAIN + f"eval.checkpoint={ckpt}\n")
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "e")]) == EXIT_FILE
        assert f"truncated checkpoint {ckpt}" in capsys.readouterr().err

    def test_eval_checkpoint_holding_nan_is_file_error(self, tmp_path, capsys):
        # it used to exit 0 with a plausible mean IoU
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, SMALL_TRAIN),
                     "--out", str(out)]) == EXIT_OK
        ckpt = bytearray((out / "best.ckpt").read_bytes())
        first_value = ckpt.index(b"head.weight") + len(b"head.weight") + 20  # past LFT1 and dims
        ckpt[first_value:first_value + 4] = np.float32(np.nan).tobytes()
        (out / "best.ckpt").write_bytes(bytes(ckpt))
        cfg = write_cfg(tmp_path, SMALL_TRAIN + f"eval.checkpoint={out / 'best.ckpt'}\n", "eval.cfg")
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "e")]) == EXIT_FILE
        assert "non-finite value in parameter 'head.weight'" in capsys.readouterr().err
        assert not (tmp_path / "e" / "eval.json").exists()

    def test_gen_data_writes_dataset(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_TRAIN + f"data.root={tmp_path / 'ds'}\n")
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(list((tmp_path / "ds" / "images").glob("*.pgm"))) == 8
        assert len(list((tmp_path / "ds" / "masks").glob("*.pgm"))) == 8
        assert "wrote 8 images" in capsys.readouterr().out

    def test_gen_data_with_more_classes_than_a_pgm_holds_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_TRAIN.replace("num_classes=2", "num_classes=300"))
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "data.num_classes" in capsys.readouterr().err
        assert not (out / "dataset").exists()

    def test_train_from_generated_dataset_on_disk(self, tmp_path):
        base = SMALL_TRAIN + f"data.root={tmp_path / 'ds'}\n"
        cfg = write_cfg(tmp_path, base)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o1")]) == EXIT_OK
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o2")]) == EXIT_OK
        assert (tmp_path / "o2" / "log.csv").exists()

    def test_corrupt_pgm_under_data_root_is_file_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_TRAIN + f"data.root={tmp_path / 'ds'}\n")
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o1")]) == EXIT_OK
        (tmp_path / "ds" / "images" / "0003.pgm").write_bytes(b"P5\nxx 4\n255\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o2")]) == EXIT_FILE
        assert "0003.pgm" in capsys.readouterr().err

    def test_image_without_mask_under_data_root_is_file_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_TRAIN + f"data.root={tmp_path / 'ds'}\n")
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o1")]) == EXIT_OK
        (tmp_path / "ds" / "masks" / "0005.pgm").unlink()
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o2")]) == EXIT_FILE
        assert str(tmp_path / "ds" / "images" / "0005.pgm") in capsys.readouterr().err

    def test_mask_label_outside_classes_is_file_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_TRAIN + f"data.root={tmp_path / 'ds'}\n")
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o1")]) == EXIT_OK
        path = tmp_path / "ds" / "masks" / "0002.pgm"
        mask = read_pgm(path)
        mask[3, 4] = 9
        write_pgm(path, mask)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o2")]) == EXIT_FILE
        assert "0002.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize("tile, problem", [(0, "not a multiple of 4"), (32, "below 32")])
    def test_image_the_network_cannot_take_under_data_root_is_file_error(
            self, tmp_path, capsys, tile, problem):
        text = SMALL_TRAIN.replace("data.size=16", "data.size=18") + f"data.root={tmp_path / 'ds'}\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o1")]) == EXIT_OK
        cfg = write_cfg(tmp_path, text.replace("unet.depth=1", "unet.depth=2") + f"data.tile={tile}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o2")]) == EXIT_FILE
        err = capsys.readouterr().err
        assert str(tmp_path / "ds" / "images" / "0000.pgm") in err and problem in err

    def test_untiled_images_of_mixed_sizes_are_a_file_error(self, tmp_path, capsys):
        # an untiled dataset is batched whole, so its images must share one size
        small = gen_synthetic(4, 16, num_classes=2, rare_class_frac=0.04, seed=5)
        large = gen_synthetic(4, 32, num_classes=2, rare_class_frac=0.04, seed=5)
        save_dataset(tmp_path / "ds", small + large)
        cfg = write_cfg(tmp_path, SMALL_TRAIN + f"data.root={tmp_path / 'ds'}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_FILE
        err = capsys.readouterr().err
        assert str(tmp_path / "ds" / "images" / "0004.pgm") in err and "32x32" in err
        assert not (tmp_path / "o" / "log.csv").exists()
        tiled = write_cfg(tmp_path, SMALL_TRAIN + f"data.root={tmp_path / 'ds'}\ndata.tile=16\n")
        assert main(["train", "--config", tiled, "--out", str(tmp_path / "t")]) == EXIT_OK

    @pytest.mark.parametrize("size, tile", [(18, 0), (16, 6), (16, 32)])
    def test_size_the_network_cannot_take_is_config_error(self, tmp_path, capsys, size, tile):
        text = SMALL_TRAIN.replace("data.size=16", f"data.size={size}\ndata.tile={tile}")
        cfg = write_cfg(tmp_path, text.replace("unet.depth=1", "unet.depth=2"))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert ("data.tile" if tile else "data.size") in capsys.readouterr().err

    def test_failed_eval_json_write_keeps_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, SMALL_TRAIN),
                     "--out", str(out)]) == EXIT_OK
        eval_cfg = write_cfg(tmp_path, SMALL_TRAIN +
                             f"eval.checkpoint={out / 'best.ckpt'}\n", "eval.cfg")
        assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == EXIT_OK
        before = (out / "eval.json").read_bytes()
        write_text = Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            if not path.name.startswith("eval.json"):
                return write_text(path, text, *args, **kwargs)
            write_text(path, text[:len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == EXIT_FILE
        assert (out / "eval.json").read_bytes() == before
        assert not list(out.glob("*.tmp"))

    def test_gradcheck_passes_and_prints_table(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path / "g")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "masked_softmax" in text and "unet-end-to-end" in text
        assert "FAIL" not in text

    def test_cost_table_prints_reference_ratio(self, tmp_path, capsys):
        assert main(["cost", "--out", str(tmp_path / "c")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "0.0466" in text
        assert "256" in text and "32" in text  # level sizes

    def test_cost_json_is_machine_readable(self, tmp_path, capsys):
        assert main(["cost", "--json", "--out", str(tmp_path / "c")]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert len(record["levels"]) == 4
        assert record["ratio"] < 0.05

    def test_closed_stdout_exits_with_the_pipe_code_and_no_message(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
            code = main(["cost", "--json", "--out", str(tmp_path / "c")])
            redirected = os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        assert code == EXIT_PIPE and code != EXIT_FILE
        assert redirected
        assert capsys.readouterr().err == ""

    def test_cost_input_smaller_than_the_network_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "cost.geometry=model\ncost.input_size=2\nunet.depth=2\n")
        assert main(["cost", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_version_names_the_package_checkout_not_the_working_directory(
            self, tmp_path, monkeypatch):
        version = lfam.cli._version_string
        version.cache_clear()
        monkeypatch.chdir(Path(lfam.cli.__file__).parent)
        want = version()
        other = tmp_path / "other"
        other.mkdir()
        for cmd in (["init", "-q"], ["-c", "user.name=x", "-c", "user.email=x@x",
                                     "commit", "-q", "--allow-empty", "-m", "other"]):
            subprocess.run(["git", *cmd], cwd=other, check=True, capture_output=True)
        version.cache_clear()
        monkeypatch.chdir(other)
        try:
            assert version() == want
        finally:
            version.cache_clear()

    def test_version_spawns_git_once_per_process(self, tmp_path, monkeypatch):
        calls = []

        def fake_run(args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 0, stdout="abc1234\n", stderr="")

        lfam.cli._version_string.cache_clear()
        monkeypatch.setattr(lfam.cli.subprocess, "run", fake_run)
        try:
            assert main(["cost", "--out", str(tmp_path / "c")]) == EXIT_OK
        finally:
            lfam.cli._version_string.cache_clear()
        assert len(calls) == 1
        assert json.loads((tmp_path / "c" / "run.json").read_text())["version"].endswith("+abc1234")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_config_file_is_file_error(self, tmp_path):
        assert main(["cost", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "c")]) == EXIT_FILE

    def test_non_utf8_config_file_is_file_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"run.seed=\xff\n")
        assert main(["cost", "--config", str(cfg), "--out", str(tmp_path / "c")]) == EXIT_FILE
        err = capsys.readouterr().err
        assert f"file error: config file {cfg} is not UTF-8 text" in err
        assert "Traceback" not in err

    def test_bad_config_value_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "lfam.local_range=0\n")
        assert main(["cost", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG

    def test_out_path_that_would_not_parse_back_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run#1"
        assert main(["cost", "--out", str(out)]) == EXIT_CONFIG
        assert "config error: run.out_dir must be free of '#'" in capsys.readouterr().err
        assert not out.exists()

    def test_dispatch_rejects_unknown_command_without_side_effects(self, tmp_path, capsys):
        cfg = RunConfig(out_dir=str(tmp_path / "d"))
        assert dispatch("paint", cfg) == EXIT_USAGE
        assert not (tmp_path / "d").exists()

    def test_numerical_exit_code_when_training_diverges(self, tmp_path, capsys):
        # deterministic per seed, so the blow-up is reproducible
        cfg = write_cfg(tmp_path, SMALL_TRAIN.replace("train.epochs=2",
                                                      "train.epochs=40")
                        + "train.optimizer=sgd\ntrain.lr_base=1000000.0\n")
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert "epoch" in capsys.readouterr().err


class TestDeclarations:
    def test_every_field_carries_a_unique_key(self):
        keys = [f.metadata.get("key") for f in fields(RunConfig)]
        assert None not in keys
        assert len(set(keys)) == len(keys) == len(KEYS) == 34

    def test_each_default_has_its_annotated_type(self):
        # the parser converts values to the default's type, so a float field
        # with the default 1 would reject "0.5"
        hints = typing.get_type_hints(RunConfig)
        for f in fields(RunConfig):
            assert type(f.default) is hints[f.name], f.name


MAIN_HELP = """\
usage: lfam [-h] [--version] {train,eval,gradcheck,cost,gen-data} ...

Windowed source-target attention for U-Net skip connections.

positional arguments:
  {train,eval,gradcheck,cost,gen-data}
    train               train a model and write logs plus the best checkpoint
    eval                load a checkpoint and report per-class and mean IoU
    gradcheck           run the double-precision gradient suite
    cost                print the attention flop comparison table
    gen-data            write a synthetic dataset to disk

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

SUBCOMMAND_HELP = """\
usage: lfam {name} [-h] [--config CONFIG] [--out OUT]{json_usage}

options:
  -h, --help       show this help message and exit
  --config CONFIG  key=value config file (defaults apply without it)
  --out OUT        output directory (overrides run.out_dir)
{json_line}"""


class TestHelpText:
    def test_top_level_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out == MAIN_HELP

    @pytest.mark.parametrize("name", ["train", "eval", "gradcheck", "cost", "gen-data"])
    def test_subcommand_help(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        json_usage, json_line = "", ""
        if name == "cost":
            json_usage = " [--json]"
            json_line = "  --json           emit the report as JSON instead of a table\n"
        assert main([name, "--help"]) == EXIT_OK
        assert capsys.readouterr().out == SUBCOMMAND_HELP.format(
            name=name, json_usage=json_usage, json_line=json_line)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJsonArtifacts:
    def test_train_without_validation_writes_null_best_iou(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_TRAIN.replace("data.val_frac=0.25", "data.val_frac=0"))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
        assert summary["best_epoch"] == 1 and summary["best_val_mean_iou"] is None

    def test_eval_writes_null_for_an_absent_class(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, SMALL_TRAIN),
                     "--out", str(out)]) == EXIT_OK
        # class 1 absent from both prediction and target: its IoU is undefined
        monkeypatch.setattr(lfam.cli, "evaluate", lambda *args: (np.array([1.0, np.nan]), 1.0))
        eval_cfg = write_cfg(tmp_path, SMALL_TRAIN +
                             f"eval.checkpoint={out / 'best.ckpt'}\n", "eval.cfg")
        assert main(["eval", "--config", eval_cfg, "--out", str(tmp_path / "e")]) == EXIT_OK
        record = json.loads((tmp_path / "e" / "eval.json").read_text(),
                            parse_constant=reject_constant)
        assert record["per_class_iou"] == [1.0, None] and record["mean_iou"] == 1.0
