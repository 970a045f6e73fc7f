"""Command-line pipeline tests: config resolution, artifacts, exit codes."""

import contextlib
import dataclasses
import inspect
import io
import json
import os
import tempfile
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewdet import attention as att
from fewdet import cli
from fewdet import config
from fewdet import detector as det
from fewdet import gradcheck
from fewdet import saliency as sal
from fewdet import synthdata as sd
from fewdet import tensor as T
from fewdet.ppm import read_ppm

# tiny corpus: enough novel-pool scenes for 1-shot support, everything else minimal
TINY = ["--set", "seed=3", "--set", "data.base_train=4",
        "--set", "data.novel_pool=30", "--set", "data.test=4"]


def run(args):
    return cli.main(list(args))


def bms_images(monkeypatch) -> list:
    """The image of every `saliency.bms_saliency` call from now on, held, so
    no two calls' images share an id."""
    images = []
    bms_saliency = sal.bms_saliency

    def recorded(image, *a, **k):
        images.append(image)
        return bms_saliency(image, *a, **k)

    monkeypatch.setattr(sal, "bms_saliency", recorded)
    return images


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    rc = run(["train-base", "--out", str(out), *TINY, "--set", "base.epochs=0"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def novel_run(tmp_path_factory, base_run):
    out = tmp_path_factory.mktemp("novel")
    rc = run(["train-novel", "--out", str(out),
              "--base-ckpt", str(base_run / "base.ckpt.json"),
              *TINY, "--set", "novel.epochs=0", "--set", "novel.k=1"])
    assert rc == 0
    return out


# one out-of-bound value of every bounded key, with its whole error line;
# the keys marked had no bound before, and their values failed later, in the
# blank-detector probe or (with bottom-up off, for detector.epsilon) not
# until train-novel read the checkpoint
BOUND_ERRORS = [
    ("seed", "-1", "seed must be an integer >= 0, got -1"),
    ("data.split", "4", "data.split must be a known split id, got 4"),
    ("data.base_train", "0", "data.base_train must be an integer >= 1, got 0"),
    ("data.novel_pool", "0", "data.novel_pool must be an integer >= 1, got 0"),
    ("data.test", "0", "data.test must be an integer >= 1, got 0"),
    ("detector.image_size", "1025",
     "detector.image_size must be an integer multiple of 8 in [32,1024], got 1025"),
    ("detector.backbone_channels", "[8,16,0,32]",  # no bound before
     "detector.backbone_channels must be a list of integers >= 1, got [8, 16, 0, 32]"),
    ("detector.feat_dim", "0",  # no bound before
     "detector.feat_dim must be an integer >= 1, got 0"),
    ("detector.bottleneck_ratio", "0",
     "detector.bottleneck_ratio must be an integer >= 1, got 0"),
    ("detector.temperature", "0", "detector.temperature must be a number > 0, got 0"),
    ("detector.pos_thr", "1", "detector.pos_thr must be a number in (0,1), got 1"),
    ("detector.neg_pos_ratio", "-1",
     "detector.neg_pos_ratio must be an integer >= 0, got -1"),
    ("detector.alpha", "-1.0", "detector.alpha must be a number >= 0, got -1.0"),
    ("detector.epsilon", "0",  # no bound before
     "detector.epsilon must be a number > 0, got 0"),
    ("detector.nms_iou", "0", "detector.nms_iou must be a number in (0,1), got 0"),
    ("detector.score_thr", "-0.1", "detector.score_thr must be a number >= 0, got -0.1"),
    ("detector.top_k", "0", "detector.top_k must be an integer >= 1, got 0"),
    ("anchors.scales", "[0.2,-0.42]",  # no bound before
     "anchors.scales must be a list of numbers > 0, got [0.2, -0.42]"),
    ("anchors.aspects", "[1.0,0.0,0.5]",  # no bound before
     "anchors.aspects must be a list of numbers > 0, got [1.0, 0.0, 0.5]"),
    ("saliency.mode", "foo", "saliency.mode must be 'bms' or 'oracle', got \"foo\""),
    ("saliency.blur_radius", "256",
     "saliency.blur_radius must be an integer in [0,255], got 256"),
    ("saliency.thresholds_per_channel", "0",
     "saliency.thresholds_per_channel must be an integer in [1,255], got 0"),
    ("saliency.opening_radius", "-1",
     "saliency.opening_radius must be an integer in [0,255], got -1"),
    ("base.epochs", "-1", "base.epochs must be an integer >= 0, got -1"),
    ("base.batch_size", "0", "base.batch_size must be an integer >= 1, got 0"),
    ("base.lr", "0", "base.lr must be a number > 0, got 0"),
    ("base.momentum", "1", "base.momentum must be a number in [0,1), got 1"),
    ("base.weight_decay", "-0.1", "base.weight_decay must be a number >= 0, got -0.1"),
    ("base.lr_decay_epochs", "[-1]",
     "base.lr_decay_epochs must be a list of integers >= 0, got [-1]"),
    ("base.lr_decay", "0", "base.lr_decay must be a number > 0, got 0"),
    ("base.clip_norm", "-1.0", "base.clip_norm must be a number >= 0, got -1.0"),
    ("novel.epochs", "-1", "novel.epochs must be an integer >= 0, got -1"),
    ("novel.batch_size", "0", "novel.batch_size must be an integer >= 1, got 0"),
    ("novel.lr", "-0.002", "novel.lr must be a number > 0, got -0.002"),
    ("novel.momentum", "-0.1", "novel.momentum must be a number in [0,1), got -0.1"),
    ("novel.weight_decay", "-0.1", "novel.weight_decay must be a number >= 0, got -0.1"),
    ("novel.lr_decay_epochs", "[30,-1]",
     "novel.lr_decay_epochs must be a list of integers >= 0, got [30, -1]"),
    ("novel.lr_decay", "-1", "novel.lr_decay must be a number > 0, got -1"),
    ("novel.clip_norm", "-5", "novel.clip_norm must be a number >= 0, got -5"),
    ("novel.k", "0", "novel.k must be an integer >= 1, got 0"),
    ("novel.base_multiplier", "-1",
     "novel.base_multiplier must be an integer >= 0, got -1"),
    ("novel.alpha", "-1", "novel.alpha must be a number >= 0, got -1"),
    ("novel.beta", "-2.0", "novel.beta must be a number >= 0, got -2.0"),
    ("novel.eta", "-0.4", "novel.eta must be a number >= 0, got -0.4"),
    ("novel.gamma", "-0.5", "novel.gamma must be a number >= 0, got -0.5"),
    ("render.scene_seed", "-2", "render.scene_seed must be an integer >= 0, got -2"),
    ("gradcheck.points", "0", "gradcheck.points must be an integer >= 1, got 0"),
    ("sweep.beta", "[-1.0]", "sweep.beta must be a list of numbers >= 0, got [-1.0]"),
    ("sweep.eta", "[0.4,-0.4]",
     "sweep.eta must be a list of numbers >= 0, got [0.4, -0.4]"),
    ("sweep.epsilon", "[0.0]", "sweep.epsilon must be a list of numbers > 0, got [0.0]"),
    ("sweep.gamma", "[0.5,-0.5]",
     "sweep.gamma must be a list of numbers >= 0, got [0.5, -0.5]"),
    ("sweep.k", "[2,0]", "sweep.k must be a list of integers >= 1, got [2, 0]"),
    ("sweep.split", "[1,9]", "sweep.split must be a list of known split ids, got [1, 9]"),
    ("sweep.seeds", "[7,-8]", "sweep.seeds must be a list of integers >= 0, got [7, -8]"),
]


def readme_key_table() -> dict[str, tuple[str, str]]:
    """README's configuration-key table: key -> (default cell, bound cell),
    the code-span backticks stripped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, default, bound, _ = (c.strip().strip("`") for c in line.strip("|").split(" | "))
            assert key not in rows, key
            rows[key] = (default, bound)
    return rows


class TestConfigResolution:
    def test_defaults_then_file_then_set(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 7, "base.lr": 0.5}))
        cfg = cli.resolve_config(str(path), ["seed=9"])
        assert cfg["seed"] == 9
        assert cfg["base.lr"] == 0.5
        assert cfg["novel.beta"] == cli.DEFAULTS["novel.beta"]

    def test_set_parses_json_values(self):
        cfg = cli.resolve_config(None, ["base.lr_decay_epochs=[1,2]",
                                        "detector.use_bottom_up=false"])
        assert cfg["base.lr_decay_epochs"] == [1, 2]
        assert cfg["detector.use_bottom_up"] is False

    def test_set_falls_back_to_bare_string(self):
        cfg = cli.resolve_config(None, ["saliency.mode=oracle"])
        assert cfg["saliency.mode"] == "oracle"

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(cli.UsageError):
            cli.resolve_config(None, ["no.such.key=1"])
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"no.such.key": 1}))
        with pytest.raises(cli.UsageError):
            cli.resolve_config(str(path), [])

    def test_set_without_equals_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.resolve_config(None, ["seed"])


class TestKeyTable:
    def test_readme_table_matches_keys(self):
        """README's key table names every key of config.KEYS, with its
        default (compared as JSON) and its bound (— for none)."""
        rows = readme_key_table()
        assert set(rows) == set(config.KEYS)
        for key, (default, bound) in config.KEYS.items():
            cell_default, cell_bound = rows[key]
            assert json.dumps(json.loads(cell_default)) == json.dumps(default), key
            assert cell_bound == ("—" if bound is None else bound), key


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        rc = run(["train-base", "--out", str(tmp_path), "--set", "nope=1"])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        rc = run(["eval", "--out", str(tmp_path), "--ckpt",
                  str(tmp_path / "absent.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("base.epochs", "-1"), ("novel.epochs", "-1"),
        ("base.batch_size", "0"), ("novel.batch_size", "0"),
        ("detector.pos_thr", "0"), ("detector.pos_thr", "1"),
        ("detector.nms_iou", "0"), ("detector.nms_iou", "1.5"),
        ("detector.score_thr", "-0.1"), ("base.epochs", "two"),
        ("detector.image_size", "32"), ("base.lr_decay_epochs", "5"),
        ("detector.backbone_channels", "[8,16]"), ("gradcheck.points", "0"),
        ("detector.top_k", "0"), ("detector.use_bottom_up", "1"),
        ("anchors.map_sizes", "[[8,8]]"), ("saliency.mode", "[]"),
        ("detector.temperature", "0"), ("detector.temperature", "-10.0"),
        ("data.base_train", "0"), ("data.novel_pool", "0"), ("data.test", "0"),
        ("base.lr", "0"), ("novel.lr", "-0.002"),
        ("base.momentum", "1"), ("novel.momentum", "-0.1"),
        ("saliency.thresholds_per_channel", "0"), ("data.split", "4"),
        ("sweep.k", "[2,0]"), ("sweep.epsilon", "[0.0]"), ("sweep.beta", "[-1.0]"),
        ("sweep.eta", "[-0.4]"), ("sweep.gamma", "[0.5,-0.5]"), ("sweep.split", "[1,9]"),
        ("seed", "-1"), ("render.scene_seed", "-2"), ("sweep.seeds", "[7,-8]"),
        ("saliency.blur_radius", "-1"), ("saliency.opening_radius", "-1"),
        ("detector.bottleneck_ratio", "0"), ("detector.neg_pos_ratio", "-1"),
        ("detector.alpha", "-1.0"), ("base.clip_norm", "-1.0"),
        ("novel.weight_decay", "-0.1"), ("base.lr_decay_epochs", "[-1]"),
        ("novel.k", "0"), ("novel.base_multiplier", "-1"), ("novel.gamma", "-0.5"),
        ("detector.image_size", "-1"), ("novel.lr_decay", "Infinity"),
        ("base.weight_decay", "NaN"), ("anchors.scales", "[NaN,0.42]"),
        ("base.lr_decay", "-1"), ("base.lr_decay", "0"), ("novel.lr_decay", "0"),
        # a detector too large to allocate, or too large to probe
        ("detector.image_size", "100000000"), ("detector.image_size", "1025"),
        ("detector.backbone_channels", "[8,16,24,1000000000000]"),
    ])
    def test_bad_config_value_is_one_error_line(self, tmp_path, capsys, key,
                                                value):
        rc = run(["train-base", "--out", str(tmp_path), *TINY,
                  "--set", f"{key}={value}"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
        assert not (tmp_path / "base.ckpt.json").exists()

    @pytest.mark.parametrize("key,value,line", BOUND_ERRORS,
                             ids=[key for key, _, _ in BOUND_ERRORS])
    def test_out_of_bound_value_has_its_exact_error_line(self, tmp_path, capsys, key,
                                                         value, line):
        rc = run(["train-base", "--out", str(tmp_path), *TINY, "--set", f"{key}={value}"])
        assert (rc, capsys.readouterr().err.splitlines()) == (1, [f"error: {line}"])
        assert not (tmp_path / "config.json").exists()

    def test_every_bounded_key_has_a_pinned_error_line(self):
        assert [key for key, _, _ in BOUND_ERRORS] == [
            key for key, (_, bound) in config.KEYS.items() if bound is not None]

    def test_zero_epsilon_is_rejected_with_bottom_up_off(self, tmp_path, capsys):
        """With bottom-up off nothing reads detector.epsilon before the
        novel stage, so only its bound keeps a 0 out of the checkpoint."""
        rc = run(["train-base", "--out", str(tmp_path), *TINY,
                  "--set", "detector.use_bottom_up=false", "--set", "detector.epsilon=0"])
        assert (rc, capsys.readouterr().err.splitlines()) == (
            1, ["error: detector.epsilon must be a number > 0, got 0"])
        assert not (tmp_path / "base.ckpt.json").exists()

    @pytest.mark.parametrize("command", ["train-base", "gradcheck"])
    @pytest.mark.parametrize("use_bottom_up", ["true", "false"])
    def test_bad_saliency_mode_is_one_error_line(self, tmp_path, capsys, command,
                                                 use_bottom_up):
        """An unknown saliency.mode stops at the CLI boundary even when
        bottom-up is off and no saliency is computed: it would otherwise be
        written into config.json and checkpoint meta, and fail later."""
        rc = run([command, "--out", str(tmp_path), *TINY,
                  "--set", f"detector.use_bottom_up={use_bottom_up}",
                  "--set", "saliency.mode=foo"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: saliency.mode must be 'bms' or 'oracle', got \"foo\""], err
        assert not (tmp_path / "config.json").exists()

    @pytest.mark.parametrize("key,mode", [("saliency.thresholds_per_channel", "bms"),
                                          ("saliency.opening_radius", "bms"),
                                          ("saliency.blur_radius", "oracle")])
    def test_saliency_round_counts_are_capped(self, tmp_path, capsys, key, mode):
        """Each key sets how many rounds a saliency loop runs: 255 is valid,
        and a larger value stops at once with one error line instead of
        running that many rounds."""
        cli.resolve_config(None, [f"saliency.mode={mode}", f"{key}=255"])
        for value in ("256", "100000000000000000000"):
            t0 = time.monotonic()
            rc = run(["gradcheck", "--out", str(tmp_path), "--set", f"saliency.mode={mode}",
                      "--set", f"{key}={value}"])
            assert rc == 1
            assert time.monotonic() - t0 < 5
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err


def _like(default):
    """Values of the JSON type of ``default``, out of its key's range as
    often as not; integers stay small, so a valid one still runs quickly."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2, 3)
    if isinstance(default, float):
        return st.floats()  # NaN and the infinities included
    if isinstance(default, str):
        return st.text(max_size=4)
    return st.lists(_like(default[0]), max_size=3)


# a value of some other JSON type, an empty or a mistyped list among them
_OTHER = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-2, 3),
                   st.floats(), st.just({}), st.lists(st.sampled_from([None, "x", 1.5]),
                                                      max_size=2))


class TestConfigFuzz:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_key_exits_zero_or_one_error_line(self, data):
        """One key of a valid config file, mutated: train-base either runs
        or stops with exit 1 and one ``error:`` line naming the key, never
        a traceback."""
        key = data.draw(st.sampled_from(sorted(cli.DEFAULTS)), label="key")
        value = data.draw(st.one_of(_like(cli.DEFAULTS[key]), _OTHER), label="value")
        cfg = dict(cli.DEFAULTS, **{"seed": 3, "data.base_train": 2, "data.novel_pool": 1,
                                    "data.test": 2, "base.epochs": 0})
        cfg[key] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "config.in.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = run(["train-base", "--out", out, "--config", path])
        lines = err.getvalue().splitlines()
        assert rc == 0 or (rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")
                           and key in lines[0]), (rc, lines)


# a finite value whose square, and often the value itself times an
# activation, overflows float64
_HUGE = st.floats(1e100, 1e308).flatmap(lambda v: st.sampled_from([v, -v]))


class TestCheckpointFuzz:
    EDITS = ("huge", "zero", "flip", "zero cls.rows", "meta")

    @staticmethod
    def mutate(data, arrays, meta):
        """One array value or one metadata field of a checkpoint, changed."""
        edit = data.draw(st.sampled_from(TestCheckpointFuzz.EDITS), label="edit")
        if edit == "meta":
            key = data.draw(st.sampled_from(sorted(meta)), label="meta key")
            if key == "config":
                sub = data.draw(st.sampled_from(sorted(meta["config"])),
                                label="config key")
                value = {**meta["config"],
                         sub: data.draw(st.one_of(_like(cli.DEFAULTS[sub]), _OTHER),
                                        label="value")}
            else:
                value = data.draw(st.one_of(_like(meta[key]), _OTHER), label="value")
            return arrays, {**meta, key: value}
        if edit == "zero cls.rows":
            return {**arrays, "cls.rows": np.zeros_like(arrays["cls.rows"])}, meta
        name = data.draw(st.sampled_from(sorted(arrays)), label="array")
        a = arrays[name].copy()
        i = data.draw(st.integers(0, a.size - 1), label="index")
        if edit == "huge":
            a.flat[i] = data.draw(_HUGE, label="value")
        else:
            a.flat[i] = 0.0 if edit == "zero" else -a.flat[i]
        return {**arrays, name: a}, meta

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_exits_zero_or_one_error_line(self, base_run, data):
        """eval and train-novel on a valid checkpoint with one value or one
        metadata field changed: each run exits 0 with nothing on stderr, or
        1 with one ``error:`` line; never a traceback or a numpy warning.
        A checkpoint fault is never reported as a diverged novel stage (exit
        2): with gamma > 0, a regression weight of about 1e200 or more gives
        base offsets whose squares overflow, and that is checked before
        training starts."""
        arrays, meta = self.mutate(data, *T.load_arrays(base_run / "base.ckpt.json"))
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "m.ckpt.json")
            with open(path, "w") as fh:  # NaN and Infinity in meta included
                json.dump({"format_version": T.CHECKPOINT_FORMAT_VERSION, "meta": meta,
                           "arrays": {name: {"shape": list(a.shape),
                                             "data": a.ravel().tolist()}
                                      for name, a in arrays.items()}}, fh)
            for args in (["eval", "--ckpt", path],
                         ["train-novel", "--base-ckpt", path, "--set", "novel.k=1",
                          "--set", "novel.epochs=1"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc = run([args[0], "--out", out, *TINY, *args[1:]])
                lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
                one_error = len(lines) == 1 and lines[0].startswith("error: ")
                assert (rc == 0 and not lines) or (rc == 1 and one_error), \
                    (args[0], rc, lines)

    @pytest.mark.parametrize("name, index, value, reason", [
        ("head.0.reg.kernel", 100, 1e200,
         "a weight overflows when squared, which leaves the gradients through it no room"),
        ("backbone.1.kernel", 211, -8.978331222798986e+307,
         "a weight overflows when squared, which leaves the gradients through it no room"),
        ("head.0.reg.kernel", None, 1e154,
         "its outputs overflow when squared, as the distillation term does")],
        ids=["reg-weight", "backbone-weight", "reg-offsets"])
    def test_overflowing_base_is_no_divergence(self, base_run, tmp_path, name, index,
                                               value, reason):
        """Base weights or offsets whose squares overflow are the checkpoint's
        fault; they used to end train-novel as a diverged novel stage."""
        arrays, meta = T.load_arrays(base_run / "base.ckpt.json")
        a = arrays[name].copy()
        a.flat[slice(None) if index is None else index] = value
        path = tmp_path / "m.ckpt.json"
        T.save_arrays(path, {**arrays, name: a}, meta)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run(["train-novel", "--base-ckpt", str(path), "--out", str(tmp_path),
                      *TINY, "--set", "novel.k=1", "--set", "novel.epochs=1"])
        assert (rc, err.getvalue().splitlines()) == (
            1, [f"error: checkpoint {path}: its weights overflow ({reason})"])


class TestTrainBase:
    def test_zero_epochs_checkpoint_is_initialization(self, base_run):
        arrays, meta = T.load_arrays(base_run / "base.ckpt.json")
        split = sd.make_split(1)
        rng = np.random.default_rng(np.random.SeedSequence([3, 1]))
        want = det.init_detector_params(cli.detector_config(dict(cli.DEFAULTS)),
                                        sorted(split.base), rng)
        assert meta["stage"] == "base"
        assert meta["class_ids"] == sorted(split.base)
        assert set(arrays) == set(want.as_arrays())
        for name, arr in want.as_arrays().items():
            assert np.array_equal(arrays[name], arr)

    def test_zero_epochs_metrics_empty(self, base_run):
        assert (base_run / "metrics.jsonl").read_bytes() == b""

    def test_snapshot_holds_every_key(self, base_run):
        snapshot = json.loads((base_run / "config.json").read_text())
        assert set(snapshot) == set(cli.DEFAULTS)
        assert snapshot["seed"] == 3

    def test_report_structure(self, base_run):
        report = json.loads((base_run / "report.json").read_text())
        assert set(report) == {"per_class_ap", "map_base", "map_novel", "map_all"}
        assert len(report["per_class_ap"]) == 6

    def test_rerun_from_snapshot_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = [*TINY, "--set", "base.epochs=1", "--set", "data.novel_pool=4"]
        assert run(["train-base", "--out", str(a), *args]) == 0
        assert run(["train-base", "--out", str(b),
                    "--config", str(a / "config.json")]) == 0
        for name in ("config.json", "metrics.jsonl", "base.ckpt.json",
                     "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_metric_rows_are_json_lines(self, tmp_path):
        out = tmp_path / "m"
        assert run(["train-base", "--out", str(out), *TINY,
                    "--set", "base.epochs=2", "--set", "data.novel_pool=4"]) == 0
        rows = [json.loads(line)
                for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1]
        assert all(r["stage"] == "base" for r in rows)


class TestTrainNovel:
    def test_novel_checkpoint_extends_class_ids(self, novel_run):
        arrays, meta = T.load_arrays(novel_run / "novel.ckpt.json")
        split = sd.make_split(1)
        assert meta["stage"] == "novel"
        assert meta["class_ids"] == sorted(split.base) + sorted(split.novel)
        assert arrays["cls.rows"].shape[0] == 9

    def test_novel_stage_rejects_novel_checkpoint(self, novel_run, tmp_path,
                                                  capsys):
        rc = run(["train-novel", "--out", str(tmp_path),
                  "--base-ckpt", str(novel_run / "novel.ckpt.json"), *TINY])
        assert rc == 1
        assert "needs a base checkpoint" in capsys.readouterr().err

    def test_format_version_mismatch_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": 2, "arrays": {}}))
        rc = run(["train-novel", "--out", str(tmp_path), "--base-ckpt",
                  str(bad), *TINY])
        assert rc == 1
        assert "format_version" in capsys.readouterr().err

    @pytest.mark.parametrize("arrays", [
        {"cls.rows": {"data": [1.0]}},
        {"cls.rows": 5},
        {"cls.rows": {"shape": 3, "data": [1.0, 2.0, 3.0]}},
        {"cls.rows": {"shape": [1], "data": [{"v": 1.0}]}},
        [1.0],
    ])
    def test_malformed_array_entry_is_one_error_line(self, tmp_path, capsys,
                                                      arrays):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": 1, "arrays": arrays}))
        rc = run(["eval", "--out", str(tmp_path / "e"), "--ckpt", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["arrays"].pop("head.0.feat.kernel"),
        lambda doc: doc["arrays"].update({"extra.bias": {"shape": [1], "data": [0.0]}}),
        lambda doc: doc["arrays"].update({"cls.rows": {
            "shape": [3, 16], "data": doc["arrays"]["cls.rows"]["data"][:48]}}),
        lambda doc: doc["meta"].update({"class_ids": 5}),
        lambda doc: doc["meta"].update({"class_ids": [2, "3"]}),
        lambda doc: doc["meta"].update({"config": 5}),
        lambda doc: doc["meta"]["config"].update({"detector.feat_dim": 8}),
        lambda doc: doc["meta"]["config"].update({"detector.nms_iou": 2}),
        lambda doc: doc["meta"]["config"].update({"anchors.scales": 5}),
    ], ids=["missing_param", "extra_param", "cls_rows_cut", "class_ids_int",
            "class_ids_str", "config_int", "feat_dim_mismatch", "bad_nms_iou",
            "bad_anchor_scales"])
    def test_checkpoint_not_fitting_its_architecture_is_one_error_line(
            self, base_run, tmp_path, capsys, edit):
        doc = json.loads((base_run / "base.ckpt.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = run(["eval", "--out", str(tmp_path / "e"), "--ckpt", str(bad), *TINY])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("command", ["eval", "train-novel"])
    def test_checkpoint_config_outside_the_architecture_is_one_error_line(
            self, base_run, tmp_path, capsys, command):
        """A checkpoint's meta config overrides the invocation's, so it may
        hold architecture keys only: a stored data.test would make eval score
        another test set than the config.json it writes records."""
        doc = json.loads((base_run / "base.ckpt.json").read_text())
        doc["meta"]["config"]["data.test"] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        flag = "--ckpt" if command == "eval" else "--base-ckpt"
        rc = run([command, "--out", str(tmp_path / "o"), flag, str(bad), *TINY])
        assert (rc, capsys.readouterr().err.splitlines()) == (
            1, [f"error: checkpoint {bad}: config key 'data.test' is not a detector, "
                "anchors or saliency setting"])

    @pytest.mark.parametrize("value", [0.0, 1e-200], ids=["zero", "underflow"])
    @pytest.mark.parametrize("command", ["eval", "train-novel"])
    def test_zero_norm_classifier_row_is_named(self, base_run, tmp_path, capsys,
                                               command, value):
        """A cls.rows row the cosine classifier cannot normalize (its squares
        sum to zero, exactly or by underflow) is rejected at load, with one
        line naming the checkpoint, the parameter and the row."""
        arrays, meta = T.load_arrays(base_run / "base.ckpt.json")
        rows = arrays["cls.rows"].copy()
        rows[2] = value
        bad = tmp_path / "bad.ckpt.json"
        T.save_arrays(bad, {**arrays, "cls.rows": rows}, meta=meta)
        flag = "--ckpt" if command == "eval" else "--base-ckpt"
        rc = run([command, "--out", str(tmp_path / "o"), flag, str(bad), *TINY])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: checkpoint {bad}: parameter 'cls.rows' row 2 has "
                       "zero norm, which the cosine classifier cannot normalize"]

    def test_checkpoint_without_metadata_rejected(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"format_version": 1, "arrays": {}}))
        rc = run(["train-novel", "--out", str(tmp_path), "--base-ckpt",
                  str(bare), *TINY])
        assert rc == 1
        assert "metadata" in capsys.readouterr().err


class TestEval:
    def test_base_checkpoint_has_zero_novel_map(self, base_run, tmp_path):
        out = tmp_path / "e"
        rc = run(["eval", "--out", str(out), "--ckpt",
                  str(base_run / "base.ckpt.json"), *TINY])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["map_novel"] == 0.0
        assert report["stage"] == "base"

    def test_split_mismatch_rejected(self, base_run, tmp_path, capsys):
        rc = run(["eval", "--out", str(tmp_path), "--ckpt",
                  str(base_run / "base.ckpt.json"), "--set", "data.split=2"])
        assert rc == 1
        assert "split" in capsys.readouterr().err

    def test_checkpoint_architecture_wins_over_config(self, base_run, tmp_path):
        # detector settings in the eval config must not break a checkpoint
        # trained under different ones; the checkpoint's own metadata governs
        out = tmp_path / "e2"
        rc = run(["eval", "--out", str(out), "--ckpt",
                  str(base_run / "base.ckpt.json"), *TINY,
                  "--set", "detector.feat_dim=99"])
        assert rc == 0


class TestGenData:
    def test_corpus_dump(self, tmp_path):
        out = tmp_path / "corpus"
        rc = run(["gen-data", "--out", str(out), "--set", "seed=3",
                  "--set", "data.base_train=2", "--set", "data.novel_pool=2",
                  "--set", "data.test=2"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"base_train": 2, "novel_pool": 2,
                                      "test": 2}
        image = read_ppm(out / "test" / "scene_0000.ppm")
        assert image.shape == (3, 64, 64)
        sidecar = json.loads((out / "test" / "scene_0000.json").read_text())
        assert all(len(o["box"]) == 4 for o in sidecar["objects"])
        # test scenes are fully annotated, base_train hides novel classes
        assert all(o["annotated"] for o in sidecar["objects"])


@pytest.fixture(scope="module")
def render(base_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("render")
    rc = run(["render-attention", "--out", str(out), "--ckpt",
              str(base_run / "base.ckpt.json"), "--set",
              "render.scene_seed=5"])
    assert rc == 0
    return out


class TestRenderAttention:
    def test_writes_all_artifacts(self, render):
        for name in ("image.ppm", "saliency.ppm", "topdown.ppm",
                     "detections.json"):
            assert (render / name).exists()

    def test_saliency_pixels_are_rounded_bytes(self, render):
        scene = sd.generate_scene(5)
        full = cli.full_saliency(dict(cli.DEFAULTS), scene)
        want = np.rint(full * 255.0).astype(np.uint8)
        got = np.rint(read_ppm(render / "saliency.ppm") * 255.0).astype(np.uint8)
        assert np.array_equal(got[0], want)
        assert np.array_equal(got[1], got[2])

    def test_image_roundtrips_scene_pixels(self, render):
        scene = sd.generate_scene(5)
        got = np.rint(read_ppm(render / "image.ppm") * 255.0)
        assert np.array_equal(got, np.rint(scene.image * 255.0))

    def test_detections_are_json_lines(self, render):
        lines = (render / "detections.json").read_text().splitlines()
        assert lines
        for line in lines:
            d = json.loads(line)
            assert set(d) == {"image_id", "class", "score", "box"}
            assert d["image_id"] == 5
            assert len(d["box"]) == 4

    def test_topdown_map_has_image_resolution(self, render):
        assert read_ppm(render / "topdown.ppm").shape == (3, 64, 64)


class TestImageSize:
    """detector.image_size is the scene side in pixels: the benchmark's
    scenes and render-attention's scene are generated at it."""

    def test_side_32_trains_and_renders_at_its_side(self, tmp_path, capsys):
        base, render = tmp_path / "base", tmp_path / "render"
        assert run(["train-base", "--out", str(base), *TINY, "--set",
                    "detector.image_size=32", "--set", "anchors.map_sizes=[[4,4],[2,2]]",
                    "--set", "base.epochs=0"]) == 0
        assert run(["render-attention", "--out", str(render),
                    "--ckpt", str(base / "base.ckpt.json")]) == 0
        for name in ("image.ppm", "saliency.ppm", "topdown.ppm"):
            assert read_ppm(render / name).shape == (3, 32, 32), name
        capsys.readouterr()

    @staticmethod
    def rejected_before_writing(tmp_path, capsys, side, map_sizes):
        rc = run(["train-base", "--out", str(tmp_path), *TINY, "--set",
                  f"detector.image_size={side}", "--set", f"anchors.map_sizes={map_sizes}",
                  "--set", "base.epochs=0"])
        assert (rc, capsys.readouterr().err.splitlines()) == (
            1, [f"error: detector.image_size must be an integer multiple of 8 in "
                f"[32,1024], got {side}"])
        assert not (tmp_path / "config.json").exists()

    def test_side_not_a_multiple_of_8_is_one_error_line(self, tmp_path, capsys):
        """Side 36 describes a working detector, but scenes are generated
        on an 8x8 texture grid: the bound rejects it before anything is
        written."""
        self.rejected_before_writing(tmp_path, capsys, 36, "[[5,5],[3,3]]")

    @pytest.mark.parametrize("side,map_sizes", [(16, "[[2,2],[1,1]]"),
                                                (24, "[[3,3],[2,2]]")])
    def test_side_too_small_for_its_objects_is_one_error_line(self, tmp_path, capsys,
                                                              side, map_sizes):
        """Objects 12-22 px long do not fit a 16-px scene and often fail to
        place on a 24-px one."""
        self.rejected_before_writing(tmp_path, capsys, side, map_sizes)


class TestGradcheckCommand:
    def test_fresh_repo_passes(self, tmp_path):
        out = tmp_path / "g"
        rc = run(["gradcheck", "--out", str(out), "--set",
                  "gradcheck.points=1"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report
        assert all(err < gradcheck.TOLERANCE for err in report.values())

    def test_sign_flipped_backward_is_detected(self, tmp_path, monkeypatch,
                                               capsys):
        def flipped_relu(a):
            mask = a.data > 0.0
            out = np.where(mask, a.data, 0.0)
            return T._record("relu", (a,), out,
                             lambda g: (np.negative(g * mask),))

        monkeypatch.setattr(T, "relu", flipped_relu)
        rc = run(["gradcheck", "--out", str(tmp_path), "--set",
                  "gradcheck.points=1"])
        assert rc == 2
        assert "relu" in capsys.readouterr().err


class TestSweep:
    ARGS = [*TINY, "--set", "base.epochs=0", "--set", "novel.epochs=0",
            "--set", "sweep.k=[1]"]

    def test_bad_grid_fails_before_any_training(self, tmp_path, capsys):
        """At the default recipe a first cell trains a base detector for
        minutes; a bad grid value must end the run before that."""
        t0 = time.monotonic()
        rc = run(["sweep", "--out", str(tmp_path), "--set", "sweep.k=[0]"])
        assert rc == 1
        assert time.monotonic() - t0 < 30
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "sweep.k" in err[0], err
        assert not (tmp_path / "sweep.csv").exists()

    def test_single_cell_then_resume(self, tmp_path, capsys):
        out = tmp_path / "s"
        rc = run(["sweep", "--out", str(out), *self.ARGS,
                  "--set", "sweep.seeds=[3]"])
        assert rc == 0
        first = (out / "sweep.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "beta,eta,epsilon,gamma,split,k,seed,map_base,map_novel,map_all"
        assert len(lines) == 2

        # rerun with one extra seed: old rows stay byte-identical, one appends
        rc = run(["sweep", "--out", str(out), *self.ARGS,
                  "--set", "sweep.seeds=[3,4]"])
        assert rc == 0
        combined = (out / "sweep.csv").read_bytes()
        assert combined.startswith(first)
        assert len(combined.decode().splitlines()) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("cut", ["in_values", "in_keys"])
    def test_torn_last_row_is_recomputed(self, tmp_path, capsys, cut):
        """A run killed while writing its last row leaves it torn; the resumed
        sweep drops the torn bytes and computes that cell again, which gives
        the table an uninterrupted run writes."""
        args = [*self.ARGS, "--set", "sweep.seeds=[3,4]"]
        assert run(["sweep", "--out", str(tmp_path / "whole"), *args]) == 0
        whole = (tmp_path / "whole" / "sweep.csv").read_bytes()
        last_row = whole.rstrip(b"\r\n").rfind(b"\n") + 1
        end = last_row + 6 if cut == "in_keys" else len(whole) - 5
        assert whole[last_row:end].count(b",") == (1 if cut == "in_keys" else 9)
        (tmp_path / "torn").mkdir()
        (tmp_path / "torn" / "sweep.csv").write_bytes(whole[:end])
        assert run(["sweep", "--out", str(tmp_path / "torn"), *args]) == 0
        assert (tmp_path / "torn" / "sweep.csv").read_bytes() == whole
        capsys.readouterr()

    def test_each_row_is_fsynced(self, tmp_path, capsys, monkeypatch):
        """A power cut after a cell is printed finds its row on disk: the
        header and every row are fsynced once written, and so is the new
        file's directory entry."""
        out = tmp_path / "s"
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            synced.append((st.st_ino, st.st_size))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        assert run(["sweep", "--out", str(out), *self.ARGS,
                    "--set", "sweep.seeds=[3,4]"]) == 0
        table = (out / "sweep.csv").read_bytes()
        ends = [i + 1 for i, byte in enumerate(table) if byte == ord("\n")]
        ino = os.stat(out / "sweep.csv").st_ino
        assert len(ends) == 3
        assert [size for i, size in synced if i == ino] == ends
        header = synced.index((ino, ends[0]))
        assert os.stat(out).st_ino in [i for i, _ in synced[header:]]
        capsys.readouterr()

    def test_cells_of_one_split_and_seed_share_one_build(self, tmp_path, capsys,
                                                          monkeypatch):
        """Two settings on one (split, seed) build the benchmark once and
        write the table that a build per cell writes: no cell changes the
        scenes the next one reads."""
        args = [*self.ARGS, "--set", "novel.epochs=1", "--set", "sweep.seeds=[3]",
                "--set", "sweep.beta=[2.0,1.0]"]
        builds = []
        build_benchmark = sd.build_benchmark

        def counted(*a, **k):
            builds.append(a)
            return build_benchmark(*a, **k)

        monkeypatch.setattr(sd, "build_benchmark", counted)
        assert run(["sweep", "--out", str(tmp_path / "shared"), *args]) == 0
        assert len(builds) == 1
        sweep_cell = cli.sweep_cell

        def built_per_cell(cfg, beta, eta, eps, gamma, split_id, k, seed, base_cache,
                           built, provider):
            own = cli.benchmark({**cfg, "seed": int(seed), "data.split": int(split_id)})
            return sweep_cell(cfg, beta, eta, eps, gamma, split_id, k, seed, base_cache, own,
                              provider)

        monkeypatch.setattr(cli, "sweep_cell", built_per_cell)
        assert run(["sweep", "--out", str(tmp_path / "per_cell"), *args]) == 0
        assert len(builds) == 1 + 1 + 2
        table = (tmp_path / "shared" / "sweep.csv").read_bytes()
        assert len(table.splitlines()) == 3
        assert table == (tmp_path / "per_cell" / "sweep.csv").read_bytes()
        capsys.readouterr()

    def test_cells_share_one_saliency_provider(self, tmp_path, capsys, monkeypatch):
        """Two settings on one (split, seed) run BMS once per test scene and
        once per base-train scene, and write the table that a fresh provider
        per cell writes."""
        args = [*self.ARGS, "--set", "novel.epochs=1", "--set", "sweep.seeds=[3]",
                "--set", "sweep.beta=[2.0,1.0]"]
        built = []
        build_benchmark = sd.build_benchmark

        def recorded_build(*a, **k):
            built.append(build_benchmark(*a, **k))
            return built[-1]

        monkeypatch.setattr(sd, "build_benchmark", recorded_build)
        images = bms_images(monkeypatch)

        def calls_per_scene(scenes):
            return {sum(image is s.image for image in images) for s in scenes}

        assert run(["sweep", "--out", str(tmp_path / "shared"), *args]) == 0
        assert calls_per_scene(built[-1].test + built[-1].base_train) == {1}
        sweep_cell = cli.sweep_cell

        def provider_per_cell(cfg, *cell_args):
            fresh = cli.saliency_provider(cfg, cli.detector_config(cfg))
            return sweep_cell(cfg, *cell_args[:-1], fresh)

        monkeypatch.setattr(cli, "sweep_cell", provider_per_cell)
        images.clear()
        assert run(["sweep", "--out", str(tmp_path / "per_cell"), *args]) == 0
        # the base detector trains once, in the first cell; the test set is
        # evaluated in both
        assert calls_per_scene(built[-1].test) == {2}
        table = (tmp_path / "shared" / "sweep.csv").read_bytes()
        assert len(table.splitlines()) == 3
        assert table == (tmp_path / "per_cell" / "sweep.csv").read_bytes()
        capsys.readouterr()

    def test_completed_grid_is_a_no_op(self, tmp_path, capsys):
        out = tmp_path / "s2"
        args = ["sweep", "--out", str(out), *self.ARGS,
                "--set", "sweep.seeds=[3]"]
        assert run(args) == 0
        before = (out / "sweep.csv").read_bytes()
        assert run(args) == 0
        assert (out / "sweep.csv").read_bytes() == before
        capsys.readouterr()


class TestSaliencyProvider:
    """The provider memoizes each scene object's pooled map while the scene
    lives."""

    @staticmethod
    def provider(mode="bms"):
        cfg = {**cli.DEFAULTS, "saliency.mode": mode}
        return cfg, cli.saliency_provider(cfg, cli.detector_config(cfg))

    @pytest.mark.parametrize("mode", ["bms", "oracle"])
    def test_map_is_the_pooled_full_map(self, mode):
        cfg, provider = self.provider(mode)
        scene = sd.generate_scene(5)
        want = att.pool_saliency(cli.full_saliency(cfg, scene),
                                 *det.fusion_size(cli.detector_config(cfg)))
        for _ in range(2):
            got = provider(scene)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", [32, 40, 64])
    def test_map_has_the_fusion_size(self, side):
        cfg = {**cli.DEFAULTS, "detector.image_size": side}
        dcfg = cli.detector_config(cfg)
        scene = sd.generate_scene(5, sd.GenConfig(image_size=side))
        assert cli.saliency_provider(cfg, dcfg)(scene).shape == det.fusion_size(dcfg)

    def test_repeated_calls_run_bms_once(self, monkeypatch):
        calls = bms_images(monkeypatch)
        _, provider = self.provider()
        scene = sd.generate_scene(5)
        maps = [provider(scene) for _ in range(3)]
        assert len(calls) == 1
        assert all(m is maps[0] for m in maps)

    def test_support_copy_is_computed_again(self, monkeypatch):
        """`sample_support_set` builds each support scene with
        `dataclasses.replace`: a new object over the pool scene's arrays."""
        calls = bms_images(monkeypatch)
        _, provider = self.provider()
        scene = sd.generate_scene(5)
        copy = dataclasses.replace(scene, annotated=~scene.annotated)
        first, second = provider(scene), provider(copy)
        assert len(calls) == 2
        assert first.tobytes() == second.tobytes()

    def test_keeps_no_scene_alive(self):
        _, provider = self.provider()
        memo = inspect.getclosurevars(provider).nonlocals["memo"]
        refs = []
        for i in range(200):
            scene = sd.Scene.empty(np.random.default_rng(i).random((3, 64, 64)))
            refs.append(weakref.ref(scene))
            provider(scene)
            assert len(memo) == 1
        del scene
        assert all(ref() is None for ref in refs)
        assert memo == {}

    def test_returned_map_is_read_only(self):
        _, provider = self.provider()
        scene = sd.generate_scene(5)
        for _ in range(2):
            with pytest.raises(ValueError):
                provider(scene)[0, 0] = 1.0


class TestOutputRoot:
    def test_env_var_sets_default_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FEWDET_OUT", str(tmp_path))
        rc = run(["gradcheck", "--set", "gradcheck.points=1"])
        assert rc == 0
        assert (tmp_path / "gradcheck" / "report.json").exists()
        capsys.readouterr()


class TestAtomicWrites:
    """A write that dies part way leaves the previous file as it was and no
    temp file beside it."""

    SCENE = sd.generate_scene(0)

    WRITERS = {
        "save_arrays": lambda d, rev: T.save_arrays(
            d / "a.ckpt.json", {"w": np.full(3, float(rev))}, meta={"rev": rev}),
        "write_snapshot": lambda d, rev: cli.write_snapshot({"rev": rev}, str(d)),
        "write_report": lambda d, rev: cli.write_report(str(d / "report.json"),
                                                        {"rev": rev}),
        "write_metrics": lambda d, rev: cli.write_metrics(
            str(d / "metrics.jsonl"), [{"rev": rev}, {"rev": rev + 1}]),
        # one image, so only the JSON sidecar changes between revisions
        "dump_scene": lambda d, rev: sd.dump_scene(dataclasses.replace(
            TestAtomicWrites.SCENE,
            annotated=np.full(len(TestAtomicWrites.SCENE.labels), rev == 0)), str(d), "s"),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch, writer):
        write = self.WRITERS[writer]
        write(tmp_path, 0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_dumps = json.dumps
        calls = []

        def torn_dump(obj, fh, **kwargs):
            fh.write(real_dumps(obj, **kwargs)[:7])
            raise RuntimeError("killed mid-write")

        def torn_dumps(obj, **kwargs):
            calls.append(obj)
            if len(calls) > 1:  # the first row is written, the second dies
                raise RuntimeError("killed mid-write")
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dump", torn_dump)
        monkeypatch.setattr(json, "dumps", torn_dumps)
        with pytest.raises(RuntimeError):
            write(tmp_path, 1)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_contents_are_fsynced_before_the_replace(self, tmp_path, monkeypatch,
                                                     writer):
        """A power cut after the replace finds the whole new file on disk:
        each temp file is flushed, then fsynced, then renamed over its target,
        and then the target's directory is fsynced, before the next replace."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", st.st_ino, st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            st = os.stat(src)
            events.append(("replace", st.st_ino, st.st_size,
                           os.stat(os.path.dirname(dst) or ".").st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        self.WRITERS[writer](tmp_path, 0)
        replaced = [i for i, e in enumerate(events) if e[0] == "replace"]
        assert replaced
        for i, end in zip(replaced, replaced[1:] + [len(events)]):
            _, ino, size, directory = events[i]
            assert ("fsync", ino, size) in events[:i], events
            assert directory in [e[1] for e in events[i + 1:end] if e[0] == "fsync"], events

    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "report.json"
        cli.write_report(str(path), {"rev": "a much longer first revision"})
        cli.write_report(str(path), {"rev": 2})
        assert json.loads(path.read_text()) == {"rev": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
