from __future__ import annotations

import csv
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import vge_reference
from helpers import (MALFORMED_CHECKPOINTS, random_instance, section_bytes,
                     write_malformed_checkpoint)
from vg2s.checkpoint import ParamStore, load_checkpoint, save_checkpoint
from vg2s.cli import main
from vg2s.instance import Instance
from vg2s.trainer import build_model
from vg2s.vge import RETIRED_PARAMS, ModelConfig

TINY_MODEL = {
    "d_graph": 4, "d_latent": 4, "n_heads": 2,
    "canvas_jobs": 2, "canvas_machines": 2,
    "conv_channels": 8, "conv_channels_min": 2,
    "glimpse_layers": 1, "glimpse_heads": 2,
    "d_glimpse": 3, "d_logit": 3, "critic_hidden": 4,
}


def _usage_error(argv, capsys) -> str:
    """Run main(argv), which must end in exit status 2 with exactly one
    `vg2s: error:` line on stderr and nothing on stdout; return that line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vg2s: error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TINY_MODEL}))
    return str(path)


@pytest.fixture()
def instance_dir(tmp_path, two_by_two):
    d = tmp_path / "instances"
    d.mkdir()
    (d / "toy.json").write_text(two_by_two.to_json())
    return str(d)


@pytest.fixture()
def ft06_file(tmp_path, ft06):
    import importlib.resources
    path = tmp_path / "ft06.txt"
    path.write_text(
        importlib.resources.files("vg2s.data").joinpath("ft06.txt").read_text())
    return str(path)


class TestGen:
    def test_writes_count_files(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["gen", "--count", "3", "--seed", "1", "--out", str(out)]) == 0
        files = sorted(out.iterdir())
        assert len(files) == 3
        inst = Instance.from_json(files[0].read_text())
        assert 5 <= inst.m <= 9

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("VG2S_SEED", "7")
        main(["gen", "--count", "1", "--seed", "1", "--out", str(a)])
        main(["gen", "--count", "1", "--seed", "2", "--out", str(b)])
        assert (a / "gen_00000.json").read_text() == (b / "gen_00000.json").read_text()


class TestParse:
    def test_orlib(self, ft06_file, capsys):
        assert main(["parse", ft06_file, "--format", "orlib"]) == 0
        out = capsys.readouterr().out
        assert "6 jobs x 6 machines" in out

    def test_parse_error_propagates(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n0 3 0 2\n1 1 0 1")
        err = _usage_error(["parse", str(bad), "--format", "orlib"], capsys)
        assert err == f"vg2s: error: {bad}: line 2: duplicate machine 0 in job 0\n"


class TestSolve:
    def test_rule(self, ft06_file, capsys):
        assert main(["solve", ft06_file, "--format", "orlib", "--method", "mwkr"]) == 0
        assert "cmax 61" in capsys.readouterr().out

    def test_oracle_with_outputs(self, ft06_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        svg = tmp_path / "g.svg"
        assert main(["solve", ft06_file, "--format", "orlib", "--method", "oracle",
                     "--out", str(sched), "--gantt", str(svg)]) == 0
        assert "cmax 55 proven=True" in capsys.readouterr().out
        rows = json.loads(sched.read_text())
        assert len(rows) == 36
        assert svg.read_text().startswith("<svg")

    def test_oracle_on_a_large_instance(self, tmp_path, capsys):
        path = tmp_path / "50x40.json"
        path.write_text(random_instance(50, 40, 10).to_json())
        assert main(["solve", str(path), "--format", "json", "--method", "oracle",
                     "--budget", "2000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cmax ") and out.endswith(" proven=False nodes=2000\n")

    def test_model_requires_checkpoint(self, ft06_file, capsys):
        err = _usage_error(["solve", ft06_file, "--method", "vg2s"], capsys)
        assert err == "vg2s: error: solve --method vg2s requires --model\n"


class TestTrainPipeline:
    def test_phase1_then_phase2(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt1 = tmp_path / "repr.ckpt"
        log1 = tmp_path / "repr.csv"
        assert main(["train-repr", "--epochs", "3", "--seed", "0",
                     "--config", tiny_config_file, "--instances", instance_dir,
                     "--checkpoint", str(ckpt1), "--log", str(log1)]) == 0
        assert ckpt1.exists()
        rows = list(csv.DictReader(log1.read_text().splitlines()))
        assert len(rows) == 3
        assert set(rows[0]) == {"epoch", "kl", "node", "edge", "total"}

        ckpt2 = tmp_path / "policy.ckpt"
        assert main(["train-policy", "--encoder-ckpt", str(ckpt1),
                     "--epochs", "2", "--batch", "2", "--seed", "0",
                     "--config", tiny_config_file, "--instances", instance_dir,
                     "--checkpoint", str(ckpt2)]) == 0
        trained = load_checkpoint(str(ckpt1))
        final = load_checkpoint(str(ckpt2))
        # phase 2 keeps the phase-1 encoder weights bit-for-bit
        assert section_bytes(final, "encoder.") == section_bytes(trained, "encoder.")
        assert section_bytes(final, "latent.") == section_bytes(trained, "latent.")
        assert section_bytes(final, "decoder.") == section_bytes(trained, "decoder.")

    def test_generated_pool_deterministic(self, tmp_path, capsys):
        """Without --instances both phases draw a generated pool; two runs of
        one seed, across a pool refresh, write identical bytes."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"pool_size": 4, "pool_refresh": 2},
                                      "model": {**TINY_MODEL, "canvas_jobs": 9,
                                                "canvas_machines": 9}}))

        def run(tag: str) -> dict[str, bytes]:
            root = tmp_path / tag
            root.mkdir()
            common = ["--seed", "3", "--config", str(config)]
            assert main(["train-repr", "--epochs", "3", *common,
                         "--checkpoint", str(root / "repr.ckpt"),
                         "--log", str(root / "repr.csv")]) == 0
            assert main(["train-policy", "--encoder-ckpt", str(root / "repr.ckpt"),
                         "--epochs", "3", "--batch", "2", *common,
                         "--checkpoint", str(root / "policy.ckpt"),
                         "--log", str(root / "policy.csv")]) == 0
            return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

        a, b = run("a"), run("b")
        assert len(a) == 4 and a == b

    def test_skip_phase1(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt = tmp_path / "baseline.ckpt"
        assert main(["train-policy", "--skip-phase1", "--epochs", "2",
                     "--batch", "2", "--seed", "0", "--config", tiny_config_file,
                     "--instances", instance_dir, "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()

    def test_orlib_txt_instances(self, tmp_path, tiny_config_file, instance_dir, ft06_file,
                                 capsys):
        """--instances reads a .txt file as OR-Library, as eval --dir does."""
        (Path(instance_dir) / "ft06.txt").write_text(Path(ft06_file).read_text())
        ckpt, out = tmp_path / "c.ckpt", tmp_path / "lat.csv"
        assert main(["train-policy", "--skip-phase1", "--epochs", "1", "--batch", "1",
                     "--config", tiny_config_file, "--instances", instance_dir,
                     "--checkpoint", str(ckpt)]) == 0
        assert main(["export-latents", "--model", str(ckpt), "--config", tiny_config_file,
                     "--instances", instance_dir, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["instance"] for row in rows] == ["ft06", "toy"]
        assert float(rows[0]["greedy_cmax"]) >= 55  # FT06's optimum
        capsys.readouterr()
        # phase 1 parses it too, and rejects it for its size alone
        err = _usage_error(["train-repr", "--epochs", "1", "--config", tiny_config_file,
                            "--instances", instance_dir, "--checkpoint", str(ckpt)], capsys)
        assert "instance ft06 has 36 operations" in err

    def test_policy_requires_encoder_source(self, tmp_path, tiny_config_file,
                                            instance_dir, capsys):
        ckpt = tmp_path / "x.ckpt"
        err = _usage_error(["train-policy", "--epochs", "1", "--config", tiny_config_file,
                            "--instances", instance_dir, "--checkpoint", str(ckpt)], capsys)
        assert err == "vg2s: error: train-policy requires --encoder-ckpt (or --skip-phase1)\n"
        assert not ckpt.exists()


def _cut_checkpoint(path, part: str) -> None:
    """Truncate a checkpoint file inside its header, manifest or blob."""
    raw = path.read_bytes()
    hlen = struct.unpack("<Q", raw[8:16])[0]
    path.write_bytes({"header": raw[:12], "manifest": raw[:16 + hlen // 2],
                      "blob": raw[:-4]}[part])


def _save_model(path, overrides=None) -> None:
    save_checkpoint(build_model(ModelConfig(**{**TINY_MODEL, **(overrides or {})}), 0), path)


class TestEncoderCheckpoint:
    """train-policy copies the whole frozen encoder from --encoder-ckpt, or
    stops with one error line before training."""

    def _train(self, tmp_path, tiny_config_file, instance_dir, ckpt, capsys):
        out = tmp_path / "policy.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(["train-policy", "--encoder-ckpt", str(ckpt), "--epochs", "1",
                  "--batch", "1", "--config", tiny_config_file,
                  "--instances", instance_dir, "--checkpoint", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"vg2s: error: encoder checkpoint {ckpt}: ")
        assert err.count("\n") == 1
        return err

    def test_no_encoder_names(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt = tmp_path / "other.ckpt"
        store = ParamStore()
        store.add("policy.w", np.ones(3))
        save_checkpoint(store, ckpt)
        err = self._train(tmp_path, tiny_config_file, instance_dir, ckpt, capsys)
        assert "missing parameter 'encoder." in err

    def test_smaller_canvas(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt = tmp_path / "small.ckpt"
        _save_model(ckpt, {"canvas_jobs": 1})  # one decoder layer fewer
        err = self._train(tmp_path, tiny_config_file, instance_dir, ckpt, capsys)
        assert "missing parameter 'decoder.up1.w'" in err

    def test_larger_canvas(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt = tmp_path / "large.ckpt"
        _save_model(ckpt, {"canvas_jobs": 4})  # one decoder layer more
        err = self._train(tmp_path, tiny_config_file, instance_dir, ckpt, capsys)
        assert "unknown parameter 'decoder.up2.w'" in err

    def test_d_graph_mismatch(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt = tmp_path / "wide.ckpt"
        _save_model(ckpt, {"d_graph": 6})
        err = self._train(tmp_path, tiny_config_file, instance_dir, ckpt, capsys)
        assert "shape mismatch for 'encoder." in err

    @pytest.mark.parametrize("part", ["header", "manifest", "blob"])
    def test_cut_file(self, tmp_path, tiny_config_file, instance_dir, capsys, part):
        ckpt = tmp_path / "cut.ckpt"
        _save_model(ckpt)
        _cut_checkpoint(ckpt, part)
        self._train(tmp_path, tiny_config_file, instance_dir, ckpt, capsys)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_file(self, tmp_path, tiny_config_file, instance_dir, capsys, case):
        ckpt = tmp_path / "bad.ckpt"
        write_malformed_checkpoint(ckpt, case)
        self._train(tmp_path, tiny_config_file, instance_dir, ckpt, capsys)


@pytest.mark.parametrize("part", ["header", "manifest", "blob"])
def test_cut_model_checkpoint_one_line_error(tmp_path, ft06_file, tiny_config_file,
                                            capsys, part):
    ckpt, out = tmp_path / "cut.ckpt", tmp_path / "sched.json"
    _save_model(ckpt)
    _cut_checkpoint(ckpt, part)
    with pytest.raises(SystemExit) as exc:
        main(["solve", ft06_file, "--method", "vg2s", "--model", str(ckpt),
              "--config", tiny_config_file, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"vg2s: error: model checkpoint {ckpt}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_model_checkpoint_one_line_error(tmp_path, ft06_file, tiny_config_file,
                                                  capsys, case):
    ckpt, out = tmp_path / "bad.ckpt", tmp_path / "sched.json"
    write_malformed_checkpoint(ckpt, case)
    with pytest.raises(SystemExit) as exc:
        main(["solve", ft06_file, "--method", "vg2s", "--model", str(ckpt),
              "--config", tiny_config_file, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"vg2s: error: model checkpoint {ckpt}: ") and err.count("\n") == 1
    assert not out.exists()


MODEL_COMMANDS = {
    "solve": ["solve", "{ft06}", "--method", "vg2s", "--out", "{out}"],
    "eval": ["eval", "--dir", "{instances}", "--format", "json", "--methods", "vg2s",
             "--out", "{out}"],
    "export-latents": ["export-latents", "--instances", "{instances}", "--out", "{out}"],
    "similarity": ["similarity", "--count", "1", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("overrides, problem", [
    ({"d_latent": 8}, "shape mismatch for 'encoder.gat.e0.h0.w': (4, 8), expected (4, 4)"),
    ({"canvas_jobs": 1}, "missing parameter 'decoder.up1.w'"),  # one decoder layer fewer
    ({"canvas_jobs": 4}, "unknown parameter 'decoder.up2.w'"),  # one decoder layer more
], ids=["shape", "missing", "unknown"])
def test_model_checkpoint_of_another_config_one_line_error(
        tmp_path, ft06_file, instance_dir, tiny_config_file, capsys, command, overrides,
        problem):
    """A --model checkpoint is checked against the model --config builds,
    so a mismatch names the parameter instead of failing inside encode."""
    ckpt, out = tmp_path / "other.ckpt", tmp_path / "out"
    _save_model(ckpt, overrides)
    argv = [a.format(out=out, ft06=ft06_file, instances=instance_dir)
            for a in MODEL_COMMANDS[command]]
    err = _usage_error([*argv, "--model", str(ckpt), "--config", tiny_config_file], capsys)
    assert err == f"vg2s: error: model checkpoint {ckpt}: {problem}\n"
    assert not out.exists()


def test_model_checkpoint_without_its_config_one_line_error(tmp_path, ft06_file, capsys):
    """A checkpoint trained at d_latent 8, run without --config, meets the
    default model."""
    ckpt = tmp_path / "d8.ckpt"
    save_checkpoint(build_model(ModelConfig(d_latent=8), 0), ckpt)
    err = _usage_error(["solve", ft06_file, "--method", "vg2s", "--model", str(ckpt)], capsys)
    assert err == (f"vg2s: error: model checkpoint {ckpt}: shape mismatch for "
                   f"'encoder.gat.e0.h0.w': (64, 8), expected (64, 64)\n")


class TestRetiredParameters:
    """A checkpoint in the layout from before the precedence and successor
    attention vectors were retired (the current parameters plus those
    vectors) still loads: the CLI drops exactly the names RETIRED_PARAMS
    matches and rejects every other unknown name."""

    def test_old_checkpoint_runs_as_the_new_one(self, tmp_path, tiny_config_file,
                                                instance_dir, ft06_file, capsys):
        """eval, export-latents and train-policy write the same bytes from
        either file, and the checkpoint train-policy saves holds no retired
        name."""
        (Path(instance_dir) / "ft06.txt").write_text(Path(ft06_file).read_text())
        cfg = ModelConfig(**TINY_MODEL)
        old, new = tmp_path / "old.ckpt", tmp_path / "new.ckpt"
        save_checkpoint(vge_reference.build_model(cfg, 0), old)
        save_checkpoint(build_model(cfg, 0), new)
        common = ["--config", tiny_config_file]
        outputs = {}
        for ckpt in (old, new):
            out = tmp_path / ckpt.stem
            out.mkdir()
            assert main(["eval", "--dir", instance_dir, "--format", "orlib",
                         "--methods", "vg2s", "--model", str(ckpt), *common,
                         "--out", str(out / "eval.csv")]) == 0
            assert main(["export-latents", "--instances", instance_dir, "--model", str(ckpt),
                         *common, "--out", str(out / "latents.csv")]) == 0
            assert main(["train-policy", "--encoder-ckpt", str(ckpt), "--epochs", "2",
                         "--batch", "2", "--seed", "0", *common, "--instances", instance_dir,
                         "--checkpoint", str(out / "policy.ckpt"),
                         "--log", str(out / "policy.csv")]) == 0
            saved = load_checkpoint(out / "policy.ckpt").names()
            assert not any(RETIRED_PARAMS.fullmatch(name) for name in saved)
            outputs[ckpt.stem] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outputs["old"]) == 4 and outputs["old"] == outputs["new"]

    @pytest.mark.parametrize("name", [
        "encoder.gat.e2.h2.a1",    # the attending type, a head the model lacks
        "encoder.gat.e3.h0.a1",    # no such edge type
        "encoder.gat.e0.h0.a3",
        "encoder.gat.e0.hx.a1",
        "encoder.gat.e0.h0.a1.b",  # a retired name plus a suffix
    ])
    @pytest.mark.parametrize("command", ["model", "encoder-ckpt"])
    def test_other_unknown_names_still_fail(self, tmp_path, ft06_file, tiny_config_file,
                                            instance_dir, capsys, name, command):
        ckpt, out = tmp_path / "extra.ckpt", tmp_path / "out"
        store = vge_reference.build_model(ModelConfig(**TINY_MODEL), 0)
        store.add(name, np.zeros(TINY_MODEL["d_latent"]))
        save_checkpoint(store, ckpt)
        if command == "model":
            argv = ["solve", ft06_file, "--method", "vg2s", "--model", str(ckpt),
                    "--out", str(out)]
            role = "model checkpoint"
        else:
            argv = ["train-policy", "--encoder-ckpt", str(ckpt), "--epochs", "1",
                    "--batch", "1", "--instances", instance_dir, "--checkpoint", str(out)]
            role = "encoder checkpoint"
        err = _usage_error([*argv, "--config", tiny_config_file], capsys)
        assert err == f"vg2s: error: {role} {ckpt}: unknown parameter {name!r}\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "{ft06}", "--method", "vg2s"],
    ["train-policy", "--instances", "{instances}", "--checkpoint", "{out}"],
    ["eval", "--dir", "{instances}", "--format", "json", "--methods", "vg2s",
     "--out", "{out}"],
    ["similarity", "--out", "{out}"],
], ids=["solve", "train-policy", "eval", "similarity"])
def test_missing_required_source_one_line_error(tmp_path, ft06_file, instance_dir,
                                                capsys, argv):
    out = tmp_path / "out"
    argv = [a.format(out=out, ft06=ft06_file, instances=instance_dir) for a in argv]
    assert "requires --" in _usage_error(argv, capsys)
    assert not out.exists()


class TestConfigErrors:
    @pytest.mark.parametrize("raw, key", [
        ({"model": {"batch_norm": True}}, "batch_norm"),   # unknown key
        ({"train": {"repr_epochs": 0}}, "repr_epochs"),    # out of range
        ({"train": {"lr_repr": float("nan")}}, "lr_repr"),  # not finite
        ({"train": {"alpha_entropy": float("inf")}}, "alpha_entropy"),
        ({"train": {"batch_size": 2.5}}, "batch_size"),    # not an integer
        ({"train": {"pool_size": True}}, "pool_size"),     # a bool is not an integer
        ({"train": {"seed": -1}}, "seed"),
        ({"train": {"scale_q": 1}}, "scale_q"),            # removed: unknown key
        ({"model": {"d_latent": 0}}, "d_latent"),
        ({"model": {"appnp_iters": -1}}, "appnp_iters"),
        ({"model": {"glimpse_heads": 1.0}}, "glimpse_heads"),
        ({"model": {"appnp_teleport": 1.5}}, "appnp_teleport"),
        ({"model": {"logit_clip": 0}}, "logit_clip"),
        ({"model": {"logit_clip": float("nan")}}, "logit_clip"),
        (None, "No such file"),                            # missing file
        ([1], "expected a JSON object"),                   # not an object
        ({"train": {"alpha_entropy": -1.0}}, "alpha_entropy"),  # rewards a collapsed policy
    ])
    def test_one_line_error_and_exit_2(self, tmp_path, capsys, raw, key):
        cfg = tmp_path / "cfg.json"
        if raw is not None:
            cfg.write_text(json.dumps(raw))
        ckpt = tmp_path / "x.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(["train-repr", "--config", str(cfg), "--checkpoint", str(ckpt)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("vg2s: error: ") and err.count("\n") == 1
        assert str(cfg) in err and key in err
        assert not ckpt.exists()


class TestDivergedTraining:
    """A run whose numbers diverge ends in one `vg2s: error:` line and exit
    status 2 and writes no checkpoint and no log.  A checkpoint whose
    parameters are finite but too large for the policy's numbers ends a
    solve the same way."""

    @staticmethod
    def _config(tmp_path, **train) -> str:
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({"model": TINY_MODEL, "train": train}))
        return str(path)

    @pytest.mark.parametrize("argv, train, message", [
        (["train-repr", "--epochs", "1", "--seed", "2"], {"lr_repr": 1e308},
         r".*x\.ckpt: non-finite values in 'encoder\.embed\.fc1\.b', "),
        (["train-repr", "--epochs", "3", "--seed", "0"], {"lr_repr": 1e308},
         r"non-finite representation loss at epoch 2\n"),
        (["train-policy", "--skip-phase1", "--epochs", "1", "--seed", "0"],
         {"lr_policy": 1e308}, r"non-finite policy/critic parameter after epoch 1\n"),
        (["train-policy", "--skip-phase1", "--epochs", "3", "--seed", "0"],
         {"lr_policy": 1e100}, r"non-finite policy logits at epoch 2\n"),
    ], ids=["repr-saved-store", "repr-loss", "policy-parameter", "policy-logits"])
    def test_one_line_error_and_nothing_written(self, tmp_path, instance_dir, capsys,
                                                argv, train, message):
        ckpt, log = tmp_path / "x.ckpt", tmp_path / "log.csv"
        with np.errstate(all="ignore"):
            err = _usage_error([*argv, "--config", self._config(tmp_path, **train),
                                "--instances", instance_dir, "--checkpoint", str(ckpt),
                                "--log", str(log)], capsys)
        assert re.match(f"vg2s: error: training diverged: {message}", err), err
        assert not ckpt.exists() and not log.exists()

    def test_diverged_encoder_checkpoint(self, tmp_path, instance_dir, capsys):
        """A phase-1 run whose parameters are finite but huge saves its
        checkpoint; phase 2 on it blames the frozen encoder, not the policy."""
        config = self._config(tmp_path, lr_repr=1e308)
        repr_ckpt, ckpt, log = tmp_path / "r.ckpt", tmp_path / "x.ckpt", tmp_path / "log.csv"
        with np.errstate(all="ignore"):
            assert main(["train-repr", "--epochs", "1", "--seed", "0", "--config", config,
                         "--instances", instance_dir, "--checkpoint", str(repr_ckpt)]) == 0
            capsys.readouterr()
            err = _usage_error(["train-policy", "--encoder-ckpt", str(repr_ckpt),
                                "--epochs", "1", "--seed", "0", "--config", config,
                                "--instances", instance_dir, "--checkpoint", str(ckpt),
                                "--log", str(log)], capsys)
        assert err == ("vg2s: error: training diverged: "
                       "non-finite frozen-encoder output for pool slot 0\n")
        assert not ckpt.exists() and not log.exists()

    def test_solve_with_finite_but_diverged_model(self, tmp_path, instance_dir, ft06_file,
                                                   capsys):
        config = self._config(tmp_path, lr_policy=1e100)
        ckpt = tmp_path / "p.ckpt"
        with np.errstate(all="ignore"):
            assert main(["train-policy", "--skip-phase1", "--epochs", "1", "--seed", "0",
                         "--config", config, "--instances", instance_dir,
                         "--checkpoint", str(ckpt)]) == 0
            capsys.readouterr()
            err = _usage_error(["solve", ft06_file, "--method", "vg2s", "--model", str(ckpt),
                                "--config", config], capsys)
        assert err.startswith("vg2s: error: select_action: a row has a NaN or no finite logit")


class TestFlagErrors:
    """Command-line values and VG2S_SEED pass the same checks as the config
    file's values; a rejected one names its option and nothing is written."""

    @pytest.mark.parametrize("argv, env, message", [
        (["train-repr", "--epochs", "0"], None,
         "--epochs: repr_epochs must be an integer >= 1, got 0"),
        (["train-policy", "--skip-phase1", "--epochs", "0"], None,
         "--epochs: policy_epochs must be an integer >= 1, got 0"),
        (["train-policy", "--skip-phase1", "--epochs", "1", "--batch", "0"], None,
         "--batch: batch_size must be an integer >= 1, got 0"),
        (["train-repr", "--epochs", "1", "--seed", "-1"], None,
         "--seed: seed must be an integer >= 0, got -1"),
        (["train-policy", "--skip-phase1", "--epochs", "1", "--seed", "-1"], None,
         "--seed: seed must be an integer >= 0, got -1"),
        (["train-repr", "--epochs", "1"], "abc",
         "VG2S_SEED: seed must be an integer >= 0, got 'abc'"),
        (["train-policy", "--skip-phase1", "--epochs", "1", "--seed", "2"], "-3",
         "VG2S_SEED: seed must be an integer >= 0, got -3"),
    ], ids=["repr-epochs-0", "policy-epochs-0", "batch-0", "repr-seed", "policy-seed",
            "env-seed-not-int", "env-seed-negative"])
    def test_training_one_line_error(self, tmp_path, tiny_config_file, instance_dir,
                                     monkeypatch, capsys, argv, env, message):
        """--epochs 0 and --batch 0 are rejected, not read as "unset"."""
        if env is not None:
            monkeypatch.setenv("VG2S_SEED", env)
        ckpt, log = tmp_path / "x.ckpt", tmp_path / "log.csv"
        err = _usage_error([*argv, "--config", tiny_config_file, "--instances", instance_dir,
                            "--checkpoint", str(ckpt), "--log", str(log)], capsys)
        assert err == f"vg2s: error: {message}\n"
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--count", "1", "--out", "{out}"],
        ["similarity", "--rule", "spt", "--count", "1", "--out", "{out}"],
    ], ids=["gen", "similarity"])
    @pytest.mark.parametrize("seed, env, message", [
        ("-1", None, "--seed: seed must be an integer >= 0, got -1"),
        ("1", "abc", "VG2S_SEED: seed must be an integer >= 0, got 'abc'"),
        ("1", "-3", "VG2S_SEED: seed must be an integer >= 0, got -3"),
    ], ids=["seed", "env-not-int", "env-negative"])
    def test_seed_one_line_error(self, tmp_path, monkeypatch, capsys, argv, seed, env,
                                 message):
        if env is not None:
            monkeypatch.setenv("VG2S_SEED", env)
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in argv] + ["--seed", seed]
        assert _usage_error(argv, capsys) == f"vg2s: error: {message}\n"
        assert not out.exists()


MALFORMED_INSTANCES = {
    # case: (file name, --format, text (None: FT06's OR-Library text), message)
    "orlib-as-taillard": ("ft06.txt", "taillard", None,
                          "line 7: expected 12 matrix rows, found 6"),
    "json-without-jobs": ("bad.json", "json", '{"n": 1, "m": 2}', "missing key 'jobs'"),
    "json-not-a-permutation": ("bad.json", "json", '{"n": 1, "m": 2, "jobs": [[[0, 1], [0, 2]]]}',
                               "job 0: machine sequence is not a permutation of 0..1"),
    "json-fractional-duration": ("bad.json", "json", '{"n": 1, "m": 1, "jobs": [[[0, 1.5]]]}',
                                 "job 0: duration 1.5 is not an integer"),
    "json-boolean-duration": ("bad.json", "json", '{"n": 1, "m": 1, "jobs": [[[0, true]]]}',
                              "job 0: duration true is not an integer"),
    "json-fractional-machine": ("bad.json", "json", '{"n": 1, "m": 1, "jobs": [[[0.7, 3]]]}',
                                "job 0: machine 0.7 is not an integer"),
    "orlib-duration-overflow": ("huge.txt", "orlib", "1 1\n0 99999999999999999999\n",
                                "job 0: duration 99999999999999999999 on machine 0 is outside "
                                "[1, 9223372036854775807]"),
}


@pytest.mark.parametrize("case, command", [
    (case, command) for case in sorted(MALFORMED_INSTANCES)
    for command in ["parse", "solve", "eval", "train-repr", "train-policy"]
    # --instances reads every file as JSON, so only the JSON cases apply to training
    if MALFORMED_INSTANCES[case][1] == "json" or not command.startswith("train")
])
def test_malformed_instance_one_line_error(tmp_path, ft06_file, capsys, case, command):
    """A malformed instance file ends in one `vg2s: error: <file>: ...` line
    that names the file and keeps the parser's message, under every command
    that reads instances; nothing is written."""
    name, fmt, text, message = MALFORMED_INSTANCES[case]
    d = tmp_path / "instances"
    d.mkdir()
    path = d / name
    path.write_text(Path(ft06_file).read_text() if text is None else text)
    out = tmp_path / "out"
    argv = {
        "parse": ["parse", str(path), "--format", fmt],
        "solve": ["solve", str(path), "--format", fmt, "--method", "fifo", "--out", str(out)],
        "eval": ["eval", "--dir", str(d), "--format", fmt, "--methods", "fifo",
                 "--out", str(out)],
        "train-repr": ["train-repr", "--epochs", "1", "--instances", str(d),
                       "--checkpoint", str(out)],
        "train-policy": ["train-policy", "--skip-phase1", "--epochs", "1",
                         "--instances", str(d), "--checkpoint", str(out)],
    }[command]
    assert _usage_error(argv, capsys) == f"vg2s: error: {path}: {message}\n"
    assert not out.exists()


class TestMissingInputs:
    @pytest.mark.parametrize("argv", [
        ["solve", "{missing}", "--method", "fifo", "--out", "{out}"],
        ["solve", "{ft06}", "--method", "vg2s", "--model", "{missing}", "--out", "{out}"],
        ["eval", "--dir", "{missing}", "--methods", "fifo", "--out", "{out}"],
        ["eval", "--dir", "{instances}", "--format", "json", "--methods", "vg2s",
         "--model", "{missing}", "--out", "{out}"],
        ["export-latents", "--model", "{missing}", "--instances", "{instances}",
         "--out", "{out}"],
        ["similarity", "--model", "{missing}", "--count", "1", "--out", "{out}"],
        ["train-policy", "--encoder-ckpt", "{missing}", "--instances", "{instances}",
         "--epochs", "1", "--checkpoint", "{out}"],
        ["train-policy", "--skip-phase1", "--instances", "{missing}",
         "--epochs", "1", "--checkpoint", "{out}"],
    ], ids=["solve-file", "solve-model", "eval-dir", "eval-model", "export-latents-model",
            "similarity-model", "train-policy-encoder", "train-policy-instances"])
    def test_one_line_error_and_exit_2(self, tmp_path, ft06_file, instance_dir,
                                       capsys, argv):
        missing, out = tmp_path / "nothere", tmp_path / "out"
        argv = [a.format(missing=missing, out=out, ft06=ft06_file, instances=instance_dir)
                for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"vg2s: error: {missing}: No such file or directory\n"
        assert not out.exists()


def _tree(root) -> set:
    return {str(p.relative_to(root)) for p in root.rglob("*")}


class TestChecksBeforeWork:
    """Negative oracle budgets and counts, output paths in missing
    directories, empty frozen pools and instances larger than phase 1's
    canvas end in one `vg2s: error:` line before any work, and nothing is
    written."""

    @pytest.mark.parametrize("argv", [
        ["solve", "{ft06}", "--method", "oracle", "--budget", "-5", "--out", "{out}"],
        ["eval", "--dir", "{bench}", "--methods", "oracle", "--budget", "-5",
         "--out", "{out}"],
        ["eval", "--dir", "{bench}", "--methods", "fifo", "--budget", "-1", "--out", "{out}"],
    ], ids=["solve", "eval-oracle", "eval-without-oracle"])
    def test_negative_budget(self, tmp_path, ft06_file, capsys, argv):
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "ft06.txt").write_text(Path(ft06_file).read_text())
        before = _tree(tmp_path)
        argv = [a.format(ft06=ft06_file, bench=bench, out=tmp_path / "out") for a in argv]
        budget = argv[argv.index("--budget") + 1]
        assert _usage_error(argv, capsys) == f"vg2s: error: --budget must be >= 0, got {budget}\n"
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("argv", [
        ["gen", "--count", "-2", "--out", "{out}"],
        ["similarity", "--rule", "spt", "--count", "-1", "--out", "{out}"],
    ], ids=["gen", "similarity"])
    def test_negative_count(self, tmp_path, capsys, argv):
        before = _tree(tmp_path)
        argv = [a.format(out=tmp_path / "out") for a in argv]
        count = argv[argv.index("--count") + 1]
        assert _usage_error(argv, capsys) == f"vg2s: error: --count must be >= 0, got {count}\n"
        assert _tree(tmp_path) == before

    def test_zero_count_is_valid(self, tmp_path, capsys):
        assert main(["gen", "--count", "0", "--out", str(tmp_path / "gen")]) == 0
        assert list((tmp_path / "gen").iterdir()) == []
        assert main(["similarity", "--rule", "spt", "--count", "0",
                     "--out", str(tmp_path / "sim.csv")]) == 0
        reader = csv.DictReader((tmp_path / "sim.csv").read_text().splitlines())
        assert reader.fieldnames == ["instance", "step", "completed_ops", "pt_rank",
                                     "num_available"]
        assert list(reader) == []

    def test_eval_of_empty_dir_writes_header(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "r.csv"
        assert main(["eval", "--dir", str(empty), "--methods", "spt", "--out", str(out)]) == 0
        reader = csv.DictReader(out.read_text().splitlines())
        assert reader.fieldnames == ["instance", "size", "method", "cmax", "ub", "gap"]
        assert list(reader) == []

    @pytest.mark.parametrize("command", [["train-repr"], ["train-policy", "--skip-phase1"]],
                             ids=["train-repr", "train-policy"])
    def test_empty_instance_dir(self, tmp_path, tiny_config_file, capsys, command):
        """A directory without a .json or .txt file is no frozen pool."""
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.md").write_text("not an instance")
        before = _tree(tmp_path)
        err = _usage_error(command + ["--epochs", "1", "--config", tiny_config_file,
                                      "--instances", str(empty),
                                      "--checkpoint", str(tmp_path / "c.ckpt"),
                                      "--log", str(tmp_path / "l.csv")], capsys)
        assert err == f"vg2s: error: --instances {empty}: frozen instance list is empty\n"
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("argv, dest", [
        (["solve", "{ft06}", "--method", "oracle", "--out", "{bad}"], "out"),
        (["solve", "{ft06}", "--method", "fifo", "--out", "{ok}", "--gantt", "{bad}"], "gantt"),
        (["eval", "--dir", "{bench}", "--methods", "fifo", "--out", "{bad}"], "out"),
        (["train-repr", "--epochs", "1", "--config", "{config}", "--instances", "{instances}",
          "--checkpoint", "{ok}", "--log", "{bad}"], "log"),
        (["train-policy", "--skip-phase1", "--epochs", "1", "--config", "{config}",
          "--instances", "{instances}", "--checkpoint", "{bad}"], "checkpoint"),
        (["similarity", "--rule", "spt", "--count", "1", "--out", "{bad}"], "out"),
    ], ids=["solve-out", "solve-gantt", "eval-out", "train-repr-log",
            "train-policy-checkpoint", "similarity-out"])
    def test_output_in_missing_directory(self, tmp_path, ft06_file, tiny_config_file,
                                         instance_dir, capsys, argv, dest):
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "ft06.txt").write_text(Path(ft06_file).read_text())
        before = _tree(tmp_path)
        bad = tmp_path / "nodir" / "x"
        argv = [a.format(ft06=ft06_file, bench=bench, config=tiny_config_file,
                         instances=instance_dir, ok=tmp_path / "ok", bad=bad) for a in argv]
        assert _usage_error(argv, capsys) == (
            f"vg2s: error: --{dest} {bad}: directory {bad.parent} does not exist\n")
        assert _tree(tmp_path) == before

    def test_gen_creates_its_directory(self, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        assert main(["gen", "--count", "1", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["gen_00000.json"]

    def test_generated_pool_larger_than_canvas(self, tmp_path, tiny_config_file, capsys):
        before = _tree(tmp_path)
        err = _usage_error(["train-repr", "--epochs", "1", "--config", tiny_config_file,
                            "--checkpoint", str(tmp_path / "c.ckpt"),
                            "--log", str(tmp_path / "l.csv")], capsys)
        assert err == ("vg2s: error: generated instances have up to 9 x 9 operations, but "
                       "the model's canvas holds 4 (canvas_jobs x canvas_machines)\n")
        assert _tree(tmp_path) == before

    def test_frozen_instance_larger_than_canvas(self, tmp_path, tiny_config_file,
                                                instance_dir, ft06, capsys):
        (Path(instance_dir) / "ft06.json").write_text(ft06.to_json())
        before = _tree(tmp_path)
        err = _usage_error(["train-repr", "--epochs", "1", "--config", tiny_config_file,
                            "--instances", instance_dir, "--checkpoint", str(tmp_path / "c.ckpt"),
                            "--log", str(tmp_path / "l.csv")], capsys)
        assert err == ("vg2s: error: --instances: instance ft06 has 36 operations, but "
                       "the model's canvas holds 4 (canvas_jobs x canvas_machines)\n")
        assert _tree(tmp_path) == before

    def test_policy_phase_does_not_reconstruct(self, tmp_path, tiny_config_file,
                                               instance_dir, ft06, capsys):
        """Phase 2 only encodes, so instances beyond the canvas are fine there."""
        (Path(instance_dir) / "ft06.json").write_text(ft06.to_json())
        assert main(["train-policy", "--skip-phase1", "--epochs", "1", "--batch", "1",
                     "--config", tiny_config_file, "--instances", instance_dir,
                     "--checkpoint", str(tmp_path / "c.ckpt")]) == 0


class TestEval:
    def test_csv_report(self, tmp_path, ft06_file, capsys):
        d = tmp_path / "bench"
        d.mkdir()
        (d / "ft06.txt").write_text(Path(ft06_file).read_text())
        ubs = tmp_path / "ubs.json"
        ubs.write_text(json.dumps({"ft06": 55}))
        out = tmp_path / "report.csv"
        assert main(["eval", "--dir", str(d), "--format", "orlib",
                     "--methods", "fifo", "mwkr", "--ub-file", str(ubs),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        by_method = {r["method"]: r for r in rows if r["instance"] == "ft06"}
        assert by_method["fifo"]["cmax"] == "65"
        assert by_method["mwkr"]["cmax"] == "61"

    @pytest.mark.parametrize("value", ['"abc"', "0", "-3", "1.5", "true",
                                       pytest.param(str(2**63), id="2^63"),
                                       pytest.param("1" + "0" * 400, id="1e400")])
    def test_bad_ub_one_line_error(self, tmp_path, ft06_file, capsys, value):
        """Only JSON integers in [1, 2^63 - 1] are best-known makespans;
        anything else stops before any CSV is written (1.5 is not truncated
        to 1, and 10^400, too large for a float, is no traceback)."""
        d = tmp_path / "bench"
        d.mkdir()
        (d / "ft06.txt").write_text(Path(ft06_file).read_text())
        ubs = tmp_path / "ubs.json"
        ubs.write_text('{"ft06": %s}' % value)
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--dir", str(d), "--methods", "fifo", "--ub-file", str(ubs),
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"vg2s: error: ub file {ubs}: ft06: ") and err.count("\n") == 1
        assert value in err
        assert not out.exists()

    def test_largest_ub_accepted(self, tmp_path, ft06_file, capsys):
        d = tmp_path / "bench"
        d.mkdir()
        (d / "ft06.txt").write_text(Path(ft06_file).read_text())
        ubs = tmp_path / "ubs.json"
        ubs.write_text(json.dumps({"ft06": 2**63 - 1}))
        out = tmp_path / "report.csv"
        assert main(["eval", "--dir", str(d), "--methods", "fifo", "--ub-file", str(ubs),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["ub"] == str(2**63 - 1) and float(rows[0]["gap"]) == -100.0

    def test_unknown_method_rejected_before_running(self, tmp_path, ft06_file, capsys):
        d = tmp_path / "bench"
        d.mkdir()
        (d / "ft06.txt").write_text(Path(ft06_file).read_text())
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--dir", str(d), "--methods", "fifo", "mwrk",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'mwrk'" in capsys.readouterr().err
        assert not out.exists()


class TestSimilarityAndLatents:
    def test_similarity_rule(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["similarity", "--rule", "spt", "--count", "2",
                     "--jobs", "3", "--machines", "2", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 12

    def test_similarity_rejects_fewer_jobs_than_machines(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        _usage_error(["similarity", "--rule", "spt", "--jobs", "3",
                      "--machines", "5", "--out", str(out)], capsys)
        assert not out.exists()

    def test_export_latents(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train-repr", "--epochs", "1", "--seed", "0",
              "--config", tiny_config_file, "--instances", instance_dir,
              "--checkpoint", str(ckpt)])
        out = tmp_path / "lat.csv"
        assert main(["export-latents", "--model", str(ckpt),
                     "--config", tiny_config_file, "--instances", instance_dir,
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1 and rows[0]["instance"] == "toy"


class TestGap:
    def test_optimality_gap(self, capsys):
        assert main(["gap", "65", "--ub", "55"]) == 0
        assert capsys.readouterr().out.strip() == "18.1818"

    def test_improvement_rate(self, capsys):
        assert main(["gap", "97", "--baseline", "100"]) == 0
        assert capsys.readouterr().out.strip() == "3.0000"

    @pytest.mark.parametrize("flags", [["--ub", "0"], ["--baseline", "0"]])
    def test_nonpositive_reference_one_line_error(self, flags, capsys):
        err = _usage_error(["gap", "65", *flags], capsys)
        assert err.startswith("vg2s: error: gap: nonpositive")

    @pytest.mark.parametrize("argv", [["nan", "--ub", "5"], ["10", "--ub", "nan"],
                                      ["10", "--ub", "inf"], ["10", "--baseline", "nan"],
                                      ["1e400", "--ub", "5"], ["10", "--baseline=-inf"]])
    def test_non_finite_number_one_line_error(self, argv, capsys):
        err = _usage_error(["gap", *argv], capsys)
        assert err.startswith("vg2s: error: gap: ") and "finite" in err

    def test_overflowing_result_one_line_error(self, capsys):
        err = _usage_error(["gap", "1e308", "--ub", "1e-300"], capsys)
        assert err.startswith("vg2s: error: gap: the result overflows")

    @pytest.mark.parametrize("flags", [[], ["--ub", "55", "--baseline", "60"]])
    def test_exactly_one_reference_required(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap", "65", *flags])
        assert exc.value.code == 2
        assert "--ub" in capsys.readouterr().err
