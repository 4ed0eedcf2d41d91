from __future__ import annotations

import csv
import json
import struct

import numpy as np
import pytest

from helpers import MALFORMED_CHECKPOINTS, section_bytes, write_malformed_checkpoint
from vg2s.checkpoint import ParamStore, load_checkpoint, save_checkpoint
from vg2s.cli import main
from vg2s.instance import Instance
from vg2s.trainer import build_model
from vg2s.vge import ModelConfig

TINY_MODEL = {
    "d_graph": 4, "d_latent": 4, "n_heads": 2,
    "canvas_jobs": 2, "canvas_machines": 2,
    "conv_channels": 8, "conv_channels_min": 2,
    "glimpse_layers": 1, "glimpse_heads": 2,
    "d_glimpse": 3, "d_logit": 3, "critic_hidden": 4,
}


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

    def test_parse_error_propagates(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n0 3 0 2\n1 1 0 1")
        from vg2s.instance import ParseError
        with pytest.raises(ParseError):
            main(["parse", str(bad), "--format", "orlib"])


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

    def test_model_requires_checkpoint(self, ft06_file, capsys):
        assert main(["solve", ft06_file, "--method", "vg2s"]) == 2


class TestTrainPipeline:
    def test_phase1_then_phase2(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt1 = tmp_path / "repr.ckpt"
        log1 = tmp_path / "repr.csv"
        assert main(["train-repr", "--epochs", "3", "--seed", "0",
                     "--config", tiny_config_file, "--instances", instance_dir,
                     "--checkpoint", str(ckpt1), "--log", str(log1)]) == 0
        assert ckpt1.exists()
        rows = list(csv.DictReader(log1.open()))
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

    def test_skip_phase1(self, tmp_path, tiny_config_file, instance_dir, capsys):
        ckpt = tmp_path / "baseline.ckpt"
        assert main(["train-policy", "--skip-phase1", "--epochs", "2",
                     "--batch", "2", "--seed", "0", "--config", tiny_config_file,
                     "--instances", instance_dir, "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()

    def test_policy_requires_encoder_source(self, tmp_path, tiny_config_file,
                                            instance_dir, capsys):
        assert main(["train-policy", "--epochs", "1", "--config", tiny_config_file,
                     "--instances", instance_dir,
                     "--checkpoint", str(tmp_path / "x.ckpt")]) == 2


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
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("vg2s: error: ") and "requires --" in err
    assert err.count("\n") == 1
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
        ({"train": {"scale_q": 1}}, "scale_q"),            # not a bool
        ({"model": {"d_latent": 0}}, "d_latent"),
        ({"model": {"appnp_iters": -1}}, "appnp_iters"),
        ({"model": {"glimpse_heads": 1.0}}, "glimpse_heads"),
        ({"model": {"appnp_teleport": 1.5}}, "appnp_teleport"),
        ({"model": {"logit_clip": 0}}, "logit_clip"),
        ({"model": {"logit_clip": float("nan")}}, "logit_clip"),
        (None, "No such file"),                            # missing file
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


class TestEval:
    def test_csv_report(self, tmp_path, ft06_file, capsys):
        d = tmp_path / "bench"
        d.mkdir()
        (d / "ft06.txt").write_text(open(ft06_file).read())
        ubs = tmp_path / "ubs.json"
        ubs.write_text(json.dumps({"ft06": 55}))
        out = tmp_path / "report.csv"
        assert main(["eval", "--dir", str(d), "--format", "orlib",
                     "--methods", "fifo", "mwkr", "--ub-file", str(ubs),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        by_method = {r["method"]: r for r in rows if r["instance"] == "ft06"}
        assert by_method["fifo"]["cmax"] == "65"
        assert by_method["mwkr"]["cmax"] == "61"

    @pytest.mark.parametrize("value", ['"abc"', "0", "-3", "1.5", "true"])
    def test_bad_ub_one_line_error(self, tmp_path, ft06_file, capsys, value):
        """Only JSON integers >= 1 are best-known makespans; anything else
        stops before any CSV is written (1.5 is not truncated to 1)."""
        d = tmp_path / "bench"
        d.mkdir()
        (d / "ft06.txt").write_text(open(ft06_file).read())
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

    def test_unknown_method_rejected_before_running(self, tmp_path, ft06_file, capsys):
        d = tmp_path / "bench"
        d.mkdir()
        (d / "ft06.txt").write_text(open(ft06_file).read())
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
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 12

    def test_similarity_rejects_fewer_jobs_than_machines(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["similarity", "--rule", "spt", "--jobs", "3",
                     "--machines", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vg2s: error: ") and err.count("\n") == 1
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
        rows = list(csv.DictReader(out.open()))
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
        assert main(["gap", "65", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("vg2s: error: gap: nonpositive")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", [[], ["--ub", "55", "--baseline", "60"]])
    def test_exactly_one_reference_required(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap", "65", *flags])
        assert exc.value.code == 2
        assert "--ub" in capsys.readouterr().err
