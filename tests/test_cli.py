"""Command-line behavior: exit codes (0 ok, 2 config, 3 data, 4 numeric),
printed artifact paths, and flag/config-file/environment precedence."""

import dataclasses
import os
import shutil

import numpy as np
import pytest

from walkforge import cli, pipeline


def flags(out_dir, *extra):
    base = [
        "--out", str(out_dir), "--seed", "3", "--synthetic", "40",
        "--windows", "2,5", "--trees", "3", "--max-depth", "3", "--mtry", "10",
        "--min-samples-leaf", "2", "--k", "3", "--train-len", "24",
        "--test-len", "8", "--stride", "8", "--lookback", "2",
        "--model", "lr", "--epochs", "1", "--h1", "2", "--h2", "2",
    ]
    return base + list(extra)


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """A completed tiny pipeline run; later commands re-read its artifacts."""
    out = tmp_path_factory.mktemp("cli") / "out"
    assert cli.main(["pipeline", *flags(out)]) == 0
    return out


class TestSuccessPaths:
    def test_synth_prints_artifact_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["synth", *flags(out)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == os.path.join(str(out), "raw.csv")
        assert os.path.exists(printed)

    def test_pipeline_prints_report_text(self, ran, capsys):
        capsys.readouterr()
        out2 = str(ran) + "_again"
        assert cli.main(["pipeline", *flags(out2)]) == 0
        text = capsys.readouterr().out
        assert "Effective config" in text
        assert "Mean" in text and "Median" in text

    def test_report_reprints_table(self, ran, capsys):
        capsys.readouterr()
        assert cli.main(["report", *flags(ran)]) == 0
        text = capsys.readouterr().out
        assert "Mean" in text and "persistence" in text

    def test_stage_commands_print_their_artifacts(self, ran, capsys):
        capsys.readouterr()
        assert cli.main(["featurize", *flags(ran)]) == 0
        assert capsys.readouterr().out.strip().endswith("features.wffm")
        assert cli.main(["select", *flags(ran)]) == 0
        assert capsys.readouterr().out.strip().endswith("selection.json")
        assert cli.main(["plan", *flags(ran)]) == 0
        assert capsys.readouterr().out.strip().endswith("plan.json")
        assert cli.main(["evaluate", *flags(ran)]) == 0
        assert capsys.readouterr().out.strip().endswith("metrics.json")

    def test_train_prints_one_path_per_checkpoint(self, ran, capsys):
        capsys.readouterr()
        assert cli.main(["train", *flags(ran)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(os.path.basename(p) for p in lines) == ["lr_b0.bin", "lr_b1.bin"]

    def test_chart_flag_writes_svg(self, ran, capsys):
        assert cli.main(["report", *flags(ran, "--chart")]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(str(ran), "chart.svg"))


class TestConfigExitCode:
    def test_unknown_flag(self, tmp_path, capsys):
        assert cli.main(["synth", "--bogus", "1", "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()
        assert not os.path.exists(tmp_path / "o")

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["transmogrify"]) == 2
        capsys.readouterr()

    def test_rejected_model_choice(self, capsys):
        assert cli.main(["train", "--model", "magic"]) == 2
        capsys.readouterr()

    def test_bad_windows_value(self, tmp_path, capsys):
        assert cli.main(["synth", *flags(tmp_path / "o"), "--windows", "7,x"]) == 2
        assert "--windows" in capsys.readouterr().err

    def test_synth_without_row_count(self, tmp_path, capsys):
        assert cli.main(["synth", "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_pipeline_without_input(self, tmp_path, capsys):
        assert cli.main(["pipeline", "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_file_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sneed = 3\n")
        assert cli.main(["synth", *flags(tmp_path / "o"), "--config", str(cfg)]) == 2
        assert "sneed" in capsys.readouterr().err

    def test_bad_config_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees = many\n")
        assert cli.main(["synth", *flags(tmp_path / "o"), "--config", str(cfg)]) == 2
        assert "trees" in capsys.readouterr().err

    def test_bad_model_via_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = magic\n")
        assert cli.main(["synth", *flags(tmp_path / "o")[:-10], "--config", str(cfg)]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WALKFORGE_SEED", "xyz")
        argv = [a for a in flags(tmp_path / "o")]
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
        assert cli.main(["synth", *argv]) == 2
        assert "WALKFORGE_SEED" in capsys.readouterr().err


class TestDataExitCode:
    def test_featurize_before_synth(self, tmp_path, capsys):
        assert cli.main(["featurize", *flags(tmp_path / "empty")]) == 3
        assert "run the synth stage first" in capsys.readouterr().err

    def test_missing_csv_input(self, tmp_path, capsys):
        argv = flags(tmp_path / "o", "--csv", str(tmp_path / "nope.csv"))
        del argv[argv.index("--synthetic"):argv.index("--synthetic") + 2]
        assert cli.main(["featurize", *argv]) == 3
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        argv = flags(tmp_path / "o", "--config", str(tmp_path / "nope.cfg"))
        assert cli.main(["synth", *argv]) == 3
        capsys.readouterr()

    def test_report_before_evaluate(self, tmp_path, capsys):
        assert cli.main(["report", *flags(tmp_path / "empty")]) == 3
        assert "run the evaluate stage first" in capsys.readouterr().err


class TestNumericExitCode:
    def test_diverging_training_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = pipeline.build_config({}, {
            "out": str(out), "seed": 3, "synthetic": 40, "windows": (2, 5),
            "trees": 3, "max_depth": 3, "mtry": 10, "min_samples_leaf": 2,
            "k": 3, "train_len": 24, "test_len": 8, "stride": 8, "lookback": 2,
        })
        pipeline.stage_synth(cfg)
        pipeline.stage_featurize(cfg)
        pipeline.stage_select(cfg)
        pipeline.stage_plan(cfg)
        # Steps of ~lr per parameter per epoch walk the weights past the
        # float64 ceiling within a few epochs once clipping is off.
        argv = flags(out, "--model", "proposed", "--epochs", "8",
                     "--learning-rate", "1e308", "--clip-norm", "0")
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["train", *argv]) == 4
        assert "error:" in capsys.readouterr().err


class TestSeedPrecedence:
    def read_raw(self, out):
        with open(os.path.join(str(out), "raw.csv"), "rb") as f:
            return f.read()

    def strip_seed(self, argv):
        argv = list(argv)
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
        return argv

    def test_env_seed_matches_flag_seed(self, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("WALKFORGE_SEED", "3")
        assert cli.main(["synth", *self.strip_seed(flags(a))]) == 0
        monkeypatch.delenv("WALKFORGE_SEED")
        assert cli.main(["synth", *flags(b)]) == 0
        capsys.readouterr()
        assert self.read_raw(a) == self.read_raw(b)

    def test_flag_seed_beats_env(self, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("WALKFORGE_SEED", "99")
        assert cli.main(["synth", *flags(a)]) == 0  # --seed 3 present
        monkeypatch.delenv("WALKFORGE_SEED")
        assert cli.main(["synth", *flags(b)]) == 0
        capsys.readouterr()
        assert self.read_raw(a) == self.read_raw(b)

    def test_flag_seed_beats_config_file(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 99\n")
        assert cli.main(["synth", *flags(a, "--config", str(cfg))]) == 0
        assert cli.main(["synth", *flags(b)]) == 0
        capsys.readouterr()
        assert self.read_raw(a) == self.read_raw(b)

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", *flags(a)]) == 0
        assert cli.main(["synth", *flags(b)]) == 0
        capsys.readouterr()
        assert self.read_raw(a) == self.read_raw(b)


class TestGeneratedFlags:
    def stage_flags(self):
        """Option strings of one subcommand's parser, minus help and --config."""
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        parser = sub.choices["train"]
        return [s for a in parser._actions for s in a.option_strings
                if s not in ("-h", "--help", "--config")]

    def test_one_flag_per_run_config_field(self):
        names = [f.name for f in dataclasses.fields(pipeline.RunConfig)]
        assert sorted(self.stage_flags()) == sorted(
            "--" + name.replace("_", "-") for name in names)

    # one value of every annotation type, as text, in flag and file form
    VALUES = {"trees": "9", "mtry": "4", "dropout": "0.375", "svr_gamma": "1e-300",
              "model": "svr", "csv": "in.csv", "chart": "true", "windows": "5,11"}

    def test_every_annotation_type_is_covered(self):
        types = {f.type for f in dataclasses.fields(pipeline.RunConfig)}
        covered = {f.type for f in dataclasses.fields(pipeline.RunConfig)
                   if f.name in self.VALUES}
        assert covered == types

    def test_flag_and_config_file_give_equal_configs(self, tmp_path):
        argv = []
        for name, text in self.VALUES.items():
            argv += ["--" + name.replace("_", "-"), text]
        args = cli.build_parser().parse_args(["train", *argv])
        flag_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        from_flags = pipeline.build_config({}, flag_values)

        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{name} = {text}\n" for name, text in self.VALUES.items()))
        from_file = pipeline.build_config(pipeline.parse_config_file(str(path)), {})

        assert from_flags == from_file
        assert from_file.windows == (5, 11) and from_file.chart is True
        assert from_file.svr_gamma == 1e-300 and from_file.mtry == 4

    def test_bare_bool_flag_means_true(self):
        args = cli.build_parser().parse_args(["report", "--chart"])
        assert args.chart is True


class TestCheckpointKind:
    def test_evaluate_over_wrong_kind_exits_3(self, ran, tmp_path, capsys):
        out = tmp_path / "copy"
        shutil.copytree(ran, out)
        shutil.copyfile(out / "features.wffm", out / "models" / "lr_b0.bin")
        assert cli.main(["evaluate", *flags(out)]) == 3
        err = capsys.readouterr().err
        assert "lr_b0.bin" in err and "expected 'linear'" in err
