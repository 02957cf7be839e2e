import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aecomm import ExperimentConfig, cli, harness, nn
from aecomm.cli import build_parser, run_command
from aecomm.config import load_config, save_config


def quick_cfg(tmp_path, **overrides):
    base = dict(
        steps=120,
        train_ebn0_db=(7.0,),
        seeds=(0,),
        test_ebn0_start=0.0,
        test_ebn0_stop=8.0,
        test_ebn0_step=4.0,
        target_block_errors=30,
        max_blocks=10_000,
    )
    base.update(overrides)
    path = tmp_path / "quick.cfg"
    save_config(ExperimentConfig(**base), path)
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def file_digest(path):
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_command([]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ")
        assert err[1].startswith("usage: aecomm [-h] [--version] COMMAND")

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_command(["overlap", "--bogus"]) == 1

    def test_bad_seed_value_is_usage_error(self, capsys):
        assert run_command(["overlap", "--seed", "x"]) == 1

    # the usage printed is the failing command's, which names its flags
    @pytest.mark.parametrize("argv, fault", [
        (["robustness", "--workers", "0"],
         "argument --workers: expected an integer >= 1, got '0'"),
        (["overlap", "--workers", "2"],
         "unrecognized arguments: --workers 2"),
    ], ids=["invalid-value", "unrecognized"])
    def test_usage_error_prints_the_command_usage(self, capsys, argv, fault):
        assert run_command(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"error: {fault}"
        assert err[1].startswith(f"usage: aecomm {argv[0]} [-h]")

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_command(["overlap", "--config", str(tmp_path / "no.cfg"),
                            "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[training]\nsteps = many\n")
        code = run_command(["overlap", "--config", str(bad),
                            "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "steps" in err
        assert "line 2" in err

    @pytest.mark.parametrize("text, line, fault", [
        ("[seeds]\nseeds = 0, 0\n", 2, "seeds: entries must not repeat"),
        ("[channel]\nrho = 1.5\n", 2, "rho: must be in [0, 1), got 1.5"),
    ], ids=["repeated-seeds", "rho-out-of-range"])
    def test_invalid_config_names_file_and_line(self, tmp_path, capsys, text,
                                                line, fault):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        code = run_command(["train", "--config", str(bad),
                            "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: line {line}: {fault}\n"
        assert not (tmp_path / "run").exists()

    def test_seed_outside_substream_range_is_config_error(self, tmp_path,
                                                           capsys):
        # 2**64 would draw seed 0's numbers under its own checkpoint name
        out = tmp_path / "run"
        assert run_command(["train", "--seed", "18446744073709551616",
                            "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --seed: expected an integer in [0, 2**64), got "
            "18446744073709551616\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys,
                                              workers):
        out = tmp_path / "run"
        code = run_command(["robustness", "--workers", workers,
                            "--out", str(out)])
        assert code == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_test_db_list_is_config_error(self, tmp_path, capsys):
        code = run_command(["overlap", "--test-db", "1,two",
                            "--out", str(tmp_path)])
        assert code == 1
        assert "--test-db" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("test_ebn0_stop", "inf"), ("test_ebn0_start", "-inf"),
        ("test_ebn0_step", "inf"),
    ])
    def test_nonfinite_test_grid_names_file_and_line(self, tmp_path, capsys,
                                                     key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[sweep]\n{key} = {value}\n")
        out = tmp_path / "run"
        code = run_command(["baseline", "--config", str(bad),
                            "--out", str(out)])
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: {bad}: line 2: {key}: must be finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e-300", "1e-6"])
    def test_oversized_test_grid_names_file_and_line(self, tmp_path, capsys,
                                                     step):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[sweep]\ntest_ebn0_step = {step}\n")
        out = tmp_path / "run"
        code = run_command(["baseline", "--config", str(bad),
                            "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: test_ebn0_step: gives more than 10000 "
            f"test points\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, value", [
        ("train", "-inf"), ("train", "nan"),
        ("robustness", "-inf"), ("robustness", "nan"),
    ])
    def test_bad_train_db_names_the_flag(self, tmp_path, capsys, command,
                                         value):
        # +inf is the zero-noise sentinel; -inf and nan mean nothing
        out = tmp_path / "run"
        code = run_command([command, f"--train-db={value}", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --train-db: expected a finite dB value or inf, "
            f"got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--train-db", "4000"), ("robustness", "--train-db", "-4000"),
        ("overlap", "--train-db", "4000"), ("overlap", "--test-db", "0,-4000"),
    ])
    def test_db_without_a_noise_variance_names_the_flag(
            self, tmp_path, capsys, command, flag, value):
        # finite, but too far from 0 dB for a positive, finite variance
        out = tmp_path / "run"
        code = run_command([command, f"{flag}={value}", "--out", str(out)])
        assert code == 1
        db = value.split(",")[-1]
        assert capsys.readouterr().err == (
            f"error: {flag}: Eb/N0 {db} dB gives no positive, finite noise "
            f"variance at rate 0.571429\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--test-db", "inf"), ("--test-db", "0,-inf"), ("--test-db", "nan"),
        ("--train-db", "inf"), ("--train-db", "-inf"), ("--train-db", "nan"),
    ])
    def test_overlap_rejects_nonfinite_db(self, tmp_path, capsys, flag,
                                          value):
        # the overlap with a noise-free distribution is undefined
        out = tmp_path / "run"
        code = run_command(["overlap", f"{flag}={value}", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not out.exists()

    def test_failed_work_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the checkpoint is ready before the history fails; neither is
        # written, since no manifest would describe it
        def failing_history(history):
            raise RuntimeError("history failed")

        monkeypatch.setattr(harness, "history_to_csv", failing_history)
        out = tmp_path / "run"
        code = run_command(["train", "--config", quick_cfg(tmp_path, steps=20),
                            "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: history failed\n"
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_command(["--version"])
        assert exc.value.code == 0
        assert "aecomm" in capsys.readouterr().out


class TestParser:
    COMMON = {"--config", "--seed", "--out", "--quiet"}

    @pytest.mark.parametrize("command, extra", [
        ("overlap", {"--train-db", "--test-db"}),
        ("sweep", {"--workers"}),
        ("train", {"--train-db"}),
        ("baseline", {"--workers"}),
        ("gradcheck", set()),
        ("robustness", {"--workers", "--train-db"}),
    ])
    def test_flag_sets(self, command, extra):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == [
            "overlap", "sweep", "train", "baseline", "gradcheck",
            "robustness"]
        p = subparsers.choices[command]
        flags = {o for a in p._actions for o in a.option_strings}
        assert flags - {"-h", "--help"} == self.COMMON | extra
        assert p.get_default("handler") is getattr(cli, f"_cmd_{command}")


class TestOverlap:
    def test_default_token_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_command(["overlap", "--config", "default",
                            "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "overlap" in stdout
        lines = (out / "overlap.csv").read_text().splitlines()
        assert lines[0] == "test_ebn0_db,overlap_pct,kl_nats"
        assert len(lines) == 5  # default --test-db has four points
        got = {float(l.split(",")[0]): float(l.split(",")[1])
               for l in lines[1:]}
        assert got[8.0] > got[5.0] > got[0.0] > got[-4.0]
        assert (out / "config.cfg").exists()
        assert (out / "manifest.json").exists()

    def test_manifest_digests_match_files(self, tmp_path):
        out = tmp_path / "run"
        assert run_command(["overlap", "--quiet", "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["tool"] == "aecomm"
        assert manifest["command"] == "overlap"
        assert manifest["seeds"] == [0, 1, 2]
        assert manifest["started_utc"] <= manifest["finished_utc"]
        assert set(manifest["outputs"]) == {"overlap.csv", "config.cfg"}
        for name, digest in manifest["outputs"].items():
            assert file_digest(out / name) == digest

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        assert run_command(["overlap", "--quiet",
                            "--out", str(tmp_path / "q")]) == 0
        assert capsys.readouterr().out == ""

    def test_custom_dbs_and_train_point(self, tmp_path):
        out = tmp_path / "run"
        code = run_command(["overlap", "--quiet", "--train-db", "3",
                            "--test-db", "3", "--out", str(out)])
        assert code == 0
        row = (out / "overlap.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == 100.0
        assert float(row[2]) == 0.0

    @pytest.mark.parametrize("train_db, test_db, kl", [
        ("3000", "-3000", pytest.approx(690.2755278982137, rel=1e-12)),
        ("1600", "-1600", pytest.approx(367.913614879047, rel=1e-12)),
        ("-3000", "3000", float("inf")),
    ])
    def test_distant_points_keep_true_overlap_and_kl(self, tmp_path, train_db,
                                                      test_db, kl):
        # the variance ratio is 1e-600, 1e-320 or 1e600: beyond the float
        # range or subnormal; the true overlap is at most about 2e-157 %
        out = tmp_path / "run"
        code = run_command(["overlap", "--quiet", f"--train-db={train_db}",
                            f"--test-db={test_db}", "--out", str(out)])
        assert code == 0
        row = (out / "overlap.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) < 1e-100
        assert float(row[2]) == kl

    def test_writes_nothing_outside_out(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "elsewhere"
        assert run_command(["overlap", "--quiet", "--out", str(out)]) == 0
        assert os.listdir(cwd) == []
        assert sorted(os.listdir(out)) == ["config.cfg", "manifest.json",
                                           "overlap.csv"]


class TestTrain:
    def test_checkpoint_and_history(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = quick_cfg(tmp_path)
        code = run_command(["train", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert "final loss" in capsys.readouterr().out
        ckpt = out / "model_train+7dB_seed0.ckpt"
        assert ckpt.exists()
        params = nn.load_checkpoint(str(ckpt))
        want, _ = harness.train_autoencoder(load_config(cfg), 7.0, 0)
        assert np.array_equal(params.flat, want.flat)
        history = (out / "model_train+7dB_seed0_history.csv").read_text()
        assert history.splitlines()[0] == "step,loss"
        assert history.splitlines()[-1].startswith("120,")
        manifest = read_manifest(out)
        assert set(manifest["outputs"]) == {
            "model_train+7dB_seed0.ckpt",
            "model_train+7dB_seed0_history.csv", "config.cfg"}
        for name, digest in manifest["outputs"].items():
            assert file_digest(out / name) == digest

    def test_infinite_train_db_is_the_zero_noise_sentinel(self, tmp_path):
        # only the overlap rejects +inf; training takes it as sigma = 0
        out = tmp_path / "run"
        cfg = quick_cfg(tmp_path, steps=20)
        assert run_command(["train", "--config", cfg, "--train-db", "inf",
                            "--quiet", "--out", str(out)]) == 0
        assert (out / "model_train+infdB_seed0.ckpt").exists()

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, capsys,
                                                   monkeypatch):
        out = tmp_path / "run"
        first = quick_cfg(tmp_path, steps=20)
        assert run_command(["train", "--config", first, "--quiet",
                            "--out", str(out)]) == 0
        ckpt = out / "model_train+7dB_seed0.ckpt"
        good, listing = ckpt.read_bytes(), sorted(os.listdir(out))

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        (tmp_path / "other").mkdir()
        other = quick_cfg(tmp_path / "other", steps=30)
        assert run_command(["train", "--config", other, "--quiet",
                            "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert ckpt.read_bytes() == good
        assert sorted(os.listdir(out)) == listing

    def test_seed_override_changes_manifest_and_stem(self, tmp_path):
        out = tmp_path / "run"
        cfg = quick_cfg(tmp_path)
        code = run_command(["train", "--config", cfg, "--seed", "9",
                            "--quiet", "--train-db", "-2", "--out", str(out)])
        assert code == 0
        assert (out / "model_train-2dB_seed9.ckpt").exists()
        assert read_manifest(out)["seeds"] == [9]


class TestZeroSteps:
    # steps = 0 is valid: the model is its initial parameters and its loss
    # history is empty
    @pytest.mark.parametrize("command, output", [
        ("train", "model_train+7dB_seed0.ckpt"),
        ("sweep", "sweep.csv"),
        ("robustness", "robustness.csv"),
    ])
    def test_untrained_model_runs(self, tmp_path, command, output):
        out = tmp_path / "run"
        cfg = quick_cfg(tmp_path, steps=0, max_blocks=2_000)
        assert run_command([command, "--config", cfg, "--out", str(out)]) == 0
        assert (out / output).exists()
        if command == "train":
            params = nn.load_checkpoint(str(out / output))
            assert np.array_equal(params.flat,
                                  nn.init_params(params.layout, 0).flat)
            history = out / "model_train+7dB_seed0_history.csv"
            assert history.read_text() == "step,loss\n"


class TestSweep:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_command(["sweep", "--config", cfg, "--quiet",
                                "--out", str(out)])
            assert code == 0
            digests.append(file_digest(out / "sweep.csv"))
            manifest = read_manifest(out)
            assert set(manifest["outputs"]) == {"sweep.csv", "plot_bler.py",
                                                "config.cfg"}
        assert digests[0] == digests[1]

    def test_sweep_csv_contents(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        out = tmp_path / "run"
        assert run_command(["sweep", "--config", cfg, "--quiet", "--workers",
                            "2", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        labels = {l.split(",")[1] for l in lines[1:]}
        assert labels == {"ae-train+7dB", "hamming-hard", "hamming-mld",
                          "uncoded-bpsk"}
        assert len(lines) == 1 + 4 * 3  # four systems, three grid points


class TestBaseline:
    def test_closed_form_column(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        out = tmp_path / "run"
        assert run_command(["baseline", "--config", cfg, "--quiet",
                            "--out", str(out)]) == 0
        lines = (out / "baseline.csv").read_text().splitlines()
        assert lines[0].endswith(",closed_form_bler")
        by_system = {}
        for line in lines[1:]:
            by_system.setdefault(line.split(",")[0], []).append(line)
        assert set(by_system) == {"hamming_hard", "hamming_mld", "uncoded"}
        assert all(l.split(",")[-1] == "" for l in by_system["hamming_mld"])
        assert all(float(l.split(",")[-1]) > 0 for l in by_system["uncoded"])


class TestGradcheck:
    def test_prints_error_and_passes(self, capsys):
        assert run_command(["gradcheck", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("max relative error: ")
        assert float(out.split(":")[1]) < 1e-4

    def test_writes_no_files(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run_command(["gradcheck"]) == 0
        assert os.listdir(cwd) == []


class TestRobustness:
    def test_artifacts_and_labels(self, tmp_path):
        cfg = quick_cfg(tmp_path, test_ebn0_start=4.0, test_ebn0_stop=8.0)
        out = tmp_path / "run"
        assert run_command(["robustness", "--config", cfg, "--quiet",
                            "--out", str(out)]) == 0
        lines = (out / "robustness.csv").read_text().splitlines()
        labels = {l.split(",")[1] for l in lines[1:]}
        assert labels == {"ae-awgn", "ae-corr-rho0.5", "ae-corr-rho0.9",
                          "ae-rayleigh"}
        assert (out / "plot_bler.py").exists()
        manifest = read_manifest(out)
        assert manifest["command"] == "robustness"

    def test_reference_model_trains_on_the_configured_channel(self, tmp_path,
                                                              capsys):
        cfg = quick_cfg(tmp_path, channel_kind="rayleigh", steps=20,
                        test_ebn0_start=8.0, test_ebn0_stop=8.0,
                        max_blocks=2_000)
        assert run_command(["robustness", "--config", cfg,
                            "--out", str(tmp_path / "run")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "training reference model on rayleigh at 7 dB, seed 0" in lines

    def test_zero_noise_sentinel_on_correlated_noise(self, tmp_path):
        # sigma^2 T(rho) is all zeros at +inf dB and has no Cholesky factor;
        # the channel then adds no noise, as on awgn
        out = tmp_path / "run"
        cfg = quick_cfg(tmp_path, steps=20, channel_kind="correlated_awgn",
                        rho=0.5, max_blocks=2_000)
        assert run_command(["robustness", "--config", cfg, "--train-db",
                            "inf", "--quiet", "--out", str(out)]) == 0
        assert (out / "robustness.csv").exists()


class TestEntryPoints:
    def test_start_up_leaves_scipy_unimported(self):
        # scipy.special is most of the import time; only the closed forms
        # and the overlap metrics load it, on first use
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, aecomm.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aecomm", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "aecomm" in proc.stdout

    def test_console_script_runs(self, tmp_path):
        # Run the [project.scripts] target the way the pip-generated wrapper
        # does, so the check needs no install; an installed script on PATH
        # is run as well.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["aecomm"]
        module, _, func = target.partition(":")
        wrapper = (f"import sys\nfrom {module} import {func}\n"
                   f"sys.argv[0] = 'aecomm'\nsys.exit({func}())")
        commands = [[sys.executable, "-c", wrapper]]
        installed = shutil.which("aecomm")
        if installed:
            commands.append([installed])
        for i, command in enumerate(commands):
            out = tmp_path / f"run{i}"
            proc = subprocess.run(
                command + ["overlap", "--quiet", "--test-db", "0",
                           "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0
            assert (out / "overlap.csv").exists()

    def test_plot_script_renders_png(self, tmp_path):
        pytest.importorskip(
            "matplotlib",
            reason="plot_bler.py needs matplotlib, the optional 'plots' "
                   "extra: pip install -e '.[plots]'")
        cfg = quick_cfg(tmp_path)
        out = tmp_path / "run"
        assert run_command(["sweep", "--config", cfg, "--quiet",
                            "--out", str(out)]) == 0
        proc = subprocess.run(
            [sys.executable, "plot_bler.py", "sweep.csv"],
            capture_output=True, text=True, cwd=out)
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep.png").exists()

    def test_plot_script_without_matplotlib_names_the_extra(self, tmp_path):
        # a shadow package makes the import fail whatever is installed
        shadow = tmp_path / "shadow" / "matplotlib"
        shadow.mkdir(parents=True)
        (shadow / "__init__.py").write_text(
            "raise ImportError('matplotlib hidden by the test')\n")
        (tmp_path / "plot_bler.py").write_text(harness.PLOT_SCRIPT)
        env = dict(os.environ, PYTHONPATH=str(shadow.parent))
        proc = subprocess.run(
            [sys.executable, "plot_bler.py", "sweep.csv"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode != 0
        assert proc.stderr.splitlines() == [
            "plot_bler.py needs matplotlib, the optional 'plots' extra: "
            "pip install -e '.[plots]'"]
