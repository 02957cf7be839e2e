from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest

from aecomm.channels import CHANNEL_KINDS
from aecomm.config import (
    MAX_TEST_POINTS,
    ExperimentConfig,
    load_config,
    loads_config,
    save_config,
    serialize_config,
)
from aecomm.errors import ConfigFileError, ConfigurationError

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"

# a valid value other than the given one, by declared type (a tuple field's
# entries each change); str is the channel kind, the only str field
CHANGED = {
    int: lambda v: v + 1,
    float: lambda v: v / 2 + 0.125,
    Fraction: lambda v: Fraction(v.numerator - 1, v.denominator),
    str: lambda v: next(kind for kind in CHANNEL_KINDS if kind != v),
}


def changed(f, value):
    if get_origin(f.type) is tuple:
        return tuple(CHANGED[get_args(f.type)[0]](v) for v in value)
    return CHANGED[f.type](value)


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        assert loads_config("") == ExperimentConfig()

    def test_comment_only_text_gives_defaults(self):
        assert loads_config("# nothing\n\n# here\n") == ExperimentConfig()

    def test_reference_file_equals_defaults(self):
        assert load_config(REFERENCE) == ExperimentConfig()

    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_default_grid_has_25_points(self):
        grid = ExperimentConfig().test_grid()
        assert len(grid) == 25
        assert grid[0] == -4.0
        assert grid[-1] == 8.0
        assert np.allclose(np.diff(grid), 0.5)


class TestRoundTrip:
    def test_reference_round_trips(self):
        config = load_config(REFERENCE)
        assert loads_config(serialize_config(config)) == config

    def test_modified_config_round_trips(self):
        config = ExperimentConfig(
            channel_kind="correlated_awgn",
            rho=0.65,
            rate=Fraction(1, 2),
            steps=321,
            train_ebn0_db=(-2.0, 3.5),
            seeds=(9,),
            test_ebn0_step=0.25,
        )
        assert loads_config(serialize_config(config)) == config

    def test_every_field_round_trips(self):
        # every field differs from its default, so a field that the file
        # format leaves out comes back at its default and fails the test
        default = ExperimentConfig()
        config = ExperimentConfig(**{
            f.name: changed(f, getattr(default, f.name))
            for f in fields(ExperimentConfig)})
        for f in fields(ExperimentConfig):
            assert getattr(config, f.name) != getattr(default, f.name), f.name
        assert loads_config(serialize_config(config)) == config

    def test_numpy_numbers_round_trip(self):
        # written by their declared type: the repr of a NumPy float under
        # NumPy 2 is np.float64(0.5), which would not load back
        config = ExperimentConfig(channel_kind="correlated_awgn",
                                  rho=np.float64(0.5),
                                  train_ebn0_db=(np.float64(7.0),),
                                  seeds=(np.int64(3), 4))
        text = serialize_config(config)
        assert "rho = 0.5\n" in text and "seeds = 3, 4\n" in text
        assert loads_config(text) == config

    def test_reference_file_is_the_default_snapshot(self):
        # pins the order of sections and keys as well as each value's text
        assert REFERENCE.read_bytes() == serialize_config(
            ExperimentConfig()).encode()

    def test_save_and_load(self, tmp_path):
        config = ExperimentConfig(steps=77)
        path = tmp_path / "exp.cfg"
        save_config(config, path)
        assert load_config(path) == config


class TestParseErrors:
    def test_unknown_section_with_line(self):
        with pytest.raises(ConfigFileError, match=r"line 2.*mystery"):
            loads_config("# ok\n[mystery]\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigFileError, match=r"line 2.*momentum"):
            loads_config("[training]\nmomentum = 0.9\n")

    def test_duplicate_key(self):
        text = "[training]\nsteps = 5\nsteps = 6\n"
        with pytest.raises(ConfigFileError, match=r"line 3.*duplicate"):
            loads_config(text)

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigFileError, match=r"line 2.*steps"):
            loads_config("[training]\nsteps = soon\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigFileError, match=r"line 1"):
            loads_config("steps = 5\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigFileError, match=r"line 2"):
            loads_config("[training]\nsteps 5\n")

    def test_byte_order_mark_accepted(self, tmp_path):
        # as Notepad and PowerShell 5's Out-File -Encoding utf8 save it
        path = tmp_path / "bom.cfg"
        path.write_text(REFERENCE.read_text(encoding="utf-8"),
                        encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(path) == ExperimentConfig()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_nan_rejected(self):
        with pytest.raises(ConfigFileError, match="rho"):
            loads_config("[channel]\nrho = nan\n")


class TestValidation:
    def test_rate_zero_names_rate(self):
        with pytest.raises(ConfigurationError, match="rate"):
            loads_config("[channel]\nrate = 0\n")

    def test_rate_above_one_rejected(self):
        with pytest.raises(ConfigurationError, match="rate"):
            ExperimentConfig(rate=Fraction(8, 7)).validate()

    def test_bad_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ExperimentConfig(channel_kind="fso").validate()

    def test_empty_train_grid(self):
        with pytest.raises(ConfigurationError, match="train_ebn0_db"):
            ExperimentConfig(train_ebn0_db=()).validate()

    def test_negative_step(self):
        with pytest.raises(ConfigurationError, match="test_ebn0_step"):
            ExperimentConfig(test_ebn0_step=-0.5).validate()

    def test_start_after_stop(self):
        with pytest.raises(ConfigurationError, match="test_ebn0_start"):
            ExperimentConfig(test_ebn0_start=9.0, test_ebn0_stop=8.0).validate()

    @pytest.mark.parametrize("key", ["test_ebn0_start", "test_ebn0_stop",
                                     "test_ebn0_step"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_nonfinite_test_grid_rejected(self, key, value):
        # an infinite grid bound or step has no finite grid to run
        with pytest.raises(ConfigurationError, match=f"^{key}: must be finite$"):
            ExperimentConfig(**{key: value})

    def test_test_grid_size_is_bounded(self):
        # 10,000 points are accepted and one more step is not; the grid
        # stays within the Eb/N0 range that has a noise variance
        at_bound = ExperimentConfig(test_ebn0_start=-1000.0,
                                    test_ebn0_stop=1499.75, test_ebn0_step=0.25)
        assert at_bound.test_grid().size == MAX_TEST_POINTS == 10_000
        with pytest.raises(ConfigurationError,
                           match="^test_ebn0_step: gives more than 10000 "
                                 "test points$"):
            ExperimentConfig(test_ebn0_start=-1000.0, test_ebn0_stop=1500.0,
                             test_ebn0_step=0.25)

    def test_empty_seeds(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            ExperimentConfig(seeds=()).validate()

    def test_repeated_seeds_rejected(self):
        # pooling a seed twice counts the same draws twice
        with pytest.raises(ConfigurationError, match="seeds.*repeat"):
            loads_config("[seeds]\nseeds = 0, 0\n")

    def test_repeated_train_points_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="train_ebn0_db.*repeat"):
            ExperimentConfig(train_ebn0_db=(7.0, 0.0, 7.0))

    def test_default_key_fault_has_no_line(self):
        # the fault names test_ebn0_start, which the file leaves at its default
        with pytest.raises(ConfigFileError) as err:
            loads_config("[sweep]\ntest_ebn0_stop = -5\n")
        assert err.value.line is None
        assert str(err.value).startswith("test_ebn0_start: ")

    def test_zero_target_errors(self):
        with pytest.raises(ConfigurationError, match="target_block_errors"):
            ExperimentConfig(target_block_errors=0).validate()

    # a config built in code skips the file parsers, so each value's type is
    # checked: these once failed deep in a run or ran at a truncated size
    @pytest.mark.parametrize("key, value, pattern", [
        ("decoder_hidden", 2.5, r"must be an integer, got 2\.5"),
        ("batch_size", 8.0, r"must be an integer, got 8\.0"),
        ("max_blocks", 1e3, r"must be an integer, got 1000\.0"),
        ("steps", True, r"must be an integer, got True"),
        ("rate", 0.5, r"must be a Fraction, got 0\.5"),
        ("seeds", (0.5,), r"entries must be integers"),
        ("seeds", (False,), r"entries must be integers"),
        ("learning_rate", True, r"must be a real number, got True"),
        ("rho", "0", r"must be a real number, got '0'"),
        ("train_ebn0_db", (7.0, "8"), r"entries must be real numbers"),
        # a list would leave the config unhashable and its snapshot unloadable
        ("seeds", [0, 1], r"must be a tuple, got \[0, 1\]"),
        ("train_ebn0_db", [7.0], r"must be a tuple, got \[7\.0\]"),
        # a Fraction is a Real, but its snapshot would load back rounded
        ("rho", Fraction(1, 3), r"must be a real number, got Fraction\(1, 3\)"),
        ("train_ebn0_db", (Fraction(1, 3),), r"entries must be real numbers"),
    ], ids=["width-2.5", "batch-8.0", "blocks-1e3", "steps-bool", "rate-0.5",
            "seed-0.5", "seed-bool", "lr-bool", "rho-str", "train-db-str",
            "seeds-list", "train-db-list", "rho-fraction",
            "train-db-fraction"])
    def test_wrong_type_rejected(self, key, value, pattern):
        with pytest.raises(ConfigurationError,
                           match=rf"^{key}: {pattern}$") as err:
            ExperimentConfig(**{key: value})
        assert err.value.key == key

    def test_numpy_numbers_accepted(self):
        config = ExperimentConfig(
            decoder_hidden=np.int32(8), max_blocks=np.int64(1000),
            channel_kind="correlated_awgn",
            seeds=(np.int64(3), 4), rho=np.float32(0.5), learning_rate=1,
            train_ebn0_db=(np.float64(7.0),))
        assert config.decoder_hidden == 8 and config.seeds == (3, 4)


# validation faults that a file can hold: (text, line, message pattern)
INVALID_FILES = [
    ("[seeds]\nseeds = 0, 0\n", 2, r"seeds: entries must not repeat"),
    # substream keys are taken modulo 2**64: each list names one seed twice
    ("[seeds]\nseeds = 0, 18446744073709551616\n", 2,
     r"seeds: entries must be in \[0, 2\*\*64\)"),
    ("# aliases\n[seeds]\nseeds = -1, 18446744073709551615\n", 3,
     r"seeds: entries must be in \[0, 2\*\*64\)"),
    ("# probe\n[channel]\nkind = awgn\nrho = 1.5\n", 4,
     r"rho: must be in \[0, 1\), got 1\.5"),
    # only the correlated kind has a rho; awgn would ignore it
    ("[channel]\nkind = awgn\nrho = 0.9\n", 3,
     r"rho: must be 0 unless kind is correlated_awgn, got 0\.9"),
    ("[sweep]\ntest_ebn0_start = 0\ntest_ebn0_stop = inf\n", 3,
     r"test_ebn0_stop: must be finite"),
    ("[sweep]\ntest_ebn0_start = -inf\n", 2,
     r"test_ebn0_start: must be finite"),
    ("[sweep]\ntest_ebn0_step = inf\n", 2, r"test_ebn0_step: must be finite"),
    # an infinite step size or epsilon would fail only at training start
    ("[training]\nlearning_rate = inf\n", 2,
     r"learning_rate: must be positive and finite"),
    ("[training]\nepsilon = inf\n", 2, r"epsilon: must be positive and finite"),
    # 1.2e301 points overflow numpy's arange; 1.2e7 would run for days
    ("[sweep]\ntest_ebn0_step = 1e-300\n", 2,
     r"test_ebn0_step: gives more than 10000 test points"),
    ("# fine grid\n[sweep]\ntest_ebn0_step = 1e-6\n", 3,
     r"test_ebn0_step: gives more than 10000 test points"),
    # substreams and labels name an Eb/N0 by 6 significant digits, so each
    # pair would train or test on one draw under one label
    ("[sweep]\ntrain_ebn0_db = 7, 7.0000001\n", 2,
     r"train_ebn0_db: entries 7\.0 and 7\.0000001 share the key '7'"),
    ("[sweep]\ntest_ebn0_start = 10\ntest_ebn0_stop = 10.000001\n"
     "test_ebn0_step = 5e-7\n", 4,
     r"test_ebn0_step: test points 10\.0 and 10\.0000005 share the key '10'"),
    # finite, but 10^(dB/10) overflows or the noise variance underflows to 0
    ("[sweep]\ntrain_ebn0_db = 0, 4000\n", 2,
     r"train_ebn0_db: Eb/N0 4000 dB gives no positive, finite noise variance "
     r"at rate 0\.571429"),
    ("# deep grid\n[sweep]\ntest_ebn0_start = -4000\n", 3,
     r"test_ebn0_start: Eb/N0 -4000 dB gives no positive, finite noise "
     r"variance at rate 0\.571429"),
    # arrays that cannot be allocated: each would fail only in training,
    # with NumPy's message
    ("[channel]\nrate = 30/31\n", 2,
     r"rate: gives 2\*\*30 messages, more than 2\*\*10"),
    ("[training]\ndecoder_hidden = 1000000000000000\n", 2,
     r"decoder_hidden: must be <= 4096"),
    ("# big batch\n[training]\nbatch_size = 1000000000000000\n", 3,
     r"batch_size: must be <= 65536"),
]
INVALID_IDS = ["repeated-seeds", "seed-2**64", "negative-seed",
               "rho-out-of-range", "rho-on-awgn", "stop-inf", "start-inf",
               "step-inf", "learning-rate-inf", "epsilon-inf", "step-1e-300",
               "step-1e-6", "train-key-clash", "grid-key-clash",
               "train-db-4000", "grid-start-minus-4000", "rate-30-31",
               "decoder-hidden-1e15", "batch-size-1e15"]


class TestValidationNamesLine:
    @pytest.mark.parametrize("text, line, pattern", INVALID_FILES,
                             ids=INVALID_IDS)
    def test_loads_config_names_line(self, text, line, pattern):
        with pytest.raises(ConfigFileError, match=rf"^line {line}: {pattern}$"):
            loads_config(text)

    @pytest.mark.parametrize("text, line, pattern", INVALID_FILES,
                             ids=INVALID_IDS)
    def test_load_config_names_file_and_line(self, tmp_path, text, line,
                                             pattern):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigFileError) as err:
            load_config(path)
        assert err.value.line == line
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: line {line}: ")

    def test_parse_fault_names_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[training]\nsteps = soon\n")
        with pytest.raises(ConfigFileError, match=r"bad\.cfg: line 2: .*steps"):
            load_config(path)


class TestParsing:
    def test_inline_comments_stripped(self):
        config = loads_config("[training]\nsteps = 42  # short run\n")
        assert config.steps == 42

    def test_rate_fraction_form(self):
        config = loads_config("[channel]\nrate = 1/2\n")
        assert config.rate == Fraction(1, 2)
        assert config.block_bits == 1
        assert config.channel_uses == 2

    def test_rate_that_would_reduce_rejected(self):
        # Fraction reduces 4/8 and 0.5 to 1/2, which would run k=1, n=2
        for text in ("4/8", "0.5"):
            with pytest.raises(ConfigFileError,
                               match=r"line 2.*rate.*k=1, n=2"):
                loads_config(f"[channel]\nrate = {text}\n")

    def test_float_lists(self):
        config = loads_config("[sweep]\ntrain_ebn0_db = -4, 0.0, 8\n")
        assert config.train_ebn0_db == (-4.0, 0.0, 8.0)

    def test_seed_list(self):
        config = loads_config("[seeds]\nseeds = 5, 6\n")
        assert config.seeds == (5, 6)


class TestDerived:
    def test_message_count(self):
        assert ExperimentConfig().message_count == 16
        assert ExperimentConfig(rate=Fraction(1, 2)).message_count == 2

    def test_grid_never_overshoots_stop(self):
        config = ExperimentConfig(test_ebn0_step=0.7)
        grid = config.test_grid()
        assert grid[-1] <= config.test_ebn0_stop + 1e-12
        config = ExperimentConfig(test_ebn0_step=6.5)
        assert config.test_grid()[-1] <= 8.0

    def test_single_point_grid(self):
        config = ExperimentConfig(test_ebn0_start=3.0, test_ebn0_stop=3.0)
        assert np.array_equal(config.test_grid(), [3.0])

    def test_channel_spec_carries_settings(self):
        config = ExperimentConfig(channel_kind="correlated_awgn", rho=0.5)
        spec = config.channel_spec(2.5)
        assert spec.kind == "correlated_awgn"
        assert spec.rho == 0.5
        assert spec.ebn0_db == 2.5
        assert spec.rate == pytest.approx(4 / 7)
