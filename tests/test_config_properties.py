"""Property tests: a valid synth config trains, and each bad override is
rejected with exit 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimnet.cli import main
from test_config_cli import synth_config, write_config


WEIGHTS = st.sampled_from([0.0, 0.001, 0.01])
# Each makes any config invalid, or its input too small for the architecture.
BAD_OVERRIDES = [
    {"lr_drop_period": 0}, {"lr_drop_period": -1},
    {"synth_per_class": 0}, {"synth_classes": 1}, {"batch_size": 0},
    {"lambda_discriminant": -0.01}, {"lambda_center": 0.01, "lambda_adaptive_center": 0.01},
    {"synth_size": 6}, {"synth_size": 0}, {"synth_size": -4},
    {"synth_size": 8, "arch": "comparison"},
    {"weight_decay": -0.01},
]


@st.composite
def synth_overrides(draw):
    """Overrides that make a trainable synth config."""
    classes = draw(st.integers(2, 5))
    per_class = draw(st.integers(1, 12))
    train_rows = max(1, int(classes * per_class * 0.8))
    center = draw(st.sampled_from(["lambda_center", "lambda_adaptive_center", None]))
    overrides = {
        "dtype": draw(st.sampled_from(["float32", "float64"])),
        "synth_size": draw(st.sampled_from([4, 8])),
        "synth_classes": classes,
        "synth_per_class": per_class,
        # 1, and train_rows - 1, which leaves a trailing batch of one
        "batch_size": draw(st.sampled_from([1, max(1, train_rows - 1)])
                           | st.integers(1, train_rows + 2)),
        "epochs": draw(st.integers(1, 2)),
        "hidden_width": draw(st.integers(1, 3)),
        "lr_drop_period": draw(st.integers(1, 3)),
        "lambda_discriminant": draw(WEIGHTS),
        "lambda_adaptive_discriminant": draw(WEIGHTS),
        "lambda_center": 0.0,
        "lambda_adaptive_center": 0.0,
        "augment": draw(st.booleans()),
    }
    if center:
        overrides[center] = draw(WEIGHTS)
    return overrides


def train_exit_code(tmp_path_factory, overrides):
    tmp_path = tmp_path_factory.mktemp("prop")
    cfg_path = write_config(synth_config(tmp_path, **overrides), tmp_path / "cfg.txt")
    return main(["train", "--config", cfg_path, "--quiet"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(overrides=synth_overrides())
def test_cli_train_trains_every_valid_config(tmp_path_factory, overrides):
    assert train_exit_code(tmp_path_factory, overrides) == 0


# Each bad override is drawn on its own, so one that validate rejects
# cannot hide another that would crash training.
@pytest.mark.parametrize("bad", BAD_OVERRIDES, ids=repr)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(overrides=synth_overrides())
def test_cli_train_rejects_each_bad_override(tmp_path_factory, bad, overrides):
    assert train_exit_code(tmp_path_factory, {**overrides, **bad}) == 2
