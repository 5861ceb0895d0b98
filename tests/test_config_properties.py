"""Property test: any synth config either trains or is rejected with exit 2."""

from hypothesis import given, settings
from hypothesis import strategies as st

from discrimnet.cli import main
from test_config_cli import synth_config, write_config


WEIGHTS = st.sampled_from([0.0, 0.001, 0.01])
# Each makes the config invalid, or its input too small for the architecture.
BAD_OVERRIDES = [
    {"lr_drop_period": 0}, {"lr_drop_period": -1}, {"lr_drop_factor": 0.0},
    {"lr_drop_factor": -1.0}, {"synth_per_class": 0}, {"synth_classes": 1}, {"batch_size": 0},
    {"lambda_discriminant": -0.01}, {"lambda_center": 0.01, "lambda_adaptive_center": 0.01},
    {"synth_size": 6}, {"synth_size": 0}, {"synth_size": -4},
    {"synth_size": 8, "arch": "comparison"},
    {"momentum": -0.5}, {"momentum": 1.0}, {"weight_decay": -0.01},
]


@st.composite
def synth_overrides(draw):
    """A trainable synth config, sometimes broken by one or two bad overrides."""
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
        "lr_drop_factor": draw(st.sampled_from([10.0, 0.5, 1.0])),
        "lambda_discriminant": draw(WEIGHTS),
        "lambda_adaptive_discriminant": draw(WEIGHTS),
        "lambda_center": 0.0,
        "lambda_adaptive_center": 0.0,
        "augment": draw(st.booleans()),
    }
    if center:
        overrides[center] = draw(WEIGHTS)
    for bad in draw(st.lists(st.sampled_from(BAD_OVERRIDES), max_size=2)):
        overrides.update(bad)
    return overrides


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(overrides=synth_overrides())
def test_cli_train_either_trains_or_rejects_the_config(tmp_path_factory, overrides):
    tmp_path = tmp_path_factory.mktemp("prop")
    cfg_path = write_config(synth_config(tmp_path, **overrides), tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet"]) in (0, 2)
