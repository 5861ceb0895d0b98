"""The benchmark's workloads, each a RunConfig built from the workload seed.

Every workload trains `mnist_small` on the synthetic `synth` dataset
(10 classes, batch 100), because the MNIST IDX files are not part of the
repository. The three differ in the modules they load: see NOTES.md for
why each exists and the layer shares it measured.
"""

import dataclasses
import math

from discrimnet.config import apply_preset

CLASSES = 10
BATCH = 100


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict
    image_size: int
    per_class: int
    epochs: int
    # Held-out cross-entropy must end below ln(10): the run really learned.
    must_beat_chance: bool = False

    def config(self, seed, out_dir):
        cfg = apply_preset(self.preset)
        fields = {
            "dataset": "synth",
            "synth_classes": CLASSES,
            "synth_size": self.image_size,
            "synth_per_class": self.per_class,
            "batch_size": BATCH,
            "epochs": self.epochs,
            "seed": seed,
            "out_dir": out_dir,
            **self.overrides,
        }
        for key, value in fields.items():
            setattr(cfg, key, value)
        return cfg.validate()

    @property
    def steps_per_run(self):
        # train.load_run_datasets trains on 80% of the data and holds out the rest.
        train_size = max(1, int(CLASSES * self.per_class * 0.8))
        return self.epochs * math.ceil(train_size / BATCH)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mnist28_f32_adaptive",
            preset="mnist-combined",
            overrides={"dtype": "float32"},
            image_size=28,
            per_class=100,
            epochs=1,
        ),
        Workload(
            name="tiny4_f64_streaming",
            preset="mnist-combined",
            # Classes 3 apart (the default is 6) and 10 epochs: training nears
            # convergence at about 0.67 held-out accuracy, where test_ce varies
            # least from seed to seed, well below chance.
            overrides={"dtype": "float64", "lambda_discriminant": 0.01, "synth_separation": 3.0},
            image_size=4,
            per_class=500,
            epochs=10,
            must_beat_chance=True,
        ),
        Workload(
            name="mnist28_f64_augment",
            preset="mnist-baseline",
            overrides={
                "dtype": "float64",
                "augment": True,
                "lambda_discriminant": 0.01,
                "lambda_center": 0.01,
                "beta": 1.0,
            },
            image_size=28,
            per_class=100,
            epochs=1,
        ),
    )
}
