"""Model cards for the paper's ConvNet zoo (Figure 3).

Top-1 ImageNet accuracy and per-iteration inference time (batch 50)
are transcribed from Figure 3 of the paper; memory footprints are the
slim-zoo checkpoint sizes scaled to runtime footprints. The inference
latency of model ``m`` at batch size ``b`` is modelled as the affine

    c(m, b) = overhead_s + per_image_s * b

which matches the two operating points the paper quotes for
inception_v3 (c(16)=0.07 s, c(64)=0.235 s) and the aggregate
throughputs it quotes for the three-model ensemble (572 req/s maximum,
128 req/s minimum).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ModelNotFoundError

__all__ = ["ModelProfile", "PROFILES", "get_profile", "list_profiles"]


@dataclass(frozen=True)
class ModelProfile:
    """Static performance card for one pretrained model."""

    name: str
    family: str
    top1_accuracy: float
    overhead_s: float
    per_image_s: float
    memory_mb: float

    def inference_time(self, batch_size: int) -> float:
        """``c(m, b)``: seconds to run one batch of ``batch_size``."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be > 0, got {batch_size}")
        return self.overhead_s + self.per_image_s * batch_size

    def throughput(self, batch_size: int) -> float:
        """Images per second at ``batch_size``."""
        return batch_size / self.inference_time(batch_size)

    @property
    def iteration_time_b50(self) -> float:
        """The batch-50 iteration time plotted in Figure 3."""
        return self.inference_time(50)


def _profile(name: str, family: str, acc: float, time_b50: float,
             memory_mb: float) -> ModelProfile:
    """Build a profile from the Figure 3 batch-50 time.

    A fixed 8% of the batch-50 time is attributed to per-batch overhead
    (kernel launch, memcpy), the rest scales per image.
    """
    overhead = 0.08 * time_b50
    per_image = (time_b50 - overhead) / 50.0
    return ModelProfile(name, family, acc, overhead, per_image, memory_mb)


# The three serving-experiment models are pinned to the paper's quoted
# operating points rather than derived from the batch-50 reading:
#   inception_v3:        c(16)=0.070, c(64)=0.235  -> 272 img/s max
#   inception_v4:        c(64)=0.400               -> 160 img/s max
#   inception_resnet_v2: c(16)=0.125, c(64)=0.460  -> 139 img/s max, 128 img/s min
# Sum of maxima = 571 ~ 572 req/s; slowest minimum = 16/0.125 = 128 req/s.
def _pinned(name: str, family: str, acc: float, c16: float, c64: float,
            memory_mb: float) -> ModelProfile:
    per_image = (c64 - c16) / 48.0
    overhead = c16 - 16.0 * per_image
    return ModelProfile(name, family, acc, overhead, per_image, memory_mb)


PROFILES: dict[str, ModelProfile] = {
    p.name: p
    for p in [
        _profile("inception_v1", "inception", 0.698, 0.080, 420),
        _profile("inception_v2", "inception", 0.739, 0.100, 480),
        _pinned("inception_v3", "inception", 0.780, 0.070, 0.235, 760),
        _pinned("inception_v4", "inception", 0.802, 0.118, 0.400, 1100),
        _pinned("inception_resnet_v2", "inception", 0.804, 0.125, 0.460, 1300),
        _profile("mobilenet_v1", "mobilenet", 0.709, 0.040, 140),
        _profile("nasnet_mobile", "nasnet", 0.740, 0.110, 300),
        _profile("nasnet_large", "nasnet", 0.827, 1.000, 2200),
        _profile("resnet_v1_50", "resnet", 0.752, 0.130, 640),
        _profile("resnet_v1_101", "resnet", 0.764, 0.220, 1000),
        _profile("resnet_v1_152", "resnet", 0.768, 0.310, 1400),
        _profile("resnet_v2_50", "resnet", 0.756, 0.140, 650),
        _profile("resnet_v2_101", "resnet", 0.770, 0.230, 1020),
        _profile("resnet_v2_152", "resnet", 0.778, 0.320, 1420),
        _profile("vgg_16", "vgg", 0.715, 0.380, 1700),
        _profile("vgg_19", "vgg", 0.711, 0.440, 1850),
    ]
}


def get_profile(name: str) -> ModelProfile:
    """Look up a model card by name."""
    if name not in PROFILES:
        raise ModelNotFoundError(name)
    return PROFILES[name]


def list_profiles(family: str | None = None) -> list[ModelProfile]:
    """All profiles (optionally filtered by family), accuracy-descending."""
    profiles = [
        p for p in PROFILES.values() if family is None or p.family == family
    ]
    return sorted(profiles, key=lambda p: -p.top1_accuracy)
