"""Tests for the HyperSpace programming model (Figure 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tune import HyperSpace, section71_space
from repro.core.tune.spaces import demo_space
from repro.exceptions import HyperSpaceError


def simple_space() -> HyperSpace:
    space = HyperSpace()
    space.add_range_knob("lr", "float", 0.001, 1.0, log_scale=True)
    space.add_range_knob("layers", "int", 2, 10)
    space.add_categorical_knob("kernel", "str", ["linear", "rbf", "poly"])
    return space


class TestDefinition:
    def test_duplicate_name_rejected(self):
        space = HyperSpace()
        space.add_range_knob("x", "float", 0, 1)
        with pytest.raises(HyperSpaceError, match="duplicate"):
            space.add_range_knob("x", "float", 0, 1)

    def test_bad_domain_rejected(self):
        with pytest.raises(HyperSpaceError, match="max"):
            HyperSpace().add_range_knob("x", "float", 1.0, 1.0)

    def test_log_scale_needs_positive_min(self):
        with pytest.raises(HyperSpaceError, match="log_scale"):
            HyperSpace().add_range_knob("x", "float", 0.0, 1.0, log_scale=True)

    def test_empty_categorical_rejected(self):
        with pytest.raises(HyperSpaceError, match="empty"):
            HyperSpace().add_categorical_knob("x", "str", [])

    def test_bad_dtype_rejected(self):
        with pytest.raises(HyperSpaceError, match="dtype"):
            HyperSpace().add_range_knob("x", "str", 0, 1)

    def test_unknown_dependency_rejected(self):
        space = HyperSpace()
        with pytest.raises(HyperSpaceError, match="unknown knob"):
            space.add_range_knob("x", "float", 0, 1, depends=["ghost"])

    def test_dependency_cycle_rejected(self):
        space = HyperSpace()
        space.add_range_knob("a", "float", 0, 1)
        space.add_range_knob("b", "float", 0, 1, depends=["a"])
        # introduce a cycle by hand (the API cannot create one forward)
        object.__setattr__(space.knobs["a"], "depends", ("b",))
        with pytest.raises(HyperSpaceError, match="cycle"):
            space.sample_order()


class TestSampling:
    def test_sample_covers_all_knobs(self, rng):
        space = simple_space()
        trial = space.sample(rng)
        assert set(trial) == {"lr", "layers", "kernel"}

    def test_values_in_domain(self, rng):
        space = simple_space()
        for _ in range(100):
            trial = space.sample(rng)
            assert 0.001 <= trial["lr"] < 1.0
            assert 2 <= trial["layers"] < 10
            assert trial["kernel"] in ("linear", "rbf", "poly")
            assert isinstance(trial["layers"], int)

    def test_depends_ordering(self, rng):
        order_seen = []

        def post_hook(values, value):
            order_seen.append(sorted(values))
            return value

        space = HyperSpace()
        space.add_range_knob("lr", "float", 0.01, 1.0)
        space.add_range_knob("decay", "float", 0.5, 1.0, depends=["lr"], post_hook=post_hook)
        space.sample(rng)
        assert order_seen == [["lr"]]  # lr was drawn before decay

    def test_post_hook_adjusts_value(self, rng):
        """The paper's example: large lr forces faster decay."""
        space = demo_space()
        trials = [space.sample(rng) for _ in range(200)]
        for trial in trials:
            if trial["lr"] > 0.1:
                assert trial["lr_decay"] >= 0.9  # doubled but capped

    def test_pre_hook_can_replace_knob(self, rng):
        from repro.core.tune.hyperspace import RangeKnob

        def pre_hook(values, knob):
            return RangeKnob(name=knob.name, dtype="float", min=5.0, max=6.0)

        space = HyperSpace()
        space.add_range_knob("x", "float", 0.0, 1.0, pre_hook=pre_hook)
        assert 5.0 <= space.sample(rng)["x"] < 6.0


class TestEncoding:
    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_encode_decode_roundtrip(self, seed):
        space = section71_space()
        trial = space.sample(np.random.default_rng(seed))
        decoded = space.decode(space.encode(trial))
        for name in trial:
            assert decoded[name] == pytest.approx(trial[name], rel=1e-9)

    def test_encode_in_unit_cube(self, rng):
        space = section71_space()
        for _ in range(50):
            point = space.encode(space.sample(rng))
            assert np.all(point >= 0.0) and np.all(point <= 1.0)

    def test_decode_wrong_dim_rejected(self):
        with pytest.raises(HyperSpaceError, match="dims"):
            section71_space().decode(np.zeros(2))

    def test_categorical_encode_decode(self):
        space = simple_space()
        for kernel in ("linear", "rbf", "poly"):
            trial = {"lr": 0.01, "layers": 5, "kernel": kernel}
            assert space.decode(space.encode(trial))["kernel"] == kernel

    def test_categorical_unknown_value_rejected(self):
        space = simple_space()
        with pytest.raises(HyperSpaceError):
            space.encode({"lr": 0.01, "layers": 5, "kernel": "ghost"})


class TestGridAndValidate:
    def test_grid_size(self):
        space = simple_space()
        grid = space.grid(resolution=2)
        # lr: 2, layers: 2 (deduped ints), kernel: 3
        assert len(grid) == 2 * 2 * 3

    def test_grid_points_valid(self):
        space = simple_space()
        for trial in space.grid(2):
            space.validate(trial)

    def test_validate_missing(self):
        space = simple_space()
        with pytest.raises(HyperSpaceError, match="missing"):
            space.validate({"lr": 0.1})

    def test_validate_unknown(self):
        space = simple_space()
        with pytest.raises(HyperSpaceError, match="unknown"):
            space.validate({"lr": 0.1, "layers": 3, "kernel": "rbf", "ghost": 1})

    def test_section71_space_has_five_knobs(self):
        assert len(section71_space().knobs) == 5
