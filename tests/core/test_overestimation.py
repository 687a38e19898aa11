"""Tests for the overestimation tracker."""

import pytest

from repro.core.overestimation import OverestimationTracker
from repro.errors import ConfigurationError


def test_default_ratio_is_one():
    tracker = OverestimationTracker()
    assert tracker.ratio("req") == 1.0
    assert tracker.estimate("req", 2.0) == 2.0


def test_observe_updates_ratio():
    tracker = OverestimationTracker(alpha=1.0)  # no smoothing
    tracker.observe("req", measured=0.8, bound=1.0)
    assert tracker.ratio("req") == pytest.approx(0.8)
    assert tracker.estimate("req", 2.0) == pytest.approx(1.6)


def test_ewma_smoothing():
    tracker = OverestimationTracker(alpha=0.5)
    tracker.observe("req", 1.0, 1.0)  # ratio 1.0
    tracker.observe("req", 0.5, 1.0)  # ratio .5 -> ewma .75
    assert tracker.ratio("req") == pytest.approx(0.75)


def test_classes_tracked_separately():
    tracker = OverestimationTracker()
    tracker.observe("a", 0.5, 1.0)
    assert tracker.ratio("b") == 1.0


def test_validation():
    with pytest.raises(ConfigurationError):
        OverestimationTracker(alpha=0)
    tracker = OverestimationTracker()
    with pytest.raises(ConfigurationError):
        tracker.observe("req", -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        tracker.observe("req", 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        tracker.estimate("req", 0.0)
