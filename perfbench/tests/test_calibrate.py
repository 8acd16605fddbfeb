"""Host-speed calibration of the timed metrics.

    python3 -m pytest perfbench/tests
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402


def test_scale_is_exact_at_nominal_speed_and_proportional_to_it():
    nominal = calibrate.NOMINAL_S
    assert calibrate.scale(4.0, [nominal] * 3) == pytest.approx(4.0)
    assert calibrate.scale(4.0, [2 * nominal] * 3) == pytest.approx(2.0)


def test_scale_takes_the_harmonic_mean_of_the_reference_times():
    nominal = calibrate.NOMINAL_S
    # half the time at full speed, half at a third of it: the mean rate is 2/3
    assert calibrate.scale(3.0, [nominal, 3 * nominal]) == pytest.approx(2.0)


def test_scale_setup_takes_the_median_ratio_of_back_to_back_pairs():
    nominal = calibrate.NOMINAL_STARTUP_S
    # the host slows down between pairs; each pair's ratio is 1.5 but one
    pairs = [(0.09, 0.06), (0.15, 0.10), (0.12, 0.08), (0.30, 0.06)]
    assert calibrate.scale_setup(pairs) == pytest.approx(1.5 * nominal)


def test_meter_samples_while_active_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = calibrate.Meter()
    with meter:
        end = time.perf_counter() + 5 * calibrate.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(meter.samples) >= 2
    assert 0 < meter.spent_s >= sum(meter.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
