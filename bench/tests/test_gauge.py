"""The pass clock's scaling arithmetic, on a fake clock and fake gauge."""

import pytest

import gauge
from gauge import GAUGES, PassClock


@pytest.fixture
def fake(monkeypatch):
    """A settable clock and a queue of gauge readings; a reading advances
    the clock by its own length, as a real gauge run does."""
    state = {"now": 0.0, "readings": []}

    def read(name):
        reading = state["readings"].pop(0)
        state["now"] += reading
        return reading

    monkeypatch.setattr(gauge.time, "perf_counter", lambda: state["now"])
    monkeypatch.setattr(gauge, "read", read)
    return state


def test_each_stretch_is_scaled_by_the_mean_of_its_end_readings(fake):
    nominal = GAUGES["interp"][1]
    fake["readings"] = [nominal, 2 * nominal, 2 * nominal]
    clock = PassClock("interp", every_s=0.25)
    clock.start()
    fake["now"] += 1.0
    clock.tick()  # reading 2 * nominal: the first stretch ran at 1 / 1.5
    fake["now"] += 3.0
    clock.stop()  # reading 2 * nominal: the second ran at half speed
    assert clock.wall_s == pytest.approx(4.0)
    assert clock.scaled_s == pytest.approx(1.0 / 1.5 + 3.0 / 2.0)
    assert clock.readings == [nominal, 2 * nominal, 2 * nominal]
    assert clock.median_reading() == pytest.approx(2 * nominal)


def test_tick_reads_the_gauge_only_once_every_s_has_passed(fake):
    nominal = GAUGES["stream"][1]
    fake["readings"] = [nominal] * 3
    clock = PassClock("stream", every_s=0.25)
    clock.start()
    fake["now"] += 0.1
    clock.tick()  # too soon: no reading
    fake["now"] += 0.2
    clock.tick()  # 0.3 s since the last reading
    fake["now"] += 0.1
    clock.stop()
    assert len(clock.readings) == 3
    assert clock.wall_s == pytest.approx(0.4)
    assert clock.scaled_s == pytest.approx(0.4)


def test_gauges_run():
    for name in GAUGES:
        assert gauge.read(name) > 0.0
