import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pstream.cli import main
from pstream.config import (
    MAX_POINTS,
    MAX_STEP_EVENTS,
    ExperimentConfig,
    SEED_ENV_VAR,
    config_from_dict,
    config_to_dict,
    load_config,
    seed_override,
)
from pstream.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOOD = {
    "source": {"mean_photon_override": 0.012, "dead_time": 22e-9},
    "optics": {
        "intrinsic_visibility": 0.882,
        "effective_coherence_length": 2e-6,
        "pzt": {"displacement_per_volt": 8e-8},
    },
    "detectors": [{"dark_rate": 27.0}, {"dark_rate": 30.0}],
    "ccm": {"overlap_threshold": 5e-9},
    "scan": {"n_points": 16, "seconds_per_point": 1.0, "seed": 99, "asymmetric_walkoff": True},
}


class TestConfigFromDict:
    def test_full_document(self):
        cfg = config_from_dict(GOOD)
        assert cfg.source.mean_photon_override == 0.012
        assert cfg.optics.pzt.displacement_per_volt == 8e-8
        assert cfg.detectors[0].dark_rate == 27.0
        assert cfg.detectors[1].dark_rate == 30.0
        assert cfg.scan.asymmetric_walkoff is True

    def test_empty_document_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg.scan.n_points == 316
        assert cfg.source.mean_photon() == 0.012

    def test_unknown_key_path_reported(self):
        bad = json.loads(json.dumps(GOOD))
        bad["optics"]["pzt"]["bogus"] = 1
        with pytest.raises(ConfigError, match=r"optics\.pzt\.bogus"):
            config_from_dict(bad)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="lasers"):
            config_from_dict({"lasers": {}})

    def test_single_detector_object_applied_to_both(self):
        cfg = config_from_dict({"detectors": {"dark_rate": 5.0}})
        assert cfg.detectors[0].dark_rate == cfg.detectors[1].dark_rate == 5.0

    def test_wrong_detector_count_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"detectors": [{"dark_rate": 5.0}]})

    def test_validation_propagates(self):
        with pytest.raises(ConfigError):
            config_from_dict({"source": {"mean_photon_override": 2.0}})

    def test_round_trip_echo(self):
        cfg = config_from_dict(GOOD)
        echo = config_to_dict(cfg)
        assert config_from_dict(echo) == cfg


class TestLoadConfig:
    def test_load_and_seed_precedence(self, tmp_path, monkeypatch):
        # loading keeps the file's seed whatever PSTREAM_SEED says, so a run
        # read back keeps the seed it recorded; only an explicit override wins
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GOOD))
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert load_config(path).scan.seed == 99
        assert seed_override(None) is None

        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        assert load_config(path).scan.seed == 99
        assert load_config(path, seed_override=seed_override(None)).scan.seed == 1234

        # an explicit flag wins over the environment
        assert seed_override(777) == 777
        assert load_config(path, seed_override=777).scan.seed == 777

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GOOD))
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert load_config(path).scan.seed == 99
        with pytest.raises(ConfigError, match="PSTREAM_SEED must be an integer"):
            seed_override(None)
        # a flag makes the environment irrelevant
        assert seed_override(5) == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "raw",
        [b"1" * 5000, b"[" * 100_000, b"\xff\xfe{"],
        ids=["int_over_4300_digits", "nesting_too_deep", "not_utf8"],
    )
    def test_unparsable_file(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_committed_configs_load_and_echo(self, path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = load_config(path)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_committed_configs_derive_the_counter_step(self, path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = load_config(path)
        # 22 ns slots, 0.1 s steps, 1 s per point
        assert (cfg.slot_ps, cfg.slots_per_step, cfg.steps_per_point) == (22_000, 4_545_454, 10)


# Inputs that used to end in a traceback, run with a config other than the one
# written, or fail only once the scan had started; each must now stop in
# load_config.  The base scan is tiny, so a probe that loaded anyway would
# finish quickly and fail the test rather than hang it.
PROBE_BASE = {
    "source": {"mean_photon_override": 0.012},
    "scan": {"n_points": 2, "seconds_per_point": 0.2, "seed": 1},
}
PROBES = {
    "n_points_float": {"scan": {"n_points": 3.5}},
    # np.linspace refused the ramp with "Maximum allowed size exceeded": a
    # traceback and exit 1
    "n_points_above_cap": {"scan": {"n_points": 10**20}},
    "dead_time_nan": {"detectors": [{"dead_time": math.nan}, {}]},
    "seed_string": {"scan": {"seed": "abc"}},
    "dead_time_overflow": {"detectors": {"dead_time": 1e308}},
    "walkoff_string": {"scan": {"asymmetric_walkoff": "no"}},
    "resolving_time_sub_ps": {"detectors": [{"resolving_time": 1e-15}, {}]},
    # the slot width, which detect_bin used to refuse only at scan point 0
    "slot_width_sub_ps": {"source": {"mean_photon_override": 0.012, "dead_time": 1e-13}},
    # 0.3 s steps do not make up a 0.5 s dwell (a 0.6 s dwell loads)
    "step_not_tiling_dwell": {"ccm": {"step": 0.3}, "scan": {"seconds_per_point": 0.5}},
    # 900 ps past ten 0.1 s steps; a 1e-9 s tolerance used to load it and
    # run 10 steps
    "dwell_not_whole_steps_in_ps": {"scan": {"seconds_per_point": 1.0000000009}},
    # the accumulation bin changed no output byte and is gone, like pzt.scan_duration
    "accumulation_bin_removed": {"ccm": {"accumulation_bin": 1.0}},
    # 30 ns pulses 22 ns apart overlap; this used to exit 3 at scan point 0
    "pulse_longer_than_dead_time": {"detectors": {"pulse_duration": 30e-9}},
    # timestamps are quantized after the dead-time filter, so a grid coarser
    # than the dead time could round two kept events onto one time
    "resolving_time_over_dead_time": {"detectors": [{}, {"resolving_time": 30e-9}]},
    # kept events can be quantized one 350 ps step closer than the 22 ns dead
    # time, so a 21.9 ns pulse could overlap its successor; this used to load
    "pulse_plus_grid_step_over_dead_time": {"detectors": {"pulse_duration": 21.9e-9}},
    # the envelope divides by the width squared; scan point 0 used to refuse 0/0
    "coherence_length_square_underflows": {"optics": {"laser_coherence_length": 1e-300}},
    # a 10 ns step holds no 22 ns slot; scan point 0 used to refuse it
    "step_shorter_than_slot": {"ccm": {"step": 1e-8}},
    # 1 ps slots: 1e11 per step, 1.2e9 of them occupied.  These two loaded, and
    # their first step would have asked numpy for arrays of 1e9 elements or more
    "step_events_slots": {"source": {"mean_photon_override": 0.012, "dead_time": 1e-12}},
    "step_events_dark_rate": {"detectors": [{"dark_rate": 1e12}, {}]},
    # round() of an infinite count of resolution steps raised OverflowError:
    # a traceback and exit 1
    "pzt_voltage_max_overflow": {"optics": {"pzt": {"voltage_max": 1e308}}},
    "pzt_resolution_subnormal": {"optics": {"pzt": {"voltage_resolution": 1e-320}}},
    # the range overflowed inside np.linspace, which warned
    "pzt_range_overflow": {"optics": {"pzt": {"voltage_min": -1.7e308, "voltage_max": 1.7e308}}},
    # a finite range whose center 0.5*(min + max) overflows
    "pzt_center_overflow": {
        "optics": {
            "pzt": {"voltage_min": 1e308, "voltage_max": 1.0000001e308, "voltage_resolution": 1.0}
        }
    },
    # the phase 2*pi*x/wavelength overflowed; scan point 0 used to refuse these
    "pzt_displacement_per_volt_overflow": {"optics": {"pzt": {"displacement_per_volt": 1e300}}},
    "wavelength_subnormal": {"source": {"mean_photon_override": 0.012, "wavelength": 1e-320}},
}
# what the message must name, beyond "configuration error"
PROBE_MESSAGES = {
    "n_points_above_cap": "scan: n_points must lie in [2, 1000000], got 100000000000000000000",
    "dwell_not_whole_steps_in_ps": (
        "seconds_per_point must be a whole number of ccm steps: 1000000000900 ps "
        "is not a multiple of 100000000000 ps"
    ),
    "accumulation_bin_removed": "unknown key at ccm.accumulation_bin",
    "coherence_length_square_underflows": "laser_coherence_length must be > 0 with a square",
    "step_shorter_than_slot": "ccm.step 1e-08 s is shorter than one 2.2e-08 s slot",
    "resolving_time_over_dead_time": "resolving_time 3e-08 s exceeds dead_time 2.2e-08 s",
    "pulse_plus_grid_step_over_dead_time": (
        "pulse_duration 2.19e-08 s + resolving_time 3.5e-10 s exceeds dead_time 2.2e-08 s"
    ),
    "step_events_slots": (
        "a ccm step is expected to hold 1.19e+09 occupied slots and 5.4 dark counts, "
        "more than 1e+07 events"
    ),
    "step_events_dark_rate": (
        "a ccm step is expected to hold 5.42e+04 occupied slots and 1e+11 dark counts, "
        "more than 1e+07 events"
    ),
    "pzt_voltage_max_overflow": (
        "optics.pzt: voltage range 1e+308 V is not a finite number of 0.0015 V resolution steps"
    ),
    "pzt_resolution_subnormal": (
        "optics.pzt: voltage range 100.0 V is not a finite number of 1e-320 V resolution steps"
    ),
    "pzt_range_overflow": (
        "optics.pzt: voltage range inf V is not a finite number of 0.0015 V resolution steps"
    ),
    "pzt_center_overflow": "<root>: voltage 1e+308 lies -inf V from the range center",
    "pzt_displacement_per_volt_overflow": (
        "<root>: phase 2*pi*x/wavelength is not finite at wavelength 6.328e-07 m"
    ),
    "wavelength_subnormal": "<root>: phase 2*pi*x/wavelength is not finite at wavelength 1e-320 m",
}


def probe_document(probe: dict) -> dict:
    doc = json.loads(json.dumps(PROBE_BASE))
    for section, value in probe.items():
        if isinstance(value, dict) and section in doc:
            doc[section] = {**doc[section], **value}
        else:
            doc[section] = value
    return doc


@pytest.mark.parametrize("name", PROBES)
@pytest.mark.usefixtures("child_pythonpath")
def test_bad_value_stops_at_load(name, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(probe_document(PROBES[name])))
    with pytest.raises(ConfigError):
        load_config(path)

    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "pstream.cli", "simulate", "--config", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert PROBE_MESSAGES.get(name, "") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1  # no warning either
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize(("dark_rate", "loads"), [(9.9e7, True), (1e8, False)])
def test_step_event_cap(dark_rate, loads):
    # 5.4e4 occupied slots plus 9.9e6 or 1e7 dark counts in one 0.1 s step;
    # only loaded, never run
    doc = probe_document({"detectors": [{"dark_rate": dark_rate}, {}]})
    if loads:
        assert config_from_dict(doc).detectors[0].dark_rate == dark_rate
    else:
        message = f"more than {MAX_STEP_EVENTS:.0e} events"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(doc)


@pytest.mark.parametrize(("n_points", "loads"), [(MAX_POINTS, True), (MAX_POINTS + 1, False)])
def test_point_cap(n_points, loads):
    # only loaded, never run
    doc = probe_document({"scan": {"n_points": n_points}})
    if loads:
        assert config_from_dict(doc).scan.n_points == MAX_POINTS
    else:
        with pytest.raises(ConfigError, match=re.escape(f"got {MAX_POINTS + 1}")):
            config_from_dict(doc)


# derive_seed masks to 64 bits, so -1 and 2**64 used to alias 2**64 - 1 and 0
SEED_ROUTES = ("scan.seed", SEED_ENV_VAR, "--seed")


def seed_route(route, seed, tmp_path, monkeypatch):
    """A config file, and the --seed value or None, that give ``seed`` through ``route``."""
    doc = probe_document({})
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if route == "scan.seed":
        doc["scan"]["seed"] = seed
    elif route == SEED_ENV_VAR:
        monkeypatch.setenv(SEED_ENV_VAR, str(seed))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path, seed if route == "--seed" else None


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("route", SEED_ROUTES)
def test_seed_outside_64_bits_exits_2(route, seed, tmp_path, monkeypatch, capsys):
    path, flag = seed_route(route, seed, tmp_path, monkeypatch)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--out", str(out)]
    if flag is not None:
        argv += ["--seed", str(flag)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"seed must lie in [0, 2**64), got {seed}" in err
    assert "Traceback" not in err
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("route", SEED_ROUTES)
def test_seed_range_ends_accepted(route, seed, tmp_path, monkeypatch):
    path, flag = seed_route(route, seed, tmp_path, monkeypatch)
    assert load_config(path, seed_override=seed_override(flag)).scan.seed == seed


# ---------------------------------------------------------------- fuzzing

WILD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63), 10**400, -(10**400)]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308, 5e-324, -0.0]),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def sometimes(common, rare, one_in: int):
    """``rare`` about once in ``one_in`` draws, else ``common``."""
    return st.sampled_from(range(one_in)).flatmap(lambda i: rare if i == 0 else common)


def near(default):
    """Mostly the default value, sometimes one scaled, negated or retyped."""
    if isinstance(default, bool):
        off = st.sampled_from([not default, None, 0, 1])
    elif isinstance(default, int):
        off = st.sampled_from([2, 0, -1, float(default), 2**63, 10**400])
    else:
        off = st.sampled_from([1e308, 1e-308, 0.0, -default, default * 1e-3, default * 1e3])
    return sometimes(st.just(default), off, 6)


def document(template):
    """A JSON document over the template's key tree: keys dropped at random,
    now and then a wild value in place of a leaf or an object, and now and
    then an unknown key."""
    if isinstance(template, dict):
        plain = st.fixed_dictionaries({}, optional={k: document(v) for k, v in template.items()})
        with_unknown = st.builds(lambda d, v: {**d, "bogus": v}, plain, WILD_VALUES)
        return sometimes(plain, st.one_of(with_unknown, WILD_VALUES), 20)
    if isinstance(template, list):
        return st.one_of(st.tuples(*map(document, template)).map(list), document(template[0]))
    return sometimes(near(template), WILD_VALUES, 20)


TEMPLATE = json.loads(json.dumps(config_to_dict(ExperimentConfig())))
# a template source that loads whether or not the override key is drawn
TEMPLATE["source"].update(mean_photon_override=0.012, od_total=8.9)


@settings(max_examples=400, deadline=None)
@given(document(TEMPLATE))
@example({"detectors": {"dead_time": 1e308}})
@example({"ccm": {"step": 1e-308}, "scan": {"seconds_per_point": 1e308}})
@example({"scan": {"seconds_per_point": 1e308}})
@example({"source": {"mean_photon_override": None, "input_power": 1e308, "wavelength": 1e308}})
def test_any_document_loads_or_raises_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert config_from_dict(config_to_dict(cfg)) == cfg


class TestExperimentConfig:
    def test_step_bounded_by_dwell(self):
        from pstream.coincidence import CcmConfig
        from pstream.config import ScanConfig

        with pytest.raises(ConfigError):
            ExperimentConfig(ccm=CcmConfig(step=0.5), scan=ScanConfig(seconds_per_point=0.2))

    @pytest.mark.parametrize("step,dwell", [(0.3, 0.6), (2.0, 4.0)])
    def test_step_need_only_tile_the_dwell(self, step, dwell):
        # neither tiles 1 s, which the removed accumulation bin used to demand
        from pstream.coincidence import CcmConfig
        from pstream.config import ScanConfig

        cfg = ExperimentConfig(ccm=CcmConfig(step=step), scan=ScanConfig(seconds_per_point=dwell))
        assert round(cfg.scan.seconds_per_point / cfg.ccm.step) == 2

    def test_with_seed(self):
        cfg = ExperimentConfig()
        assert cfg.with_seed(5).scan.seed == 5
        assert cfg.with_seed(5).source == cfg.source

    def test_replace_derives_the_counter_step_again(self):
        # perfbench builds its configs with dataclasses.replace and with_seed
        from pstream.coincidence import CcmConfig
        from pstream.source import SourceConfig

        cfg = ExperimentConfig()
        derived = (cfg.slot_ps, cfg.slots_per_step, cfg.steps_per_point)
        assert derived == (22_000, 4_545_454, 10)
        seeded = cfg.with_seed(5)
        assert (seeded.slot_ps, seeded.slots_per_step, seeded.steps_per_point) == derived
        cfg = dataclasses.replace(
            cfg,
            source=SourceConfig(mean_photon_override=0.012, dead_time=11e-9),
            ccm=CcmConfig(step=0.25),
            scan=dataclasses.replace(cfg.scan, seconds_per_point=0.5),
        )
        assert (cfg.slot_ps, cfg.slots_per_step, cfg.steps_per_point) == (11_000, 22_727_272, 2)
        cfg = cfg.with_seed(6)
        assert (cfg.slot_ps, cfg.slots_per_step, cfg.steps_per_point) == (11_000, 22_727_272, 2)
