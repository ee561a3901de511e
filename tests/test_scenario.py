"""Scenario generation: determinism, bounds, coherence, file round-trip."""

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_cli import MALFORMED

from foodmatch import scenario as scenario_module
from foodmatch.model import DonationRequest, RequirementRequest, VolunteerRequest
from foodmatch.scenario import (
    Scenario,
    ScenarioConfig,
    generate_scenario,
    load_scenario,
    read_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_json,
    with_volunteer_count,
)


def split_roles(scenario):
    donors, receivers, vols = [], [], []
    for timed in scenario.requests:
        r = timed.request
        (donors if isinstance(r, DonationRequest)
         else receivers if isinstance(r, RequirementRequest)
         else vols).append(timed)
    return donors, receivers, vols


class TestGeneration:
    def test_deterministic_per_seed(self):
        config = ScenarioConfig(n_requests=100, seed=42)
        assert scenario_to_json(generate_scenario(config)) == scenario_to_json(generate_scenario(config))

    def test_request_count(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=200, seed=1))
        assert len(scenario.requests) == 200

    def test_mix_counts(self):
        config = ScenarioConfig(n_requests=200, seed=1)
        donors, receivers, vols = split_roles(generate_scenario(config))
        assert (len(donors), len(receivers), len(vols)) == config.counts()

    def test_locations_inside_city(self):
        config = ScenarioConfig(n_requests=150, seed=5)
        for timed in generate_scenario(config).requests:
            r = timed.request
            points = (
                [r.route_start, r.route_end] if isinstance(r, VolunteerRequest) else [r.location]
            )
            for p in points:
                assert 0 <= p.x <= config.city_width
                assert 0 <= p.y <= config.city_height

    def test_windows_inside_working_hours(self):
        config = ScenarioConfig(n_requests=150, seed=5)
        for timed in generate_scenario(config).requests:
            w = timed.request.window
            assert config.working_start <= w.start <= w.end <= config.working_end

    def test_payload_bounds(self):
        config = ScenarioConfig(n_requests=200, seed=7)
        _, _, vols = split_roles(generate_scenario(config))
        assert vols
        for timed in vols:
            assert config.min_payload <= timed.request.payload_capacity <= 100_000

    def test_preferences_reference_generated_agents(self):
        config = ScenarioConfig(n_requests=120, seed=9)
        scenario = generate_scenario(config)
        donors, receivers, _ = split_roles(scenario)
        donor_ids = {t.request.id.agent_id for t in donors}
        receiver_ids = {t.request.id.agent_id for t in receivers}
        for timed in donors:
            assert set(timed.request.preferred_receivers) <= receiver_ids
        for timed in receivers:
            assert set(timed.request.preferred_donors) <= donor_ids

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate_scenario(ScenarioConfig(working_start=500, working_end=500))
        with pytest.raises(ValueError, match="sum to 1"):
            generate_scenario(ScenarioConfig(donor_fraction=0.5, receiver_fraction=0.5, volunteer_fraction=0.5))

    def test_volunteer_prefix_stability(self):
        base = ScenarioConfig(n_requests=100, seed=3)
        small = generate_scenario(with_volunteer_count(base, 10))
        large = generate_scenario(with_volunteer_count(base, 40))

        def volunteer_records(s):
            return [
                (t.request.id.agent_id, t.request.route_start, t.request.window)
                for t in s.requests
                if isinstance(t.request, VolunteerRequest)
            ]

        small_v, large_v = volunteer_records(small), volunteer_records(large)
        assert small_v == large_v[: len(small_v)]

        def food_records(s):
            return [
                (t.request.id.agent_id, t.request.location, t.request.amount)
                for t in s.requests
                if not isinstance(t.request, VolunteerRequest)
            ]

        assert food_records(small) == food_records(large)

    def test_hub_geography_separation(self):
        config = ScenarioConfig(
            n_requests=150, seed=2, donor_hubs=1, receiver_hubs=1,
            hub_sigma=0.5, hub_separation=(11.0, 16.0),
        )
        donors, receivers, _ = split_roles(generate_scenario(config))
        dx = sum(t.request.location.x for t in donors) / len(donors)
        dy = sum(t.request.location.y for t in donors) / len(donors)
        rx = sum(t.request.location.x for t in receivers) / len(receivers)
        ry = sum(t.request.location.y for t in receivers) / len(receivers)
        separation = ((dx - rx) ** 2 + (dy - ry) ** 2) ** 0.5
        assert 9.0 <= separation <= 18.0


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        scenario = generate_scenario(ScenarioConfig(n_requests=80, seed=13))
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.config == scenario.config
        assert scenario_to_json(loaded) == scenario_to_json(scenario)

    def test_unknown_request_type_rejected(self):
        with pytest.raises(ValueError, match="unknown request type"):
            scenario_from_dict(json.loads(
                '{"config": {}, "requests": [{"type": "nonsense", "agent_id": 1, "submit_at": 0, "window": [0, 1]}]}'
            ))

    def test_indented_layout_loads_to_the_same_scenario(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=120, seed=6))
        text = scenario_to_json(scenario)
        indented = json.dumps(json.loads(text), indent=1, sort_keys=True)
        assert "\n" not in text and "\n" in indented
        assert scenario_from_dict(json.loads(indented)) == scenario_from_dict(json.loads(text)) == scenario

    def test_single_line_file_is_smaller_than_indented(self, tmp_path):
        scenario = generate_scenario(ScenarioConfig(n_requests=5000, seed=4))
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        indented = json.dumps(json.loads(path.read_text()), indent=1, sort_keys=True)
        assert path.stat().st_size < len(indented.encode())

    def test_horizon(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=50, seed=1))
        assert scenario.horizon() == max(t.request.window.end for t in scenario.requests)


def _layouts() -> dict[str, str]:
    """Scenario and instance files in every layout the reader accepts, and
    broken ones it must reject."""
    text = scenario_to_json(generate_scenario(ScenarioConfig(n_requests=40, seed=6)))
    payload = json.loads(text)
    config, records = payload["config"], payload["requests"]
    dump = json.dumps
    # record 5 lacks its window, and a working day ending before record 3's
    # window does puts an earlier record past it
    broken = records[:5] + [{k: v for k, v in records[5].items() if k != "window"}] + records[6:]
    short_day = dict(config, working_end=records[3]["window"][1] - 1)
    layouts = {
        "one_line": text,
        "indented": dump(payload, indent=2),
        "tabs_and_crlf": dump(payload, indent="\t").replace("\n", "\r\n"),
        "spaced_separators": dump(payload, separators=(" ,  ", " :\n")),
        "config_after_requests": '{"requests": %s, "config": %s}' % (dump(records), dump(config)),
        "short_day_after_requests": '{"requests": %s, "config": %s}' % (dump(broken), dump(short_day)),
        "missing_window_config_after": '{"requests": %s, "config": %s}' % (dump(broken), dump(config)),
        "config_error_after_bad_record": '{"requests": %s, "config": {"bogus": 1}}' % dump(broken),
        "duplicate_keys_last_wins": '{"requests": %s, "config": %s, "requests": %s, "config": %s}'
        % (dump(broken), dump(short_day), dump(records), dump(config)),
        "duplicate_requests_not_a_list": '{"requests": %s, "requests": {"a": 1}}' % dump(records),
        "empty_requests": '{"config": {}, "requests": [ ]}',
        "empty_object": " {\n} ",
        "instance_at": '{"at": 640, "requests": %s, "at": 650}' % dump(records[:6]),
        "other_top_level_keys": '{"note": [1, {"a": null}], "requests": [], "n": -0}',
        "truncated": text[:-40],
        "trailing_data": text + " {}",
        "trailing_comma": '{"requests": [%s, ]}' % dump(records[0]),
        "missing_comma": '{"requests": [%s %s]}' % (dump(records[0]), dump(records[1])),
        "key_not_a_string": '{"requests": [], 1: 2}',
        "empty_file": "",
        "over_long_integer": '{"requests": [], "n": %s}' % ("7" * 5000),
    }
    layouts.update({f"malformed_{name}": text for name, (text, _) in MALFORMED.items()})
    layouts = {name: text.encode() for name, text in layouts.items()}
    layouts["invalid_utf8"] = text.encode()[:5000] + b"\xff" + text.encode()[5001:]
    return layouts


LAYOUTS = _layouts()


def _outcome(read):
    try:
        return read()
    except ValueError as exc:
        return type(exc), str(exc)


def _whole_text(path):
    payload = json.loads(path.read_text())
    scenario = scenario_from_dict(payload)
    return scenario, {k: v for k, v in payload.items() if k not in ("config", "requests")}


class TestStreamingReader:
    """read_scenario decodes one request record at a time; it must give what
    a whole-text parse gives, including the one-line error."""

    @pytest.mark.parametrize("chunk", [3, 64, None])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_same_as_whole_text_parse(self, layout, chunk, tmp_path, monkeypatch):
        if chunk is not None:
            # small chunks split keys, strings and numbers across reads
            monkeypatch.setattr(scenario_module, "_CHUNK_CHARS", chunk)
        path = tmp_path / "scenario.json"
        path.write_bytes(LAYOUTS[layout])
        assert _outcome(lambda: read_scenario(path)) == _outcome(lambda: _whole_text(path))

    def test_window_check_waits_for_a_later_config(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(LAYOUTS["short_day_after_requests"])
        with pytest.raises(ValueError, match=r"^request [0-3]: window ends at minute \d+, past working_end"):
            read_scenario(path)

    def test_equal_integers_share_one_object(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(ScenarioConfig(n_requests=400, seed=3)), path)
        values = [
            v for t in load_scenario(path).requests
            for v in (t.submit_at, t.request.window.start, t.request.window.end)
        ]
        assert len({id(v) for v in values}) == len(set(values)) < len(values)


_INSTANCE_RECORDS = json.loads(scenario_to_json(generate_scenario(ScenarioConfig(n_requests=4, seed=5))))["requests"]
_FUZZ_BASES = (
    scenario_to_json(generate_scenario(ScenarioConfig(n_requests=6, seed=2))),
    # an instance file: top-level numbers may end a chunk
    '{"at": 6400, "requests": %s, "note": [1.5, null], "n": -12}' % json.dumps(_INSTANCE_RECORDS, indent=1),
)
# edits drawn from JSON's own characters mostly break syntax, and sometimes
# change a value or a key
_EDITS = st.lists(
    st.tuples(st.integers(0, 4000), st.integers(0, 3), st.text('{}[],:"-.0123456789eE tfalsnru\\\n', max_size=3)),
    min_size=1,
    max_size=4,
)


@settings(derandomize=True, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(_FUZZ_BASES), edits=_EDITS, chunk=st.integers(1, 64))
def test_mutated_file_reads_as_whole_text_parse(base, edits, chunk, tmp_path):
    """Any file, valid or not, streams to the whole-text parse's scenario or
    one-line error, whatever the chunk size."""
    text = base
    for pos, cut, insert in edits:
        pos %= len(text) + 1
        text = text[:pos] + insert + text[pos + cut:]
    path = tmp_path / "mutated.json"
    path.write_text(text)
    with mock.patch.object(scenario_module, "_CHUNK_CHARS", chunk):
        assert _outcome(lambda: read_scenario(path)) == _outcome(lambda: _whole_text(path))
