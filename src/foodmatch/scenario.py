"""Deterministic scenario generation and the scenario file format.

Scenarios are generated from independent per-role random streams so that
regenerating with a different volunteer count leaves the donor and receiver
populations untouched, and the first k volunteers of a larger pool are
exactly the smaller pool. Volunteer routes are biased to start near donation
sites and end near requirement sites: agents of the model volunteer along
the errands they already run, which is what makes the tight pickup radius
(a percentage of the route length) operative at all.

The file format is a single JSON object with "config" and "requests" keys
(and, in an oracle instance file, an integer "at" minute), written on one
line with sorted keys. A request record carries a "type" discriminator and
the fields of its request class, under the class's field names except for a
few renames, as integer minutes, [x, y] kilometer locations and gram
amounts; one plan per class, built from its dataclass fields, both writes
and reads them. The writer streams the file one record at a time. The reader
returns the scenario and its "at" minute or None, or raises a one-line
ValueError that names a bad request record by its index; it validates every
field, keeps every minute inside [0, working_end], and refuses unknown keys.
A file in the writer's layout is streamed, config first, then one record at
a time from fixed-size text chunks, with equal integers sharing one int
object. Other files parse whole.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Iterator, Optional, Union

from .model import (
    PERISHABILITY,
    DonationRequest,
    FoodType,
    Location,
    Request,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)

PACKAGING = ("box", "bag", "crate", "tin", "tray")

# the most requests, and agents of one role, a config may ask the generator for
MAX_REQUESTS = 10**7


@dataclass(frozen=True)
class ScenarioConfig:
    n_requests: int = 5000
    donor_fraction: float = 0.3
    receiver_fraction: float = 0.4
    volunteer_fraction: float = 0.3
    n_donors: Optional[int] = None
    n_receivers: Optional[int] = None
    n_volunteers: Optional[int] = None
    city_width: float = 50.0
    city_height: float = 50.0
    working_start: int = 360
    working_end: int = 1439
    max_payload: int = 100_000
    min_payload: int = 5_000
    donor_amount_min: int = 500
    donor_amount_max: int = 3500
    receiver_amount_min: int = 500
    receiver_amount_max: int = 4000
    preference_lengths: tuple[int, ...] = (0, 0, 1, 2, 3, 4)
    food_types: tuple[FoodType, ...] = tuple(FoodType)
    donor_lead: tuple[int, int] = (30, 360)
    donor_span: tuple[int, int] = (60, 240)
    receiver_lead: tuple[int, int] = (45, 420)
    receiver_span: tuple[int, int] = (45, 240)
    volunteer_near_agents: float = 0.75
    restricted_volunteer_rate: float = 0.08
    motored_rate: float = 0.7
    ac_rate: float = 0.4
    donor_hubs: int = 0
    receiver_hubs: int = 0
    hub_sigma: float = 1.2
    hub_separation: tuple[float, float] = (8.0, 18.0)
    seed: int = 0
    thresholds: Thresholds = field(default_factory=Thresholds)

    def counts(self) -> tuple[int, int, int]:
        explicit = (self.n_donors, self.n_receivers, self.n_volunteers)
        if explicit != (None, None, None):
            if None in explicit:
                raise ValueError("infeasible scenario: explicit counts must set all three roles")
            return explicit
        total = self.donor_fraction + self.receiver_fraction + self.volunteer_fraction
        # written so that a NaN sum (from a NaN or infinite fraction) fails too
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError("infeasible scenario: mix fractions must sum to 1")
        n_d = int(self.n_requests * self.donor_fraction)
        n_r = int(self.n_requests * self.receiver_fraction)
        return n_d, n_r, self.n_requests - n_d - n_r

    def validate(self) -> None:
        # minutes start at 0, as the loader requires
        if not 0 <= self.working_start < self.working_end:
            raise ValueError("infeasible scenario: working hours")
        if self.city_width <= 0 or self.city_height <= 0:
            raise ValueError("infeasible scenario: empty city")
        if min(self.counts()) < 0:
            raise ValueError("infeasible scenario: negative role count")
        if max(self.n_requests, *self.counts()) > MAX_REQUESTS:
            raise ValueError(f"infeasible scenario: more than {MAX_REQUESTS} requests or agents of one role")
        if not self.food_types or min(self.preference_lengths, default=-1) < 0:
            raise ValueError("infeasible scenario: no food types or preference lengths")
        # [low, high] settings and the least low each allows: grams must be
        # positive, minutes and kilometers non-negative
        for name, pair, least in (
            ("donor amount", (self.donor_amount_min, self.donor_amount_max), 1),
            ("receiver amount", (self.receiver_amount_min, self.receiver_amount_max), 1),
            ("payload", (self.min_payload, self.max_payload), 1),
            ("donor_lead", self.donor_lead, 0),
            ("donor_span", self.donor_span, 0),
            ("receiver_lead", self.receiver_lead, 0),
            ("receiver_span", self.receiver_span, 0),
            ("hub_separation", self.hub_separation, 0),
        ):
            if len(pair) != 2 or not least <= pair[0] <= pair[1]:
                raise ValueError(f"infeasible scenario: {name} range {list(pair)}")


@dataclass(slots=True)
class TimedRequest:
    submit_at: int
    request: Request


@dataclass
class Scenario:
    config: ScenarioConfig
    requests: list[TimedRequest]

    def horizon(self) -> int:
        return max((t.request.window.end for t in self.requests), default=self.config.working_end)


def _uniform_location(rng: random.Random, config: ScenarioConfig) -> Location:
    return Location(
        round(rng.uniform(0.0, config.city_width), 4),
        round(rng.uniform(0.0, config.city_height), 4),
    )


def _near(rng: random.Random, config: ScenarioConfig, anchor: Location, sigma: float) -> Location:
    x = min(max(anchor.x + rng.gauss(0.0, sigma), 0.0), config.city_width)
    y = min(max(anchor.y + rng.gauss(0.0, sigma), 0.0), config.city_height)
    return Location(round(x, 4), round(y, 4))


def _site(rng: random.Random, config: ScenarioConfig, centers: list[Location]) -> Location:
    """A donor's or receiver's location: near a random hub, or uniform."""
    if centers:
        return _near(rng, config, rng.choice(centers), config.hub_sigma)
    return _uniform_location(rng, config)


def _window_after(rng: random.Random, config: ScenarioConfig, submit: int,
                  lead: tuple[int, int], span: tuple[int, int]) -> TimeWindow:
    start = min(submit + rng.randint(*lead), config.working_end)
    end = min(start + rng.randint(*span), config.working_end)
    return TimeWindow(start, end)


def _preference(rng: random.Random, config: ScenarioConfig, pool: range) -> tuple[int, ...]:
    # sampling no entries draws nothing
    return tuple(rng.sample(pool, min(rng.choice(config.preference_lengths), len(pool))))


def _hub_centers(config: ScenarioConfig) -> tuple[list[Location], list[Location]]:
    """Donation-site and requirement-side district centers.

    Receiver hubs are rejection-sampled so their nearest donor hub sits in
    the configured separation ring: past plain self-transport reach, within
    motored volunteer reach.
    """
    rng = random.Random(f"{config.seed}:hubs")
    margin = min(5.0, config.city_width / 4, config.city_height / 4)

    def point() -> Location:
        return Location(
            round(rng.uniform(margin, config.city_width - margin), 4),
            round(rng.uniform(margin, config.city_height - margin), 4),
        )

    donor_centers = [point() for _ in range(config.donor_hubs)]
    receiver_centers: list[Location] = []
    lo, hi = config.hub_separation
    for _ in range(config.receiver_hubs):
        for _attempt in range(300):
            candidate = point()
            nearest = min(
                ((candidate.x - h.x) ** 2 + (candidate.y - h.y) ** 2) ** 0.5
                for h in donor_centers
            )
            if lo <= nearest <= hi:
                receiver_centers.append(candidate)
                break
        else:
            receiver_centers.append(point())
    return donor_centers, receiver_centers


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Generate a random, logically coherent scenario. Deterministic per seed."""
    config.validate()
    n_d, n_r, n_v = config.counts()
    wh = (config.working_start, config.working_end)
    latest_submit = max(wh[0], wh[1] - 150)

    receiver_ids = range(1, n_r + 1)
    donor_ids = range(n_r + 1, n_r + n_d + 1)

    donor_centers: list[Location] = []
    receiver_centers: list[Location] = []
    if config.donor_hubs > 0 and config.receiver_hubs > 0:
        donor_centers, receiver_centers = _hub_centers(config)

    rng_r = random.Random(f"{config.seed}:receivers")
    receivers: list[TimedRequest] = []
    for agent in receiver_ids:
        submit = rng_r.randint(wh[0], latest_submit)
        loc = _site(rng_r, config, receiver_centers)
        receivers.append(
            TimedRequest(
                submit_at=submit,
                request=RequirementRequest(
                    id=RequestId(agent, 1),
                    arrival=-1,
                    location=loc,
                    food=rng_r.choice(config.food_types),
                    amount=rng_r.randint(config.receiver_amount_min, config.receiver_amount_max),
                    window=_window_after(rng_r, config, submit, config.receiver_lead, config.receiver_span),
                    preferred_donors=_preference(rng_r, config, donor_ids),
                ),
            )
        )

    rng_d = random.Random(f"{config.seed}:donors")
    donors: list[TimedRequest] = []
    for agent in donor_ids:
        submit = rng_d.randint(wh[0], latest_submit)
        loc = _site(rng_d, config, donor_centers)
        window = _window_after(rng_d, config, submit, config.donor_lead, config.donor_span)
        donors.append(
            TimedRequest(
                submit_at=submit,
                request=DonationRequest(
                    id=RequestId(agent, 1),
                    arrival=-1,
                    location=loc,
                    food=rng_d.choice(config.food_types),
                    amount=rng_d.randint(config.donor_amount_min, config.donor_amount_max),
                    window=window,
                    packaging=rng_d.choice(PACKAGING),
                    prep_or_expiry=max(0, window.start - rng_d.randint(0, 720)),
                    image_ref=f"img-{agent}-1",
                    preferred_receivers=_preference(rng_d, config, receiver_ids),
                ),
            )
        )

    # volunteers plan errands between the places donations and requirements
    # actually happen (the model lets donors and receivers volunteer too):
    # an anchored volunteer starts near some donation site, is available
    # around that donation, submits in time for its matching gate, and heads
    # toward a requirement of the same food class it could plausibly carry
    # volunteers declare the day's availability up front, so a larger pool
    # extends a smaller one without reordering it
    rng_v = random.Random(f"{config.seed}:volunteers")
    volunteers: list[TimedRequest] = []
    anchor_cycle: list[TimedRequest] = []
    for index in range(n_v):
        agent = n_r + n_d + 1 + index
        submit = wh[0]
        anchor: Optional[TimedRequest] = None
        if donors and rng_v.random() < config.volunteer_near_agents:
            # balanced recruitment: spread anchored volunteers across the
            # donation sites, reshuffling each full pass
            if not anchor_cycle:
                anchor_cycle = rng_v.sample(donors, len(donors))
            anchor = anchor_cycle.pop()
            start = _near(rng_v, config, anchor.request.location, 0.5)
            avail_start = max(wh[0], anchor.request.window.start - rng_v.randint(0, 90))
        else:
            start = _uniform_location(rng_v, config)
            avail_start = rng_v.randint(wh[0], latest_submit)
        window = TimeWindow(avail_start, min(avail_start + rng_v.randint(120, 420), wh[1]))
        end = None
        if anchor is not None and receivers:
            # aim for a requirement the anchor donation could actually serve:
            # same food class, usable after the donation, gates overlapping
            anchor_class = PERISHABILITY[anchor.request.food]
            th = config.thresholds
            for _ in range(12):
                candidate = rng_v.choice(receivers)
                if (
                    PERISHABILITY[candidate.request.food] is anchor_class
                    and candidate.request.window.end >= anchor.request.window.end
                    and candidate.request.window.start - th.t_r <= anchor.request.window.end - th.t_d
                ):
                    end = _near(rng_v, config, candidate.request.location, 0.5)
                    break
        if end is None:
            if receivers:
                end = _near(rng_v, config, rng_v.choice(receivers).request.location, 0.5)
            else:
                end = _uniform_location(rng_v, config)
        motored = rng_v.random() < config.motored_rate
        restricted: tuple[int, ...] = ()
        if receivers and rng_v.random() < config.restricted_volunteer_rate:
            restricted = tuple(rng_v.sample(receiver_ids, min(2, n_r)))
        volunteers.append(
            TimedRequest(
                submit_at=submit,
                request=VolunteerRequest(
                    id=RequestId(agent, 1),
                    arrival=-1,
                    route_start=start,
                    route_end=end,
                    motored=motored,
                    ac=motored and rng_v.random() < config.ac_rate,
                    payload_capacity=rng_v.randint(config.min_payload, config.max_payload),
                    window=window,
                    receivers=restricted,
                ),
            )
        )

    requests = receivers + donors + volunteers
    requests.sort(key=lambda t: (t.submit_at, t.request.id.agent_id))
    return Scenario(config=config, requests=requests)


def with_volunteer_count(config: ScenarioConfig, n_volunteers: int) -> ScenarioConfig:
    """Same population, different volunteer pool size (prefix-stable)."""
    n_d, n_r, _ = config.counts()
    return replace(config, n_donors=n_d, n_receivers=n_r, n_volunteers=n_volunteers)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


# Each request type's record plan: its "type" name, and for every init field
# besides id, arrival, window and route_end, in declaration order, (field
# name, record key, kind, default), where a MISSING default makes the key
# required. Every record also carries agent_id, request_seq, submit_at and
# window.
_RECORD_TYPES = {"donation": DonationRequest, "requirement": RequirementRequest, "volunteer": VolunteerRequest}
# record keys that are not their field's name; "route" holds both route ends
_RENAMED = {"preferred_receivers": "preferred", "preferred_donors": "preferred",
            "payload_capacity": "payload", "route_start": "route"}
_KINDS = {"int": int, "str": str, "bool": bool, "Location": Location, "FoodType": FoodType, "tuple[int, ...]": tuple}
_PLANS = {
    cls: (type_name, tuple(
        (f.name, _RENAMED.get(f.name, f.name), _KINDS[f.type], f.default)
        for f in fields(cls) if f.init and f.name not in ("id", "arrival", "window", "route_end")
    ))
    for type_name, cls in _RECORD_TYPES.items()
}


def _request_to_record(timed: TimedRequest) -> dict:
    r = timed.request
    type_name, plan = _PLANS[type(r)]
    record = {
        "agent_id": r.id.agent_id,
        "request_seq": r.id.request_seq,
        "submit_at": timed.submit_at,
        "window": [r.window.start, r.window.end],
        "type": type_name,
    }
    for name, key, kind, _ in plan:
        value = getattr(r, name)
        if key == "route":
            value = [[value.x, value.y], [r.route_end.x, r.route_end.y]]
        elif kind is Location:
            value = [value.x, value.y]
        elif kind is FoodType:
            value = value.value
        record[key] = value
    return record


def finite_number(value, name: str, integral: bool = False):
    """The value itself when it is an int, or (unless integral) a number
    that is finite as a float; else ValueError naming the field."""
    kind = type(value)
    if kind is int and integral:
        return value
    if kind not in (int, float) or integral:
        raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, got {value!r}")
    # false for NaN, the infinities and ints too large for a float
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _numbers(value, name: str, length: Optional[int] = None, integral: bool = False) -> tuple:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = f"{length} " if length is not None else ""
        raise ValueError(f"{name} must be a list of {size}numbers, got {value!r}")
    for number in value:
        finite_number(number, name, integral)
    return tuple(value)


def _get(record: dict, name: str, kind, default=MISSING):
    """Take one field out of a record as an int, str, bool, food type,
    tuple of ints, [x, y] location or [start, end] window."""
    if name not in record:
        if default is MISSING:
            raise ValueError(f"missing field {name!r}")
        return default
    value = record.pop(name)
    if kind is int:
        return finite_number(value, name, integral=True)
    if kind is tuple:
        return _numbers(value, name, integral=True)
    if kind is Location:
        return Location(*_numbers(value, name, 2))
    if kind is TimeWindow:
        return TimeWindow(*_numbers(value, name, 2, integral=True))
    # a food type is written as its str value
    expected = str if kind is FoodType else kind
    if not isinstance(value, expected):
        raise ValueError(f"{name} must be a {expected.__name__}, got {value!r}")
    return FoodType(value) if kind is FoodType else value


def _request_from_record(record, working_end: int) -> TimedRequest:
    if not isinstance(record, dict):
        raise ValueError(f"expected an object, got {type(record).__name__}")
    # every read takes its key out, so what is left was never read
    record = dict(record)
    # the class's init arguments in declaration order, id and arrival first
    args = [RequestId(_get(record, "agent_id", int), _get(record, "request_seq", int, 1)), -1]
    window = _get(record, "window", TimeWindow)
    type_name = _get(record, "type", str)
    cls = _RECORD_TYPES.get(type_name)
    if cls is None:
        raise ValueError(f"unknown request type {type_name!r}")
    for _, key, kind, default in _PLANS[cls][1]:
        if key == "route":
            route = _get(record, "route", list)
            if len(route) != 2:
                raise ValueError(f"route must hold 2 locations, got {route!r}")
            # route_end is declared right after route_start
            args += [Location(*_numbers(end, "route", 2)) for end in route]
        else:
            args.append(_get(record, key, kind, default))
    args.insert(cls.__match_args__.index("window"), window)
    request = cls(*args)
    submit_at = _get(record, "submit_at", int)
    if record:
        raise ValueError(f"unknown keys {sorted(record)}")
    if submit_at < 0 or window.start < 0:
        raise ValueError(f"minutes must not be negative, got submit_at {submit_at}, window start {window.start}")
    for what, minute in (("window ends", window.end), ("submitted", submit_at)):
        if minute > working_end:
            raise ValueError(f"{what} at minute {minute}, past working_end {working_end}")
    return TimedRequest(submit_at=submit_at, request=request)


def config_to_dict(config: ScenarioConfig) -> dict:
    # asdict recurses into the thresholds; the JSON encoder writes tuples as lists
    data = asdict(config)
    data["food_types"] = [food.value for food in config.food_types]
    return data


def _check_keys(data, known, where: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, got {type(data).__name__}")
    unknown = sorted(set(data).difference(known))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")


def config_from_dict(data) -> ScenarioConfig:
    _check_keys(data, ScenarioConfig.__match_args__, "config")
    defaults = ScenarioConfig()
    values = {}
    for name, value in data.items():
        default = getattr(defaults, name)
        where = f"config.{name}"
        if name == "thresholds":
            _check_keys(value, Thresholds.__match_args__, where)
            values[name] = Thresholds(**{
                k: finite_number(v, f"{where}.{k}", integral=isinstance(getattr(default, k), int))
                for k, v in value.items()
            })
        elif name == "food_types":
            if not isinstance(value, list):
                raise ValueError(f"{where} must be a list of food types, got {value!r}")
            values[name] = tuple(FoodType(v) for v in value)
        elif isinstance(default, tuple):
            values[name] = _numbers(value, where, integral=all(isinstance(v, int) for v in default))
        elif default is None and value is None:
            values[name] = None
        else:
            values[name] = finite_number(value, where, integral=not isinstance(default, float))
    return ScenarioConfig(**values)


def _scenario_chunks(scenario: Scenario) -> Iterator[str]:
    """The scenario file's text, one request record at a time: the bytes of
    ``json.dumps(payload, sort_keys=True)`` without building the payload."""
    encode = json.JSONEncoder(sort_keys=True).encode
    yield '{"config": ' + encode(config_to_dict(scenario.config)) + ', "requests": ['
    separator = ""
    for timed in scenario.requests:
        yield separator + encode(_request_to_record(timed))
        separator = ", "
    yield "]}"


def _scenario(payload) -> tuple[Scenario, Optional[int]]:
    """The scenario of a parsed file and its "at" minute, if any.

    Config errors come first, so that each record's minutes can be checked
    against ``working_end``; then the first bad record in file order is
    named by its index; then any top-level key besides "config",
    "requests" and "at"; then an "at" that is not an integer.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"scenario must be a JSON object, got {type(payload).__name__}")
    values = dict(payload)
    config = config_from_dict(values.pop("config", {}))
    records = values.pop("requests", [])
    if not isinstance(records, list):
        raise ValueError(f"requests must be a list, got {type(records).__name__}")
    requests: list[TimedRequest] = []
    for record in records:
        try:
            requests.append(_request_from_record(record, config.working_end))
        except ValueError as exc:
            raise ValueError(f"request {len(requests)}: {exc}") from None
    _check_keys(values, ("at",), "scenario")
    return Scenario(config=config, requests=requests), _get(values, "at", int, None)


_CHUNK_CHARS = 1 << 16
_WHITESPACE = re.compile(r"[ \t\n\r]*")


class _SharedInts(dict):
    """A ``parse_int`` table for one file: equal integer literals decode to
    one shared int object."""

    def __missing__(self, digits: str) -> int:
        value = self[digits] = int(digits)
        return value


class _JsonStream:
    """JSON text read in fixed-size chunks and decoded one token or value at
    a time.

    Only the text not yet decoded is held, so an error raised here cannot
    say where in the file it lies.
    """

    def __init__(self, file: IO[str]):
        self._file = file
        self._decoder = json.JSONDecoder(parse_int=_SharedInts().__getitem__)
        self._text, self._pos = "", 0

    def _read_more(self) -> bool:
        chunk = self._file.read(_CHUNK_CHARS)
        self._text = self._text[self._pos:] + chunk
        self._pos = 0
        return bool(chunk)

    def take(self, token: str) -> bool:
        """Consume ``token`` if it comes next after any whitespace. The empty
        token comes next only at the end of the file."""
        size = max(len(token), 1)
        while True:
            self._pos = _WHITESPACE.match(self._text, self._pos).end()
            if len(self._text) - self._pos >= size or not self._read_more():
                break
        if self._text[self._pos:self._pos + size] != token:
            return False
        self._pos += len(token)
        return True

    def value(self):
        """Decode the next JSON value."""
        self.take("")  # past the whitespace, which raw_decode does not skip
        while True:
            try:
                value, end = self._decoder.raw_decode(self._text, self._pos)
            except json.JSONDecodeError:
                # the value may run on into the next chunk
                if not self._read_more():
                    raise
                continue
            # so may a number that ends the text read so far
            if end < len(self._text) or not self._read_more():
                self._pos = end
                return value


def read_scenario(path: Union[str, Path]) -> tuple[Scenario, Optional[int]]:
    """Read a scenario file: its scenario and its "at" minute, if any.

    The result and the errors are those of ``_scenario(json.loads(text))``.
    A file laid out as the writer writes it, ``{"config": ..., "requests":
    [...]}`` with any whitespace between the tokens, is streamed: the config
    is checked first, and each request is built as soon as its record is
    decoded. Any other file is parsed whole.
    """
    path = Path(path)
    with path.open() as file:
        stream = _JsonStream(file)

        def expect(*tokens: str) -> None:
            if not all(map(stream.take, tokens)):
                raise ValueError("not the writer's layout")

        try:
            expect("{", '"config"', ":")
            config = config_from_dict(stream.value())
            expect(",", '"requests"', ":", "[")
            requests = [_request_from_record(stream.value(), config.working_end)]
            while stream.take(","):
                requests.append(_request_from_record(stream.value(), config.working_end))
            expect("]", "}", "")
            return Scenario(config=config, requests=requests), None
        except (ValueError, RecursionError):
            # the whole-text parse decides: it names a syntax error by line
            # and column, lets the last of duplicate keys win, and puts
            # config errors before record errors
            try:
                payload = json.loads(path.read_text())
            except RecursionError:
                raise ValueError("JSON nested too deeply") from None
    return _scenario(payload)


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    with Path(path).open("w") as out:
        out.writelines(_scenario_chunks(scenario))


def load_scenario(path: Union[str, Path]) -> Scenario:
    return read_scenario(path)[0]
