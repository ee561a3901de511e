"""Deterministic scenario generation and the scenario file format.

Scenarios are generated from independent per-role random streams so that
regenerating with a different volunteer count leaves the donor and receiver
populations untouched, and the first k volunteers of a larger pool are
exactly the smaller pool. Volunteer routes are biased to start near donation
sites and end near requirement sites: agents of the model volunteer along
the errands they already run, which is what makes the tight pickup radius
(a percentage of the route length) operative at all.

The file format is a single JSON object with "config" and "requests" keys,
written on one line with sorted keys; request records carry a "type"
discriminator, integer-minute times, [x, y] kilometer locations, and gram
amounts. The writer streams the file one request record at a time, so the
records of a whole city never exist as dicts or as one string at once. The
reader streams too: it reads the file in fixed-size text chunks and decodes
the "requests" array one record at a time, building each request before it
decodes the next, so it holds one record dict and about one chunk of text
at a time; equal integers within one file share one int object. It validates
every field, keeps every minute inside [0, working_end], accepts any JSON
layout, and gives the same scenario and the same one-line errors as
``scenario_from_dict(json.loads(text))``.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
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


def _near(rng: random.Random, config: ScenarioConfig, anchor: Location, sigma: float = 1.5) -> Location:
    x = min(max(anchor.x + rng.gauss(0.0, sigma), 0.0), config.city_width)
    y = min(max(anchor.y + rng.gauss(0.0, sigma), 0.0), config.city_height)
    return Location(round(x, 4), round(y, 4))


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
        if receiver_centers:
            loc = _near(rng_r, config, rng_r.choice(receiver_centers), sigma=config.hub_sigma)
        else:
            loc = _uniform_location(rng_r, config)
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
        if donor_centers:
            loc = _near(rng_d, config, rng_d.choice(donor_centers), sigma=config.hub_sigma)
        else:
            loc = _uniform_location(rng_d, config)
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
            start = _near(rng_v, config, anchor.request.location, sigma=0.5)
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
                    end = _near(rng_v, config, candidate.request.location, sigma=0.5)
                    break
        if end is None:
            if receivers:
                end = _near(rng_v, config, rng_v.choice(receivers).request.location, sigma=0.5)
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


def _request_to_record(timed: TimedRequest) -> dict:
    r = timed.request
    base = {
        "agent_id": r.id.agent_id,
        "request_seq": r.id.request_seq,
        "submit_at": timed.submit_at,
        "window": [r.window.start, r.window.end],
    }
    if isinstance(r, DonationRequest):
        base.update(
            type="donation",
            location=[r.location.x, r.location.y],
            food=r.food.value,
            amount=r.amount,
            packaging=r.packaging,
            prep_or_expiry=r.prep_or_expiry,
            image_ref=r.image_ref,
            preferred=list(r.preferred_receivers),
        )
    elif isinstance(r, RequirementRequest):
        base.update(
            type="requirement",
            location=[r.location.x, r.location.y],
            food=r.food.value,
            amount=r.amount,
            preferred=list(r.preferred_donors),
        )
    else:
        base.update(
            type="volunteer",
            route=[[r.route_start.x, r.route_start.y], [r.route_end.x, r.route_end.y]],
            motored=r.motored,
            ac=r.ac,
            payload=r.payload_capacity,
            receivers=list(r.receivers),
        )
    return base


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


_REQUIRED = object()


def _get(record: dict, name: str, kind, default=_REQUIRED):
    """Read one field of a request record as an int, str, bool, list of
    ints, [x, y] location or [start, end] window."""
    if name not in record:
        if default is _REQUIRED:
            raise ValueError(f"missing field {name!r}")
        return default
    value = record[name]
    if kind is int:
        return finite_number(value, name, integral=True)
    if kind is tuple:
        return _numbers(value, name, integral=True)
    if kind is Location:
        return Location(*_numbers(value, name, 2))
    if kind is TimeWindow:
        return TimeWindow(*_numbers(value, name, 2, integral=True))
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _request_from_record(record) -> TimedRequest:
    if not isinstance(record, dict):
        raise ValueError(f"expected an object, got {type(record).__name__}")
    rid = RequestId(_get(record, "agent_id", int), _get(record, "request_seq", int, 1))
    window = _get(record, "window", TimeWindow)
    kind = _get(record, "type", str)
    if kind == "donation":
        request: Request = DonationRequest(
            id=rid,
            arrival=-1,
            location=_get(record, "location", Location),
            food=FoodType(_get(record, "food", str)),
            amount=_get(record, "amount", int),
            window=window,
            packaging=_get(record, "packaging", str, ""),
            prep_or_expiry=_get(record, "prep_or_expiry", int, 0),
            image_ref=_get(record, "image_ref", str, ""),
            preferred_receivers=_get(record, "preferred", tuple, ()),
        )
    elif kind == "requirement":
        request = RequirementRequest(
            id=rid,
            arrival=-1,
            location=_get(record, "location", Location),
            food=FoodType(_get(record, "food", str)),
            amount=_get(record, "amount", int),
            window=window,
            preferred_donors=_get(record, "preferred", tuple, ()),
        )
    elif kind == "volunteer":
        route = _get(record, "route", list)
        if len(route) != 2:
            raise ValueError(f"route must hold 2 locations, got {route!r}")
        request = VolunteerRequest(
            id=rid,
            arrival=-1,
            route_start=Location(*_numbers(route[0], "route", 2)),
            route_end=Location(*_numbers(route[1], "route", 2)),
            motored=_get(record, "motored", bool),
            ac=_get(record, "ac", bool),
            payload_capacity=_get(record, "payload", int),
            window=window,
            receivers=_get(record, "receivers", tuple, ()),
        )
    else:
        raise ValueError(f"unknown request type {kind!r}")
    submit_at = _get(record, "submit_at", int)
    if submit_at < 0 or window.start < 0:
        raise ValueError(f"minutes must not be negative, got submit_at {submit_at}, window start {window.start}")
    return TimedRequest(submit_at=submit_at, request=request)


class _RequestList:
    """Requests built from their records one at a time.

    The first bad record's error is held, not raised, until ``checked``
    knows the config: syntax errors anywhere in the file and config errors
    come first, and the window check needs ``working_end``, which a file may
    give after its requests. The error still names the first bad record in
    file order.
    """

    def __init__(self, records=()):
        self.requests: list[TimedRequest] = []
        self.error: Optional[str] = None
        for record in records:
            self.add(record)

    def add(self, record) -> None:
        if self.error is None:
            try:
                self.requests.append(_request_from_record(record))
            except ValueError as exc:
                self.error = f"request {len(self.requests)}: {exc}"

    def checked(self, config: ScenarioConfig) -> list[TimedRequest]:
        for index, timed in enumerate(self.requests):
            end = timed.request.window.end
            if end > config.working_end:
                raise ValueError(f"request {index}: window ends at minute {end}, past working_end {config.working_end}")
        if self.error is not None:
            raise ValueError(self.error)
        return self.requests


def config_to_dict(config: ScenarioConfig) -> dict:
    # asdict recurses into the thresholds; the JSON encoder writes tuples as lists
    data = asdict(config)
    data["food_types"] = [food.value for food in config.food_types]
    return data


def _check_keys(data, cls, where: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")


def config_from_dict(data) -> ScenarioConfig:
    _check_keys(data, ScenarioConfig, "config")
    defaults = ScenarioConfig()
    values = {}
    for name, value in data.items():
        default = getattr(defaults, name)
        where = f"config.{name}"
        if name == "thresholds":
            _check_keys(value, Thresholds, where)
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


def scenario_to_json(scenario: Scenario) -> str:
    return "".join(_scenario_chunks(scenario))


def _scenario(config, records) -> Scenario:
    config = config_from_dict(config)
    if not isinstance(records, _RequestList):
        raise ValueError(f"requests must be a list, got {type(records).__name__}")
    return Scenario(config=config, requests=records.checked(config))


def scenario_from_dict(payload) -> Scenario:
    """Validate a parsed scenario file and build the scenario from it.

    Raises ValueError with a one-line message; a bad request record is named
    by its index in the "requests" list.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"scenario must be a JSON object, got {type(payload).__name__}")
    records = payload.get("requests", [])
    if isinstance(records, list):
        records = _RequestList(records)
    return _scenario(payload.get("config", {}), records)


_CHUNK_CHARS = 1 << 16
_WHITESPACE = re.compile(r"[ \t\n\r]*")


class _SharedInts(dict):
    """A ``parse_int`` table for one file: equal integer literals decode to
    one shared int object."""

    def __missing__(self, digits: str) -> int:
        value = self[digits] = int(digits)
        return value


class _JsonStream:
    """JSON text read in fixed-size chunks and decoded one value at a time.

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

    def peek(self) -> str:
        """The next non-whitespace character, or "" at the end of the file."""
        while True:
            self._pos = _WHITESPACE.match(self._text, self._pos).end()
            if self._pos < len(self._text) or not self._read_more():
                return self._text[self._pos:self._pos + 1]

    def take(self, allowed: str) -> str:
        """Consume the next non-whitespace character, one of ``allowed``."""
        char = self.peek()
        if not char or char not in allowed:
            raise ValueError(f"expecting one of {allowed!r}")
        self._pos += 1
        return char

    def items(self, opening: str, closing: str) -> Iterator[None]:
        """Step through the array or object that starts here: yields once
        at each item, which the caller consumes before resuming."""
        self.take(opening)
        if self.peek() == closing:
            self._pos += 1
            return
        while True:
            yield
            if self.take("," + closing) == closing:
                return

    def key(self) -> str:
        """Consume an object key and its colon."""
        if self.peek() != '"':
            raise ValueError("expecting a property name")
        key = self.value()
        self.take(":")
        return key

    def value(self):
        """Decode the next JSON value."""
        self.peek()  # past the whitespace, which raw_decode does not skip
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



def read_scenario(path: Union[str, Path]) -> tuple[Scenario, dict]:
    """Stream a scenario file: its scenario and its other top-level values
    (such as an instance file's "at").

    The result and the errors are those of
    ``scenario_from_dict(json.loads(text))``, and the last of duplicate keys
    wins, but each request is built as soon as its record is decoded.
    """
    path = Path(path)
    values: dict = {}
    with path.open() as file:
        stream = _JsonStream(file)
        try:
            for _ in stream.items("{", "}"):
                key = stream.key()
                if key == "requests" and stream.peek() == "[":
                    records = values[key] = _RequestList()
                    for _ in stream.items("[", "]"):
                        records.add(stream.value())
                else:
                    values[key] = stream.value()
            if stream.peek():
                raise ValueError("extra data")
        except ValueError:
            # undecodable text: a whole-text parse names the error as it
            # always has (by line and column, or by the file's byte offset),
            # and a top level that is not an object by its type
            scenario_from_dict(json.loads(path.read_text()))
            raise
    scenario = _scenario(values.pop("config", {}), values.pop("requests", _RequestList()))
    return scenario, values


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    with Path(path).open("w") as out:
        out.writelines(_scenario_chunks(scenario))


def load_scenario(path: Union[str, Path]) -> Scenario:
    return read_scenario(path)[0]
