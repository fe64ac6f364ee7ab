"""Property tests for the simulator and the trace readers and writer (needs
``hypothesis``)."""

from xml.sax.saxutils import quoteattr

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from routesvm.dataset_io import (
    TRACE_HEADER,
    TraceFormatError,
    read_fcd_xml,
    read_trace_csv,
    write_trace_csv,
)
from routesvm.traffic_sim import ScenarioConfig, Trace, generate_trace

from helpers import (
    JUNK_FIELDS,
    assert_writes_reference_bytes,
    kernel_and_fallback,
    label_table_of,
    reference_trace,
    trace_from_rows,
    write_fcd_xml,
)

# No explain phase: on a failure it re-runs the test many times over.
SETTINGS = settings(max_examples=200, deadline=None, database=None,
                    phases=[p for p in Phase if p is not Phase.explain])

# Ids that are not zero-padded, so string order differs from numeric order,
# plus arbitrary text without the CSV separator or line breaks.
VEHICLE_IDS = st.one_of(
    st.sampled_from(["v1", "v2", "v10", "v100", "v9999", "v10000", "9", "10", ""]),
    st.from_regex(r"v[1-9][0-9]{0,5}", fullmatch=True),
    st.text(
        st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters=","),
        max_size=6,
    ),
)
STEPS = st.one_of(
    st.sampled_from([0, 1, -1, 2**63 - 1, -(2**63)]), st.integers(-(2**63), 2**63 - 1)
)
FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def traces(draw, ids=VEHICLE_IDS) -> Trace:
    rows = []
    for vid in draw(st.lists(ids, unique=True, max_size=6)):
        label = draw(st.integers(0, 1))
        for step in draw(st.lists(STEPS, unique=True, min_size=1, max_size=4)):
            rows.append((step, vid, draw(FLOATS), draw(FLOATS), draw(FLOATS), label))
    return trace_from_rows(draw(st.permutations(rows)))


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """Valid scenario configs, small enough to simulate point by point."""
    coord = st.floats(-1e3, 1e3, allow_subnormal=False)
    lane_y = sorted(draw(st.lists(coord, min_size=3, max_size=3, unique=True)), reverse=True)
    junction_x = draw(coord)
    ramp_x = junction_x + draw(st.floats(1e-3, 500.0))
    low = draw(st.floats(1e-3, 10.0))
    return ScenarioConfig(
        num_vehicles=draw(st.integers(1, 12)),
        num_steps=draw(st.integers(1, 40)),
        lane_y=tuple(lane_y),
        junction_x=junction_x,
        ramp_end=(ramp_x, lane_y[2] - draw(st.floats(1e-3, 50.0))),
        speed_range=(low, low + draw(st.floats(0.0, 10.0))),
        route2_probability=draw(st.floats(0.0, 1.0)),
        spawn_spacing=draw(st.floats(1e-3, 50.0)),
        lane_noise=draw(st.floats(0.0, 2.0)),
        rng_seed=draw(st.integers(0, 2**64)),
    )


@SETTINGS
@given(config=scenarios())
def test_generate_trace_matches_the_scalar_reference(config):
    trace, reference = generate_trace(config), reference_trace(config)
    assert trace.vehicle_ids == reference.vehicle_ids
    assert trace.points.tobytes() == reference.points.tobytes()


@SETTINGS
@given(trace=traces())
def test_trace_csv_round_trips(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("round_trip") / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_bytes()
    restored = read_trace_csv(path)
    assert restored == trace
    assert restored.points.tobytes() == trace.points.tobytes()  # keeps -0.0 and subnormals
    kernel, fallback = kernel_and_fallback(path)
    assert kernel == fallback == (trace.points.tobytes(), trace.vehicle_ids)
    write_trace_csv(restored, path)
    assert path.read_bytes() == text


@SETTINGS
@given(trace=traces())
def test_trace_csv_bytes_match_the_per_row_reference(tmp_path_factory, trace):
    assert_writes_reference_bytes(trace, tmp_path_factory.mktemp("reference"))


def check_valid(trace: Trace) -> None:
    """What every trace a reader returns must satisfy."""
    p = trace.points
    assert list(trace.vehicle_ids) == sorted(set(trace.vehicle_ids))
    keys = list(zip(p["step"].tolist(), p["vehicle"].tolist()))
    assert keys == sorted(set(keys))
    assert np.isfinite(p["x"]).all() and np.isfinite(p["y"]).all()
    assert np.isfinite(p["speed"]).all()
    assert set(p["vehicle"].tolist()) == set(range(len(trace.vehicle_ids)))
    labels = {}
    for v, label in zip(p["vehicle"].tolist(), p["route_label"].tolist()):
        assert labels.setdefault(v, label) == label


JUNK = st.one_of(st.sampled_from(JUNK_FIELDS), st.text(max_size=5))
INTEGERS = st.one_of(st.integers(-(2**70), 2**70).map(str), JUNK)
NUMBERS = st.one_of(st.floats().map(repr), st.integers(-5, 5).map(str), JUNK)
LABELS = st.one_of(st.sampled_from(["0", "1"]), JUNK)
IDS = st.one_of(st.sampled_from(["v1", "v2", "v10", "a,b", "c\nd", "e\rf"]), JUNK)

CSV_ROWS = st.one_of(
    st.tuples(INTEGERS, IDS, NUMBERS, NUMBERS, NUMBERS, LABELS).map(",".join),
    st.lists(NUMBERS, max_size=8).map(",".join),
    st.text(max_size=20),
)
CSV_TEXT = st.builds(
    lambda header, rows, end: "\n".join([header, *rows]) + end,
    st.one_of(st.just(TRACE_HEADER), st.text(max_size=10)),
    st.lists(CSV_ROWS, max_size=8),
    st.sampled_from(["\n", "", "\r\n"]),
)
# CSV text as UTF-8, with arbitrary bytes spliced in, or arbitrary bytes.
CSV_BYTES = st.one_of(
    CSV_TEXT.map(str.encode),
    st.builds(
        lambda text, junk, at: text[:at] + junk + text[at:],
        CSV_TEXT.map(str.encode), st.binary(min_size=1, max_size=4), st.integers(0, 200),
    ),
    st.binary(max_size=60),
)


@SETTINGS
@given(data=CSV_BYTES)
def test_fuzzed_trace_csv_gives_trace_or_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz_csv") / "trace.csv"
    path.write_bytes(data)
    kernel, fallback = kernel_and_fallback(path)
    assert kernel == fallback
    try:
        trace = read_trace_csv(path)
    except TraceFormatError:
        return
    check_valid(trace)
    write_trace_csv(trace, path)
    assert read_trace_csv(path) == trace


VEHICLES = st.one_of(
    st.fixed_dictionaries({"id": IDS, "x": NUMBERS, "y": NUMBERS, "speed": NUMBERS}),
    st.fixed_dictionaries(
        {}, optional={"id": IDS, "x": NUMBERS, "y": NUMBERS, "speed": NUMBERS, "lane": JUNK}
    ),
).map(lambda attrs: "<vehicle " + " ".join(f"{k}={quoteattr(v)}" for k, v in attrs.items()) + "/>")
TIMESTEPS = st.builds(
    lambda time, vehicles: f"<timestep{time}>{''.join(vehicles)}</timestep>",
    st.one_of(NUMBERS.map(lambda t: f" time={quoteattr(t)}"), st.just("")),
    st.lists(VEHICLES, max_size=4),
)
FCD_TEXT = st.one_of(
    st.lists(TIMESTEPS, max_size=4).map(lambda steps: f"<fcd-export>{''.join(steps)}</fcd-export>"),
    st.text(max_size=40),
)


@SETTINGS
@given(text=FCD_TEXT, labels=st.dictionaries(IDS, st.integers(0, 1), max_size=4))
def test_fuzzed_fcd_xml_gives_trace_or_format_error(tmp_path_factory, text, labels):
    path = tmp_path_factory.mktemp("fuzz_fcd") / "fcd.xml"
    path.write_text(text, encoding="utf-8")
    try:
        trace = read_fcd_xml(path, labels)
    except TraceFormatError:
        return
    check_valid(trace)
    assert set(trace.vehicle_ids) <= set(labels)


# Ids an FCD file can carry, among them some a trace CSV cannot hold.
FCD_IDS = st.one_of(
    st.sampled_from(["a,b", ",", "c\nd", "e\r", "\r\n"]),
    VEHICLE_IDS.filter(lambda vid: not {"\ufffe", "\uffff"} & set(vid)),  # not XML characters
)


@SETTINGS
@given(trace=traces(FCD_IDS))
def test_ingested_fcd_round_trips_through_trace_csv(tmp_path_factory, trace):
    folder = tmp_path_factory.mktemp("fcd_csv")
    write_fcd_xml(trace, folder / "fcd.xml")
    try:
        ingested = read_fcd_xml(folder / "fcd.xml", label_table_of(trace))
    except TraceFormatError as exc:
        assert any(c in vid for vid in trace.vehicle_ids for c in ",\r\n"), exc
        return
    write_trace_csv(ingested, folder / "trace.csv")
    assert read_trace_csv(folder / "trace.csv") == ingested
