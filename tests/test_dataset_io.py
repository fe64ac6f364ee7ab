import logging
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from routesvm import dataset_io
from routesvm.dataset_io import (
    Dataset,
    InsufficientVehiclesError,
    TraceFormatError,
    read_examples_csv,
    read_fcd_xml,
    read_label_csv,
    read_trace_csv,
    sample_examples,
    write_examples_csv,
    write_label_csv,
    write_trace_csv,
)
from routesvm.eval_pipeline import split_examples
from routesvm.svm import LabeledExample
from routesvm.traffic_sim import ScenarioConfig, Trace, generate_trace, make_trace

from helpers import (
    assert_writes_reference_bytes,
    label_table_of,
    peak_allocation,
    random_trace,
    rows_of,
    trace_from_rows,
    write_fcd_xml,
)


def one_point_trace() -> Trace:
    return trace_from_rows([(0, "v0001", 1.5, -0.25, 2.0, 1)])


def largest_float_below(value: Fraction) -> float:
    x = float(value)
    return x if Fraction(x) < value else math.nextafter(x, 0)


# The floats just below the powers of ten within write_trace_csv's exact
# digit kernel (1e-4 <= |x| < 1e16): the only ones whose 17 digits could
# round up to 10**17.
BELOW_POWERS_OF_TEN = [largest_float_below(Fraction(10) ** m) for m in range(-3, 17)]
EDGE_FLOATS = [
    1234567890123456.75, 1234567890123456.25,  # 17th-digit ties, odd and even
    *(math.nextafter(x, to) for x in (1e-4, 1e-6, 1e16, 1e17) for to in (0, math.inf)),
    1e-4, 1e-6, 1e16, 1e17, 0.0, 5e-324, sys.float_info.max, 0.1, 2.5, 1000.0,
    *BELOW_POWERS_OF_TEN,
]


class TestTraceCsv:
    def test_empty_trace_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace_csv(trace_from_rows([]), path)
        assert path.read_text() == "step,vehicle_id,x,y,speed,route_label\n"

    def test_one_point_trace_is_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        write_trace_csv(one_point_trace(), path)
        assert path.read_text().count("\n") == 2

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_trace_csv(one_point_trace(), path)
        assert b"\r" not in path.read_bytes()

    def test_round_trip_random_traces(self, tmp_path):
        rng = random.Random(8)
        for i in range(25):
            trace = random_trace(rng, n_vehicles=rng.randint(1, 6), n_steps=rng.randint(1, 5))
            path = tmp_path / f"t{i}.csv"
            write_trace_csv(trace, path)
            assert read_trace_csv(path) == trace

    def test_round_trip_generated_trace(self, small_trace, tmp_path):
        path = tmp_path / "gen.csv"
        write_trace_csv(small_trace, path)
        assert read_trace_csv(path) == small_trace

    def test_the_digit_kernel_facts_about_powers_of_ten(self):
        """What the writer's digit kernel relies on: each float below a power
        of ten is more than half a unit of its 17th digit away from it (no
        carry), and the float nearest each power in the range is at or above
        it (its decade is found by comparing floats)."""
        for m, below in enumerate(BELOW_POWERS_OF_TEN, start=-3):
            assert Fraction(10) ** m - Fraction(below) > Fraction(10) ** (m - 17) / 2
        for m, nearest in enumerate(dataset_io._DECADES.tolist(), start=-4):
            assert Fraction(nearest) >= Fraction(10) ** m > Fraction(math.nextafter(nearest, 0))

    @pytest.mark.parametrize("batch", [7, 8192])
    def test_edge_values_match_the_per_row_reference(self, tmp_path, monkeypatch, batch):
        monkeypatch.setattr(dataset_io, "_WRITE_BATCH", batch)
        values = [sign * x for x in EDGE_FLOATS for sign in (1.0, -1.0)]
        # NUL, UTF-8 of 2, 3 and 4 bytes, and an id long enough to shrink the batch
        ids = ["v1", "\x00", "\xff\u20ac\U0001f600", "v" * 300]
        n = len(values)
        trace = trace_from_rows(
            (i - n // 2, ids[i % 4], x, values[-1 - i], values[7 * i % n], 0)
            for i, x in enumerate(values)
        )
        assert_writes_reference_bytes(trace, tmp_path)

    @pytest.mark.parametrize("batch", [7, 8192])
    def test_speed_per_row_matches_the_per_row_reference(
        self, small_trace, tmp_path, monkeypatch, batch
    ):
        monkeypatch.setattr(dataset_io, "_WRITE_BATCH", batch)
        points = small_trace.points.copy()
        points["speed"] += np.random.default_rng(1).uniform(-0.5, 0.5, len(points))
        assert len(np.unique(points["speed"])) == len(points)
        trace = make_trace(points, small_trace.vehicle_ids)
        assert_writes_reference_bytes(trace, tmp_path)

    def test_header_only_reads_empty(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,vehicle_id,x,y,speed,route_label\n")
        trace = read_trace_csv(path)
        assert len(trace.points) == 0
        assert trace.vehicle_ids == ()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,vehicle,x,y,speed,route\n")
        with pytest.raises(TraceFormatError, match="header"):
            read_trace_csv(path)

    def test_bad_row_arity_names_line(self, tmp_path):
        path = tmp_path / "arity.csv"
        path.write_text("step,vehicle_id,x,y,speed,route_label\n0,v0,1.0,2.0,3.0\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace_csv(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "step,vehicle_id,x,y,speed,route_label\n"
            "0,v0,1.0,2.0,3.0,0\n"
            "oops,v1,1.0,2.0,3.0,0\n"
        )
        with pytest.raises(TraceFormatError, match="line 3"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row", ["0,v0,nan,2.0,3.0,0", "0,v0,1.0,inf,3.0,0",
                                     "0,v0,1.0,2.0,-inf,0"])
    def test_non_finite_value_names_line(self, tmp_path, row):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"step,vehicle_id,x,y,speed,route_label\n0,v1,1.0,2.0,3.0,0\n{row}\n")
        with pytest.raises(TraceFormatError, match="line 3: non-finite"):
            read_trace_csv(path)

    def test_blank_lines_skipped_and_counted_in_line_numbers(self, tmp_path):
        path = tmp_path / "blank.csv"
        header = "step,vehicle_id,x,y,speed,route_label\n"
        path.write_text(header + "0,v1,1.0,2.0,3.0,0\n\n1,v1,1.0,2.0,3.0,0\n")
        assert len(read_trace_csv(path).points) == 2
        path.write_text(header + "\n0,v1,1.0,2.0,3.0,0\n\n\n1,v1,1.0,nan,3.0,0\n")
        with pytest.raises(TraceFormatError, match="line 6: non-finite"):
            read_trace_csv(path)

    @pytest.mark.parametrize("step", ["99999999999999999999999", "-9223372036854775809"])
    def test_step_outside_int64_names_line(self, tmp_path, step):
        path = tmp_path / "bigstep.csv"
        path.write_text(
            "step,vehicle_id,x,y,speed,route_label\n"
            "9223372036854775807,v1,1.0,2.0,3.0,0\n"
            f"{step},v1,1.0,2.0,3.0,0\n"
        )
        with pytest.raises(TraceFormatError, match="line 3: step .* out of the int64 range"):
            read_trace_csv(path)

    def test_rows_resorted_to_canonical_order(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text(
            "step,vehicle_id,x,y,speed,route_label\n"
            "1,v0001,2,0,1,0\n"
            "0,v0002,1,0,1,1\n"
            "0,v0001,0,0,1,0\n"
        )
        trace = read_trace_csv(path)
        assert [row[:2] for row in rows_of(trace)] == [
            (0, "v0001"),
            (0, "v0002"),
            (1, "v0001"),
        ]

    def test_duplicate_step_vehicle_row_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "step,vehicle_id,x,y,speed,route_label\n"
            "0,v0001,0,0,1,0\n"
            "1,v0001,1,0,1,0\n"
            "0,v0001,5,0,1,0\n"
        )
        with pytest.raises(TraceFormatError, match="'v0001': duplicate row at step 0"):
            read_trace_csv(path)

    def test_route_label_change_within_vehicle_rejected(self, tmp_path):
        path = tmp_path / "conflict.csv"
        path.write_text(
            "step,vehicle_id,x,y,speed,route_label\n"
            "0,v0001,0,0,1,0\n"
            "0,v0002,0,0,1,1\n"
            "1,v0001,1,0,1,1\n"
        )
        with pytest.raises(TraceFormatError, match="'v0001': route_label changes"):
            read_trace_csv(path)


class TestTraceCsvBlocks:
    """read_trace_csv parses ``_CHUNK``-line blocks; 3-line blocks put every
    case below across block boundaries."""

    HEADER = "step,vehicle_id,x,y,speed,route_label\n"
    GOOD = [f"{step},v{v},1.5,-2.25,3.0,{v % 2}\n" for step in range(3) for v in range(3)]

    @pytest.fixture(autouse=True)
    def three_line_blocks(self, monkeypatch):
        monkeypatch.setattr(dataset_io, "_CHUNK", 3)

    def test_multi_block_round_trip_is_byte_identical(self, small_trace, tmp_path, monkeypatch):
        reference = tmp_path / "reference.csv"
        with monkeypatch.context() as m:
            m.setattr(dataset_io, "_CHUNK", 1 << 16)
            write_trace_csv(small_trace, reference)
        trace = read_trace_csv(reference)
        assert trace == small_trace
        again = tmp_path / "again.csv"
        write_trace_csv(trace, again)
        assert again.read_bytes() == reference.read_bytes()

    def test_rows_past_the_counted_bound_still_read(self, small_trace, tmp_path, monkeypatch):
        """A file that grew after its rows were counted."""
        monkeypatch.setattr(dataset_io, "_row_bound", lambda source: 1)
        write_trace_csv(small_trace, tmp_path / "trace.csv")
        assert read_trace_csv(tmp_path / "trace.csv") == small_trace

    def test_rows_short_of_the_counted_bound_are_trimmed(self, small_trace, tmp_path, monkeypatch):
        """A file that shrank after its rows were counted."""
        bound = dataset_io._row_bound
        monkeypatch.setattr(dataset_io, "_row_bound", lambda source: bound(source) + 5)
        write_trace_csv(small_trace, tmp_path / "trace.csv")
        assert read_trace_csv(tmp_path / "trace.csv") == small_trace

    def test_an_exactly_counted_read_keeps_its_array(self, small_trace, tmp_path):
        """The trace owns the array the rows were parsed into, not a view that
        would keep a larger buffer alive."""
        write_trace_csv(small_trace, tmp_path / "trace.csv")
        trace = read_trace_csv(tmp_path / "trace.csv")
        assert trace == small_trace
        assert trace.points.base is None

    @pytest.mark.parametrize("text", ["", "\n\n", "\r\n\r\n", "\r\r", ",,,,,\n"])
    def test_row_bound_counts_rows_not_line_ends(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_bytes(f"{self.HEADER}{self.GOOD[0]}{text}{self.GOOD[1]}".encode())
        assert dataset_io._row_bound(path) == 2 + (text == ",,,,,\n")

    def test_blank_lines_across_blocks(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(self.HEADER + "\n\n\n\n" + "\n".join(self.GOOD))  # a blank after each row
        assert len(read_trace_csv(path).points) == len(self.GOOD)

    @pytest.mark.parametrize("row, message", [
        ("2,v9,nan,0,1,0", "non-finite value"),
        ("2,v9,1,0,-inf,0", "non-finite value"),
        ("oops,v9,1,0,1,0", r"non-numeric field \(invalid literal for int"),
        ("9223372036854775808,v9,1,0,1,0", "step 9223372036854775808 out of the int64 range"),
        ("2,v9,1,0,1,-1", "route_label must be 0 or 1"),
        ("2,v9,1,0,1,2", "route_label must be 0 or 1"),
        ("2,v9,1,0,1,300", "route_label must be 0 or 1"),
        ("2,v9,1_0,0,1,0", "non-numeric field"),
        ("1.5,v9,1,0,1,0", r"non-numeric field \(invalid literal for int"),
        ("1e3,v9,1,0,1,0", r"non-numeric field \(invalid literal for int"),
        ("2,v9,1,0,1,1.0", r"non-numeric field \(invalid literal for int"),
        ("2,v9,1,0,1,256", "route_label must be 0 or 1"),
        ("2,v9,1,0,1,0,7", "expected 6 fields, got 7"),
        ("2,v9,1,0,1", "expected 6 fields, got 5"),
    ])
    def test_error_in_a_later_block_names_its_file_line(self, tmp_path, row, message):
        lines = [*self.GOOD[:4], "\n", "\n", *self.GOOD[4:7], "\n", row + "\n", *self.GOOD[7:]]
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "".join(lines))
        line_no = 2 + lines.index(row + "\n")
        assert line_no == 12  # the third line of the fourth block
        with pytest.raises(TraceFormatError, match=f"^line {line_no}: {message}"):
            read_trace_csv(path)

    def test_integer_parsed_via_a_float_is_an_error(self, tmp_path, monkeypatch):
        """Older NumPy releases parse an integer field such as 1.5 via a float,
        truncate it and only warn; this stand-in for np.loadtxt does the same."""
        loadtxt = np.loadtxt

        def warning_loadtxt(lines, **kwargs):
            if any(line.startswith("1.5,") for line in lines):
                warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt([line.replace("1.5,", "1,", 1) for line in lines], **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "float_step.csv"
        path.write_text(self.HEADER + "".join(self.GOOD[:4]) + "1.5,v9,1,0,1,0\n")
        with pytest.raises(TraceFormatError, match=r"^line 6: non-numeric field \(invalid literal"):
            read_trace_csv(path)

    def test_first_bad_row_of_a_block_is_reported(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(self.HEADER + "0,v1,1,0,1,2\n0,v2,1,0,1,0,7\n0,v3,x,0,1,0\n")
        with pytest.raises(TraceFormatError, match="^line 2: route_label must be 0 or 1"):
            read_trace_csv(path)

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        """A non-finite value in the first block beats a parse error in the second."""
        lines = [self.GOOD[0], "0,v9,nan,0,1,0\n", *self.GOOD[1:3], "oops,v9,1,0,1,0\n",
                 *self.GOOD[3:]]
        path = tmp_path / "two.csv"
        path.write_text(self.HEADER + "".join(lines))
        with pytest.raises(TraceFormatError, match="^line 3: non-finite value$"):
            read_trace_csv(path)

    @pytest.mark.parametrize("vehicle_id", ["#v1", '"v1', "v 1", "v x"])
    def test_vehicle_id_round_trips_verbatim(self, tmp_path, vehicle_id):
        trace = trace_from_rows([(0, vehicle_id, 1.0, 2.0, 3.0, 0), (0, "v2", 4.0, 5.0, 6.0, 1)])
        path = tmp_path / "ids.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace

    def test_negative_and_positive_zero_speeds_keep_their_text(self, tmp_path):
        trace = trace_from_rows([(0, "a", 1.0, 2.0, -0.0, 0), (0, "b", 1.0, 2.0, 0.0, 0),
                                 (1, "a", 1.0, 2.0, -0.0, 0), (1, "b", 1.0, 2.0, 0.0, 0)])
        path = tmp_path / "zeros.csv"
        write_trace_csv(trace, path)
        assert path.read_text().splitlines()[1:] == [
            "0,a,1,2,-0,0", "0,b,1,2,0,0", "1,a,1,2,-0,0", "1,b,1,2,0,0"]
        again = tmp_path / "again.csv"
        write_trace_csv(read_trace_csv(path), again)
        assert again.read_bytes() == path.read_bytes()


def test_read_peak_allocation_is_the_points_and_one_block(tmp_path, monkeypatch):
    trace = generate_trace(ScenarioConfig(num_vehicles=2000))
    write_trace_csv(trace, tmp_path / "trace.csv")
    monkeypatch.setattr(dataset_io, "_CHUNK", 8192)
    restored, peak = peak_allocation(read_trace_csv, tmp_path / "trace.csv")
    assert restored == trace
    ratio = peak / trace.points.nbytes
    assert ratio <= 2.4


class TestFcdXml:
    def test_zero_timesteps_empty_trace(self, tmp_path):
        path = tmp_path / "empty.xml"
        path.write_text("<fcd-export></fcd-export>\n")
        assert len(read_fcd_xml(path, {}).points) == 0

    def test_single_labeled_vehicle(self, tmp_path):
        path = tmp_path / "one.xml"
        path.write_text(
            '<fcd-export><timestep time="0.5">'
            '<vehicle id="car1" x="10.0" y="-1.5" speed="2.5"/>'
            "</timestep></fcd-export>\n"
        )
        trace = read_fcd_xml(path, {"car1": 1})
        assert rows_of(trace) == [(0, "car1", 10.0, -1.5, 2.5, 1)]

    def test_round_trip_with_step_renumbering(self, small_trace, tmp_path):
        path = tmp_path / "fcd.xml"
        write_fcd_xml(small_trace, path, time_step=0.5)
        restored = read_fcd_xml(path, label_table_of(small_trace))
        assert restored == small_trace

    def test_unlabeled_vehicles_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "skip.xml"
        path.write_text(
            '<fcd-export><timestep time="0">'
            '<vehicle id="known" x="1" y="2" speed="3"/>'
            '<vehicle id="unknown" x="4" y="5" speed="6"/>'
            "</timestep></fcd-export>\n"
        )
        with caplog.at_level(logging.WARNING):
            trace = read_fcd_xml(path, {"known": 0})
        assert len(trace.points) == 1
        assert "1" in caplog.text

    def test_missing_attribute_error(self, tmp_path):
        path = tmp_path / "noattr.xml"
        path.write_text(
            '<fcd-export><timestep time="0">'
            '<vehicle id="v" x="1" y="2"/>'
            "</timestep></fcd-export>\n"
        )
        with pytest.raises(TraceFormatError, match="speed"):
            read_fcd_xml(path, {"v": 0})

    def test_missing_time_attribute_error(self, tmp_path):
        path = tmp_path / "notime.xml"
        path.write_text("<fcd-export><timestep></timestep></fcd-export>\n")
        with pytest.raises(TraceFormatError, match="time"):
            read_fcd_xml(path, {})

    def test_non_finite_value_names_vehicle(self, tmp_path):
        path = tmp_path / "nan.xml"
        path.write_text(
            '<fcd-export><timestep time="0">'
            '<vehicle id="v" x="1" y="NaN" speed="3"/>'
            "</timestep></fcd-export>\n"
        )
        with pytest.raises(TraceFormatError, match="'v': non-finite"):
            read_fcd_xml(path, {"v": 0})

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "two.xml"
        path.write_text(
            '<fcd-export><timestep time="0">'
            '<vehicle id="v" x="1" y="nan" speed="3"/>'
            '<vehicle id="a,b" x="1" y="2" speed="3"/>'
            "</timestep></fcd-export>\n"
        )
        with pytest.raises(TraceFormatError, match="^vehicle 'v': non-finite value$"):
            read_fcd_xml(path, {"v": 0, "a,b": 1})

    def test_duplicate_vehicle_in_timestep_rejected(self, tmp_path):
        path = tmp_path / "dup.xml"
        path.write_text(
            '<fcd-export><timestep time="0.0">'
            '<vehicle id="car1" x="1.0" y="0.0" speed="1.0"/>'
            '<vehicle id="car1" x="2.0" y="0.0" speed="1.0"/>'
            "</timestep></fcd-export>\n"
        )
        with pytest.raises(TraceFormatError, match="'car1': duplicate row at step 0"):
            read_fcd_xml(path, {"car1": 0})

    def test_syntax_error_reports_byte_offset(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<fcd-export>\n  <timestep\n")
        with pytest.raises(TraceFormatError, match="byte offset"):
            read_fcd_xml(path, {})

    @pytest.mark.parametrize("separator", ["\u2028", "\x85"])
    def test_syntax_error_byte_offset_counts_lf_alone_as_a_line_end(self, tmp_path, separator):
        """str.splitlines() also ends a line at U+2028 or NEL; expat does not."""
        text = (f'<fcd-export>\n<timestep time="0"><vehicle id="a{separator}b" x="1" y="2"'
                ' speed="3"/></timestep>\n<timestep time="1">\n<bad')
        path = tmp_path / "bad.xml"
        path.write_text(text, encoding="utf-8")
        offset = text.encode().index(b"<bad")
        with pytest.raises(TraceFormatError, match=rf"byte offset {offset} \(line 4, column 0\)"):
            read_fcd_xml(path, {})


@pytest.mark.parametrize("reader, header", [
    (read_trace_csv, b"step,vehicle_id,x,y,speed,route_label\n0,v\xff,1,2,3,0\n"),
    (lambda path: read_fcd_xml(path, {}), b"<fcd-export>\xff</fcd-export>\n"),
    (read_label_csv, b"vehicle_id,route_label\nv\xff,0\n"),
    (read_examples_csv, b"x,y,label\n1,2,1\n\xff\n"),
], ids=["trace", "fcd", "labels", "examples"])
def test_non_utf8_file_is_a_format_error(tmp_path, reader, header):
    path = tmp_path / "bad"
    path.write_bytes(header)
    with pytest.raises(TraceFormatError, match="not UTF-8 text"):
        reader(path)


@pytest.mark.parametrize("vehicle_id", ["a,b", "a&#10;b", "a&#13;b"])
def test_fcd_id_a_trace_csv_cannot_hold_is_rejected(tmp_path, vehicle_id):
    path = tmp_path / "id.xml"
    path.write_text(
        '<fcd-export><timestep time="0">'
        f'<vehicle id="{vehicle_id}" x="1" y="2" speed="3"/>'
        "</timestep></fcd-export>\n"
    )
    name = vehicle_id.replace("&#10;", "\n").replace("&#13;", "\r")
    with pytest.raises(TraceFormatError, match=f"vehicle {re.escape(repr(name))}: "):
        read_fcd_xml(path, {name: 0})


class TestLabelCsv:
    def test_round_trip(self, tmp_path):
        table = {"a": 0, "b": 1, "c": 0}
        path = tmp_path / "labels.csv"
        write_label_csv(table, path)
        assert read_label_csv(path) == table

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("vehicle_id,route_label\nv1,0\nv1,1\n")
        with pytest.raises(TraceFormatError, match="duplicate"):
            read_label_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("vehicle_id,route_label\nv1,2\n")
        with pytest.raises(TraceFormatError):
            read_label_csv(path)


class TestExamplesCsv:
    def test_round_trip(self, tmp_path):
        dataset = Dataset(
            examples=(
                LabeledExample((1.25, -0.5), 1),
                LabeledExample((200.0, -2.0), -1),
            ),
        )
        path = tmp_path / "examples.csv"
        write_examples_csv(dataset, path)
        restored = read_examples_csv(path)
        assert restored.examples == dataset.examples

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1.0,2.0,0\n")
        with pytest.raises(TraceFormatError):
            read_examples_csv(path)

    def test_non_finite_value_names_line(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x,y,label\n1.0,2.0,1\ninf,2.0,-1\n")
        with pytest.raises(TraceFormatError, match="line 3: non-finite"):
            read_examples_csv(path)


class TestSampling:
    def test_exhaustive_selection_uses_every_vehicle(self, small_trace):
        n = len(small_trace.vehicle_ids)
        ds = sample_examples(small_trace, n, seed=1)
        assert len(ds.examples) == n
        assert tuple(sorted(ds.vehicle_ids)) == small_trace.vehicle_ids

    def test_determinism(self, small_trace):
        a = sample_examples(small_trace, 20, seed=5)
        b = sample_examples(small_trace, 20, seed=5)
        assert a == b

    def test_labels_mapped_canonically(self, small_trace):
        ds = sample_examples(small_trace, len(small_trace.vehicle_ids), seed=2)
        labels_by_vehicle = label_table_of(small_trace)
        for vid, example in zip(ds.vehicle_ids, ds.examples):
            expected = 1 if labels_by_vehicle[vid] == 0 else -1
            assert example.label == expected

    def test_features_come_from_vehicle_points(self, small_trace):
        ds = sample_examples(small_trace, 10, seed=4)
        point_set = {(vid, x, y) for _, vid, x, y, *_ in rows_of(small_trace)}
        for vid, example in zip(ds.vehicle_ids, ds.examples):
            assert (vid, example.features[0], example.features[1]) in point_set

    def test_label_counts_in_binomial_band(self, default_trace):
        ds = sample_examples(default_trace, 400, seed=7)
        positives = sum(1 for e in ds.examples if e.label == 1)
        assert 140 <= positives <= 260
        assert 140 <= 400 - positives <= 260

    def test_insufficient_vehicles(self, small_trace):
        with pytest.raises(InsufficientVehiclesError):
            sample_examples(small_trace, 1000, seed=0)

    def test_negative_size_rejected(self, small_trace):
        with pytest.raises(ValueError, match="sample size must be at least 0, got -1"):
            sample_examples(small_trace, -1, seed=0)

    @pytest.mark.parametrize("n,seed,banned", [(60, 1, 0), (25, 9, 30), (0, 2, 0), (400, 7, 150)])
    def test_matches_per_vehicle_reference(self, small_trace, default_trace, n, seed, banned):
        trace = default_trace if n > 60 else small_trace
        exclude = trace.vehicle_ids[::2][:banned]
        expected = reference_sample(trace, n, seed, exclude)
        ds = sample_examples(trace, n, seed, exclude_vehicles=exclude)
        assert (ds.vehicle_ids, ds.examples) == expected

    def test_exclusion_respected(self, small_trace):
        banned = small_trace.vehicle_ids[:10]
        ds = sample_examples(small_trace, 30, seed=3, exclude_vehicles=banned)
        assert not set(ds.vehicle_ids) & set(banned)


def reference_sample(trace, n, seed, exclude):
    """The sampler written out row by row: regroup the trace per vehicle,
    pick vehicles by seeded partial Fisher-Yates, then one step each."""
    by_vehicle: dict[str, list[tuple]] = {}
    for row in sorted(rows_of(trace), key=lambda r: (r[1], r[0])):
        by_vehicle.setdefault(row[1], []).append(row)
    pool = sorted(v for v in by_vehicle if v not in set(exclude))
    rng = random.Random(seed)
    for i in range(n):
        j = i + min(int(rng.random() * (len(pool) - i)), len(pool) - i - 1)
        pool[i], pool[j] = pool[j], pool[i]
    examples = []
    for vid in pool[:n]:
        rows = by_vehicle[vid]
        _, _, x, y, _, route = rows[min(int(rng.random() * len(rows)), len(rows) - 1)]
        examples.append(LabeledExample((x, y), 1 if route == 0 else -1))
    return tuple(pool[:n]), tuple(examples)


class TestSplitDisjoint:
    """Train/test splits drawn with ``eval_pipeline.split_examples``."""

    @staticmethod
    def split(trace, n_train, n_test, seed):
        train_ds, (test_ds,) = split_examples(trace, n_train, (n_test,), seed)
        return train_ds, test_ds

    def test_full_partition(self, small_trace):
        n = len(small_trace.vehicle_ids)
        train_ds, test_ds = self.split(small_trace, n - 10, 10, seed=1)
        combined = tuple(sorted(train_ds.vehicle_ids + test_ds.vehicle_ids))
        assert combined == small_trace.vehicle_ids

    def test_disjoint_vehicle_sets(self, small_trace):
        train_ds, test_ds = self.split(small_trace, 30, 20, seed=2)
        assert not set(train_ds.vehicle_ids) & set(test_ds.vehicle_ids)

    def test_sizes_exact_on_default_trace(self, default_trace):
        train_ds, test_ds = self.split(default_trace, 400, 100, seed=7)
        assert len(train_ds.examples) == 400
        assert len(test_ds.examples) == 100

    def test_insufficient_vehicles(self, small_trace):
        with pytest.raises(InsufficientVehiclesError):
            self.split(small_trace, 50, 20, seed=0)

    def test_determinism(self, small_trace):
        assert self.split(small_trace, 30, 20, seed=4) == self.split(small_trace, 30, 20, seed=4)
