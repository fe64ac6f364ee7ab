import logging
import math
import pickle
import random
import re
import sys
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
    JUNK_FIELDS,
    assert_writes_reference_bytes,
    kernel_and_fallback,
    label_table_of,
    peak_allocation,
    pickled_and_deep_copies,
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


# Vehicle 5's 30 speeds or route labels in a trace whose speed,route tail
# changes within a vehicle.  Generated speeds have 17- to 24-byte tails, which
# the reader compares, as do the last two cases; 2.0 and 0 have shorter ones.
TAIL_CHANGES = [
    ("speed", [2.0] * 10 + [2.25] * 20),  # a speed change inside one 8192-row batch
    ("speed", [0.0, -0.0] * 15),  # equal as floats, not as text
    ("route_label", [0] * 15 + [1] * 15),
    ("speed", [0.1] * 10 + [0.30000000000000004] * 20),
    ("speed", [0.12345678901234568, -0.12345678901234568] * 15),  # tails one "-" apart
    ("speed", [1.1, 2.1] * 15),  # tails apart in their first byte alone
]


def with_vehicle_5(trace: Trace, field: str, values: list) -> Trace:
    points = trace.points.copy()
    points[field][points["vehicle"] == 5] = values
    return make_trace(points, trace.vehicle_ids)


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

    @pytest.mark.parametrize("batch", [7, 8192])
    @pytest.mark.parametrize("field, values", TAIL_CHANGES)
    def test_a_vehicle_whose_tail_changes_matches_the_per_row_reference(
        self, small_trace, tmp_path, monkeypatch, batch, field, values
    ):
        monkeypatch.setattr(dataset_io, "_WRITE_BATCH", batch)
        assert_writes_reference_bytes(with_vehicle_5(small_trace, field, values), tmp_path)

    @pytest.mark.parametrize("chunk", [7, 8192])
    @pytest.mark.parametrize("field, values", TAIL_CHANGES)
    def test_a_vehicle_whose_tail_changes_reads_the_same_either_way(
        self, small_trace, tmp_path, monkeypatch, chunk, field, values
    ):
        """7-line blocks put the change in a later block than the vehicle's first row."""
        monkeypatch.setattr(dataset_io, "_CHUNK", chunk)
        trace = with_vehicle_5(small_trace, field, values)
        write_trace_csv(trace, tmp_path / "trace.csv")
        outcome, fallback = kernel_and_fallback(tmp_path / "trace.csv")
        assert outcome == fallback
        if field == "route_label":
            assert outcome == f"vehicle {trace.vehicle_ids[5]!r}: route_label changes between rows"
        else:
            assert outcome == (trace.points.tobytes(), trace.vehicle_ids)

    def test_a_generated_trace_formats_speed_once_per_vehicle(
        self, small_trace, tmp_path, monkeypatch
    ):
        formatted = []
        float_text = dataset_io._float_text
        monkeypatch.setattr(dataset_io, "_float_text", lambda v: formatted.append(len(v)) or float_text(v))
        write_trace_csv(small_trace, tmp_path / "trace.csv")
        assert sum(formatted) == 2 * len(small_trace.points) + len(small_trace.vehicle_ids)

    def test_a_written_trace_parses_speed_once_per_vehicle(
        self, small_trace, tmp_path, monkeypatch
    ):
        parsed = []
        parse_floats = dataset_io._parse_floats
        monkeypatch.setattr(dataset_io, "_parse_floats",
                            lambda *args: parsed.append(len(args[2])) or parse_floats(*args))
        write_trace_csv(small_trace, tmp_path / "trace.csv")
        assert read_trace_csv(tmp_path / "trace.csv") == small_trace
        assert sum(parsed) == 2 * len(small_trace.points) + len(small_trace.vehicle_ids)

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
        ("2,v9,1,-1e+400,1,0", "non-finite value"),  # canonical: the digit kernel reads it
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


@pytest.fixture
def row_parsed_blocks(monkeypatch) -> list:
    """The data line count of each block the trace reader parses row by row."""
    blocks = []
    parse = dataset_io._parse_block
    monkeypatch.setattr(dataset_io, "_parse_block", lambda block, line_no: blocks.append(
        sum(line != "\n" for line in block)) or parse(block, line_no))
    return blocks


# Decimals that are hard to round, each with the float Python reads.
HARD_DECIMALS = [
    "9007199254740993", "9007199254740995",  # 2**53 + 1 and + 3: ties, to even
    "4503599627370496.5", "4503599627370499.5",  # ties whose first quotient is odd
    "931.0715003564377", "8.8682662950964500",  # the first quotient is one ulp low
    "1341567960.4756883", "65.695431087769541",  # and one ulp high
    "0.0001", "9.9999999999999991e-05",  # where .17g switches form
    "99999999999999984", "1e+17",
]


def random_decimals(rng: random.Random, n: int) -> list[str]:
    """Decimals in the digit kernel's grammar: up to 20 digits split by a
    point anywhere, with or without an exponent, and floats written .17g."""
    texts = []
    for _ in range(n):
        digits = "".join(rng.choices("0123456789", k=rng.randint(1, 20)))
        point = rng.randint(0, len(digits) - 1)
        text = digits if point == 0 else f"{digits[:point]}.{digits[point:]}"
        if rng.random() < 0.3:
            power = rng.randint(-330, 280)  # 20 digits and e+280 are still finite
            text += f"e{'-+'[power >= 0]}{abs(power):0{rng.randint(2, 3)}d}"
        texts.append(text)
        texts.append(format(rng.random() * 10.0 ** rng.randint(-12, 20), ".17g"))
    return texts


class TestTraceCsvDigitKernel:
    """read_trace_csv parses a block whose numbers are in the canonical
    grammar with its digit kernel and any other block row by row; the two
    must give the same trace, or the same error."""

    HEADER = "step,vehicle_id,x,y,speed,route_label\n"

    def test_the_reader_kernel_facts_about_powers_of_ten(self):
        """10**k is an exact float for k <= 22, and not for k = 23; so is every
        m < 2**53, and m / 10**k is one correctly rounded division.  For
        2**53 <= m < 10**17, q = fl(fl(m) / 10**k) is under 1.5 ulps from
        m / 10**k, and q·10**k = hi + lo with hi an integer and m - hi small:
        the residual check is exact, and one step reaches the nearest float."""
        for k, p in enumerate(dataset_io._POW10.tolist()):
            assert Fraction(p) == 10**k
        assert Fraction(float(10**23)) != 10**23
        rng = random.Random(3)
        for _ in range(2000):
            k, m = rng.randint(0, 22), rng.randrange(2**53, 10**17)
            q = float(m) / dataset_io._POW10[k]
            assert abs(Fraction(q) - Fraction(m, 10**k)) < Fraction(3, 2) * Fraction(math.ulp(q))
        for k in range(23):
            for m in (2**53, 2**53 + 1, 10**16 + 1, 10**17 - 1):
                q = np.array([float(m) / dataset_io._POW10[k]])
                hi, lo = dataset_io._two_prod(q, dataset_io._POW10[k : k + 1])
                assert Fraction(hi[0]) + Fraction(lo[0]) == Fraction(q[0]) * 10**k
                assert hi[0] >= 2**52 and hi[0] == int(hi[0]) and abs(m - int(hi[0])) < 64

    @pytest.mark.parametrize("rows, kernel", [
        ("0,a,+0,1,2,0\n", False),
        ("0,a, 1,1,2,0\n", False),
        ("0,a,1\t,1,2,0\n", False),
        ("0,a,.5,1,2,0\n", False),
        ("0,a,5.,1,2,0\n", False),
        ("0,a,1E3,1,2,0\n", False),
        ("-1,a,1,2,3,0\n", False),  # a negative step
        ("0,a,1e-400,1,2,0\n", True),
        ("0,a,123456789012345678901234567890.123,1,2,0\n", True),  # a 33-digit mantissa
        ("0,a,1,2,3,0\r\n1,a,1,2,3,0\r\n", True),
        ("0,a,1,2,3,0\r1,a,1,2,3,0\r", True),
        ("0,a,1,2,3,0\n1,a,1,2,3,0", True),  # no final newline
        ("0,,1,2,3,0\n", True),  # an empty id
    ])
    def test_forms_the_reader_accepts_read_the_same_either_way(
        self, tmp_path, row_parsed_blocks, rows, kernel
    ):
        path = tmp_path / "trace.csv"
        path.write_bytes((self.HEADER + rows).encode())
        read_trace_csv(path)
        assert row_parsed_blocks == ([] if kernel else [rows.count("\n")])
        outcome, fallback = kernel_and_fallback(path)
        assert outcome == fallback and not isinstance(outcome, str)

    def test_a_block_the_kernel_declines_stores_no_tail(self, tmp_path, monkeypatch,
                                                         row_parsed_blocks):
        """Vehicle a's first row is in a 3-line block the kernel declines for
        another row's speed, "+1"; a's next row, with the same tail, is parsed."""
        monkeypatch.setattr(dataset_io, "_CHUNK", 3)
        tail = "0.10000000000000001,0\n"
        path = tmp_path / "trace.csv"
        path.write_text(self.HEADER + f"0,a,1,2,{tail}0,b,1,2,+1,0\n0,c,1,2,1,0\n1,a,1,2,{tail}")
        assert read_trace_csv(path).points["speed"].tolist() == [0.1, 1, 1, 0.1]
        assert row_parsed_blocks == [3]
        outcome, fallback = kernel_and_fallback(path)
        assert outcome == fallback

    @pytest.mark.parametrize("chunk", [2, 8192])
    @pytest.mark.parametrize("ids", [
        ["a", "a\x00", "\x00a", "\x00"],
        ["v" * 8, "v" * 9, "w" * 8, "v" * 8 + "\x00"],
        ["x" * 16, "x" * 15 + "y", "\x00" * 16, "x" * 17],
        ["\xff\u20ac\U0001f600", "\u00e9", "e\u0301"],  # UTF-8 of 2, 3 and 4 bytes
        ["v" * 2000, "v" * 1999 + "w", "v1"],
        ["", "v1.5e3", "-1", "0"],
    ])
    def test_ids_of_any_length_take_the_kernel(self, tmp_path, monkeypatch, row_parsed_blocks,
                                               chunk, ids):
        monkeypatch.setattr(dataset_io, "_CHUNK", chunk)
        trace = trace_from_rows((step, vid, 0.5 * step, -1.25, 3.0 + i, i % 2)
                                for i, vid in enumerate(ids) for step in range(3))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace
        assert row_parsed_blocks == []
        outcome, fallback = kernel_and_fallback(path)
        assert outcome == fallback == (trace.points.tobytes(), trace.vehicle_ids)

    def test_decimals_read_as_python_reads_them(self, tmp_path, row_parsed_blocks):
        """Bit for bit, signed or not."""
        texts = HARD_DECIMALS + random_decimals(random.Random(5), 2000)
        path = tmp_path / "trace.csv"
        path.write_text(self.HEADER + "".join(
            f"{i},v,{x},-{x},{x},0\n" for i, x in enumerate(texts)))
        points = read_trace_csv(path).points
        assert row_parsed_blocks == []
        expected = np.array([float(x) for x in texts])
        for field, sign in (("x", 1), ("y", -1), ("speed", 1)):
            assert points[field].tobytes() == (sign * expected).tobytes()

    @pytest.mark.parametrize("jitter", [False, True])
    def test_a_written_trace_takes_the_kernel(self, small_trace, tmp_path, row_parsed_blocks, jitter):
        traces = [small_trace, generate_trace(ScenarioConfig(num_vehicles=2000, rng_seed=11))]
        for i, trace in enumerate(traces):
            if jitter:
                points = trace.points.copy()
                points["speed"] += np.random.default_rng(i).uniform(-0.5, 0.5, len(points))
                trace = make_trace(points, trace.vehicle_ids)
            write_trace_csv(trace, tmp_path / "trace.csv")
            assert read_trace_csv(tmp_path / "trace.csv") == trace
        assert row_parsed_blocks == []


# The columns np.loadtxt read from a trace CSV row before the row grammar, a
# reference for it; route_label is read wide, so a large label does not wrap.
LOADTXT_COLUMNS = np.dtype([("step", np.int64), ("x", float), ("y", float), ("speed", float),
                            ("route_label", np.int64)])


def loadtxt_row(line: str) -> bytes | None:
    """The row's bytes as np.loadtxt reads it, or None where that or the
    route label and finiteness checks after it refuse the row."""
    try:
        row = np.loadtxt([line], dtype=LOADTXT_COLUMNS, delimiter=",",
                         usecols=(0, 2, 3, 4, 5), comments=None)
    except ValueError:
        return None
    finite = all(math.isfinite(row[f]) for f in ("x", "y", "speed"))
    return row.tobytes() if finite and row["route_label"] in (0, 1) else None


def parsed_row(line: str) -> bytes | None:
    try:
        columns = dataset_io._parse_block([line], 2)
    except TraceFormatError:
        return None
    return np.array(tuple(column[0] for column in columns.values()), LOADTXT_COLUMNS).tobytes()


def test_the_row_parser_reads_what_np_loadtxt_read():
    """Every junk field, and every ASCII character but the separators placed
    before, inside and after 1 and -2.5, in each numeric column: the row
    parser takes a row exactly where np.loadtxt did, with the same bits,
    except that it refuses padding of \\x1c-\\x1f, which Python's int and
    float do not strip and np.loadtxt did."""
    texts = list(JUNK_FIELDS)
    for number in ("1", "-2.5"):
        for c in map(chr, range(128)):
            if c not in ",\r\n":
                texts += [number[:i] + c + number[i:] for i in range(len(number) + 1)]
    padded, compared = 0, 0
    for column in (0, 2, 3, 4, 5):
        for text in texts:
            fields = ["0", "v", "1", "-2.5", "3", "1"]
            fields[column] = text
            line = ",".join(fields) + "\n"
            expected = loadtxt_row(line)
            if expected is not None and any("\x1c" <= c <= "\x1f" for c in text):
                assert parsed_row(line) is None, repr(line)
                padded += 1
            else:
                assert parsed_row(line) == expected, repr(line)
                compared += expected is not None
    assert padded > 0 and compared > 0


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

    @pytest.mark.parametrize("text", [
        '<fcd-export>\r\n<timestep time="0">\r\n<bad',
        '<fcd-export>\r<timestep time="0">\r<bad',
        '<fcd-export>\r\n<timestep time="0">\n<bad',
        '<bad',
        '<fcd-export>\r\n<timestep time="\u00e9\u2028"> <bad',
    ], ids=["crlf", "cr", "mixed", "first-line", "non-ascii-column"])
    def test_syntax_error_byte_offset_counts_the_bytes_of_the_file(self, tmp_path, text):
        """Line ends count as written (CRLF is two bytes) and columns count
        characters, so the offset is where the error is in the file."""
        path = tmp_path / "bad.xml"
        path.write_bytes(text.encode("utf-8"))
        offset = text.encode("utf-8").index(b"<bad")
        with pytest.raises(TraceFormatError, match=rf"byte offset {offset} \("):
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


@pytest.mark.parametrize("reader, text, message", [
    (read_label_csv, "vehicle_id,route_label\nv1,0\n\nv2,0,1\n", "line 4: expected 2 fields, got 3"),
    (read_label_csv, "vehicle_id,route_label\nv1,zero\n",
     r"line 2: non-numeric field \(invalid literal for int\(\) with base 10: 'zero'\)"),
    (read_examples_csv, "x,y,label\n\n1,2\n", "line 3: expected 3 fields, got 2"),
    (read_examples_csv, "x,y,label\n1,2,1\n1,y,1\n",
     r"line 3: non-numeric field \(could not convert string to float: 'y'\)"),
], ids=["labels-fields", "labels-number", "examples-fields", "examples-number"])
def test_csv_row_errors_name_their_file_line(tmp_path, reader, text, message):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(TraceFormatError, match=f"^{message}$"):
        reader(path)


# Each CSV reader, its header and the kind of each of its fields.
CSV_KINDS = {
    "trace": (read_trace_csv, dataset_io.TRACE_HEADER, (int, str, float, float, float, int)),
    "labels": (read_label_csv, dataset_io.LABEL_HEADER, (str, int)),
    "examples": (read_examples_csv, dataset_io.EXAMPLES_HEADER, (float, float, int)),
}


@pytest.mark.parametrize("reader", CSV_KINDS)
@pytest.mark.parametrize("text", ["1_0", "\u0661", "\u0663.5", "+1", " 1", "1e0"])
def test_every_csv_reads_a_number_as_the_trace_does(tmp_path, row_parsed_blocks, reader, text):
    """A numeric field of a row-parsed trace block, a label CSV or an examples
    CSV is what Python's int or float reads from ASCII text without "_"; an
    id may hold "_"."""
    read, header, kinds = CSV_KINDS[reader]
    path = tmp_path / "rows.csv"

    def read_row(fields):
        path.write_text(f"{header}\n{','.join(fields)}\n")
        return read(path)

    ones = ["v_1" if kind is str else "1" for kind in kinds]
    expected = read_row(ones)
    refused = rf"^line 2: non-numeric field \({re.escape(repr(text))} is not ASCII without '_'\)$"
    for i, kind in enumerate(kinds):
        if kind is str or kind is int and text in ("\u0663.5", "1e0"):
            continue  # int() refuses them
        fields = [*ones[:i], text, *ones[i + 1:]]
        if text.isascii() and "_" not in text:
            assert read_row(fields) == expected, i
        else:
            with pytest.raises(TraceFormatError, match=refused):
                read_row(fields)
    assert bool(row_parsed_blocks) == (reader == "trace")  # the digit kernel declines each


@pytest.mark.parametrize("attr", ["x", "y", "speed"])
def test_fcd_non_numeric_value_is_rejected(tmp_path, attr):
    values = {"x": "1", "y": "2", "speed": "3", attr: "fast"}
    path = tmp_path / "text.xml"
    path.write_text('<fcd-export><timestep time="0"><vehicle id="v" '
                    + " ".join(f'{k}="{v}"' for k, v in values.items())
                    + "/></timestep></fcd-export>\n")
    with pytest.raises(TraceFormatError,
                       match="^vehicle 'v': could not convert string to float: 'fast'$"):
        read_fcd_xml(path, {"v": 0})


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
        dataset = Dataset([(1.25, -0.5), (200.0, -2.0)], [1, -1])
        path = tmp_path / "examples.csv"
        write_examples_csv(dataset, path)
        restored = read_examples_csv(path)
        assert restored.examples == dataset.examples

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1.0,2.0,0\n")
        with pytest.raises(TraceFormatError):
            read_examples_csv(path)

    @pytest.mark.parametrize("features", [[(1.0, 2.0, 3.0)], [(1.0,)]])
    def test_features_other_than_x_y_are_refused(self, features, tmp_path):
        # a 3-feature row (1, 2, 3) was written as "1,2,1", losing a feature
        path = tmp_path / "examples.csv"
        with pytest.raises(ValueError, match="2 features"):
            write_examples_csv(Dataset(features, [1]), path)
        assert not path.exists()

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

    @pytest.mark.parametrize("n", [0, 5])
    def test_negative_seed_rejected(self, small_trace, n):
        # random.Random(-3) is random.Random(3): the seed would alias
        with pytest.raises(ValueError, match="sample seed must be at least 0, got -3"):
            sample_examples(small_trace, n, seed=-3)

    def test_numpy_integer_seed_is_its_int(self, small_trace):
        assert sample_examples(small_trace, 5, np.int64(3)) == sample_examples(small_trace, 5, 3)

    @pytest.mark.parametrize("seed", [3.0, 3.5])
    def test_non_integer_seed_rejected(self, small_trace, seed):
        # int(3.5) would alias seed 3
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            sample_examples(small_trace, 5, seed)

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


class TestDataset:
    def test_arrays_are_read_only_copies(self):
        features, labels = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, -1])
        ds = Dataset(features, labels)
        features[0, 0], labels[0] = 9.0, -1
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]] and ds.labels.tolist() == [1, -1]
        for array in (ds.features, ds.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_pickled_and_deep_copies_are_checked_read_only_copies(self):
        ds = Dataset([(1.0, 2.0), (3.0, 4.0)], [1, -1], ("v1", "v2"))
        for copied in pickled_and_deep_copies(ds):
            assert copied == ds
            for array in (copied.features, copied.labels):
                assert not array.flags.writeable
        object.__setattr__(ds, "labels", np.array([1, 2]))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            with pytest.raises(ValueError, match="labels must be"):
                pickle.loads(pickle.dumps(ds, protocol))

    @pytest.mark.parametrize("features, labels, message", [
        ([(1.0, 2.0)], [0], "labels must be"),
        ([(1.0, 2.0), (3.0, 4.0)], [1, 2], "labels must be"),
        ([(1.0, 2.0)], [0.5], "labels must be"),
        ([(1.0, math.nan)], [1], "finite"),
        ([(math.inf, 2.0)], [-1], "finite"),
        ([(1.0, 2.0), (3.0, 4.0)], [1], "are not"),
        ([(1.0, 2.0)], [1, -1], "are not"),
        ([1.0, 2.0], [1, -1], "are not"),
    ])
    def test_bad_arrays_are_refused(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features, labels)

    def test_text_features_are_refused(self):
        with pytest.raises(TypeError):
            Dataset([("1.5", "2.0")], [1])

    def test_labels_of_another_type_are_stored_as_int(self):
        ds = Dataset([(1, 2), (3, 4)], [1.0, True])
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [1, 1]

    def test_compares_by_value(self):
        ds = Dataset([(1.0, 2.0)], [1], ("v1",))
        assert ds == Dataset(np.array([[1.0, 2.0]]), np.array([1]), ("v1",))
        assert ds != Dataset([(1.0, 2.0)], [1], ("v2",))
        assert ds != Dataset([(1.0, 2.0)], [-1], ("v1",))
        assert ds != Dataset([(1.0, 2.5)], [1], ("v1",))

    def test_examples_are_built_once(self, monkeypatch, small_trace):
        ds = sample_examples(small_trace, 20, seed=3)
        built = count_examples(monkeypatch)
        examples = ds.examples
        assert len(built) == 20 and ds.examples is examples
        assert [e.features for e in examples] == [tuple(row) for row in ds.features.tolist()]
        assert [e.label for e in examples] == ds.labels.tolist()

    def test_default_run_paper_builds_400_examples(self, monkeypatch, tmp_path):
        # only the standardized training list that svm.train takes
        from routesvm.cli import main

        built = count_examples(monkeypatch)
        assert main(["run-paper", "--out-dir", str(tmp_path)]) == 0
        assert len(built) == 400


def count_examples(monkeypatch) -> list:
    """A list that grows by one for each LabeledExample built from now on."""
    built = []
    post_init = LabeledExample.__post_init__

    def counting(self):
        built.append(None)
        post_init(self)

    monkeypatch.setattr(LabeledExample, "__post_init__", counting)
    return built


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
