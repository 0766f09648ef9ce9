"""File formats: round trips, canonical emission, and line-numbered errors."""

from __future__ import annotations

import pytest

from matlift.core import mask_of, uniform_matroid
from matlift.gf import GfMatrix
from matlift.groups import builtin_group
from matlift.io import (
    ParseError,
    emit_matroid_text,
    parse_group_text,
    parse_lift_text,
    parse_matrix_text,
    parse_matroid_text,
)
from matlift.krt import KrtSpec, build_krt
from matlift.lifts import LiftSpec


class TestMatroidFormat:
    def test_roundtrip_uniform(self):
        m = uniform_matroid(2, 4)
        assert parse_matroid_text(emit_matroid_text(m)) == m

    def test_roundtrip_k43(self):
        m = build_krt(KrtSpec(4, 3)).to_matroid()
        assert parse_matroid_text(emit_matroid_text(m)) == m

    def test_emission_is_byte_stable(self):
        m = build_krt(KrtSpec(4, 3)).to_matroid()
        assert emit_matroid_text(m) == emit_matroid_text(parse_matroid_text(emit_matroid_text(m)))

    def test_comments_and_blank_lines(self):
        text = "# a matroid\nmatroid 3 circuits\n\n1 2  # a circuit\n"
        m = parse_matroid_text(text)
        assert m.circuits == (mask_of([0, 1]),)

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_matroid_text("matroid circuits 3\n")
        assert err.value.line == 1

    def test_out_of_range_element(self):
        with pytest.raises(ParseError) as err:
            parse_matroid_text("matroid 3 circuits\n1 4\n")
        assert err.value.line == 2

    def test_axiom_violation_at_load(self):
        from matlift.core import CircuitAxiomError

        with pytest.raises(CircuitAxiomError):
            parse_matroid_text("matroid 4 circuits\n1 2\n1 2 3\n")

    def test_repeated_element(self):
        with pytest.raises(ParseError):
            parse_matroid_text("matroid 3 circuits\n1 1 2\n")


class TestGroupFormat:
    def test_roundtrip_builtin(self):
        for name in ["z4", "s3", "q8"]:
            g = builtin_group(name)
            rows = [" ".join(g.names[x] for x in row) for row in g.table]
            back = parse_group_text("\n".join([f"group {g.order}", " ".join(g.names), *rows]) + "\n")
            assert back.table == g.table and back.names == g.names

    def test_bad_table_entry(self):
        text = "group 2\ne a\ne a\na b\n"
        with pytest.raises(ParseError) as err:
            parse_group_text(text)
        assert err.value.line == 4

    def test_axiom_failure_reported(self):
        # constant-row table: no two-sided identity exists
        text = "group 2\ne a\ne a\ne a\n"
        with pytest.raises(ParseError, match="identity"):
            parse_group_text(text)

    def test_truncated(self):
        with pytest.raises(ParseError):
            parse_group_text("group 3\na b c\na b c\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("group x\n", "<string>:1: bad group order 'x'"),
            ("group 2\ne\ne a\na e\n", "<string>:2: expected 2 element names, got 1"),
            ("group 2\ne e\ne e\ne e\n", "<string>:2: element names must be distinct"),
        ],
        ids=["order", "too-few-names", "repeated-names"],
    )
    def test_header_and_name_line_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_group_text(text)
        assert str(err.value) == message

    def test_extra_line_after_table(self):
        text = "group 2\ne a\ne a\na e\n# comment\njunk row here\ne a\n"
        with pytest.raises(ParseError, match="after the 2 table rows") as err:
            parse_group_text(text)
        assert err.value.line == 6


class TestMatrixFormat:
    def test_roundtrip(self):
        a = GfMatrix(3, [[1, 0, 2], [2, 1, 1]])
        rows = "".join(" ".join(map(str, row)) + "\n" for row in a.data)
        assert parse_matrix_text(f"gf {a.p} {a.rows} {a.cols}\n{rows}") == a

    def test_bad_width(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("gf 3 2 3\n1 0 2\n2 1\n")
        assert err.value.line == 3

    def test_extra_rows_named_at_the_first(self):
        with pytest.raises(ParseError, match="expected 1 matrix rows, got 3") as err:
            parse_matrix_text("gf 3 1 2\n1 2\n0 1\n0 0\n")
        assert err.value.line == 3

    def test_missing_rows_named_at_the_last_line(self):
        with pytest.raises(ParseError, match="expected 3 matrix rows, got 2") as err:
            parse_matrix_text("gf 3 3 2\n1 2\n0 1\n# end\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("text", ["gf 3 -1 2\n1 2\n", "gf 3 1 -2\n1 2\n", "gf 3 0 2\n"])
    def test_nonpositive_dimension_named_at_the_header(self, text):
        with pytest.raises(ParseError, match="^<string>:1: matrix dimensions must be positive$"):
            parse_matrix_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("gf 3 a 2\n1 2\n", "<string>:1: bad header numbers in 'gf 3 a 2'"),
            ("gf 3 1 2\n1 x\n", "<string>:2: non-integer entry in '1 x'"),
        ],
        ids=["header", "entry"],
    )
    def test_non_integer_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_matrix_text(text)
        assert str(err.value) == message

    def test_composite_order_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_text("gf 6 1 2\n1 2\n")


class TestLiftFormat:
    def test_roundtrip(self):
        # the overlay section may carry the circuit index map as comments
        base = uniform_matroid(1, 3)
        spec = LiftSpec(base, uniform_matroid(2, 3))
        text = "base\n" + emit_matroid_text(base) + "overlay\n# circuit 1: 1 2\n# circuit 2: 1 3\n# circuit 3: 2 3\n"
        back = parse_lift_text(text + emit_matroid_text(spec.overlay))
        assert back.base == spec.base
        assert back.overlay == spec.overlay

    def test_duplicate_section(self):
        text = "base\nmatroid 3 circuits\n1 2\n1 3\n2 3\nbase\noverlay\nmatroid 3 circuits\n"
        with pytest.raises(ParseError) as err:
            parse_lift_text(text)
        assert str(err.value) == "<string>:6: duplicate section 'base'"

    def test_missing_section(self):
        with pytest.raises(ParseError):
            parse_lift_text("base\nmatroid 3 circuits\n1 2\n")

    def test_overlay_size_mismatch(self):
        text = "base\nmatroid 3 circuits\n1 2\n1 3\n2 3\noverlay\nmatroid 2 circuits\n1 2\n"
        with pytest.raises(ParseError):
            parse_lift_text(text)

    def test_section_error_names_the_file_line(self):
        text = "# spec\n\nbase\nmatroid 3 circuits\n1 2\n1 9\noverlay\nmatroid 2 circuits\n"
        with pytest.raises(ParseError, match="element 9 outside") as err:
            parse_lift_text(text)
        assert str(err.value).startswith("<string>:6: ")

    def test_empty_section_named_at_its_marker(self):
        text = "base\nmatroid 3 circuits\n1 2\n\noverlay  # none\n# no body\n"
        with pytest.raises(ParseError, match="empty matroid file") as err:
            parse_lift_text(text)
        assert str(err.value).startswith("<string>:5: ")
