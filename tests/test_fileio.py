"""Key=value parsing, CSV formatting and atomic-write behavior."""

import math

import numpy as np
import pytest

from oamqkd import ValidationError
from oamqkd.fileio import (
    atomic_write_text,
    format_value,
    read_key_values,
    write_csv,
    write_key_values,
)


def test_float_formatting_ten_significant_digits():
    assert format_value(0.012345678949) == "0.01234567895"
    assert format_value(1.0 / 3.0) == "0.3333333333"
    assert format_value(math.nan) == "nan"
    assert format_value(9.35497389725e-5) == "9.354973897e-05"


def test_bool_formatting_lowercase():
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"


def test_numpy_scalar_formatting():
    assert format_value(np.float64(0.25)) == "0.25"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "sub" / "data.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert [p.name for p in target.parent.iterdir()] == ["data.txt"]


def test_key_value_round_trip(tmp_path):
    path = tmp_path / "kv.txt"
    write_key_values(path, {"a": 1, "b": 0.5, "flag": True})
    assert read_key_values(path) == {"a": "1", "b": "0.5", "flag": "true"}


def test_key_value_comments_and_blanks(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("# comment\n\nsource.mu = 0.623\n")
    assert read_key_values(path) == {"source.mu": "0.623"}


def test_key_value_malformed_line(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("just some text\n")
    with pytest.raises(ValidationError):
        read_key_values(path)


def test_csv_header_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.25), (2, True)])
    assert path.read_text() == "a,b\n1,0.25\n2,true\n"

