"""The two coefficient fields: string codec round trips, agreement with the
per-module decoders they replaced, and bit-exact series interchange."""

import json
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlin.scalars import CC, FIELDS, QC, QQI, field_of
from germlin.series import FormalSeries, SeriesError, series_from_dict, series_to_dict

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

fractions = st.fractions(max_denominator=10 ** 6).filter(lambda x: abs(x) < 10 ** 9)
gaussian = st.builds(QC, fractions, fractions)
finite = st.floats(allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


# how decks ("3/5", "0.1", "-2") and Hopf data are written
ratio_strings = st.builds(lambda n, d: f"{n}/{d}", st.integers(-10 ** 6, 10 ** 6),
                          st.integers(1, 10 ** 6))
decimal_strings = st.decimals(-1000, 1000, allow_nan=False, places=6).map(str)
deck_strings = st.one_of(ratio_strings, decimal_strings, st.sampled_from(["0.1", "3/5", "-0.25"]))


@SETTINGS
@given(gaussian)
def test_exact_strings_round_trip(c):
    assert QQI.from_strings(*QQI.to_strings(c)) == c


@SETTINGS
@given(complexes)
def test_float_strings_round_trip_bit_for_bit(z):
    back = CC.from_strings(*CC.to_strings(z))
    assert back == z and bits(back) == bits(z)


@SETTINGS
@given(deck_strings, deck_strings)
def test_decoder_matches_the_decoders_it_replaced(re, im):
    # cli decks and the two Hopf decoders read Fraction, exact or rounded
    assert QQI.from_strings(re, im) == QC(Fraction(re), Fraction(im))
    assert CC.from_strings(re, im) == complex(float(Fraction(re)), float(Fraction(im)))


@SETTINGS
@given(complexes)
def test_float_decoder_matches_the_series_decoder_on_repr(z):
    # series_from_dict read float(re), float(im) on repr output
    re, im = CC.to_strings(z)
    assert bits(CC.from_strings(re, im)) == bits(complex(float(re), float(im)))


def test_fraction_and_decimal_deck_strings():
    assert QQI.from_strings("3/5", "0.1") == QC(Fraction(3, 5), Fraction(1, 10))
    assert CC.from_strings("3/5", "0.1") == complex(0.6, 0.1)
    assert bits(CC.from_strings("-0.0", "-0")) == bits(complex(-0.0, -0.0))
    for bad in ("inf", "nan", "1/0", "x"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            CC.from_strings(bad, "0")


def test_field_names_and_membership():
    assert FIELDS == {"exact": QQI, "float": CC}
    assert field_of([QC(1), QC(2)]) is QQI
    assert field_of([1 + 0j, 0.5]) is CC
    assert field_of([QC(1), 0.5 + 0j]) is None
    assert QQI.one == QC(1) and QQI.zero == QC(0)
    assert CC.one == 1 + 0j and CC.zero == 0j


@st.composite
def series(draw, field):
    n_h, n_v = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    trunc_h, trunc_v = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    key = st.tuples(st.tuples(*[st.integers(-2, 2)] * n_h),
                    st.tuples(*[st.integers(0, 2)] * n_v)).filter(
        lambda k: sum(map(abs, k[0])) <= trunc_h and sum(k[1]) <= trunc_v)
    coeff = gaussian if field is QQI else complexes
    terms = draw(st.dictionaries(key, coeff, max_size=6))
    return FormalSeries(n_h, n_v, terms, trunc_h, trunc_v, field)


@SETTINGS
@given(st.sampled_from([QQI, CC]).flatmap(series))
def test_series_json_round_trip_bit_for_bit(f):
    data = json.loads(json.dumps(series_to_dict(f)))
    assert data["mode"] == f.field.name
    back = series_from_dict(data)
    assert back == f and back.field is f.field
    assert (back.trunc_h, back.trunc_v) == (f.trunc_h, f.trunc_v)
    if f.field is CC:
        assert {k: bits(c) for k, c in back.terms.items()} == \
            {k: bits(c) for k, c in f.terms.items()}


def test_series_with_unknown_field_name_is_rejected():
    with pytest.raises(SeriesError):
        series_from_dict({"n_h": 1, "n_v": 1, "N_h": 0, "N_v": 0,
                          "mode": "banana", "records": []})
    with pytest.raises(SeriesError):
        FormalSeries(1, 1, None, 0, 0, "float")


def test_float_zero_tests_keep_their_comparisons():
    # strict < for divisors, compatibility and the Laurent budget
    assert not CC.is_zero(1e-15, lambda: 1e-15) and CC.is_zero(0.5e-15, lambda: 1e-15)
    assert QQI.is_zero(QC(0), None) and not QQI.is_zero(QC(0, 1), None)
    terms = {1: 1.0 + 0j, 2: 1e-14 + 0j, 3: 2e-14 + 0j}
    CC.prune(terms)
    assert list(terms) == [1, 3]
    assert CC.abs2(3 + 4j) == 25.0
