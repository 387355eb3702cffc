import math

import pytest

from conicac.bounds import sqrt_qlnq
from conicac.tables import (EXACT_T, KNOWN_TBAR_SAMPLE, TableFormatError,
                            embedded_table2_rows, load_table_csv, verify_rows)


def test_exact_table_contents():
    assert len(EXACT_T) == 15
    assert EXACT_T[5] == 5 and EXACT_T[32] == 15
    qs = sorted(EXACT_T)
    assert qs[0] == 5 and qs[-1] == 32
    # sizes are non-decreasing in q
    sizes = [EXACT_T[q] for q in qs]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_embedded_rows_all_pass():
    verdicts = verify_rows(embedded_table2_rows() + KNOWN_TBAR_SAMPLE)
    assert len(verdicts) == 15 + len(KNOWN_TBAR_SAMPLE)
    bad = [v for v in verdicts if not v.ok]
    assert bad == [], bad


def test_verify_catches_bad_rows():
    verdicts = verify_rows([(49, 999, None)])
    assert not verdicts[0].ok and "Theta" in verdicts[0].reasons[0]
    verdicts = verify_rows([(49, 2, None)])
    assert not verdicts[0].ok
    verdicts = verify_rows([(100, 10, None)])  # not a prime power
    assert not verdicts[0].ok
    # published star below the computed value
    star = 18 / sqrt_qlnq(49)
    verdicts = verify_rows([(49, 18, math.floor(star * 100) / 100 - 0.01)])
    assert not verdicts[0].ok
    # published star too far above the computed value (not a round-up)
    verdicts = verify_rows([(49, 18, 2.0)])
    assert not verdicts[0].ok


def test_load_table_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("q,tbar,tstar\n49,18,1.31\n64,22,\n\n81,25\n")
    rows = load_table_csv(path)
    assert rows == [(49, 18, 1.31), (64, 22, None), (81, 25, None)]
    assert all(v.ok for v in verify_rows(rows))


def test_load_table_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(TableFormatError):
        load_table_csv(path)
    path.write_text("q,tbar\nx,18\n")
    with pytest.raises(TableFormatError) as err:
        load_table_csv(path)
    assert err.value.line == 2
    path.write_text("q,tbar\n49,18\n81\n")
    with pytest.raises(TableFormatError) as err:
        load_table_csv(path)
    assert err.value.line == 3
    path.write_text("q,tbar,tstar\n49,18,zzz\n")
    with pytest.raises(TableFormatError):
        load_table_csv(path)
    path.write_text("")
    with pytest.raises(TableFormatError):
        load_table_csv(path)
    for cell in ("nan", "NaN", "inf", "-inf"):  # every comparison with nan is false
        path.write_text(f"q,tbar,tstar\n49,18,1.31\n1024,127,{cell}\n")
        with pytest.raises(TableFormatError, match="non-finite tstar") as err:
            load_table_csv(path)
        assert err.value.line == 3
