"""Embedded reference data and verification of (q, smallest-known-size)
tables against the Theta(q) bound.

The exact-minimum table (15 entries, q <= 32) ships in full.  The
smallest-known-size data is far too large to embed verbatim, so a curated
sample is included for regression: every non-prime row with q <= 2048 plus
ten primes spread over the searched range, each with its published
rounded-up starred value.  Full tables load from CSV (`q,tbar[,tstar]`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import sqrt_qlnq, theta

# exact smallest AC-subset sizes t(q) for 5 <= q <= 32
EXACT_T = {
    5: 5, 7: 6, 8: 6, 9: 6, 11: 8, 13: 8, 16: 9, 17: 10,
    19: 11, 23: 12, 25: 12, 27: 13, 29: 13, 31: 14, 32: 15,
}

# (q, smallest known size, published rounded-up starred value)
KNOWN_TBAR_SAMPLE = [
    # non-prime q <= 2048
    (8, 6, 1.48), (9, 6, 1.35), (16, 9, 1.36),
    (25, 12, 1.34), (27, 13, 1.38), (32, 15, 1.43),
    (49, 18, 1.31), (64, 22, 1.35), (81, 25, 1.33),
    (121, 33, 1.37), (125, 35, 1.43), (128, 35, 1.41),
    (169, 41, 1.40), (243, 53, 1.46), (256, 55, 1.46),
    (289, 58, 1.44), (343, 66, 1.48), (361, 66, 1.44),
    (512, 84, 1.49), (529, 85, 1.48), (625, 96, 1.52),
    (729, 102, 1.48), (841, 114, 1.52), (961, 122, 1.51),
    (1024, 127, 1.51), (1331, 150, 1.54), (1369, 152, 1.53),
    (1681, 173, 1.55), (1849, 182, 1.55), (2048, 194, 1.56),
    # primes spread over the searched range
    (13, 8, 1.386), (17, 10, 1.441), (19, 11, 1.471),
    (307, 62, 1.479), (997, 127, 1.531), (2129, 200, 1.566),
    (4049, 291, 1.587), (28603, 884, 1.632), (31013, 925, 1.634),
    (32941, 957, 1.635),
]

STAR_ROUNDUP_GAP = 0.01


@dataclass
class RowVerdict:
    q: int
    tbar: int
    ok: bool
    reasons: list[str]


class TableFormatError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


def load_table_csv(path):
    """Rows (q, tbar, tstar-or-None) from `q,tbar[,tstar]` with header."""
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TableFormatError("empty file", 1)
    header = [c.strip() for c in lines[0].split(",")]
    if header[:2] != ["q", "tbar"]:
        raise TableFormatError(f"expected header 'q,tbar[,tstar]', got {lines[0]!r}", 1)
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) < 2:
            raise TableFormatError("need at least q and tbar", no)
        try:
            q = int(cells[0])
            tbar = int(cells[1])
        except ValueError:
            raise TableFormatError(f"non-integer q/tbar in {line!r}", no) from None
        tstar = None
        if len(cells) >= 3 and cells[2]:
            try:
                tstar = float(cells[2])
            except ValueError:
                raise TableFormatError(f"bad tstar in {line!r}", no) from None
            if not math.isfinite(tstar):  # every comparison with nan is false
                raise TableFormatError(f"non-finite tstar in {line!r}", no)
        rows.append((q, tbar, tstar))
    return rows


def verify_rows(rows):
    """Check each (q, tbar[, tstar]) row: tbar >= 3, tbar < Theta(q), and,
    when the published rounded-up starred value is given, computed star <=
    published < computed + 0.01."""
    verdicts = []
    for row in rows:
        q, tbar = row[0], row[1]
        tstar = row[2] if len(row) > 2 else None
        reasons = []
        if tbar < 3:
            reasons.append(f"tbar={tbar} < 3")
        try:
            th = theta(q)
        except ValueError as e:
            reasons.append(str(e))
            th = None
        if th is not None and not tbar < th:
            reasons.append(f"tbar={tbar} >= Theta(q)={th:.3f}")
        if tstar is not None:
            star = tbar / sqrt_qlnq(q)
            if star > tstar:
                reasons.append(f"computed star {star:.4f} > published {tstar}")
            elif tstar - star >= STAR_ROUNDUP_GAP:
                reasons.append(f"published star {tstar} not a round-up of {star:.4f}")
        verdicts.append(RowVerdict(q=q, tbar=tbar, ok=not reasons, reasons=reasons))
    return verdicts


def embedded_table2_rows():
    return [(q, t, None) for q, t in sorted(EXACT_T.items())]
