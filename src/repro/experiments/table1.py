"""Table 1: reference noise-figure / noise-factor values.

A definitional check: NF 0/3/10 dB correspond to F = 1/2/10 (with 3 dB
being exactly ``10*log10(2) = 3.0103``, the paper rounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.definitions import nf_to_f


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    nf_db: float
    noise_factor: float
    example: str


@dataclass(frozen=True)
class Table1Result:
    """All rows of Table 1."""

    rows: List[Table1Row]


#: The paper's reference rows: (NF dB, example device).
PAPER_ROWS = (
    (0.0, "noiseless analog circuit"),
    (3.0103, "RF low noise amplifier"),
    (10.0, "RF mixer"),
)


def run_table1() -> Table1Result:
    """Regenerate Table 1 from the definitions (eq 3)."""
    rows = [
        Table1Row(nf_db=nf, noise_factor=nf_to_f(nf), example=example)
        for nf, example in PAPER_ROWS
    ]
    return Table1Result(rows=rows)
