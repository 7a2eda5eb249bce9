#!/usr/bin/env python3
"""Regenerate tests/data/autompg_synthetic.data.

A SYNTHETIC stand-in for the UCI Auto-MPG raw file, for offline testing of
the parser and the demo pipeline only. Rows are drawn from the bundled
illustrative causal structure with realistic units; this is NOT the UCI
data and carries no claim about real automobiles.

The emitted file mimics the raw format: eight whitespace-separated numeric
fields (mpg, cylinders, displacement, horsepower, weight, acceleration,
model year, origin), a tab, and a quoted car name; 398 rows of which six
have a missing horsepower marker '?'.
"""

from pathlib import Path

import numpy as np

N_ROWS = 398
MISSING_ROWS = (32, 126, 330, 336, 354, 374)
SEED = 19700401


def draw_rows(rng: np.random.Generator) -> list[dict]:
    rows = []
    for _ in range(N_ROWS):
        cyl = int(rng.choice([4, 6, 8], p=[0.5, 0.25, 0.25]))
        disp = max(60.0, 38.0 * cyl + rng.normal(0.0, 15.0))
        hp = max(40.0, 0.45 * disp + 25.0 + rng.normal(0.0, 12.0))
        weight = 6.2 * disp + rng.normal(1600.0, 180.0)
        accel = 0.0015 * weight - 0.035 * hp + rng.normal(14.7, 1.5)
        mpg = max(5.0, -0.0068 * weight - 0.05 * hp + rng.normal(49.0, 2.0))
        rows.append(
            {
                "mpg": round(mpg, 1),
                "cyl": cyl,
                "disp": round(disp, 1),
                "hp": round(hp, 1),
                "weight": round(weight, 1),
                "accel": round(accel, 1),
                "year": int(rng.integers(70, 83)),
                "origin": int(rng.integers(1, 4)),
            }
        )
    return rows


def format_row(row: dict, index: int) -> str:
    hp = "?" if index in MISSING_ROWS else f"{row['hp']:.1f}"
    return (
        f"{row['mpg']:.1f}   {row['cyl']}   {row['disp']:.1f}      {hp}      "
        f"{row['weight']:.1f}   {row['accel']:.1f}   {row['year']}  {row['origin']}"
        f"\t\"synthetic auto {index + 1:03d}\""
    )


def standin_text() -> str:
    """The whole stand-in file, one line per row."""
    rng = np.random.default_rng(SEED)
    return "".join(format_row(row, k) + "\n" for k, row in enumerate(draw_rows(rng)))


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "tests" / "data" / "autompg_synthetic.data"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(standin_text())
    print(f"wrote {out} ({N_ROWS} rows, {len(MISSING_ROWS)} with missing horsepower)")


if __name__ == "__main__":
    main()
