"""File formats: spectrum JSON, traces CSV, and CSV table emission."""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from .moments import TracePowers

if TYPE_CHECKING:  # spectra imports numpy, which traces files never need
    from .spectra import Spectrum

TRACES_HEADER = ("n", "k", "p_k")


def spectrum_to_dict(s: Spectrum) -> dict:
    return {
        "family": s.family,
        "n": s.n,
        "kappa": s.kappa,
        "seed": s.seed,
        "eigenvalues": s.eigenvalues.tolist(),
    }


def spectrum_from_dict(d: dict) -> Spectrum:
    """Rebuild a spectrum; eigenvalues are regenerated when absent."""
    from .spectra import Spectrum, generate

    family = d["family"]
    eigenvalues = d.get("eigenvalues")
    if eigenvalues is None:
        if family == "custom":
            raise ValueError("custom spectra must carry explicit eigenvalues")
        return generate(family, int(d["n"]), float(d["kappa"]), d.get("seed"))
    return Spectrum(eigenvalues, family, int(d["n"]), float(d["kappa"]),
                    d.get("seed"))


def write_spectrum(s: Spectrum, path: str | Path) -> None:
    Path(path).write_text(json.dumps(spectrum_to_dict(s), indent=2) + "\n")


def read_spectrum(path: str | Path) -> Spectrum:
    return spectrum_from_dict(json.loads(Path(path).read_text()))


@contextmanager
def _open_out(path: str | Path | None):
    """Open a file for writing, or hand back stdout when path is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def write_traces(tp: TracePowers, path: str | Path | None) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACES_HEADER)
        for k, p in enumerate(tp.p, start=1):
            writer.writerow([tp.n, k, repr(float(p))])


def read_traces(path: str | Path) -> TracePowers:
    """Parse the ``n,k,p_k`` trace file; rows may arrive in any k order."""
    rows: dict[int, float] = {}
    n = None
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                [f.strip() for f in reader.fieldnames] != list(TRACES_HEADER):
            raise ValueError(
                f"traces file must have header {','.join(TRACES_HEADER)}")
        # read the rows by the names the header was checked against
        reader.fieldnames = TRACES_HEADER
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"traces file line {reader.line_num}: "
                                 "need exactly the fields "
                                 f"{','.join(TRACES_HEADER)}")
            n_row = int(row["n"])
            if n is None:
                n = n_row
            elif n != n_row:
                raise ValueError("inconsistent n across trace rows")
            k = int(row["k"])
            if k in rows:
                raise ValueError(f"duplicate trace row for k={k}")
            rows[k] = float(row["p_k"])
    if n is None or not rows:
        raise ValueError("traces file is empty")
    m = max(rows)
    if sorted(rows) != list(range(1, m + 1)):
        raise ValueError("trace rows must cover k = 1..m without gaps")
    return TracePowers(n=n, p=[rows[k] for k in range(1, m + 1)])


def fmt(value) -> str:
    """CSV cell formatting: 6 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "-inf" if value < 0 else "inf"
        return f"{value:.6g}"
    return str(value)


def write_csv(path: str | Path | None, header, rows) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
