"""Frequency grids, scheduling grids, FRF datasets and nonparametric estimation.

Frequencies are normalized angular frequencies in radians/sample throughout;
Hz only ever appears at I/O boundaries via ``sample_rate``.

Every table file (the dataset, traces and report tables) has one CSV format,
written by :func:`write_table` and read by :func:`read_table`: a header line
of field names, then rows of label fields followed by the shortest
round-trip repr of each float, comma separated, CRLF line ends.  The dataset
schema (field names normative) is
    channel,p,omega,re,im
with one row per (channel, operating point, frequency).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .exceptions import DataFormatError, EstimationError


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing normalized frequencies in [0, pi]."""

    omegas: np.ndarray
    sample_rate: float = 1.0

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.ndim != 1 or om.size == 0:
            raise ValueError("frequency grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(om)):
            raise ValueError("frequencies must be finite")
        if np.any(np.diff(om) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if om[0] < 0.0 or om[-1] > math.pi + 1e-12:
            raise ValueError("frequencies must lie in [0, pi] rad/sample")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "omegas", om)
        om.flags.writeable = False

    def __len__(self):
        return self.omegas.size

    @property
    def hz(self) -> np.ndarray:
        return self.omegas * self.sample_rate / (2.0 * math.pi)

    @property
    def z(self) -> np.ndarray:
        return np.exp(1j * self.omegas)

    @staticmethod
    def log_spaced(f_min_hz: float, f_max_hz: float, n: int,
                   sample_rate: float) -> "FrequencyGrid":
        f = np.logspace(math.log10(f_min_hz), math.log10(f_max_hz), n)
        return FrequencyGrid(2.0 * math.pi * f / sample_rate, sample_rate)


@dataclass(frozen=True, eq=False)
class SchedulingGrid:
    """Scalar operating points and the closed scheduling range containing them."""

    points: np.ndarray
    range: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        lo, hi = float(self.range[0]), float(self.range[1])
        if pts.size == 0:
            raise ValueError("scheduling grid must be non-empty")
        if not (np.all(np.isfinite(pts)) and math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("operating points and scheduling range must be finite")
        if np.unique(pts).size != pts.size:
            raise ValueError("operating points must be distinct")
        if lo > hi or np.any(pts < lo) or np.any(pts > hi):
            raise ValueError("operating points must lie in the scheduling range")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "range", (lo, hi))
        pts.flags.writeable = False

    def __len__(self):
        return self.points.size


@dataclass(frozen=True, eq=False)
class FrfResponse:
    """Complex response samples on a shared frequency grid."""

    values: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (len(self.grid),):
            raise ValueError(
                f"response length {v.shape} does not match grid length {len(self.grid)}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("response contains non-finite values")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False


@dataclass(frozen=True, eq=False)
class FrfDataset:
    """fFRF data per (operating point, channel) on one shared grid."""

    entries: Mapping
    grid: FrequencyGrid
    scheduling_grid: SchedulingGrid

    def __post_init__(self):
        entries = dict(self.entries)
        if not entries:
            raise ValueError("dataset has no entries")
        channels = sorted({ch for (_, ch) in entries})
        for p in self.scheduling_grid.points:
            for ch in channels:
                if (float(p), ch) not in entries:
                    raise ValueError(f"missing channel {ch!r} at operating point {p}")
        for key, resp in entries.items():
            if resp.grid is not self.grid and not np.array_equal(
                    resp.grid.omegas, self.grid.omegas):
                raise ValueError(f"entry {key} uses a different frequency grid")
        object.__setattr__(self, "entries", entries)

    @property
    def channels(self):
        return sorted({ch for (_, ch) in self.entries})

    def response(self, p: float, channel: str) -> FrfResponse:
        return self.entries[(float(p), channel)]


@dataclass(frozen=True, eq=False)
class TimeRecord:
    """A sampled real-valued signal; time is in samples, so it carries no
    sample rate."""

    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(s)):
            raise ValueError(f"record {self.label!r} contains non-finite samples")
        object.__setattr__(self, "samples", s)
        s.flags.writeable = False

    def __len__(self):
        return self.samples.size


# ---------------------------------------------------------------------------
# range checks and table I/O
# ---------------------------------------------------------------------------

def check_range(values, scheduling_range, what: str) -> None:
    """Raise ValueError naming the first of ``values`` outside the closed
    ``scheduling_range`` widened by 1e-12 on both sides; NaN is outside."""
    lo, hi = scheduling_range
    values = np.asarray(values, dtype=float)
    outside = ~((values >= lo - 1e-12) & (values <= hi + 1e-12))
    if outside.any():
        raise ValueError(f"{what} outside range [{lo}, {hi}]: {values[outside].flat[0]}")


def default_scheduling_range(points) -> tuple:
    """The hull of the operating points, widened to (p - 0.5, p + 0.5) for a
    single point so that the range is never empty."""
    lo, hi = float(min(points)), float(max(points))
    return (lo, hi) if lo < hi else (lo - 0.5, hi + 0.5)


_ROWS_PER_WRITE = 1024
_SIGN_BIT = np.uint64(1 << 63)


def _column_strings(segments) -> list:
    """The shortest round-trip repr of every entry of each float64 segment.
    A segment that is an earlier one's bits with the sign bit flipped, and
    holds no NaN, takes that segment's strings with the sign flipped: IEEE
    negation is exact and repr is sign-symmetric except for NaN.  A segment
    whose bits are all equal is formatted once."""
    done = []  # (bits, strings) of the segments before this one
    for seg in segments:
        bits = seg.view(np.uint64)
        negated = bits ^ _SIGN_BIT
        for prev_bits, prev_strings in done:
            if np.array_equal(negated, prev_bits) and not np.isnan(seg).any():
                strings = [s[1:] if s[0] == "-" else "-" + s for s in prev_strings]
                break
        else:
            strings = ([repr(float(seg[0]))] * len(seg) if (bits == bits[0]).all()
                       else list(map(repr, seg.tolist())))
        done.append((bits, strings))
    return [strings for _, strings in done]


def write_table(path, header, blocks) -> None:
    """Write a CSV table: the ``header`` names, then for every block
    ``(labels, columns)`` one row per entry of its equal-length float
    columns, holding the labels and the shortest round-trip repr of that
    entry of every column.  Comma separated with CRLF line ends, byte-equal
    to what the csv module writes; labels that it would quote raise
    ValueError.  Rows are formatted column by column, ``_ROWS_PER_WRITE`` at
    a time, so memory stays flat; within those rows a constant column, or
    one that negates an earlier column, is formatted once (same bytes)."""
    blocks = [(labels, [np.asarray(col, dtype=np.float64) for col in columns])
              for labels, columns in blocks]
    for labels, columns in blocks:
        for label in labels:
            if any(c in label for c in ',"\r\n'):
                raise ValueError(f"table label {label!r} would need quoting")
        if not columns or any(col.shape != (columns[0].size,) for col in columns):
            raise ValueError("a table block needs equal-length 1-d columns")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for labels, columns in blocks:
            for lo in range(0, columns[0].size, _ROWS_PER_WRITE):
                strings = _column_strings(col[lo:lo + _ROWS_PER_WRITE] for col in columns)
                label_lists = [[label] * len(strings[0]) for label in labels]
                fh.write("\r\n".join(map(",".join, zip(*label_lists, *strings))))
                fh.write("\r\n")


def read_table(path, header, n_labels: int = 0):
    """Read a table written by :func:`write_table` whose first ``n_labels``
    fields are labels.  Returns ``(labels, values)``: one tuple of label
    strings per row and a float array with one row per table row."""
    n_values = len(header) - n_labels
    labels = []

    def value_fields(fh):
        for line in fh:
            if line.strip():
                fields = line.rstrip("\r\n").split(",", n_labels)
                labels.append(tuple(fields[:n_labels]))
                yield fields[-1]

    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n").split(",") != list(header):
            raise DataFormatError(f"expected header {','.join(header)}",
                                  location=f"{path}:1")
        try:
            values = np.loadtxt(value_fields(fh) if n_labels else fh,
                                delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"bad row: {exc}", location=str(path)) from exc
    # loadtxt skips blank lines, so a row of labels alone shows as a count
    if (values.size and values.shape[1] != n_values
            or len(labels) not in (0, len(values))):
        raise DataFormatError(f"expected {len(header)} fields per row",
                              location=str(path))
    return labels, values.reshape(-1, n_values)


_FIELDS = ("channel", "p", "omega", "re", "im")


def save_dataset(dataset: FrfDataset, path) -> None:
    """Write a dataset as a CSV table, one block per (point, channel)."""
    om = dataset.grid.omegas
    blocks = []
    for p in dataset.scheduling_grid.points:
        for ch in dataset.channels:
            v = dataset.response(p, ch).values
            blocks.append(((ch,), (np.full(om.size, p), om, v.real, v.imag)))
    write_table(path, _FIELDS, blocks)


def load_dataset(path, sample_rate: float | None = None) -> FrfDataset:
    """Load a dataset written by :func:`save_dataset`.

    The file carries no sample rate: ``sample_rate`` defaults to 1.0.  The
    scheduling range is :func:`default_scheduling_range` of the points found.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError("file does not exist", location=str(path))
    labels, values = read_table(path, _FIELDS, n_labels=1)
    if not labels:
        raise DataFormatError("dataset file has no data rows", location=str(path))
    rate = sample_rate if sample_rate is not None else 1.0

    rows: dict = {}
    for i, ((ch,), p) in enumerate(zip(labels, values[:, 0].tolist())):
        if not math.isfinite(p):  # NaN keys would split one block per row
            raise DataFormatError(f"operating point {p} is not finite", location=str(path))
        rows.setdefault((p, ch), []).append(i)

    first_key, first_rows = next(iter(rows.items()))
    try:
        grid = FrequencyGrid(values[first_rows, 1], rate)
    except ValueError as exc:
        raise DataFormatError(str(exc), location=str(path)) from exc

    entries = {}
    for key, idx in rows.items():
        if not np.array_equal(values[idx, 1], grid.omegas):
            raise DataFormatError(
                f"block {key} uses a different frequency grid than {first_key}",
                location=str(path))
        # (re, im) pairs viewed as complex keep every bit, -0.0 included
        entries[key] = FrfResponse(
            np.ascontiguousarray(values[idx, 2:]).view(complex)[:, 0], grid)

    points = sorted({p for (p, _) in entries})
    sched = SchedulingGrid(np.array(points), default_scheduling_range(points))
    return FrfDataset(entries, grid, sched)


# ---------------------------------------------------------------------------
# nonparametric estimation
# ---------------------------------------------------------------------------

def _segment_views(x: np.ndarray, seg_len: int, hop: int):
    starts = range(0, x.size - seg_len + 1, hop)
    return [x[s:s + seg_len] for s in starts]


def etfe_estimate(input: TimeRecord, output: TimeRecord, grid: FrequencyGrid,
                  window: str = "hann", segments: int = 1) -> FrfResponse:
    """Empirical transfer function estimate interpolated onto ``grid``.

    Cross-spectrum over auto-spectrum, averaged over ``segments`` windowed
    segments (50% overlap when segments > 1).  Interpolation is linear on the
    real and imaginary parts separately; requested frequencies must lie inside
    the DFT bin range.
    """
    u = input.samples
    y = output.samples
    if u.size != y.size:
        raise ValueError("input and output records must have equal length")
    if segments < 1 or u.size % segments:
        raise ValueError("record length must be divisible by the segment count")
    seg_len = u.size // segments
    hop = seg_len if segments == 1 else seg_len // 2
    if window == "hann":
        w = np.hanning(seg_len)
    elif window == "rectangular":
        w = np.ones(seg_len)
    else:
        raise ValueError(f"unknown window {window!r}")

    puy = np.zeros(seg_len // 2 + 1, dtype=complex)
    puu = np.zeros(seg_len // 2 + 1)
    n_seg = 0
    for us, ys in zip(_segment_views(u, seg_len, hop), _segment_views(y, seg_len, hop)):
        uf = np.fft.rfft(w * us)
        yf = np.fft.rfft(w * ys)
        puy += yf * np.conj(uf)
        puu += np.abs(uf) ** 2
        n_seg += 1
    puy /= n_seg
    puu /= n_seg

    bin_omegas = 2.0 * math.pi * np.arange(seg_len // 2 + 1) / seg_len
    dead = puu <= np.max(puu) * 1e-14
    if np.all(dead):
        raise EstimationError("input record carries no excitation",
                              frequencies=list(grid.omegas))

    om = grid.omegas
    if om[0] < bin_omegas[0] - 1e-12 or om[-1] > bin_omegas[-1] + 1e-12:
        raise ValueError("requested frequencies fall outside the DFT bin range")
    idx = np.clip(np.searchsorted(bin_omegas, om), 0, bin_omegas.size - 1)
    exact = np.abs(bin_omegas[idx] - om) <= 1e-12
    bad = []
    for k, o in enumerate(om):
        if exact[k]:
            if dead[idx[k]]:
                bad.append(float(o))
        elif dead[idx[k]] or dead[max(idx[k] - 1, 0)]:
            bad.append(float(o))
    if bad:
        raise EstimationError(
            "auto-spectrum vanishes at bins needed for the requested grid",
            frequencies=bad)

    g_bins = puy / np.where(dead, 1.0, puu)
    re = np.interp(om, bin_omegas, g_bins.real)
    im = np.interp(om, bin_omegas, g_bins.imag)
    return FrfResponse(re + 1j * im, grid)


SENSITIVITY_FLOOR = 1e-8


def closed_loop_to_plant(sens: FrfResponse, proc_sens: FrfResponse) -> FrfResponse:
    """Recover the plant response as proc_sens / sens, pointwise; raises
    EstimationError where |sens| <= ``SENSITIVITY_FLOOR``."""
    if sens.grid is not proc_sens.grid and not np.array_equal(
            sens.grid.omegas, proc_sens.grid.omegas):
        raise ValueError("responses must share the frequency grid")
    mag = np.abs(sens.values)
    bad = mag <= SENSITIVITY_FLOOR
    if np.any(bad):
        raise EstimationError(
            f"sensitivity magnitude below {SENSITIVITY_FLOOR:g} at {int(bad.sum())} "
            "frequencies",
            frequencies=list(sens.grid.omegas[bad]))
    return FrfResponse(proc_sens.values / sens.values, sens.grid)
