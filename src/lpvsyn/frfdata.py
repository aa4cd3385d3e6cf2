"""Frequency grids, scheduling grids, FRF datasets and nonparametric estimation.

Frequencies are normalized angular frequencies in radians/sample throughout;
Hz only ever appears at I/O boundaries via ``sample_rate``.

Dataset file schema (CSV, field names normative):
    channel,p,omega,re,im
one row per (channel, operating point, frequency).  A JSON mirror holding a
list of row objects with the same field names (optionally wrapped as
``{"sample_rate": ..., "rows": [...]}``) is accepted too.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
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
    """A sampled real-valued signal."""

    samples: np.ndarray
    sample_rate: float
    label: str = ""

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(s)):
            raise ValueError(f"record {self.label!r} contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", s)
        s.flags.writeable = False

    def __len__(self):
        return self.samples.size


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------

_FIELDS = ("channel", "p", "omega", "re", "im")


def save_dataset(dataset: FrfDataset, path) -> None:
    """Write a dataset to CSV (or JSON when the suffix is .json)."""
    path = Path(path)
    rows = []
    for p in dataset.scheduling_grid.points:
        for ch in dataset.channels:
            resp = dataset.response(p, ch)
            for om, v in zip(dataset.grid.omegas, resp.values):
                rows.append((ch, float(p), float(om), float(v.real), float(v.imag)))
    if path.suffix.lower() == ".json":
        payload = {
            "sample_rate": dataset.grid.sample_rate,
            "rows": [dict(zip(_FIELDS, r)) for r in rows],
        }
        path.write_text(json.dumps(payload, indent=1))
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIELDS)
        for ch, p, om, re, im in rows:
            writer.writerow([ch, repr(p), repr(om), repr(re), repr(im)])


def _rows_from_file(path: Path):
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON: {exc}", location=str(path)) from exc
        rows = payload.get("rows", payload) if isinstance(payload, dict) else payload
        sample_rate = payload.get("sample_rate") if isinstance(payload, dict) else None
        out = []
        for i, row in enumerate(rows):
            try:
                out.append((str(row["channel"]), float(row["p"]), float(row["omega"]),
                            float(row["re"]), float(row["im"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"bad row: {exc}", location=f"{path}:rows[{i}]") from exc
        return out, sample_rate
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(_FIELDS):
            raise DataFormatError(
                f"expected header {','.join(_FIELDS)}", location=f"{path}:1")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataFormatError("expected 5 fields", location=f"{path}:{lineno}")
            try:
                out.append((row[0], float(row[1]), float(row[2]),
                            float(row[3]), float(row[4])))
            except ValueError as exc:
                raise DataFormatError(f"bad value: {exc}", location=f"{path}:{lineno}") from exc
    return out, None


def load_dataset(path, sample_rate: float | None = None,
                 scheduling_range: tuple | None = None) -> FrfDataset:
    """Load a dataset written by :func:`save_dataset`.

    ``sample_rate`` overrides the file metadata (CSV carries none; it defaults
    to 1.0).  The scheduling range defaults to the hull of the points found.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError("file does not exist", location=str(path))
    rows, meta_rate = _rows_from_file(path)
    if not rows:
        raise DataFormatError("dataset file has no data rows", location=str(path))
    rate = sample_rate if sample_rate is not None else (meta_rate or 1.0)

    blocks: dict = {}
    for ch, p, om, re, im in rows:
        if not math.isfinite(p):  # NaN keys would split one block per row
            raise DataFormatError(f"operating point {p} is not finite", location=str(path))
        blocks.setdefault((p, ch), []).append((om, complex(re, im)))

    first_key = next(iter(blocks))
    ref = [om for om, _ in blocks[first_key]]
    omegas = np.asarray(ref)
    if np.any(np.diff(omegas) <= 0):
        raise DataFormatError(
            f"non-monotone frequencies in block {first_key}", location=str(path))
    try:
        grid = FrequencyGrid(omegas, rate)
    except ValueError as exc:
        raise DataFormatError(str(exc), location=str(path)) from exc

    entries = {}
    for key, block in blocks.items():
        oms = [om for om, _ in block]
        if not np.array_equal(oms, ref):
            raise DataFormatError(
                f"block {key} uses a different frequency grid than {first_key}",
                location=str(path))
        entries[key] = FrfResponse(np.array([v for _, v in block]), grid)

    points = sorted({p for (p, _) in entries})
    rng = scheduling_range or (points[0], points[-1])
    sched = SchedulingGrid(np.array(points), rng)
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
    if input.sample_rate != output.sample_rate:
        raise ValueError("input and output records must share the sample rate")
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


def closed_loop_to_plant(sens: FrfResponse, proc_sens: FrfResponse,
                         threshold: float = 1e-8) -> FrfResponse:
    """Recover the plant response as proc_sens / sens, pointwise."""
    if sens.grid is not proc_sens.grid and not np.array_equal(
            sens.grid.omegas, proc_sens.grid.omegas):
        raise ValueError("responses must share the frequency grid")
    mag = np.abs(sens.values)
    bad = mag <= threshold
    if np.any(bad):
        raise EstimationError(
            f"sensitivity magnitude below {threshold:g} at {int(bad.sum())} frequencies",
            frequencies=list(sens.grid.omegas[bad]))
    return FrfResponse(proc_sens.values / sens.values, sens.grid)
