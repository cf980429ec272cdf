"""Phase classification of grid cells, the results table, and SVG rendering.

A converged cell is locally sharp or flat by comparing its Hessian
trace ``hessian_trace_mean`` with a grid-relative quantile, and globally
poorly-connected when its mean mode connectivity ``mc_mean`` sits below
``-eps_mc``.  Sharp + poor is phase I, sharp otherwise II, flat + poor
III, and flat + connected IV, with IV split by mean CKA ``cka_mean``
into IV-A (dissimilar replicas) and IV-B (similar replicas, the
"globally nice" corner).  Cells whose replicates all diverged, or whose
``train_loss_mean`` exceeds ``loss_converged``, stay NC, as do cells
with a blank or non-finite value in any of those three columns.  The
quantile is taken over the traces of the cells that are not NC, so an
NC cell never moves it, and a grid with no such cell labels every cell NC.

The module reads and writes ``results.csv`` and ``phases.csv``, holds
the curve profile that ``losslab modeconn`` writes, and imports neither
numpy nor any training or measuring module, so the commands that only
read and render (``losslab phase``, ``plot`` and ``profile-plot``) start
fast.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import FormatError, ParameterError, read_lines

PHASE_LABELS = ("I", "II", "III", "IV-A", "IV-B", "NC")

# 16-stop perceptually-uniform sequential lookup table (viridis anchors)
SEQUENTIAL_LUT = (
    "#440154", "#481567", "#482677", "#453781", "#404788", "#39568c",
    "#33638d", "#2d708e", "#287d8e", "#238a8d", "#1f968b", "#20a387",
    "#29af7f", "#3cbb75", "#55c667", "#73d055",
)

# negative mc is a barrier (blue), zero is white, positive red
DIVERGING_LOW = (33, 102, 172)
DIVERGING_MID = (247, 247, 247)
DIVERGING_HIGH = (178, 24, 43)

PHASE_COLORS = {
    "I": "#d73027",
    "II": "#fc8d59",
    "III": "#91bfdb",
    "IV-A": "#4575b4",
    "IV-B": "#313695",
}

DIVERGING_METRICS = ("mc_mean",)


@dataclass(frozen=True)
class PhaseThresholds:
    """The classifier's settings.

    A cell whose mean training loss exceeds ``loss_converged`` did not
    train: its weights can have blown up while the loss stayed finite.
    It is labelled NC and left out of the sharp quantile, like a cell
    whose replicates all diverged.  A blank training loss does not count.
    """

    eps_mc: float = 2.0
    sharp_quantile: float = 0.5
    tau_cka: float = 0.9
    loss_converged: float = 10.0

    def __post_init__(self):
        if not self.eps_mc > 0:
            raise ParameterError("eps_mc must be positive")
        if not 0.0 < self.sharp_quantile < 1.0:
            raise ParameterError("sharp_quantile must lie in (0, 1)")
        if not 0.0 < self.tau_cka < 1.0:
            raise ParameterError("tau_cka must lie in (0, 1)")
        if not self.loss_converged > 1.0:
            raise ParameterError("loss_converged must exceed 1")


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _converged(row: dict, thresholds: PhaseThresholds) -> bool:
    loss = row.get("train_loss_mean")
    if loss is not None and not (math.isfinite(loss) and loss <= thresholds.loss_converged):
        return False
    return row.get("n_converged", 0) > 0


def _quantile(values: list[float], q: float) -> float:
    """``float(np.quantile(values, q))`` for finite values, bit for bit, without numpy.

    numpy's default ``linear`` method: the sorted values interpolated at
    ``(n - 1) * q``, from the upper neighbour when the weight is 0.5 or
    more.  Only a zero result can differ, in its sign, since numpy orders
    tied zeros of opposite sign its own way.
    """
    v = sorted(values)
    idx = (len(v) - 1) * q
    lo = math.floor(idx)
    a, b, g = v[lo], v[min(lo + 1, len(v) - 1)], idx - lo
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def classify_cell(row: dict, threshold: float, thresholds: PhaseThresholds) -> str:
    """One of I, II, III, IV-A, IV-B for a converged cell with finite metrics, NC otherwise.

    Reads ``hessian_trace_mean``, ``mc_mean``, ``cka_mean``, ``n_converged`` and
    ``train_loss_mean``."""
    trace, mc, cka = (row.get(name) for name in ("hessian_trace_mean", "mc_mean", "cka_mean"))
    if not (_converged(row, thresholds) and _finite(trace) and _finite(mc) and _finite(cka)):
        return "NC"
    sharp = trace > threshold
    poor = mc < -thresholds.eps_mc
    if sharp:
        return "I" if poor else "II"
    if poor:
        return "III"
    return "IV-B" if cka >= thresholds.tau_cka else "IV-A"


def label_rows(rows: list[dict], thresholds: PhaseThresholds) -> list[str]:
    """Classify every row against the ``sharp_quantile`` of the traces of the rows that
    ``classify_cell`` does not label NC, if any."""
    traces = [r["hessian_trace_mean"] for r in rows if classify_cell(r, 0.0, thresholds) != "NC"]
    if not traces:
        return ["NC"] * len(rows)
    threshold = _quantile(traces, thresholds.sharp_quantile)
    return [classify_cell(row, threshold, thresholds) for row in rows]


# -- the results table ---------------------------------------------------

CSV_COLUMNS = [
    "load_kind", "load_value", "temp_kind", "temp_value",
    "n_replicates", "n_converged",
    "train_loss_mean", "train_loss_sd",
    "test_acc_mean", "test_acc_sd",
    "lambda_max_mean", "lambda_max_sd",
    "hessian_trace_mean", "hessian_trace_sd",
    "mc_mean", "mc_sd",
    "cka_mean", "cka_sd",
    "l2_mean", "l2_sd",
    "phase_label",
]
_TEXT_COLUMNS = ("load_kind", "temp_kind", "phase_label")
_COUNT_COLUMNS = ("n_replicates", "n_converged")
_AXIS_COLUMNS = ("load_value", "temp_value")


def rows_to_csv(rows: list[dict]) -> str:
    """One CSV line per row dict (from ``CellResult.row`` or ``read_results_csv``)."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        parts = []
        for name in CSV_COLUMNS:
            value = row.get(name)
            if name in _TEXT_COLUMNS:
                parts.append(value or "")
            elif name in _COUNT_COLUMNS:
                parts.append(str(value))
            else:
                parts.append("" if value is None else "%.10g" % value)
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def read_results_csv(path) -> list[dict]:
    """Rows as dicts; numeric fields parsed, absent metrics become None.

    Bytes that are not UTF-8, an empty file, a header without every
    ``CSV_COLUMNS`` name or with a repeated one, or a malformed line (a
    blank axis value among them) is a FormatError naming the file.
    """
    lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(read_lines(path), 1) if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file, expected a header line")
    n, header_line = lines[0]
    header = header_line.split(",")
    missing = [name for name in CSV_COLUMNS if name not in header]
    if missing:
        raise FormatError(f"{path}:{n}: header lacks the column(s) {', '.join(missing)}")
    for name in header:
        if header.count(name) > 1:
            raise FormatError(f"{path}:{n}: column {name} appears more than once")
    rows = []
    for n, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise FormatError(f"{path}:{n}: expected {len(header)} fields, got {len(parts)}")
        row = {}
        for name, value in zip(header, parts):
            try:
                if name in _TEXT_COLUMNS:
                    row[name] = value
                elif name in _COUNT_COLUMNS:
                    row[name] = int(value)
                else:
                    row[name] = float(value) if value or name in _AXIS_COLUMNS else None
            except ValueError:
                raise FormatError(f"{path}:{n}: {name} is not a number: {value!r}") from None
        rows.append(row)
    return rows


def write_json(obj, path) -> None:
    """The package's one JSON writer: manifests, command records, curve profiles, checkpoints."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# -- SVG rendering -------------------------------------------------------


def _sequential_color(frac: float) -> str:
    idx = min(int(frac * len(SEQUENTIAL_LUT)), len(SEQUENTIAL_LUT) - 1)
    return SEQUENTIAL_LUT[idx]


def _diverging_color(value: float, span: float) -> str:
    frac = max(-1.0, min(1.0, value / span)) if span else 0.0
    end = DIVERGING_LOW if frac < 0 else DIVERGING_HIGH
    rgb = tuple(round(m + abs(frac) * (e - m)) for e, m in zip(end, DIVERGING_MID))
    return "#%02x%02x%02x" % rgb


CELL = 48
MARGIN_LEFT = 86
MARGIN_TOP = 30
MARGIN_BOTTOM = 56
LEGEND_W = 96


def _fmt_tick(value: float) -> str:
    return "%.4g" % value


def _text(x, y, label, size=11, anchor=None, rotate=False) -> str:
    """One sans-serif ``<text>`` element; ``rotate`` turns it -90 degrees about (x, y)."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="rotate(-90 {x} {y})"' if rotate else ""
    return (f'<text x="{x}" y="{y}" font-size="{size}"{anchor_attr} '
            f'font-family="sans-serif"{transform}>{label}</text>')


def _write_svg(path, width, height, body: list[str]) -> None:
    """Write the ``<svg>`` element of the given size around ``body``, one element a line."""
    header = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">')
    with open(path, "w") as fh:
        fh.write("\n".join([header, *body, "</svg>"]) + "\n")


def emit_heatmap(rows: list[dict], metric: str, path, orientation: str = "auto") -> None:
    """One SVG rect per grid cell, colored by the chosen metric.

    Load increases to the right; temperature increases toward the top,
    which for a batch-size axis puts the *smallest* batch on top (batch
    size is inverse temperature).  Non-converged cells, and cells whose
    value is blank or not finite, are hatched.  The rows must hold each
    cell of a rectangular grid once.
    """
    if not rows:
        raise ParameterError("no rows to plot")
    load_vals = sorted({r["load_value"] for r in rows})
    temp_vals = sorted({r["temp_value"] for r in rows})
    index = {}
    for r in rows:
        if index.setdefault((r["load_value"], r["temp_value"]), r) is not r:
            raise ParameterError("more than one row for the cell "
                                 "%(load_kind)s %(load_value)g, %(temp_kind)s %(temp_value)g" % r)
    if len(index) != len(load_vals) * len(temp_vals):
        raise ParameterError("rows do not form a full rectangular grid")

    temp_kind = rows[0]["temp_kind"]
    top_to_bottom = list(temp_vals) if temp_kind == "batch_size" else list(reversed(temp_vals))
    if orientation == "flip":
        top_to_bottom = list(reversed(top_to_bottom))
    elif orientation != "auto":
        raise ParameterError("orientation must be 'auto' or 'flip'")

    categorical = metric == "phase_label"
    if categorical:
        values = {k: (r[metric] or "NC") for k, r in index.items()}
        present = [v for v in values.values() if v != "NC"]
    else:
        values = {k: r.get(metric) for k, r in index.items()}
        present = [v for v in values.values() if _finite(v)]
        vmin, vmax = min(present, default=0.0), max(present, default=0.0)
    diverging = metric in DIVERGING_METRICS

    width = MARGIN_LEFT + CELL * len(load_vals) + LEGEND_W
    height = MARGIN_TOP + CELL * len(top_to_bottom) + MARGIN_BOTTOM
    out = [
        '<defs><pattern id="nc" width="8" height="8" patternUnits="userSpaceOnUse">'
        '<rect width="8" height="8" fill="#dddddd"/>'
        '<path d="M0,8 L8,0" stroke="#888888" stroke-width="1.5"/></pattern></defs>',
        _text(MARGIN_LEFT, MARGIN_TOP - 12, metric, size=13),
    ]

    span = max(abs(vmin), abs(vmax)) if (diverging and present) else 0.0
    for col, lv in enumerate(load_vals):
        for rix, tv in enumerate(top_to_bottom):
            x = MARGIN_LEFT + col * CELL
            y = MARGIN_TOP + rix * CELL
            v = values[(lv, tv)]
            if categorical:
                fill = "url(#nc)" if v == "NC" else PHASE_COLORS.get(v, "url(#nc)")
            elif not _finite(v):
                fill = "url(#nc)"
            elif diverging:
                fill = _diverging_color(v, span)
            elif vmax == vmin:
                fill = _sequential_color(0.5)
            else:
                fill = _sequential_color((v - vmin) / (vmax - vmin))
            out.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
            )

    for col, lv in enumerate(load_vals):
        x = MARGIN_LEFT + col * CELL + CELL / 2
        y = MARGIN_TOP + CELL * len(top_to_bottom) + 16
        out.append(_text(x, y, _fmt_tick(lv), anchor="middle"))
    for rix, tv in enumerate(top_to_bottom):
        y = MARGIN_TOP + rix * CELL + CELL / 2 + 4
        out.append(_text(MARGIN_LEFT - 6, y, _fmt_tick(tv), anchor="end"))
    out.append(_text(MARGIN_LEFT + CELL * len(load_vals) / 2, height - 8,
                     f'{rows[0]["load_kind"]} (load &#8594;)', size=12, anchor="middle"))
    out.append(_text(14, MARGIN_TOP + CELL * len(top_to_bottom) / 2,
                     f"{temp_kind} (temperature &#8593;)", size=12, anchor="middle", rotate=True))

    lx = MARGIN_LEFT + CELL * len(load_vals) + 18
    if categorical:
        seen = [p for p in PHASE_LABELS if p in present or p == "NC"]
        for k, lab in enumerate(seen):
            y = MARGIN_TOP + k * 22
            fill = PHASE_COLORS.get(lab, "url(#nc)")
            out.append(f'<rect x="{lx}" y="{y}" width="16" height="16" fill="{fill}"/>')
            out.append(_text(lx + 22, y + 12, lab))
    elif present:
        bar_h = CELL * len(top_to_bottom)
        steps = 32
        for s in range(steps):
            frac = 1.0 - (s + 0.5) / steps
            if diverging:
                fill = _diverging_color(-span + 2 * span * frac, span)
            else:
                fill = _sequential_color(frac)
            out.append(
                f'<rect x="{lx}" y="{MARGIN_TOP + s * bar_h / steps:.2f}" width="14" '
                f'height="{bar_h / steps + 0.5:.2f}" fill="{fill}"/>'
            )
        top_val = span if diverging else vmax
        bot_val = -span if diverging else vmin
        out.append(_text(lx + 18, MARGIN_TOP + 10, _fmt_tick(top_val)))
        out.append(_text(lx + 18, MARGIN_TOP + bar_h, _fmt_tick(bot_val)))
    _write_svg(path, width, height, out)


@dataclass
class CurveProfile:
    """Training error (percent) and cross-entropy sampled along the curve."""

    t_values: tuple[float, ...]
    err01: list[float]
    cross_entropy: list[float]

    def __post_init__(self):
        if 0.0 not in self.t_values or 1.0 not in self.t_values:
            raise ParameterError("profile must include both endpoints")
        if not (len(self.t_values) == len(self.err01) == len(self.cross_entropy)):
            raise ParameterError("profile arrays must share one length")

    def to_dict(self) -> dict:
        return {
            "t": list(self.t_values),
            "err01": list(self.err01),
            "cross_entropy": list(self.cross_entropy),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CurveProfile":
        """The profile ``to_dict`` wrote: every value a finite ``float``, every t in [0, 1]."""
        t, err01, ce = (tuple(float(v) for v in d[k]) for k in ("t", "err01", "cross_entropy"))
        if not all(map(math.isfinite, t + err01 + ce)) or not all(0.0 <= v <= 1.0 for v in t):
            raise ParameterError("profile values must be finite, and every t in [0, 1]")
        return cls(t, list(err01), list(ce))


PROFILE_W = 400
PROFILE_H = 300
PAD = 46


def render_curve_profile(profile: CurveProfile, path) -> None:
    """Training error along the curve as a polyline with endpoint markers."""

    def sx(t):
        return PAD + t * (PROFILE_W - 2 * PAD)

    def sy(err):
        return PROFILE_H - PAD - (err / 100.0) * (PROFILE_H - 2 * PAD)

    pts = " ".join(f"{sx(t):.2f},{sy(e):.2f}" for t, e in zip(profile.t_values, profile.err01))
    out = [
        f'<rect x="{PAD}" y="{PAD}" width="{PROFILE_W - 2 * PAD}" '
        f'height="{PROFILE_H - 2 * PAD}" fill="none" stroke="#333333"/>',
        f'<polyline points="{pts}" fill="none" stroke="#2166ac" stroke-width="2"/>',
    ]
    for t, e in zip(profile.t_values, profile.err01):
        marker = t in (0.0, 1.0)
        r = 5 if marker else 3
        fill = "#b2182b" if marker else "#2166ac"
        out.append(f'<circle cx="{sx(t):.2f}" cy="{sy(e):.2f}" r="{r}" fill="{fill}"/>')
    for t in (0.0, 0.5, 1.0):
        out.append(_text(f"{sx(t):.2f}", PROFILE_H - PAD + 16, f"{t:g}", anchor="middle"))
    for e in (0, 50, 100):
        out.append(_text(PAD - 8, f"{sy(e) + 4:.2f}", e, anchor="end"))
    out.append(_text(PROFILE_W / 2, PROFILE_H - 8, "t", size=12, anchor="middle"))
    out.append(_text(14, PROFILE_H / 2, "training error %", size=12, anchor="middle", rotate=True))
    _write_svg(path, PROFILE_W, PROFILE_H, out)
