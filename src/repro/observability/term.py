"""Terminal rendering helpers for ``repro top``.

Two concerns live here so every output format behaves the same way:

* **capability detection** — :func:`ansi_capable` decides whether a
  stream can take in-place ANSI redraws (a real TTY with a non-dumb
  ``TERM``); everything else gets plain line output.
* **flicker-free redraw** — :class:`LiveScreen` repaints a frame by
  homing the cursor and erasing *per line* (``ESC[K``) plus erasing
  below the frame (``ESC[J``).  The naive full-screen clear
  (``ESC[2J``) blanks the terminal before the new frame arrives, which
  is exactly the flicker this replaces; it is only ever issued once,
  on the first frame.

>>> sparkline([0, 1, 2, 3], width=4)
'▁▃▆█'
>>> sparkline([5, 5, 5], width=3)
'▁▁▁'
>>> sparkline([0, 1, 2, 3], width=4, ascii_only=True)
'_-+#'
>>> format_quantity(1_234_567)
'1.23M'
>>> format_duration(3725)
'1h2m'
"""

from __future__ import annotations

import os
import sys
from typing import Iterable, List

#: Eight-level block characters for sparklines, lowest first.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: ASCII fallback ladder for dumb terminals / non-UTF-8 sinks.
ASCII_SPARK_CHARS = "_.-:=+*#"

#: ANSI control fragments (named so call sites read as intent).
HIDE_CURSOR = "\x1b[?25l"
SHOW_CURSOR = "\x1b[?25h"
CURSOR_HOME = "\x1b[H"
CLEAR_SCREEN = "\x1b[2J"
ERASE_LINE_RIGHT = "\x1b[K"
ERASE_BELOW = "\x1b[J"


def ansi_capable(stream=None) -> bool:
    """Can ``stream`` take in-place ANSI redraws?

    True only for a real TTY whose ``TERM`` is set and not ``dumb`` —
    the combination CI pins (``TERM=dumb``) to force the plain-text
    degradation path.
    """
    if stream is None:
        stream = sys.stdout
    term = os.environ.get("TERM", "")
    if not term or term == "dumb":
        return False
    isatty = getattr(stream, "isatty", None)
    try:
        return bool(isatty and isatty())
    except (ValueError, OSError):  # closed or detached stream
        return False


def sparkline(
    values: Iterable[float],
    width: int = 32,
    ascii_only: bool = False,
) -> str:
    """Render the last ``width`` values as a one-line bar chart.

    Bars are normalised to the rendered window's min/max; a flat
    window renders as the lowest bar so "no movement" and "no data"
    stay distinguishable (no data renders empty).
    """
    chars = ASCII_SPARK_CHARS if ascii_only else SPARK_CHARS
    vals = [float(v) for v in values][-max(1, int(width)):]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return chars[0] * len(vals)
    span = hi - lo
    top = len(chars) - 1
    return "".join(
        chars[int(round((v - lo) / span * top))] for v in vals
    )


def format_quantity(value: float) -> str:
    """Humanise a count: ``1234`` -> ``'1.23k'``, ``2e6`` -> ``'2M'``."""
    value = float(value)
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= bound:
            return f"{value / bound:.3g}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.3g}"


def format_duration(seconds: float) -> str:
    """Humanise a duration: ``90`` -> ``'1m30s'``, ``3725`` -> ``'1h2m'``."""
    seconds = max(0.0, float(seconds))
    if seconds < 1:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs}s" if secs else f"{minutes}m"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes}m" if minutes else f"{hours}h"


class LiveScreen:
    """Repaint multi-line frames in place without full-screen clears.

    The first frame clears once and hides the cursor; every later
    frame homes the cursor and rewrites each line with a trailing
    erase-to-end-of-line, then erases anything left below — so a frame
    that shrinks leaves no stale tail, and nothing ever flashes blank.
    :meth:`close` restores the cursor and moves past the frame.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stdout
        self.frames = 0
        self._closed = False

    def render(self, frame: str) -> None:
        """Paint ``frame`` (a newline-joined block of text)."""
        lines = frame.split("\n")
        parts: List[str] = []
        if self.frames == 0:
            parts.append(HIDE_CURSOR)
            parts.append(CLEAR_SCREEN)
        parts.append(CURSOR_HOME)
        for line in lines:
            parts.append(line)
            parts.append(ERASE_LINE_RIGHT)
            parts.append("\n")
        parts.append(ERASE_BELOW)
        self.stream.write("".join(parts))
        self.stream.flush()
        self.frames += 1

    def close(self) -> None:
        """Restore the cursor; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        try:
            self.stream.write(SHOW_CURSOR)
            self.stream.flush()
        except (ValueError, OSError):  # pragma: no cover - closed sink
            pass

    def __enter__(self) -> "LiveScreen":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

