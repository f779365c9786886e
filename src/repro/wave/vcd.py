"""VCD (value-change-dump) reading and writing.

The paper motivates its tools against "inspecting a massive waveform";
this module produces that baseline artifact (openable in GTKWave & co.)
and parses it back, so traces round-trip through the standard format.

Beyond the original writer this version:

* emits a ``$dumpvars`` section carrying every signal's initial value
  (required by strict VCD readers; previously initial values were plain
  cycle-0 change records);
* escapes signal names containing VCD-reserved characters (whitespace,
  ``$``, backslash, unprintables) so generated names like decoded
  recorder-argument expressions (``s0.total + 1``) survive;
* renders unknown values (Python ``None``) as ``x``/``bx``;
* provides :func:`parse_vcd`, the inverse of :func:`dump_vcd`.

This module deliberately imports nothing from the rest of the package
(it is duck-typed over simulators), keeping ``repro.sim`` ↔
``repro.wave`` imports acyclic.
"""

from __future__ import annotations

import re
import string

_ID_CHARS = string.ascii_letters + string.digits + "!#$%&'()*+,-./:;<=>?@[]^_`{|}~"

#: Characters that must not appear literally in a ``$var`` signal name:
#: whitespace splits the directive, ``$`` starts a keyword.
_RESERVED = frozenset(" \t\r\n$")

_ESCAPE_RE = re.compile(r"\\\\|\\x([0-9a-fA-F]{2})")


def _identifiers():
    """Yield unique short VCD identifier codes."""
    for char in _ID_CHARS:
        yield char
    for first in _ID_CHARS:
        for second in _ID_CHARS:
            yield first + second


def escape_id(name):
    """Escape a signal name for a ``$var`` directive (lossless)."""
    out = []
    for char in name:
        if char == "\\":
            out.append("\\\\")
        elif char in _RESERVED or not char.isprintable():
            out.append("\\x%02x" % ord(char))
        else:
            out.append(char)
    return "".join(out)


def unescape_id(name):
    """Invert :func:`escape_id`."""

    def sub(match):
        if match.group(0) == "\\\\":
            return "\\"
        return chr(int(match.group(1), 16))

    return _ESCAPE_RE.sub(sub, name)


def _change_record(value, width, code):
    """One value-change line (scalar ``0!`` / vector ``b101 !`` form)."""
    if width == 1:
        if value is None:
            return "x%s" % code
        return "%d%s" % (value & 1, code)
    if value is None:
        return "bx %s" % code
    return "b%s %s" % (bin(value)[2:], code)


def dump_vcd(waveform, widths, timescale="1ns", comment="", scope="top"):
    """Render a waveform dict ({signal: [values by cycle]}) as VCD text.

    Values are ints or ``None`` (unknown, rendered as ``x``). Initial
    values are emitted in a ``$dumpvars`` section at ``#0``; later
    timestamps carry changes only.
    """
    lines = ["$date", "  repro reproduction run", "$end"]
    if comment:
        lines += ["$comment", "  " + comment, "$end"]
    lines += ["$timescale %s $end" % timescale, "$scope module %s $end" % scope]
    codes = {}
    id_gen = _identifiers()
    for name in sorted(waveform):
        code = next(id_gen)
        codes[name] = code
        lines.append(
            "$var wire %d %s %s $end"
            % (widths.get(name, 1), code, escape_id(name))
        )
    lines += ["$upscope $end", "$enddefinitions $end"]
    cycles = max((len(v) for v in waveform.values()), default=0)
    previous = {}
    lines.append("#0")
    lines.append("$dumpvars")
    for name in sorted(waveform):
        values = waveform[name]
        value = values[0] if values else None
        previous[name] = value
        lines.append(_change_record(value, widths.get(name, 1), codes[name]))
    lines.append("$end")
    for cycle in range(1, cycles):
        changes = []
        for name in sorted(waveform):
            values = waveform[name]
            if cycle >= len(values):
                continue
            value = values[cycle]
            if previous[name] == value:
                continue
            previous[name] = value
            changes.append(
                _change_record(value, widths.get(name, 1), codes[name])
            )
        if changes:
            lines.append("#%d" % cycle)
            lines.extend(changes)
    lines.append("#%d" % cycles)
    return "\n".join(lines) + "\n"


def parse_vcd(text):
    """Parse VCD text into ``(waveform, widths)`` — :func:`dump_vcd` inverse.

    One value per cycle per signal; cycles a signal was never dumped at
    hold the last dumped value (``None`` before the first dump). The
    trailing timestamp marker defines the trace length.
    """
    widths = {}
    names = {}  # code -> name
    changes = {}  # code -> [(time, value)]
    in_header = True
    time = 0
    end_time = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_header:
            if line.startswith("$var"):
                tokens = line.split()
                # $var <type> <width> <code> <name> $end
                width = int(tokens[2])
                code = tokens[3]
                names[code] = unescape_id(tokens[4])
                widths[names[code]] = width
                changes[code] = []
            elif line.startswith("$enddefinitions"):
                in_header = False
            continue
        if line.startswith("$"):
            continue  # $dumpvars / $end wrappers
        if line.startswith("#"):
            time = int(line[1:])
            end_time = max(end_time, time)
            continue
        first = line[0]
        if first in "bB":
            digits, code = line[1:].split(None, 1)
            value = None if digits.lower().startswith(("x", "z")) else int(digits, 2)
        else:
            code = line[1:]
            value = None if first.lower() in "xz" else int(first)
        if code in changes:
            changes[code].append((time, value))
    waveform = {}
    for code, name in names.items():
        values = []
        pending = sorted(changes[code])
        current = None
        cursor = 0
        for cycle in range(end_time):
            while cursor < len(pending) and pending[cursor][0] <= cycle:
                current = pending[cursor][1]
                cursor += 1
            values.append(current)
        waveform[name] = values
    return waveform, widths


def write_vcd(sim, path, comment=""):
    """Write a simulator's captured trace (``trace=...``) to *path*."""
    if not sim.waveform:
        raise ValueError(
            "simulator has no trace; construct it with trace='all' or a "
            "signal list"
        )
    widths = {name: sim.symbols.width_of(name) for name in sim.waveform}
    text = dump_vcd(sim.waveform, widths, comment=comment)
    with open(path, "w") as handle:
        handle.write(text)
    return path
