"""Stdlib-only schema validator for Chrome trace-event exports.

CI runs this as a script over the traces that ``repro hls``, ``eco`` and
``boot`` write with ``--trace PATH --trace-format chrome``; the
telemetry tests import :func:`validate_chrome_trace` directly.  The rules
encode the subset of the Trace Event Format the exporter emits ("X", "i",
"C" and "M" phases on pid 0) plus the repo's determinism conventions
(every span event carries a category mapped to a named thread).

Usage::

    python tests/telemetry/chrome_schema.py trace.json
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

_NUMBER = (int, float)


def _check_common(event: Dict[str, Any], index: int,
                  problems: List[str]) -> None:
    where = f"event[{index}]"
    for key, kind in (("ph", str), ("pid", int), ("tid", int),
                      ("name", str)):
        if not isinstance(event.get(key), kind):
            problems.append(f"{where}: {key!r} missing or not "
                            f"{kind.__name__}")


def validate_chrome_trace(document: Any) -> List[str]:
    """Return a list of schema problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' missing or not a list"]
    if document.get("displayTimeUnit") not in ("ms", "ns"):
        problems.append("'displayTimeUnit' must be 'ms' or 'ns'")
    named_tids = set()
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        _check_common(event, index, problems)
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") != "thread_name":
                problems.append(f"{where}: metadata event is not a "
                                f"thread_name record")
            name = (event.get("args") or {}).get("name")
            if not isinstance(name, str) or not name:
                problems.append(f"{where}: thread_name without a name")
            named_tids.add(event.get("tid"))
            continue
        if phase not in ("X", "i", "C"):
            problems.append(f"{where}: unsupported phase {phase!r}")
            continue
        if not isinstance(event.get("ts"), _NUMBER):
            problems.append(f"{where}: 'ts' missing or not a number")
        elif event["ts"] < 0:
            problems.append(f"{where}: negative timestamp {event['ts']}")
        if phase == "X":
            if not isinstance(event.get("dur"), _NUMBER):
                problems.append(f"{where}: complete event without 'dur'")
            elif event["dur"] < 0:
                problems.append(f"{where}: negative duration "
                                f"{event['dur']}")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant event scope 's' invalid")
        if phase == "C":
            value = (event.get("args") or {}).get("value")
            if not isinstance(value, _NUMBER):
                problems.append(f"{where}: counter without numeric value")
        if phase in ("X", "i"):
            if not isinstance(event.get("cat"), str):
                problems.append(f"{where}: span event without category")
            if event.get("tid") not in named_tids:
                problems.append(f"{where}: tid {event.get('tid')} has no "
                                f"thread_name metadata")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: chrome_schema.py TRACE.json", file=sys.stderr)
        return 2
    document = json.loads(open(argv[1]).read())
    problems = validate_chrome_trace(document)
    for problem in problems:
        print(f"schema: {problem}", file=sys.stderr)
    count = len(document.get("traceEvents", []))
    if not problems:
        print(f"{argv[1]}: valid chrome trace ({count} events)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
