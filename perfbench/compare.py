#!/usr/bin/env python3
"""List the calls whose results differ bit for bit between two result records.

    python3 perfbench/compare.py OLD.record.json NEW.record.json

Every benchmark run writes ``perfbench/out/<workload>-seed<seed>.record.json``
with, per call, its status, both endpoints as exact hex floats, ``n_used`` and
``words_evaluated``.  This command matches calls by name and prints each
field that differs.  It exits with 0 when every call is bit-identical and
with 1 otherwise, which is the first half of the rule "bit-identical or pass
the item-1 oracles"; the record's ``check`` lists give the second half.
"""

import json
import sys

FIELDS = ("status", "lower", "upper", "n_used", "words_evaluated", "error")


def load(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {call["name"]: call for call in record["calls"]}


def _show(field, value):
    if field in ("lower", "upper") and isinstance(value, str):
        return f"{value} ({float.fromhex(value)!r})"
    return repr(value)


def differences(old, new):
    """[(call, field, old value, new value)] for every mismatch."""
    out = []
    for name in list(old) + [n for n in new if n not in old]:
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            out.append((name, "present", a is not None, b is not None))
            continue
        for field in FIELDS:
            if a.get(field) != b.get(field):
                out.append((name, field, a.get(field), b.get(field)))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    diffs = differences(load(argv[0]), load(argv[1]))
    for name, field, a, b in diffs:
        print(f"{name}: {field}: {_show(field, a)} -> {_show(field, b)}")
    if not diffs:
        print("every call is bit-identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
