"""One set-up launch: import a workload's quasih entry points in a fresh
interpreter, complete one warm-up item, and report the clock.

Run by run.py as ``python3 setup_probe.py WORKLOAD SRC ITEM_JSON OUT_PATH``.
It prints one JSON line with perf_counter readings (a system-wide
monotonic clock on Linux, so the parent can subtract its spawn time) and a
digest of the item's output, which the parent compares with its own.
Only the standard library and items.py are imported before quasih.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    workload, src, item_json, out_path = sys.argv[1:5]
    sys.path.insert(0, src)
    import items

    item = json.loads(item_json)
    import_start = perf_counter()
    items.import_entry(workload)
    imported = perf_counter()
    result = items.run_item(workload, item, out_path)
    done = perf_counter()
    report = {
        "import_start": import_start,
        "imported": imported,
        "done": done,
        "digest": items.digest(items.output_text(workload, result, out_path)),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
