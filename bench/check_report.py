"""Check one carlitz JSON report and print its canonical digest.

    python3 bench/check_report.py REPORT.json

Prints one JSON object: ``problem`` (null when every check passed) and
``digest``, the SHA-256 of the report with ``timing_ms`` removed and keys
sorted.  It runs in its own process so that the benchmark harness never
holds a multi-megabyte report: a child's peak RSS as the kernel reports it
includes the peak of the process that spawned it.
"""

import hashlib
import json
import sys


def check(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return "unreadable report: %s" % exc, None
    try:
        statuses = [(c["id"], c["status"]) for r in doc["suite_results"]
                    for c in r["checks"]]
    except (KeyError, TypeError):
        return "report is not a carlitz JSON report", None
    bad = [cid for cid, status in statuses if status != "pass"]
    if bad or not statuses:
        return "checks not passing: %s" % bad[:5], None
    doc.pop("timing_ms", None)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return None, hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    problem, digest = check(sys.argv[1])
    print(json.dumps({"problem": problem, "digest": digest}))
