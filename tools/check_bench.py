#!/usr/bin/env python3
"""Bench gate: diff a pdc_bench report against the committed baseline.

Usage:
    check_bench.py BASELINE.json CANDIDATE.json [--threshold 0.15]

Each file holds one `machine` stanza and a list of rows
{suite, case, metric, unit, better, kind, value}, matched by
(suite, case, metric).  A baseline row fails when the candidate is worse
by more than the threshold in the row's `better` direction, or when the
candidate has no such row.  `kind: sim` rows are deterministic model
output and always compared; `kind: wall` rows measure the host, so they
are compared only when both machine stanzas match and skipped otherwise.
Candidate rows absent from the baseline are reported but not gated.

The suites' own claims (orderings, floors, determinism) are not checked
here: pdc_bench checks them itself and exits non-zero on a violation.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {(r["suite"], r["case"], r["metric"]): r for r in doc["rows"]}
    return doc.get("machine", {}), rows


def worse(better, base, cand, threshold):
    if better == "lower":
        return cand > base * (1.0 + threshold)
    return cand < base * (1.0 - threshold)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed relative regression per row")
    args = parser.parse_args(argv)

    base_machine, base = load(args.baseline)
    cand_machine, cand = load(args.candidate)
    same_machine = base_machine == cand_machine
    if not same_machine:
        print(f"note: machines differ (base {base_machine}, cand "
              f"{cand_machine}) — wall rows skipped")
    if not base:
        print("FAIL: baseline has no rows — wrong file?")
        return 1

    failures = compared = skipped = 0
    for key, row in sorted(base.items()):
        label = "/".join(key)
        if row["kind"] == "wall" and not same_machine:
            skipped += 1
            continue
        cand_row = cand.get(key)
        if cand_row is None:
            failures += 1
            print(f"{label:64s} missing from candidate  <-- FAIL")
            continue
        compared += 1
        b, c = row["value"], cand_row["value"]
        bad = worse(row["better"], b, c, args.threshold)
        failures += bad
        rel = (c - b) / b if b else 0.0
        print(f"{label:64s} base {b:14.9f}  cand {c:14.9f}  {rel:+7.1%}"
              f"{'  <-- REGRESSION' if bad else ''}")
    for key in sorted(cand.keys() - base.keys()):
        print(f"note: {'/'.join(key)} new in candidate (not gated)")

    if failures:
        print(f"FAIL: {failures} of {len(base)} baseline rows regressed more "
              f"than {args.threshold:.0%} or are missing")
        return 1
    print(f"OK: {compared} rows within {args.threshold:.0%} of baseline"
          f"{f', {skipped} wall rows skipped' if skipped else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
