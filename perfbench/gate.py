"""Correctness gate for one op: exit code, the report's own verdicts, and on
the default seed the sha256 of the machine output."""

from __future__ import annotations

import hashlib
import json

EXPECTED_EXIT = 0
PASS_FIELDS = ("status", "postconditions", "recheck_at_alpha0_and_plus7", "witness_recheck")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(op, rc: int, out: str, want_digest: str | None = None) -> str | None:
    """None when the op's output is correct, else the first reason it is not."""
    if rc != EXPECTED_EXIT:
        return f"exit code {rc}, expected {EXPECTED_EXIT}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"machine output is not JSON: {exc}"
    if report.get("passed") is not True:
        return "report says passed: false"
    results = report.get("results") or {}
    if not results:
        return "report has no results"
    for key, entry in results.items():
        for f in PASS_FIELDS:
            if f in entry and entry[f] != "PASS":
                return f"{key}: {f} is {entry[f]!r}"
        if "tail_agreement" in entry and entry["tail_agreement"] is not True:
            return f"{key}: tail_agreement is {entry['tail_agreement']!r}"
        if "oracle_agreement" in entry:
            agree, total = entry["oracle_agreement"].split("/")
            if agree != total or (op.oracle_cases is not None and int(total) != op.oracle_cases):
                want = op.oracle_cases
                return f"{key}: oracle_agreement {entry['oracle_agreement']}, expected {want}/{want}"
    for key, verdict in op.verdicts.items():
        got = results.get(key, {}).get("verdict")
        if got != verdict:
            return f"{key}: verdict {got!r}, expected {verdict!r}"
    if want_digest is not None and digest(out) != want_digest:
        return "sha256 of the machine output differs from the stored digest"
    return None
