"""Check reports: named residuals, hypothesis flags, pass/fail status, JSON output."""

from __future__ import annotations

import json
import os
import time
from typing import Any

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

SCHEMA_VERSION = 1


class CheckReport:
    """Outcome of one named check.

    ``residuals`` maps residual names to nonnegative values, each compared
    against ``tolerances`` (same keys; missing keys fall back to ``tol``).
    A skipped check records the violated hypothesis, carries no residuals and
    never counts as a failure.  A report starts empty, with no status: its
    check fills ``residuals``, ``hypothesis_flags``, ``scalars`` and
    ``notes``.  ``tolerances`` left out is a new empty dict.
    """

    def __init__(self, name: str, tol: float = 1e-10,
                 tolerances: dict[str, float] | None = None):
        self.name, self.tol = name, tol
        self.residuals: dict[str, float] = {}
        self.tolerances = {} if tolerances is None else tolerances
        self.hypothesis_flags: dict[str, bool] = {}
        self.scalars: dict[str, float] = {}
        self.status: str | None = None
        self.skip_reason: str | None = None
        self.notes: list[str] = []

    def tolerance_for(self, key: str) -> float:
        return self.tolerances.get(key, self.tol)

    def failures(self) -> dict[str, float]:
        return {
            k: v
            for k, v in self.residuals.items()
            if not (v < self.tolerance_for(k)) or not _isfinite(v)
        }

    def finalize(self) -> "CheckReport":
        """Derive status from residuals unless already skipped or forced."""
        if self.status is None:
            self.status = SKIPPED if self.skip_reason else (FAIL if self.failures() else PASS)
        return self

    def skip(self, reason: str) -> "CheckReport":
        self.skip_reason = reason
        self.status = SKIPPED
        self.residuals.clear()
        return self

    @property
    def passed(self) -> bool:
        return self.finalize().status == PASS

    def as_dict(self) -> dict[str, Any]:
        self.finalize()
        out: dict[str, Any] = {
            "name": self.name,
            "status": self.status,
            "tolerance": self.tol,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
        }
        if self.tolerances:
            out["tolerances"] = {k: float(v) for k, v in sorted(self.tolerances.items())}
        if self.hypothesis_flags:
            out["hypothesis_flags"] = {k: bool(v) for k, v in sorted(self.hypothesis_flags.items())}
        if self.scalars:
            out["scalars"] = {k: float(v) for k, v in sorted(self.scalars.items())}
        if self.skip_reason:
            out["skip_reason"] = self.skip_reason
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _isfinite(x: float) -> bool:
    return x == x and abs(x) != float("inf")


def report_timestamp() -> str:
    """ISO timestamp; honours SOURCE_DATE_EPOCH so report bytes can be pinned.

    SOURCE_DATE_EPOCH must be a non-negative decimal integer of seconds that
    ``time.gmtime`` can represent; any other value is a ValueError naming it.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(int(time.time())))
    moment = None
    if epoch.isascii() and epoch.isdigit():  # int() alone would take "-1" and " 5"
        try:
            moment = time.gmtime(int(epoch))
        except (ValueError, OverflowError, OSError):  # beyond int's digits or time_t
            pass
    if moment is None:
        raise ValueError(
            f"SOURCE_DATE_EPOCH: must be a non-negative decimal integer that "
            f"time.gmtime can represent, got {epoch!r}"
        )
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", moment)


def emit_report(reports: list[CheckReport], path: str, scenario: str = "",
                timestamp: str | None = None) -> dict[str, Any]:
    """Write the JSON report document for a list of checks and return it."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "timestamp": timestamp if timestamp is not None else report_timestamp(),
        "checks": [r.as_dict() for r in reports],
        "summary": summarize(reports),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def summarize(reports: list[CheckReport]) -> dict[str, int]:
    counts = {PASS: 0, FAIL: 0, SKIPPED: 0}
    for r in reports:
        counts[r.finalize().status] += 1
    return {"passed": counts[PASS], "failed": counts[FAIL], "skipped": counts[SKIPPED]}


def exit_code(reports: list[CheckReport]) -> int:
    """0 iff every non-skipped check passes."""
    return 0 if summarize(reports)["failed"] == 0 else 1
