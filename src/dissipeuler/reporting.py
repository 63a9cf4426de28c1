"""Audit report rows and the plain-text run summary.

Every row names the operation that produced it, the measured value, the
tolerance it was held to, and the margin; a row passes iff its value is
at most its tolerance.  Reports are JSON in the artifact tree and render as
a pass/fail table.
"""

from __future__ import annotations

import json
from pathlib import Path

from .manifest import read_manifest, verify_manifest


def audit_row(name: str, module: str, value: float, tolerance: float,
              detail: str = "") -> dict:
    """One audit result; it passes iff value <= tolerance."""
    value, tolerance = float(value), float(tolerance)
    return {
        "audit": name,
        "module": module,
        "pass": row_passes(value, tolerance),
        "value": value,
        "tolerance": tolerance,
        "margin": tolerance - value,
        "detail": detail,
    }


def row_passes(value: float, tolerance: float) -> bool:
    """The one pass rule of every audit row (NaN fails)."""
    return bool(value <= tolerance)


def all_passed(rows) -> bool:
    return all(r["pass"] for r in rows)


def render_report(artifact_dir) -> str:
    """Human-readable summary of a finalized run directory.

    Every artifact is checked against its manifest hash first: a missing or
    altered artifact is listed with its problem and the run reads FAIL.
    Each row's status is recomputed from its value and tolerance; the
    stored pass flag is not trusted.
    """
    root = Path(artifact_dir)
    manifest = read_manifest(root)

    damaged = verify_manifest(root)
    if damaged:
        lines = ["MISSING OR ALTERED ARTIFACTS:"]
        lines += [f"  {rel}: {problem}" for rel, problem in damaged]
        lines += ["", "overall: FAIL"]
        return "\n".join(lines)

    lines = [f"run directory: {root}", f"artifacts: {len(manifest['artifacts'])}"]
    report_files = sorted(rel for rel in manifest["artifacts"]
                          if rel.startswith("reports/") and rel.endswith(".json"))
    if not report_files:
        lines.append("no report files recorded")
        return "\n".join(lines)

    ok = True
    for rel in report_files:
        payload = json.loads((root / rel).read_text())
        rows = payload.get("rows", [])
        aw = max([len("audit")] + [len(r["audit"]) for r in rows])
        mw = max([len("module")] + [len(r["module"]) for r in rows])
        lines.append(f"\n{rel}:")
        lines.append(f"  {'audit':{aw}} {'module':{mw}} {'value':>12} "
                     f"{'tolerance':>12} {'status':>8}")
        for r in rows:
            passed = row_passes(r["value"], r["tolerance"])
            status = "pass" if passed else "FAIL"
            ok = ok and passed
            lines.append(f"  {r['audit']:{aw}} {r['module']:{mw}} "
                         f"{r['value']:12.4e} {r['tolerance']:12.4e} {status:>8}")
    lines.append("")
    lines.append("overall: " + ("PASS" if ok else "FAIL"))
    return "\n".join(lines)
