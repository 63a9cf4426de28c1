"""Audit report rows and the plain-text run summary.

Every row names the operation that produced it, the measured value, the
tolerance it was held to, and the margin; reports are JSON in the artifact
tree and render as a pass/fail table.
"""

from __future__ import annotations

import json
from pathlib import Path

from .manifest import read_manifest


def audit_row(name: str, module: str, passed: bool, value: float,
              tolerance: float, detail: str = "") -> dict:
    return {
        "audit": name,
        "module": module,
        "pass": bool(passed),
        "value": float(value),
        "tolerance": float(tolerance),
        "margin": float(tolerance - value),
        "detail": detail,
    }


def all_passed(rows) -> bool:
    return all(r["pass"] for r in rows)


def render_report(artifact_dir) -> str:
    """Human-readable summary of a finalized run directory."""
    root = Path(artifact_dir)
    manifest = read_manifest(root)

    missing = [rel for rel in manifest["artifacts"] if not (root / rel).exists()]
    if missing:
        lines = ["MISSING ARTIFACTS:"]
        lines += [f"  {rel}" for rel in missing]
        return "\n".join(lines)

    lines = [f"run directory: {root}", f"artifacts: {len(manifest['artifacts'])}"]
    report_files = sorted(rel for rel in manifest["artifacts"]
                          if rel.startswith("reports/") and rel.endswith(".json"))
    if not report_files:
        lines.append("no report files recorded")
        return "\n".join(lines)

    width = 44
    ok = True
    for rel in report_files:
        payload = json.loads((root / rel).read_text())
        rows = payload.get("rows", [])
        lines.append(f"\n{rel}:")
        lines.append(f"  {'audit':{width}} {'module':34} {'value':>12} "
                     f"{'tolerance':>12} {'status':>8}")
        for r in rows:
            status = "pass" if r["pass"] else "FAIL"
            ok = ok and r["pass"]
            lines.append(f"  {r['audit'][:width]:{width}} {r['module'][:34]:34} "
                         f"{r['value']:12.4e} {r['tolerance']:12.4e} {status:>8}")
    lines.append("")
    lines.append("overall: " + ("PASS" if ok else "FAIL"))
    return "\n".join(lines)
