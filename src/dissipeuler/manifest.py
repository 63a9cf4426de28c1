"""Deterministic artifact tree with content hashes.

Every run writes into its own directory: the echoed config, CSV traces,
JSON reports, field snapshots, and finally ``manifest.json`` holding the
SHA-256 of every artifact.  Nothing time- or host-dependent is ever
written, so reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


class ManifestError(RuntimeError):
    pass


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(payload) -> str:
    """Compact JSON with sorted keys: one byte sequence per payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class RunDirectory:
    """Append-only artifact directory; call finalize() to seal the manifest."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if (self.root / "manifest.json").exists():
            raise ManifestError(f"{self.root} already holds a finalized run")

    def path(self, rel: str) -> Path:
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def write_text(self, rel: str, text: str) -> Path:
        p = self.path(rel)
        p.write_text(text)
        return p

    def write_json(self, rel: str, payload) -> Path:
        return self.write_text(rel, canonical_json(payload))

    def finalize(self) -> dict:
        artifacts = {}
        for p in sorted(self.root.rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                artifacts[str(p.relative_to(self.root))] = sha256_file(p)
        manifest = {"version": 1, "artifacts": artifacts}
        (self.root / "manifest.json").write_text(canonical_json(manifest))
        return manifest


def read_manifest(root) -> dict:
    p = Path(root) / "manifest.json"
    if not p.exists():
        raise ManifestError(f"missing manifest: {p}")
    return json.loads(p.read_text())


def verify_manifest(root) -> list:
    """Return a list of (path, problem) for missing or altered artifacts."""
    root = Path(root)
    manifest = read_manifest(root)
    issues = []
    for rel, digest in manifest["artifacts"].items():
        p = root / rel
        if not p.exists():
            issues.append((rel, "missing"))
        elif sha256_file(p) != digest:
            issues.append((rel, "hash mismatch"))
    return issues
