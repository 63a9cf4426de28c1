"""Per-layer metrics from the spans a traced child recorded.

A span is ``(id, parent, name, thread, start, end, extra)`` as written by
``child.py``.  A layer's busy time sums the spans of its group whose parent
is outside the group, so nested calls of one group (``refined`` calling
``refine``) count once.  Self time is a span's duration minus the union of
the intervals its direct children cover; with the thread pool a job's spans
are children of the span that submitted them.
"""

from __future__ import annotations

from collections import defaultdict

# counts that must repeat exactly between runs of one seed
COUNTS = ("spectral.transform_calls", "spectral.transform_bytes",
          "solver.run_path_calls", "solver.path_steps", "solver.dof_steps",
          "forcing.paths_sampled", "young.pairing_calls", "young.bins_allocated",
          "young.bins_occupied", "weakstrong.relative_energy_calls",
          "manifest.bytes", "manifest.files")

# busy-time metric -> span names forming its group
BUSY = {
    "spectral.convective_s": ("spectral.convective",),
    "spectral.leray_s": ("spectral.leray",),
    "spectral.to_physical_s": ("spectral.to_physical",),
    "spectral.transform_s": ("fft",),
    "forcing.sample_s": ("forcing.sample",),
    "forcing.refine_s": ("forcing.refine",),
    "young.embed_s": ("young.embed",),
    "young.family_s": ("young.family",),
    "young.pairing_s": ("young.pairing", "young.weakstar"),
    "limits.functionals_s": ("limits.functionals",),
    "limits.martingale_test_s": ("limits.martingale_test",),
    "limits.momentum_s": ("limits.momentum",),
    "limits.energy_limit_s": ("limits.energy_limit",),
    "weakstrong.build_reference_s": ("weakstrong.build_reference",),
    "weakstrong.relative_energy_s": ("weakstrong.relative_energy",),
    "weakstrong.gronwall_s": ("weakstrong.gronwall",),
    "manifest.write_json_s": ("manifest.write_json",),
    "manifest.finalize_s": ("manifest.finalize",),
    "config.load_s": ("config.load",),
}


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, artifact_bytes: int, artifact_files: int) -> dict:
    """Every per-layer metric but trace.overhead_s, from one traced child."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
        by_name[s[2]].append(s)

    def busy(names):
        return sum(s[5] - s[4] for n in names for s in by_name[n]
                   if by_id.get(s[1], (None, None, None))[2] not in names)

    def self_time(name):
        return sum(s[5] - s[4] - _union_length(
            [(c[4], c[5]) for c in children[s[0]]], s[4], s[5])
            for s in by_name[name])

    out = {metric: busy(names) for metric, names in BUSY.items()}

    ffts = by_name["fft"]
    out["spectral.transform_calls"] = len(ffts)
    out["spectral.transform_bytes"] = sum(s[6] or 0 for s in ffts)

    runs = [s for s in by_name["solver.run_path"] if s[6]]
    out["solver.run_path_calls"] = len(by_name["solver.run_path"])
    out["solver.path_steps"] = sum(s[6]["steps"] for s in runs)
    out["solver.dof_steps"] = sum(s[6]["steps"] * s[6]["dof"] for s in runs)
    out["solver.run_path_self_s"] = self_time("solver.run_path")
    for n in (32, 64, 128):
        at_n = [s for s in runs if s[6]["n"] == n]
        steps = sum(s[6]["steps"] for s in at_n)
        out[f"solver.step_us.n{n}"] = (
            1e6 * sum(s[5] - s[4] for s in at_n) / steps if steps else 0.0)

    out["forcing.paths_sampled"] = len(by_name["forcing.sample"])

    builds = [s for n in ("young.embed", "young.family") for s in by_name[n] if s[6]]
    out["young.pairing_calls"] = len(by_name["young.pairing"])
    out["young.bins_allocated"] = sum(s[6]["alloc"] for s in builds)
    out["young.bins_occupied"] = sum(s[6]["occ"] for s in builds)
    out["young.occupied_frac"] = (out["young.bins_occupied"] / out["young.bins_allocated"]
                                  if out["young.bins_allocated"] else 0.0)

    ladders = by_name["limits.run_ladder"]
    ladder_s = sum(s[5] - s[4] for s in ladders)
    job_s = sum(c[5] - c[4] for s in ladders for c in children[s[0]]
                if c[2] == "solver.run_path")
    out["limits.ladder_self_s"] = self_time("limits.run_ladder")
    out["limits.ladder_concurrency"] = job_s / ladder_s if ladder_s else 0.0

    out["weakstrong.relative_energy_calls"] = len(by_name["weakstrong.relative_energy"])
    out["manifest.bytes"] = artifact_bytes
    out["manifest.files"] = artifact_files
    out["cli.self_s"] = self_time("cli.main")
    return out
