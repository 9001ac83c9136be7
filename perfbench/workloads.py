"""The benchmark's workloads: which CLI invocation each runs and why.

Every workload is one `circgeo` command on a shipped fixture at a fixed
grid.  The benchmark seed reaches the program only as `--seed`, which fixes
the random vectors the checks sample; the fixture and grid never change, so
the known answers in `gate.py` hold for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # circgeo subcommand
    spec: str  # fixture path, relative to the repository root
    grid: int  # samples per axis
    extra: tuple[str, ...]  # further CLI arguments

    @property
    def points(self) -> int:
        return self.grid**4

    def argv(self, seed: int, json_path: str) -> list[str]:
        """CLI arguments after `python -m circgeo`."""
        return [
            self.command,
            self.spec,
            "--grid",
            str(self.grid),
            *self.extra,
            "--seed",
            str(seed),
            "--json",
            json_path,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # All 7 checks pass at 81 points; bound by the per-sample loops of
        # sectional-relations and mu-law and by the Newton q-basis.
        Workload("verify-curved", "verify", "fixtures/curved-par.json", 3, ()),
        # 4096 points of jets, metric, Christoffel and nabla q only: no
        # curvature tensor, no sampling, little output per point.
        Workload("scan-curved", "scan", "fixtures/curved-par.json", 8, ("--check", "parallel")),
    )
}
