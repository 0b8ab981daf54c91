"""Record the reference answers that items without an independent check use.

    PYTHONPATH=src:. python3 perfbench/record_reference.py

Writes perfbench/reference/rank_loci_cli.json (SHA-256 of the stdout of
every non-golden argv a rank_loci_cli pass can draw) and
perfbench/reference/tangent_ternary.json (tangent dimension of every ternary
monomial subspace, where primal and dual routes must also agree).  Run it
only when the library's answers are meant to change; the benchmark fails
every item whose answer no longer matches.
"""

from __future__ import annotations

import json
import os
import sys

from levelalg import tangent
from perfbench import workloads


def _write(name: str, data: dict):
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    path = os.path.join(workloads.REFERENCE_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} entries to {path}")


def main() -> int:
    cli_ref = {}
    argvs = workloads.porteous_pool() + [a for v in workloads.CLI_POOLS.values() for a in v]
    for argv in argvs:
        rc, text = workloads.call_cli(argv)
        if rc != 0:
            print(f"exit code {rc}: {workloads.argv_key(argv)}", file=sys.stderr)
            return 1
        cli_ref[workloads.argv_key(argv)] = workloads.output_digest(text)
    ternary_ref = {}
    for lines in workloads.TERNARY_SUBSPACES:
        lam = workloads.ternary_subspace(lines)
        primal = tangent.tangent_space(lam).dimension
        dual = tangent.tangent_space_dual(lam).dimension
        if primal != dual:
            print(f"primal {primal} != dual {dual}: {lines}", file=sys.stderr)
            return 1
        ternary_ref[" | ".join(lines)] = primal
    _write("rank_loci_cli.json", cli_ref)
    _write("tangent_ternary.json", ternary_ref)
    return 0


if __name__ == "__main__":
    sys.exit(main())
