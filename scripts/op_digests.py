#!/usr/bin/env python3
"""Print one digest of the benchmark's op outputs per workload, for a source tree.

Each workload of ``perfbench/workloads.py`` is set up at ``--seed`` as
``perfbench/run.py`` sets it up (with its warm-up op), then runs ops
0 .. ``--ops`` - 1.  The line printed for it is the workload's name and a
sha256 over ``run.digest`` of each op's output, in op order.  Equal lines
for two trees mean their ops returned equal outputs.  Compare a parent
commit with a change by

  git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
  python scripts/op_digests.py --src /tmp/parent/src
  python scripts/op_digests.py

Name workloads to digest only those.  The perfbench modules are imported
from this checkout, and only read.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the ivauctions package (default: src)")
    parser.add_argument("--seed", type=int, default=97)
    parser.add_argument("--ops", type=int, default=16, help="ops per workload, from op 0")
    parser.add_argument("workloads", nargs="*", help="workloads to digest (default: all)")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as the benchmark runs
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]

    import ivauctions
    import run
    import workloads

    if not os.path.abspath(ivauctions.__file__).startswith(src + os.sep):
        print(f"op_digests: imported ivauctions from {ivauctions.__file__}, not {src}",
              file=sys.stderr)
        return 2
    names = args.workloads or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"op_digests: unknown workloads {unknown}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    for name in names:
        with tempfile.TemporaryDirectory() as workdir:
            workload, _, errors = run.set_up(workloads.WORKLOADS[name], args.seed, workdir)
            if errors:
                print(f"op_digests: {name}: {'; '.join(errors)}", file=sys.stderr)
                return 1
            total = hashlib.sha256()
            for index in range(args.ops):
                total.update(run.digest(workload.op(index)).encode())
        print(name, total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
