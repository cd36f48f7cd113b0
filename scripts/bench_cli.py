#!/usr/bin/env python3
"""Time CLI evaluate and the ex-post sweep on source trees side by side; write BENCH_cli_evaluate.json.

Cases, on ``gen_random_tabulated(n, k, seed=n)`` for (n, k) = (2, 70) and
(3, 16) (5,041 and 4,913 profiles, the grid sizes of the benchmark's
``grid_certify`` workload), with the grid mechanism under the reversed
ordering:

  evaluate_n{n}_k{k}  ``ivauctions evaluate --mechanism hypergrid --pi ...``
                      in process, from reading the instance file to writing
                      the JSON document and reading it back; ms per call
  expost_n{n}_k{k}    ``check_expost_truthful`` of the grid table; ms per call

The rounds, the workers, the reference-speed scaling and the file's layout
are those of ``scripts/bench_lazy_chain.py``, whose helpers this script
runs.  The digests cover the evaluate output bytes and the violation lists,
so equal digests mean the trees wrote the same documents.  Compare a parent
commit with a change by

  git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
  python scripts/bench_cli.py --src parent=/tmp/parent/src --src change=src

Without ``--src`` it times this checkout's ``src`` alone.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_lazy_chain  # noqa: E402

SHAPES = ((2, 70), (3, 16))


def _cases():
    """Each case as (name, unit, calls): one timed pass makes every call once."""
    from ivauctions import check_expost_truthful, cli, hypergrid_coloring
    from ivauctions import instances as gen
    from ivauctions.model import instance_to_json

    work = tempfile.mkdtemp(prefix="bench_cli-")
    atexit.register(shutil.rmtree, work, True)

    def evaluate(argv, out):
        if cli.main(argv + ["--out", out]):
            raise RuntimeError(f"evaluate exited non-zero: {argv}")
        with open(out, "rb") as fh:
            return fh.read()

    cases = []
    for n, k in SHAPES:
        v = gen.gen_random_tabulated(n, k, seed=n)[0]
        pi = tuple(reversed(range(n)))
        path = os.path.join(work, f"instance-n{n}.json")
        with open(path, "w") as fh:
            json.dump(instance_to_json(v), fh)
        argv = ["evaluate", "--mechanism", "hypergrid", "--instance", path,
                "--pi", ",".join(str(b + 1) for b in pi)]
        out = os.path.join(work, f"evaluate-n{n}.json")
        cases.append((f"evaluate_n{n}_k{k}", "ms/call", [lambda a=argv, o=out: evaluate(a, o)]))
        table = hypergrid_coloring(v, pi)
        sweep = lambda t=table, v=v: repr(check_expost_truthful(t, v))
        cases.append((f"expost_n{n}_k{k}", "ms/call", [sweep]))
    return cases


if __name__ == "__main__":
    sys.exit(bench_lazy_chain.main(script=__file__, cases=_cases,
                                   out="BENCH_cli_evaluate.json", doc=__doc__))
