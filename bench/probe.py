"""Set-up probe: a fresh process that imports witnesslab and runs one warm-up op.

    python3 bench/probe.py <workload>

run.py times this whole process, from spawn to exit, as one sample of setup_s.
For the cli workload the package entry point is ``witnesslab.cli`` and the
warm-up op is ``cli.main`` run in this process with stdout captured.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(workload: str) -> int:
    sys.path.insert(0, SRC)
    if workload == "cli":
        import witnesslab.cli
    else:
        import witnesslab
    from inputs import warmup_item
    from workloads import OPS, Context, cli_in_process, measure_setup

    ctx = Context(witnesslab)
    if workload == "cli":
        cli_in_process(ctx, warmup_item("cli")["argv"])
        return 0
    if workload == "measure":
        measure_setup(ctx)
    op, check = OPS[workload]
    item = warmup_item(workload)
    check(ctx, item, op(ctx, item))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
