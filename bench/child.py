"""``python -m bench.child --workload W --seed N --seconds S --trace 0|1
[--smoke]``: run one workload in this fresh process and print its
result as one JSON line. The orchestrator (``python -m bench``) starts
one of these per workload and pass, so module caches, the program's
observability registry and memory never carry over between them.
"""

from __future__ import annotations

import argparse
import json

from bench import procs, spec


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = spec.workload(args.workload)
    program_cpu, load_cpu = procs.cpus()
    if workload.kind == "serve":
        from bench import serve_load

        procs.pin(load_cpu)
        result = serve_load.run(workload, args.seed, args.seconds,
                                bool(args.trace), args.smoke,
                                server_cpu=program_cpu)
    else:
        from bench import kernels

        procs.pin(program_cpu)
        result = kernels.run(workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
