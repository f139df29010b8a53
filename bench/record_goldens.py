"""Record the goldens the benchmark compares against: the output of every
CLI call in the workloads' CLI slots, and the variety-point count of every
scan.  Run from the repository root at the commit the goldens describe:

    python3 bench/record_goldens.py
"""

import json

import workloads


def main() -> None:
    workloads.use_source_tree()
    from deeplocus import cli, polygon
    from deeplocus.field import prime_field

    goldens = {"cli": {}, "scan_variety": {}}
    for slots in workloads.CLI_SLOTS.values():
        for slot in slots():
            for argv in slot:
                rc, text = workloads.run_cli(cli, argv)
                goldens["cli"][workloads.cli_golden_key(argv)] = {"rc": rc, "stdout": text}
    for n, p, mode in workloads.SCANS:
        results = polygon.bruteforce_variety_scan(n, prime_field(p), mode)
        goldens["scan_variety"][workloads.scan_key(n, p, mode)] = len(results)
    with open(workloads.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
