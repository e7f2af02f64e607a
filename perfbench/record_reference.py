#!/usr/bin/env python3
"""Record the reference reports the output check compares against.

    python3 perfbench/record_reference.py

Runs every workload once at the default seed, full size and shrunk, and
writes the report (verify_all.json, or simulate's summary.json) without its
timestamp to perfbench/reference/. The checked-in references were recorded
at commit f65afd9, before any optimisation; re-recording them on a later
commit would hide a change in results, so only do that for a change whose
results are meant to differ, and say so.
"""
import json
import shutil

from run import ROOT, bootstrap


def main():
    bootstrap()
    import harness
    from checks import stable

    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in harness.WORKLOADS.values():
        work = ROOT / harness.WORK_DIR / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for shrunk in (True, False):
            target = harness.Target(workload, ROOT, work, harness.DEFAULT_SEED, shrunk, None)
            op = target.run()
            if op.problems:
                raise SystemExit(f"{workload.name}: {op.problems}")
            report = "verify_all.json" if workload.command == "verify" else "summary.json"
            with open(target.out_dir / report, encoding="utf-8") as fh:
                payload = stable(json.load(fh))
            with open(harness.reference_path(workload, shrunk), "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
                fh.write("\n")
            print(f"{workload.name}{' (shrunk)' if shrunk else ''}: {op.wall:.2f} s")


if __name__ == "__main__":
    main()
