"""Record the reference every benchmark run is checked against.

    python3 perfbench/record.py

For each workload at workloads.REFERENCE_SEED this generates the inputs,
loads and partitions them as `netgate run` does, runs the untraced table at
threads=1 and at the workload's own thread count, and writes to
perfbench/reference.json the workload parameters, the measured network (n,
m, clusters, interior fraction, sum and maximum of the touch counts c) and
the report.csv sha256. It refuses to record if the two thread counts
disagree. Rerun it only when a workload's definition changes, never to make
a failing report pass.
"""

from __future__ import annotations

import json

from run import ROOT, use_checkout_package  # perfbench/ is sys.path[0] here

if __name__ == "__main__":
    use_checkout_package()
    from netgate import harness
    from perfbench import bench, gate, workloads

    seed = workloads.REFERENCE_SEED
    record = {}
    for name, w in workloads.WORKLOADS.items():
        inputs = workloads.generate(w, seed, ROOT, workloads.WORK)
        digests = []
        for threads in sorted({1, w.threads}):
            config = harness.ExperimentConfig.from_dict(
                workloads.experiment_dict(w, seed, inputs, threads))
            g, part = bench.load_and_partition(config)
            report = harness.run(config, g=g, p_part=part)
            errors = gate.check_invariants(report, config, g, part)
            if errors:
                raise SystemExit(f"error: {name}: " + "; ".join(errors))
            digests.append(gate.sha256(report.to_csv().encode("utf-8")))
        if len(set(digests)) != 1:
            raise SystemExit(f"error: {name}: report.csv differs between thread counts")
        record[name] = {
            "seed": seed,
            "params": workloads.params(w),
            **bench.network_stats(g, part),
            "c_max": int(part.touch_counts.max()),
            "report_sha256": digests[0],
        }
        print(name, json.dumps(record[name]))
    gate.REFERENCE_FILE.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
