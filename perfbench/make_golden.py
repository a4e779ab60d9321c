"""Record the golden output hashes of the verify workloads for a range of seeds.

    python3 perfbench/make_golden.py 0 31

Each entry comes from a single-worker ``run_suite`` of the workload's config,
made in this process from the checkout's ``src``: the sha256 of the ``data``
block as ``json.dumps(data, indent=2, sort_keys=True)`` and, for
``verify_csv``, of the margins CSV.  Later changes must reproduce them at any
worker count.  Existing entries are kept.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text())
    hc = run.import_package()
    for name, cfg in run.VERIFY.items():
        entry = golden.setdefault(name, {"count": cfg["count"], "seeds": {}})
        if entry["count"] != cfg["count"]:
            raise SystemExit(f"{name}: golden.json holds count {entry['count']}, not {cfg['count']}")
        for seed in range(first, last + 1):
            if str(seed) in entry["seeds"]:
                continue
            config = hc.harness.default_config(seed=seed, count=cfg["count"], workers=1)
            result = hc.harness.run_suite(config)
            record = {"data_sha256": run.data_digest(result.data_dict())}
            if cfg["csv"]:
                record["csv_sha256"] = hashlib.sha256(result.margins_csv().encode()).hexdigest()
            entry["seeds"][str(seed)] = record
            path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {record['data_sha256'][:16]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
