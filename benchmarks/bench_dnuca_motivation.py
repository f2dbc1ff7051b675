"""Section II-A motivation: hardware-managed D-NUCA vs the co-designs.

The paper argues microarchitectural D-NUCA pays search latency and
migration traffic while knowing nothing about sharing or reuse.  This
bench runs the gradual-migration D-NUCA baseline next to S-NUCA and
TD-NUCA on three contrasting benchmarks:

* MD5 (private streaming) — migration chases blocks that are never
  touched again; D-NUCA cannot beat even S-NUCA by much, TD-NUCA's
  bypass wins.
* KNN (hot shared read-only set) — migration ping-pongs the training set
  between requesters (no replication!), TD-NUCA replicates it.
* Kmeans — mixed.
"""

from repro.api import Session
from repro.config import scaled_config
from repro.stats.report import format_table

from .conftest import emit

CFG = scaled_config(1 / 256)
BENCHES = ("md5", "knn", "kmeans")


def test_dnuca_vs_codesign(benchmark):
    def sweep():
        out = {}
        for wl in BENCHES:
            out[wl] = {
                pol: Session(CFG).run(wl, pol)
                for pol in ("snuca", "dnuca", "tdnuca")
            }
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for wl, by_policy in results.items():
        base = by_policy["snuca"].makespan
        rows.append(
            [
                wl,
                f"{base / by_policy['dnuca'].makespan:.3f}x",
                f"{base / by_policy['tdnuca'].makespan:.3f}x",
                f"{by_policy['dnuca'].machine.mean_nuca_distance:.2f}",
                f"{by_policy['tdnuca'].machine.mean_nuca_distance:.2f}",
            ]
        )
    emit(
        format_table(
            ["bench", "D-NUCA speedup", "TD-NUCA speedup",
             "D-NUCA distance", "TD-NUCA distance"],
            rows,
            "Hardware D-NUCA vs runtime-driven TD-NUCA (vs S-NUCA)",
        )
    )
    for wl, by_policy in results.items():
        base = by_policy["snuca"].makespan
        td = base / by_policy["tdnuca"].makespan
        dn = base / by_policy["dnuca"].makespan
        # Runtime knowledge beats blind migration on every benchmark here.
        assert td > dn, wl
        # D-NUCA never catastrophically regresses (it does migrate toward
        # requesters), but its search latency caps the gains.
        assert dn > 0.85, wl
