"""Scale robustness: the reproduction's conclusions must not be an
artifact of one capacity scale.

Runs the core comparison (S-NUCA vs TD-NUCA) for three contrasting
benchmarks at two scales (1/128 and 1/512) and checks that the paper's
qualitative claims — TD-NUCA wins, bypass cuts LLC accesses, data
movement drops — hold at both.
"""

from repro.api import Session
from repro.config import scaled_config
from repro.stats.report import format_table

from .conftest import emit

BENCHES = ("md5", "kmeans", "lu")
SCALES = (128, 512)


def test_conclusions_hold_across_scales(benchmark):
    def sweep():
        out = {}
        for denom in SCALES:
            cfg = scaled_config(1.0 / denom)
            for wl in BENCHES:
                out[(denom, wl)] = {
                    pol: Session(cfg).run(wl, pol)
                    for pol in ("snuca", "tdnuca")
                }
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for (denom, wl), by_policy in sorted(results.items()):
        s, t = by_policy["snuca"], by_policy["tdnuca"]
        speedup = s.makespan / t.makespan
        llc = t.machine.llc_accesses / max(1, s.machine.llc_accesses)
        move = t.machine.router_bytes / max(1, s.machine.router_bytes)
        rows.append(
            [f"1/{denom}", wl, f"{speedup:.3f}x", f"{llc:.3f}", f"{move:.3f}"]
        )
        # The paper's qualitative conclusions at every scale:
        assert speedup > 0.98, (denom, wl)
        assert llc < 1.0, (denom, wl)
        assert move < 0.9, (denom, wl)
    emit(
        format_table(
            ["scale", "bench", "TD speedup", "LLC accesses", "data movement"],
            rows,
            "Scale robustness: TD-NUCA vs S-NUCA at 1/128 and 1/512",
        )
    )
