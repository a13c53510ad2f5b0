"""Direct two-detector calibration with dead-time and stop-delay corrections.

Every emitted pair puts one photon on the device under test and one on the
heralding arm; the coincidence-to-herald ratio is the absolute efficiency
of the device, no standard required.  At high count rates the raw ratio
sits low because the device's dead time eats a fraction of the
coincidences; the correction factors gamma = 1 - N_s tau and
alpha = 1 - N_s T restore it.  The run sweeps the pump power (pair rate)
to show the corrected value holding still while the raw ratio droops.
"""

import math

from biphoton import (
    BenchConfig,
    DetectorParams,
    TacParams,
    eta_klyshko,
    klyshko_counts,
    run_klyshko_experiment,
    subseed,
)

TRUE_ETA = 0.48

print("pair_rate    N_s/s     N_i/s    N_c/s      raw     corrected")
for i, pair_rate in enumerate((0.5e5, 1.0e5, 2.0e5, 2.7e5)):
    cfg = BenchConfig(
        pair_rate_hz=pair_rate,
        det1=DetectorParams(eta=TRUE_ETA, dead_time_ns=40.0),  # device under test
        det2=DetectorParams(eta=0.40, dead_time_ns=0.0),       # heralding arm
        tac=TacParams(window_ns=2.0, stop_delay_ns=9.3),
    )
    res = run_klyshko_experiment(cfg, duration_s=10.0, seed=subseed(2026, i))
    counts = klyshko_counts(res)  # rates, with tau = 40 ns of det1 and T = 9.3 ns of the TAC
    raw = counts.n_coincidence / counts.n_idler
    corrected = eta_klyshko(counts).value
    print(
        f"{pair_rate:9.0f}  {counts.n_signal:8.0f}  {counts.n_idler:8.0f}"
        f"  {counts.n_coincidence:7.0f}  {raw:.4f}   {corrected:.4f}"
    )

sigma = math.sqrt(TRUE_ETA * (1 - TRUE_ETA) / res.singles_analyzer)
print(f"\ntrue efficiency: {TRUE_ETA} (statistical sigma at the last point: {sigma:.4f})")
print("the raw ratio loses ~N_s * tau to dead time as the rate grows; the")
print("corrected estimator stays on the true value across the power sweep.")
