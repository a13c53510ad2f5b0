"""Analyzer-angle scan: from raw counts to a calibrated efficiency.

Simulates the conditional-rotation bench over a polarizer scan, fits the
modulation curve, and runs the full estimator chain: singles visibility,
coincidence-contrast correction, and the polarizer-loss correction.  The
closed-form bench predictions act as the cross-check.
"""

import numpy as np

from biphoton import (
    BenchConfig,
    DetectorParams,
    PockelsParams,
    Projector,
    apply_polarizer_correction,
    eta_conditional,
    fit_theta_curve,
    hv_counts,
    predict_coincidence_visibility,
    predict_singles_visibility,
    scan_theta,
    visibility,
)

ETA1_TRUE = 0.486     # efficiency of the detector driving the rotation
Q_APPARATUS = 0.832   # coincidence-visibility parameter of the rotation cell
EPSILON = 0.9842      # trigger polarizer transmittance

cfg = BenchConfig(
    pair_rate_hz=2.0e4,
    trigger_projector=Projector(90.0, transmittance=EPSILON),
    det1=DetectorParams(eta=ETA1_TRUE, dead_time_ns=40.0),
    det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
    pockels=PockelsParams(q=Q_APPARATUS),
)

angles = np.linspace(0.0, 180.0, 19)
points = scan_theta(cfg, angles, duration_s=5.0, seed=42)

print("theta_deg  singles  coincidences")
for p in points:
    print(f"{p.theta_deg:9.1f}  {p.singles:7d}  {p.coincidences:12d}")

fit = fit_theta_curve([(p.theta_deg, p.singles) for p in points])
print(f"\nleast-squares modulation m = {fit.modulation:.4f} +- {fit.u_modulation:.4f}")
print(f"predicted m = eta1 * epsilon * q = {predict_singles_visibility(cfg):.4f}")

counts = hv_counts(points)  # the scan's points at 0 deg (H) and 90 deg (V)
vis_s = visibility(counts.n_v, counts.n_h)
vis_c = visibility(counts.nc_v, counts.nc_h)
print(f"\nsingles visibility      = {vis_s:.4f}   (predicted {predict_singles_visibility(cfg):.4f})")
print(f"coincidence visibility  = {vis_c:.4f}   (predicted {predict_coincidence_visibility(cfg):.4f})")
print("the coincidence contrast isolates the rotation apparatus, so the")
print("ratio removes its imperfection:")

estimate = eta_conditional(counts)
print(f"\neta1 * epsilon = (singles contrast) / (coincidence contrast) = {estimate.value:.4f}")

# the raw estimate still contains the trigger polarizer transmittance
corrected = apply_polarizer_correction(estimate, epsilon=EPSILON)
print(f"after the polarizer-loss correction (epsilon = {EPSILON}): {corrected.value:.4f}")
print(f"true eta1 in the simulation: {ETA1_TRUE}")
