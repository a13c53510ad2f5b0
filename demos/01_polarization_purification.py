"""Heralded purification of a polarization-mixed photon.

The source emits pairs in an equal H/V mixture, so either photon alone is
completely unpolarized.  Selecting V on the trigger arm and rotating the
partner by 90 degrees whenever the trigger detector fires turns the idler
ensemble into a partially polarized state whose degree of polarization
equals the trigger detector's quantum efficiency - the effect behind the
conditional calibration scheme.
"""

import numpy as np

from biphoton import (
    Projector,
    apply_channel,
    bloch_vector,
    conditional_state,
    degree_of_polarization,
    heralded_idler_state,
    make_state,
    rotator,
    von_neumann_entropy,
)

source = make_state("mixed_hv", 1.0)
print("pair state (HV basis):")
print(np.round(source.matrix.real, 3))

prob, idler = conditional_state(source, Projector(90.0))
print(f"\ntrigger photon passes a V polarizer with probability {prob:.2f};")
print("the heralded partner is then purely H:")
print(np.round(idler.matrix.real, 3))

rotated = apply_channel(idler, rotator(90.0))
print("\nafter the conditional 90-degree rotation it is purely V:")
print(np.round(rotated.matrix.real, 3))

print("\nwith a trigger detector of efficiency eta1, only that fraction of")
print("partners is rotated; the idler ensemble interpolates between mixed")
print("and pure.  Degree of polarization P and entropy S versus eta1:\n")
print("eta1    P       S      s1")
for eta1 in np.linspace(0.0, 1.0, 11):
    state = heralded_idler_state(eta1)
    print(
        f"{eta1:4.2f}  {degree_of_polarization(state):5.3f}  "
        f"{von_neumann_entropy(state):6.4f}  {bloch_vector(state)[0]:+5.2f}"
    )

print("\nP rises linearly as eta1 while S falls from 1 to 0: reading off P")
print("(or the singles visibility, which equals it) calibrates the trigger")
print("detector absolutely, with no reference standard in the chain.")
