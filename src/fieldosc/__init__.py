"""fieldosc: a simulation and verification toolkit for the chain of
equivalences between a charge in a uniform electromagnetic field, a driven
harmonic oscillator, and a plain harmonic oscillator, classically
(canonical maps) and quantum mechanically (unitary grid maps), plus the
Hill/Floquet analysis of time-dependent fields.

Every closed form in the package is cross-checked against an independent
brute-force oracle in the test suite.
"""

from .core import (
    OscParams,
    block_propagate_path,
    block_propagator,
    cross_matrix,
    energy_form_6x6,
    rotation_about_z,
    symplectic_form,
)
from .classical import (
    CanonicalMap,
    Drive,
    EquivalenceReport,
    FlowBlowupError,
    MovingOrigin,
    StaticField,
    equivalence_report,
    eval_H1,
    eval_H2,
    eval_H3,
    moving_origin_map,
    rk4_hamiltonian_flow,
    rotating_frame_map,
    solve_driven,
    symplectic_defect,
)
from .quantum import (
    EigenLabel,
    ExpansionCoeffs,
    Grid,
    GridHamiltonian,
    GridSupportError,
    WaveFunction,
    energy_expectation,
    evolved_eigenstate,
    gaussian_wavepacket,
    hermite,
    hermite_shift_coefficients,
    oscillator_eigenfunction,
    oscillator_energy,
    product_eigenstate,
    rotated_product_coefficients,
    split_step_evolve,
    unitary_moving_origin,
    unitary_rotation,
)
from .tdfields import (
    FixedAxisField,
    HillSystem,
    MonodromyReport,
    RotatingField,
    VectorHillSystem,
    accumulated_rotation,
    coriolis_elimination,
    corotating_reduction,
    hill_monodromy,
    mathieu_hill,
    stability_map,
)

__version__ = "0.1.0"
