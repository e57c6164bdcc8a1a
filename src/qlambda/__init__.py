"""Few-level effective couplings, scattering amplitudes, and momentum-sum
convergence diagnostics."""

from .amplitudes import (
    AmplitudeResult,
    BoostScanTable,
    CouplingFactor,
    DiagramAmplitude,
    boost_scan,
    compton_pair_A,
    compton_pair_B,
    compton_total,
    coupling_factor,
    moller_total,
)
from .dirac import (
    BiSpinor,
    PolarizationVector,
    boost_spinor,
    gamma_set,
    polarization_pair,
    slash,
    spin_block,
    spin_sum,
    u_spinor,
    ubar,
    vertex_bilinear,
)
from .dynamics import (
    EffectiveHamiltonian,
    LevelSystem,
    Trajectory,
    base_period,
    effective_coupling,
    eliminate_pair_level,
    evolve,
    interaction_frame,
    magnus_second_order,
    two_level_transfer,
)
from .lorentz import (
    NATURAL,
    Boost,
    Constants,
    FourVector,
    boost,
    boost_matrix,
    cm_boost,
    compton_cm_kinematics,
    compton_kinematics,
    eta,
    invariant_mass,
    load_constants,
    minkowski_dot,
    moller_kinematics,
    on_shell_energy,
)
from .vacuum import (
    ConvergenceReport,
    CorrectedAmplitude,
    GridSpec,
    PairShiftSample,
    cm_correction_factor,
    corrected_amplitude,
    corrected_pair_coupling,
    correction_factor,
    outgoing_eta,
    pair_coupling,
    pair_shift_sample,
    shift_density,
    total_shift,
)

__version__ = "0.1.0"
