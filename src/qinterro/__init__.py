"""Simulation and analysis toolkit for post-selected polarization
interferometry and quantum interrogation of partial absorbers."""

from .analysis import (
    NonunitaryVisibilityResult,
    VisibilityResult,
    estimate_mu,
    estimate_mu_two_arm,
    fit_epsilon_iprob,
    fit_epsilon_visibility,
    fit_fringe,
    nonunitary_expectation_visibility,
    visibility_from_extrema,
    visibility_no_absorber,
    visibility_one_arm,
    visibility_two_arm,
    weak_value,
    weak_value_detection_identity,
    weak_value_visibility,
)
from .bench import (
    NO_ABSORBER,
    AbsorberSpec,
    BenchConfig,
    NoAbsorber,
    OneArmAbsorber,
    TwoArmAbsorber,
    detection_prob,
    detection_prob_washed,
    detection_probs,
    evolve_bench,
    i_prob,
    two_arm_detection,
)
from .calibration import CalibrationTable, load_calibration, mu_at
from .exceptions import (
    CalibrationParseError,
    DomainError,
    InfeasibleError,
    InternalConsistencyError,
    QInterroError,
    UndefinedVisibilityError,
)
from .jones import (
    DensityMatrix,
    Operator,
    absorber,
    apply_operator,
    half_wave_plate,
    initial_state,
    polar_decompose,
    polarizer,
    relative_phase,
    two_arm_absorber,
)
from .noise import (
    augment_with_reflection,
    detection_with_reflectivity,
    dmax_with_jitter,
    i_prob_jitter,
    i_prob_reflectivity,
)
from .schemes import (
    METRIC_FOOTNOTE,
    SchemeComparison,
    SchemeEfficiency,
    compare_schemes,
    eta_ev_bound,
    eta_npass,
    eta_zeno,
)
from .sources import (
    CoherentSource,
    FringeScan,
    HeraldedSource,
    simulate_fringe_scan,
    simulate_interrogation_prob,
)

__version__ = "0.1.0"
