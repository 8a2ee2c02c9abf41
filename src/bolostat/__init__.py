"""bolostat: bolometric microwave photon statistics on synthetic data.

Forward models of a thermometer resonance whose center frequency is
Gaussian-distributed by the photon statistics of the absorbed field,
staged nonlinear fitting of the resulting reflection traces, the photon
moment formulas connecting the fitted (mu, v = sigma^2) to <n>,
(Delta n)^2 and g2(0), and a synthetic digitizer chain.
"""

from .specfun import DomainError, RangeOverflowError, erfcx, faddeeva_w
from .response import PARAM_NAMES, averaged_reflection_gh, averaged_reflection_mc
from .photonstats import (
    InsufficientDataError,
    UndefinedStatisticError,
    beamsplitter_combine,
    broadening_to_variance,
    coherent_variance,
    flux_to_power,
    g2_zero,
    mixed_moments,
    mixed_moments_mc,
    planck_mean_photon,
    resolution_metrics,
    thermal_variance,
)
from .fitkit import (
    FROZEN_PARAM_NAMES,
    MEASUREMENT_PARAM_NAMES,
    CalibrationResult,
    ComplexSweep,
    DegenerateCircleError,
    FitError,
    FitResult,
    RankDeficiencyError,
    circle_fit,
    fit_base_calibration,
    fit_measurements,
    least_squares,
)
from .dspchain import (
    DEFAULT_FIR,
    FirSpec,
    IqStream,
    RawTrace,
    average_traces,
    decimate,
    digital_downconvert,
    fir_lowpass,
    synth_raw_trace,
)
from .pipeline import (
    ConfigError,
    StatsRecord,
    SweepConfig,
    SweepDataset,
    extract_statistics,
    run_calibration,
    simulate_sweep,
)

__version__ = "0.1.0"
