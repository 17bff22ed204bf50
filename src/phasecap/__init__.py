"""Capacity bounds and QAM information rates for MIMO links impaired by
Wiener phase noise under a peak-power constraint."""

from .bounds import (
    asymptotic_capacity,
    avg_peak_gap,
    d_alpha,
    memoryless_plus_correction,
    upper_bound_U,
    upper_bound_Us,
)
from .channel import (
    ChannelParams,
    Constellation,
    constellation_by_name,
    load_channel_matrix,
    los_antenna_spacing,
    psk_constellation,
    qam_constellation,
    simulate,
    singular_value_bounds,
    wavelength_from_ghz,
)
from .entropy import (
    BoundRecord,
    entropy_abs_sq,
    entropy_delta_plus_phase,
    expect_log_noncentral,
)
from .inforate import qam_rate
from .mathcore import (
    Quadrature,
    wrapped_gaussian_entropy,
    wrapped_gaussian_pdf,
)

__version__ = "0.1.0"
