"""Link-level simulation and reflection optimization for surface-assisted
space shift keying, with matching closed-form error analysis."""

from .analysis import (
    AbepQuery,
    GaussianApproxParams,
    abep_pb_two_tx,
    abep_ris,
    abep_ris_asymptotic,
    abep_source,
    abep_source_asymptotic,
    pep_astbc,
    q_chiani,
    q_exact,
)
from .astbc_link import (
    combine,
    detect_fast,
    detect_ml,
    sub_surface_sums,
)
from .beamform import (
    ReflectionVector,
    brute_force_beamform,
    low_complexity_beamform,
    min_pairwise_distance,
    optimal_two_tx,
    sdr_beamform,
)
from .channel import (
    ChannelRealization,
    NoiseModel,
    StreamBank,
    cascaded_gains,
    sample_awgn,
    sample_channel,
    substream,
)
from .harness import (
    BerRecord,
    SimConfig,
    estimate_diversity_slope,
    run_ber_sweep,
    validate_suite,
    write_csv,
    write_json,
)
from .pb_link import detect_pb_ml, label_bit_errors, transmit_pb

__version__ = "0.1.0"
