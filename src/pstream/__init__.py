"""pstream: seed-reproducible simulator and analysis toolkit for attenuated-laser
Mach-Zehnder coincidence counting experiments.

The pipeline mirrors the bench: a Poisson-occupancy photon source feeds a
phase-scanned interferometer wave model, single-photon counting modules turn
detection slots into electrical pulse trains, an AND-gate coincidence counter
tallies overlapping pulses, and the analysis layer recovers the mean photon
number, fringe visibilities, the bunched-to-singles ratio, and the intensity
correlation in its ratio, rate, and phase-resolved forms.
"""

__version__ = "0.1.0"

from .analysis import (
    CorrelationReport,
    FringeSeries,
    averaged_g2,
    eta21,
    fringe_period,
    g2_rate,
    g2_ratio,
    poisson_gof,
    visibility,
)
from .coincidence import CcmConfig, coincide
from .config import (
    ExperimentConfig,
    OpticsConfig,
    ScanConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .detection import (
    DetectorConfig,
    PulseTrain,
    dead_time_filter,
    detect_bin,
    generate_dark_events,
    shape_pulses,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DomainError,
    NumericalError,
    PstreamError,
    TraceParseError,
)
from .interferometer import (
    OpticalState,
    PztConfig,
    envelope,
    pair_coincidence_probability,
    port_probability,
    pzt_phase,
    singles_fringe,
    voltage_to_displacement,
)
from .runner import (
    Fig4Curves,
    ScanPoint,
    ScanResult,
    analytic_fig4,
    build_report,
    export_fig4_csv,
    export_g2_csv,
    export_report_csv,
    export_scan_csv,
    read_scan_csv,
    run_scan,
    scan_series,
)
from .seeding import derive_seed, splitmix64
from .source import (
    PhotonBatch,
    SourceConfig,
    attenuated_power,
    mean_photon_number,
    pair_fraction,
    photon_flux,
    poisson_pmf,
    poisson_tail,
    sample_batch,
)
from .traces import (
    TraceFile,
    ingest_trace,
    read_trace_csv,
    read_trace_raw,
    synthesize_trace,
    write_trace_csv,
    write_trace_raw,
)
from . import heap

heap._keep_freed_heap()  # glibc's heap settings, once per process
