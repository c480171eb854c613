"""Key-value stream workloads.

The paper evaluates on a CAIDA internet trace, a Yahoo cloud-flow trace
and a synthetic Zipf dataset.  The real traces are proprietary, so this
package generates synthetic equivalents that match the statistics the
detection task is sensitive to: key-frequency skew, the distinct-key to
stream-length ratio, and the fraction/placement of values above the
threshold (see DESIGN.md's substitution table).
"""

from repro.streams.model import Trace, threshold_for_fraction
from repro.streams.zipf import ZipfConfig, generate_zipf_trace
from repro.streams.caida_like import CaidaLikeConfig, generate_caida_like_trace
from repro.streams.cloud_like import CloudLikeConfig, generate_cloud_like_trace
from repro.streams.drift import DriftConfig, generate_drift_trace
from repro.streams.bursty import BurstyConfig, generate_bursty_trace

__all__ = [
    "Trace",
    "threshold_for_fraction",
    "ZipfConfig",
    "generate_zipf_trace",
    "CaidaLikeConfig",
    "generate_caida_like_trace",
    "CloudLikeConfig",
    "generate_cloud_like_trace",
    "DriftConfig",
    "generate_drift_trace",
    "BurstyConfig",
    "generate_bursty_trace",
]
