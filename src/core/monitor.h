// Runtime performance monitoring (paper Section II.G).
//
// Measurement points at every level of the FlexIO stack feed the metrics
// registry (util/metrics.h): data-movement timings, handshake costs,
// transferred volumes and per-step phase histograms. The data is used two
// ways, both reproduced. For offline tuning it is dumped with
// metrics::dump_json or the flight recorder (util/flight_recorder.h).
// Online, it is shipped to the analytics side: each StreamWriter keeps a
// small per-stream tally (StreamWriter::Stats) and sends it as a
// wire::MonitorReport at close, and cluster_phase_report below folds the
// directory's cross-rank view into the same report type.
#pragma once

#include <string>

#include "core/wire.h"
#include "evpath/directory.h"

namespace flexio {

/// Fold the directory's aggregated cluster view into one wire::MonitorReport
/// covering every rank of `program` (all programs when empty): per-phase
/// flexio.step.* histogram sums land in the phase_ns fields, and the
/// handshake / bytes counters in their scalar slots. This is the advisor's
/// cross-rank context -- a writer-side close report describes one rank,
/// while this report describes the whole deployment as seen through the
/// heartbeat-piggyback aggregation path.
wire::MonitorReport cluster_phase_report(const evpath::ClusterSnapshot& cluster,
                                         const std::string& program = "");

}  // namespace flexio
